//! Trace determinism, plus the no-observer guarantee: with a fixed seed
//! and config the Perfetto and JSONL exports are byte-identical across
//! two runs — for both storage models (pre-joined `ClusterEngine` and
//! normalized `StarCluster`) and with the host-channel contention model
//! on and off — and enabling tracing changes no answer, no timeline and
//! no simulated total. The recorded shape is also checked structurally:
//! host-bus spans are serialised (single shared channel) while module
//! spans overlap (independent modules).

mod common;

use bbpim::cluster::{Cluster, Storage};
use bbpim::db::ssb::queries;
use bbpim::sched::{run_stream_traced, SchedConfig, StreamEngine, StreamOutcome, Workload};
use bbpim::trace::export::{jsonl, perfetto_json};
use bbpim::trace::{EventShape, TraceRecorder};
use common::{prejoined_cluster, ssb, ssb_wide, star_cluster};

const SHARDS: usize = 4;

/// `c` with the host-channel contention model switched `on` or off.
fn contended<S: Storage>(mut c: Cluster<S>, on: bool) -> Cluster<S> {
    c.set_contention(on);
    c
}

fn workload() -> Workload {
    Workload::poisson(queries::standard_queries(), 20, 120_000.0, 0xB1_7B17)
}

fn traced<E: StreamEngine>(cluster: &mut E, enabled: bool) -> (StreamOutcome, TraceRecorder) {
    let mut trace = if enabled { TraceRecorder::enabled() } else { TraceRecorder::disabled() };
    let out = run_stream_traced(cluster, &workload(), &SchedConfig::default(), &mut trace)
        .expect("stream");
    (out, trace)
}

/// Two identical runs export identical bytes; a third untraced run
/// proves the recorder never perturbs the simulation.
fn assert_deterministic<E: StreamEngine, F: FnMut() -> E>(mut mk: F, tag: &str) {
    let (out_a, tr_a) = traced(&mut mk(), true);
    let (_, tr_b) = traced(&mut mk(), true);
    assert!(!tr_a.is_empty(), "{tag}: the trace captured events");
    assert_eq!(perfetto_json(&tr_a), perfetto_json(&tr_b), "{tag}: Perfetto bytes");
    assert_eq!(jsonl(&tr_a), jsonl(&tr_b), "{tag}: JSONL bytes");

    let (untraced, empty) = traced(&mut mk(), false);
    assert!(empty.is_empty(), "{tag}: a disabled recorder stays empty");
    assert_eq!(untraced.timeline, out_a.timeline, "{tag}: tracing must not move the timeline");
    assert_eq!(untraced.completions, out_a.completions, "{tag}: completions unchanged");
    assert_eq!(untraced.makespan_ns, out_a.makespan_ns, "{tag}: makespan unchanged");
    assert_eq!(untraced.host_busy_ns, out_a.host_busy_ns, "{tag}: host accounting unchanged");
    for (u, t) in untraced.executions.iter().zip(&out_a.executions) {
        assert_eq!(u.groups, t.groups, "{tag}: answers unchanged under tracing");
        assert_eq!(u.report, t.report, "{tag}: reports unchanged under tracing");
    }
}

#[test]
fn exports_are_bit_identical_on_the_prejoined_cluster() {
    let wide = ssb_wide();
    for contention in [true, false] {
        assert_deterministic(
            || contended(prejoined_cluster(&wide, SHARDS), contention),
            &format!("prejoined, contention={contention}"),
        );
    }
}

#[test]
fn exports_are_bit_identical_on_the_star_cluster() {
    let db = ssb();
    for contention in [true, false] {
        assert_deterministic(
            || contended(star_cluster(&db, SHARDS), contention),
            &format!("star, contention={contention}"),
        );
    }
}

#[test]
fn host_bus_spans_serialise_while_module_spans_overlap() {
    let wide = ssb_wide();
    let (_, trace) = traced(&mut contended(prejoined_cluster(&wide, SHARDS), true), true);

    let track_id = |name: &str| {
        trace.tracks().iter().position(|t| t == name).unwrap_or_else(|| panic!("track {name}"))
    };
    let spans_on = |track: usize| -> Vec<(f64, f64)> {
        trace
            .events()
            .iter()
            .filter(|e| e.track == track)
            .filter_map(|e| match e.shape {
                EventShape::Span { dur_ns } if dur_ns > 0.0 => Some((e.ts_ns, e.ts_ns + dur_ns)),
                _ => None,
            })
            .collect()
    };

    // The shared channel serves one grant at a time: consecutive spans
    // on the host-bus track never overlap.
    let bus = spans_on(track_id("host-bus"));
    assert!(bus.len() > 1, "the run exercised the host bus");
    for w in bus.windows(2) {
        assert!(
            w[1].0 >= w[0].1 - 1e-6,
            "host-bus spans must serialise: [{}, {}] then [{}, {}]",
            w[0].0,
            w[0].1,
            w[1].0,
            w[1].1
        );
    }

    // Modules are independent: some pair of spans on *different*
    // module tracks runs concurrently.
    let modules: Vec<Vec<(f64, f64)>> =
        (0..SHARDS).map(|m| spans_on(track_id(&format!("module-{m}")))).collect();
    let overlapping = modules.iter().enumerate().any(|(i, a)| {
        modules
            .iter()
            .skip(i + 1)
            .any(|b| a.iter().any(|&(s0, e0)| b.iter().any(|&(s1, e1)| s0 < e1 && s1 < e0)))
    });
    assert!(overlapping, "module tracks must overlap somewhere in a 4-shard streamed run");
}
