//! Cross-commit goldens for the two event-loop entry points. The
//! determinism suites compare a run with a rerun of the *same* binary;
//! these pin a 64-bit FNV-1a digest of each scenario's whole outcome
//! (`Debug` rendering: timeline, completions, drops, window
//! trajectory, per-lane wear, merged answers) and of its
//! `perfetto_json` + `jsonl` trace exports, so a refactor of the loops
//! is checked against the commit *before* it. A digest may only change
//! together with a deliberate, explained model change.

use bbpim::cluster::{ClusterEngine, Partitioner};
use bbpim::db::builder::col;
use bbpim::db::plan::Query;
use bbpim::db::ssb::{queries, SsbDb, SsbParams};
use bbpim::db::Relation;
use bbpim::engine::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::join::StarCluster;
use bbpim::sched::{run_stream_traced, AdmissionPolicy, SchedConfig, StreamEngine, Workload};
use bbpim::serve::{
    run_serve_traced, AimdConfig, ArrivalProcess, RateLimit, ServeConfig, SloSpec, TenantSpec,
    WindowPolicy, WriteMix,
};
use bbpim::sim::SimConfig;
use bbpim::trace::export::{jsonl, perfetto_json};
use bbpim::trace::TraceRecorder;

const SHARDS: usize = 4;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `[outcome, perfetto, jsonl]` digests of one traced run.
fn digests(outcome: &impl std::fmt::Debug, trace: &TraceRecorder) -> [u64; 3] {
    assert!(!trace.is_empty(), "the scenario must record a trace");
    [
        fnv1a(format!("{outcome:?}").as_bytes()),
        fnv1a(perfetto_json(trace).as_bytes()),
        fnv1a(jsonl(trace).as_bytes()),
    ]
}

fn ssb() -> SsbDb {
    SsbDb::generate(&SsbParams::tiny_for_tests())
}

fn wide_cluster(wide: &Relation) -> ClusterEngine {
    let (_, model) = run_calibration(
        &SimConfig::default(),
        EngineMode::OneXb,
        &CalibrationConfig::tiny_for_tests(),
    )
    .expect("calibration");
    let mut c = ClusterEngine::new(
        SimConfig::default(),
        wide.clone(),
        EngineMode::OneXb,
        SHARDS,
        Partitioner::range_by_attr("d_year"),
    )
    .expect("cluster construction");
    c.set_model(model);
    c
}

fn star_cluster(db: &SsbDb) -> StarCluster {
    StarCluster::new(
        SimConfig::small_for_tests(),
        db,
        EngineMode::OneXb,
        SHARDS,
        Partitioner::RoundRobin,
    )
    .expect("star cluster construction")
}

fn probe_queries() -> Vec<Query> {
    ["Q1.1", "Q2.1", "Q3.1", "Q4.1"]
        .iter()
        .map(|id| queries::standard_query(id).expect("standard query"))
        .collect()
}

/// A point UPDATE, a DNF UPDATE and an INSERT on the wide relation.
fn wide_mutations(wide: &Relation) -> Vec<Mutation> {
    vec![
        Mutation::update()
            .filter(col("d_year").eq(1993u64))
            .set("lo_discount", 2u64)
            .build(wide.schema())
            .expect("point update"),
        Mutation::update()
            .filter(col("d_year").eq(1994u64).or(col("d_year").eq(1995u64)))
            .set("lo_quantity", 10u64)
            .build(wide.schema())
            .expect("DNF update"),
        Mutation::insert().row(wide.row(0)).build(wide.schema()).expect("insert"),
    ]
}

/// A fact UPDATE, a dimension UPDATE (its write chain runs on an
/// auxiliary `ingest-lane-<d>`) and a two-row fact INSERT.
fn star_mutations(db: &SsbDb) -> Vec<Mutation> {
    let lo = &db.lineorder;
    vec![
        Mutation::update()
            .filter(col("lo_discount").eq(3u64))
            .set("lo_discount", 4u64)
            .build(lo.schema())
            .expect("fact update"),
        Mutation::update()
            .filter(col("d_year").eq(1994u64))
            .set("d_year", 1993u64)
            .build_unchecked(),
        Mutation::insert().row(lo.row(0)).row(lo.row(1)).build(lo.schema()).expect("fact insert"),
    ]
}

/// One HTAP stream under `policy`: a tight in-flight bound so SCSF can
/// reorder, and a one-deep ingest buffer so the head of the ingest
/// queue stalls.
fn stream_digests<E: StreamEngine>(
    cluster: &mut E,
    mutations: Vec<Mutation>,
    policy: AdmissionPolicy,
) -> [u64; 3] {
    let workload = Workload::poisson_htap(probe_queries(), mutations, 48, 0.4, 20_000.0, 0x60_1DE4);
    assert!(workload.has_mutations());
    let cfg = SchedConfig { max_in_flight: 3, policy, ingest_buffer: 1 };
    let mut trace = TraceRecorder::enabled();
    let out = run_stream_traced(cluster, &workload, &cfg, &mut trace).expect("stream");
    assert!(!out.mutation_completions.is_empty());
    digests(&out, &trace)
}

/// An open, a rate-limited deadline-bound burst, a closed-loop and a
/// write-mixing tenant under the AIMD window.
fn tenants(writes: Vec<Mutation>) -> Vec<TenantSpec> {
    let q = queries::standard_queries();
    vec![
        TenantSpec {
            name: "probes".into(),
            queries: vec![q[2].clone(), q[9].clone()],
            process: ArrivalProcess::OpenPoisson { arrivals: 12, mean_interarrival_ns: 120_000.0 },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 0.15e6, deadline_ns: None },
            weight: 2.0,
        },
        TenantSpec {
            name: "burst".into(),
            queries: vec![q[0].clone(), q[6].clone()],
            process: ArrivalProcess::Burst { arrivals: 8, at_ns: 400_000.0 },
            writes: None,
            rate_limit: Some(RateLimit { rate_per_s: 5_000.0, burst: 2.0 }),
            slo: SloSpec { p95_target_ns: 80.0e6, deadline_ns: Some(0.6e6) },
            weight: 1.0,
        },
        TenantSpec {
            name: "clients".into(),
            queries: vec![q[4].clone()],
            process: ArrivalProcess::Closed {
                clients: 2,
                queries_per_client: 3,
                mean_think_ns: 100_000.0,
            },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 50.0e6, deadline_ns: None },
            weight: 1.0,
        },
        TenantSpec {
            name: "ingest".into(),
            queries: vec![q[1].clone()],
            process: ArrivalProcess::OpenPoisson { arrivals: 10, mean_interarrival_ns: 150_000.0 },
            writes: Some(WriteMix { mutations: writes, write_frac: 0.5 }),
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 50.0e6, deadline_ns: None },
            weight: 1.0,
        },
    ]
}

fn serve_digests<E: StreamEngine>(cluster: &mut E, writes: Vec<Mutation>) -> [u64; 3] {
    let cfg = ServeConfig {
        seed: 0x5E_47E5,
        window: WindowPolicy::Aimd(AimdConfig { sample_window: 4, ..AimdConfig::default() }),
    };
    let mut trace = TraceRecorder::enabled();
    let out = run_serve_traced(cluster, &tenants(writes), &cfg, &mut trace).expect("serve");
    assert!(!out.write_completions.is_empty(), "the write mix must land writes");
    assert!(!out.drops.is_empty(), "the deadline must shed");
    assert!(out.throttled.iter().sum::<usize>() > 0, "the token bucket must throttle");
    assert!(!out.decisions.is_empty(), "the AIMD window must decide");
    digests(&out, &trace)
}

/// Compare every scenario at once, so one failing run lists all the
/// digests that moved.
fn assert_pinned(got: &[(String, [u64; 3])], want: &[[u64; 3]]) {
    let rendered: Vec<String> = got.iter().map(|(n, d)| format!("{d:#018x?} // {n}")).collect();
    let got: Vec<[u64; 3]> = got.iter().map(|(_, d)| *d).collect();
    assert_eq!(got, want, "[outcome, perfetto, jsonl] digests moved:\n{}", rendered.join("\n"));
}

#[test]
fn run_stream_matches_the_pinned_digests() {
    let db = ssb();
    let wide = db.prejoin();
    let mut got = Vec::new();
    for policy in AdmissionPolicy::all() {
        let d = stream_digests(&mut wide_cluster(&wide), wide_mutations(&wide), policy);
        got.push((format!("ClusterEngine, {}", policy.label()), d));
        let d = stream_digests(&mut star_cluster(&db), star_mutations(&db), policy);
        got.push((format!("StarCluster, {}", policy.label()), d));
    }
    assert_pinned(
        &got,
        &[
            [0x547a_a577_3040_d7ab, 0xbf81_390d_3119_5d85, 0x325d_2b5c_2306_3767],
            [0xf555_a2b7_babf_619e, 0x78f6_e21e_9187_9d9a, 0x0814_d582_a7f4_37b7],
            [0x4215_09b7_4882_1acf, 0x0f3e_5fe8_6a64_8a9a, 0x5fef_018a_817a_bcbe],
            [0x028f_0dd1_be3d_67cd, 0x78f6_e21e_9187_9d9a, 0x0814_d582_a7f4_37b7],
        ],
    );
}

#[test]
fn run_serve_matches_the_pinned_digests() {
    let db = ssb();
    let wide = db.prejoin();
    let got = [
        (
            "ClusterEngine".to_string(),
            serve_digests(&mut wide_cluster(&wide), wide_mutations(&wide)),
        ),
        ("StarCluster".to_string(), serve_digests(&mut star_cluster(&db), star_mutations(&db))),
    ];
    assert_pinned(
        &got,
        &[
            [0x0f89_b3dc_5663_6b3d, 0xc55a_b969_4983_35b8, 0x25d3_e5a3_23b1_71a5],
            [0x42db_f95b_4761_a6eb, 0xdc5e_7127_9d0b_9c95, 0x1bfd_cc7b_5234_28c3],
        ],
    );
}
