//! Streaming scheduler equivalence and determinism: streamed answers
//! must be bit-identical to `run_batch` (and the row-at-a-time oracle)
//! for every shard count and admission policy; the event timeline must
//! be a pure function of the seed; and zone-map pruning must let short
//! queries overtake long ones under load.

mod common;

use bbpim::db::plan::{AggExpr, AggFunc, Atom, Query};
use bbpim::db::ssb::queries;
use bbpim::db::stats;
use bbpim::sched::{run_stream, AdmissionPolicy, SchedConfig, Workload};
use common::{prejoined_cluster, ssb_wide};

const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

#[test]
fn streamed_equals_batch_equals_oracle_all_shard_counts_and_policies() {
    let wide = ssb_wide();
    let workload = Workload::poisson(queries::standard_queries(), 20, 200_000.0, 0xB1_7B17);
    let oracles: Vec<_> = workload
        .arrived_queries()
        .iter()
        .map(|q| stats::run_oracle(q, &wide).expect("oracle"))
        .collect();
    for shards in SHARD_COUNTS {
        let mut c = prejoined_cluster(&wide, shards);
        let batch = c.run_batch(&workload.arrived_queries()).expect("batch");
        for policy in AdmissionPolicy::all() {
            let out = run_stream(
                &mut c,
                &workload,
                &SchedConfig { max_in_flight: 3, policy, ..SchedConfig::default() },
            )
            .unwrap_or_else(|e| panic!("{shards} shards {}: {e}", policy.label()));
            assert_eq!(out.completions.len(), workload.len());
            assert_eq!(out.executions.len(), workload.len());
            for ((streamed, batched), oracle) in
                out.executions.iter().zip(&batch.executions).zip(&oracles)
            {
                let id = &streamed.report.query_id;
                assert_eq!(
                    streamed.groups,
                    batched.groups,
                    "streamed/batch mismatch on {id} at {shards} shards, {}",
                    policy.label()
                );
                assert_eq!(&streamed.groups, oracle, "streamed/oracle mismatch on {id}");
                assert_eq!(streamed.report, batched.report, "report mismatch on {id}");
            }
        }
    }
}

#[test]
fn same_seed_reproduces_timeline_and_latencies_exactly() {
    let wide = ssb_wide();
    let workload = Workload::poisson(queries::standard_queries(), 26, 100_000.0, 42);
    for policy in AdmissionPolicy::all() {
        let run = || {
            let mut c = prejoined_cluster(&wide, 4);
            run_stream(
                &mut c,
                &workload,
                &SchedConfig { max_in_flight: 2, policy, ..SchedConfig::default() },
            )
            .expect("stream")
        };
        let a = run();
        let b = run();
        assert_eq!(a.timeline, b.timeline, "{} timeline must replay exactly", policy.label());
        assert_eq!(a.completions, b.completions, "{}", policy.label());
        assert_eq!(a.makespan_ns, b.makespan_ns, "{}", policy.label());
        assert_eq!(a.host_busy_ns, b.host_busy_ns, "{}", policy.label());
        assert_eq!(a.shard_busy_ns, b.shard_busy_ns, "{}", policy.label());
    }
    // A different seed must produce a different trace (and timeline).
    let other = Workload::poisson(queries::standard_queries(), 26, 100_000.0, 43);
    assert_ne!(workload, other);
}

#[test]
fn pruned_short_query_overtakes_long_one_under_load() {
    let wide = ssb_wide();
    let mut c = prejoined_cluster(&wide, 8);
    // The long query materialises a product expression over years
    // 1992–1997 — every shard except the 1998 one, with several times
    // the probe's per-shard PIM work. The 1998 probe's candidate set is
    // disjoint, so after its turn on the shared dispatch bus it runs on
    // an idle module and finishes first even though it arrived later.
    let q_long = Query::single(
        "long",
        vec![Atom::Between { attr: "d_year".into(), lo: 1992u64.into(), hi: 1997u64.into() }],
        vec![],
        AggFunc::Sum,
        AggExpr::Mul("lo_extendedprice".into(), "lo_discount".into()),
    );
    let q_short = Query::single(
        "y1998",
        vec![Atom::Eq { attr: "d_year".into(), value: 1998u64.into() }],
        vec![],
        AggFunc::Sum,
        AggExpr::Attr("lo_quantity".into()),
    );
    let workload = Workload::new(
        vec![q_long, q_short],
        vec![
            bbpim::sched::Arrival { at_ns: 0.0, query: 0 },
            bbpim::sched::Arrival { at_ns: 1.0, query: 1 },
        ],
    )
    .expect("workload");
    let out = run_stream(&mut c, &workload, &SchedConfig::default()).expect("stream");
    assert_eq!(out.completions[0].arrival, 1, "the 1998 probe must complete before Q3.1");
    assert_eq!(out.overtaken(), 1);
    assert!(out.completions[0].shards_pruned > 0, "the overtake comes from pruning");
    // answers unchanged
    for (exec, q) in out.executions.iter().zip(&workload.arrived_queries()) {
        assert_eq!(exec.report.query_id, q.id);
        assert_eq!(exec.groups, stats::run_oracle(q, &wide).expect("oracle"), "{}", q.id);
    }
}

#[test]
fn admission_policies_change_order_not_answers() {
    let wide = ssb_wide();
    let workload = Workload::poisson(queries::standard_queries(), 16, 50_000.0, 7);
    let run = |policy| {
        let mut c = prejoined_cluster(&wide, 4);
        run_stream(
            &mut c,
            &workload,
            &SchedConfig { max_in_flight: 1, policy, ..SchedConfig::default() },
        )
        .expect("stream")
    };
    let fifo = run(AdmissionPolicy::Fifo);
    let scsf = run(AdmissionPolicy::ShortestCandidateFirst);
    for (a, b) in fifo.executions.iter().zip(&scsf.executions) {
        assert_eq!(a.groups, b.groups, "{}", a.report.query_id);
    }
    // both drain the same total work through the host bus
    assert!((fifo.host_busy_ns - scsf.host_busy_ns).abs() < 1e-6);
    let completed = |o: &bbpim::sched::StreamOutcome| o.completions.len();
    assert_eq!(completed(&fifo), completed(&scsf));
}
