//! The one host-channel model: every host↔module transfer rides the
//! shared bus, and the bus moves *time* — never answers.
//!
//! Two halves:
//!
//! 1. **Answers ride the bus unchanged** — streamed and batch answers
//!    are bit-identical to the monet oracle over shards {1, 4, 8} ×
//!    both physical layouts (one-xb / two-xb), and every streamed
//!    report equals its batch twin.
//! 2. **The bus actually bites** — on a bandwidth-starved host channel
//!    at 2× overload, the two-crossbar layout (one dimension mask
//!    transfer per disjunct, the bandwidth-heavy case) keeps the host
//!    bus ≥ 90 % utilised, with more than twice the occupancy that
//!    dispatch and merges alone would put on it — the journal
//!    extension's point that the off-chip interface, not the crossbars,
//!    bounds throughput.

mod common;

use bbpim::cluster::{ClusterEngine, Partitioner};
use bbpim::db::builder::col;
use bbpim::db::plan::{AggExpr, Query, SelectItem};
use bbpim::db::ssb::queries;
use bbpim::db::Relation;
use bbpim::engine::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim::engine::modes::EngineMode;
use bbpim::monet::MonetEngine;
use bbpim::sched::{run_stream, SchedConfig, Workload};
use bbpim::sim::SimConfig;
use common::ssb_wide;

const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// A representative query subset: Q1.x (no GROUP BY, expression
/// aggregates), a GROUP BY from each flight, and a disjunctive
/// 3-aggregate reporting query — enough to exercise mask transfers,
/// result reads, host-gb fetches and pim-gb subgroup transfers in both
/// layouts without running all 13 queries per configuration.
fn query_set() -> Vec<Query> {
    let keep = ["Q1.1", "Q1.2", "Q2.1", "Q3.1", "Q4.1"];
    let mut qs: Vec<Query> =
        queries::standard_queries().into_iter().filter(|q| keep.contains(&q.id.as_str())).collect();
    qs.push(queries::combined_query("Q1.hol").expect("combined query set has Q1.hol"));
    assert_eq!(qs.len(), 6);
    qs
}

fn cluster(cfg: &SimConfig, wide: &Relation, mode: EngineMode, shards: usize) -> ClusterEngine {
    let mut c = ClusterEngine::new(
        cfg.clone(),
        wide.clone(),
        mode,
        shards,
        Partitioner::range_by_attr("d_year"),
    )
    .expect("cluster construction");
    let (_, model) =
        run_calibration(cfg, mode, &CalibrationConfig::tiny_for_tests()).expect("calibration");
    c.set_model(model);
    c
}

#[test]
fn streamed_and_batch_match_monet_oracle() {
    let wide = ssb_wide();
    let qs = query_set();
    let monet = MonetEngine::prejoined(&wide, 4);
    let oracles: Vec<_> = qs.iter().map(|q| monet.run(q).expect("monet oracle").groups).collect();
    let workload = Workload::burst(qs.clone());
    let sim_cfg = SimConfig::default();

    for shards in SHARD_COUNTS {
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let mut c = cluster(&sim_cfg, &wide, mode, shards);
            let batch = c.run_batch(&qs).expect("batch");
            let streamed = run_stream(&mut c, &workload, &SchedConfig::default())
                .unwrap_or_else(|e| panic!("{shards} shards {mode:?}: {e}"));
            assert_eq!(streamed.executions.len(), qs.len());
            for ((exec, batched), oracle) in
                streamed.executions.iter().zip(&batch.executions).zip(&oracles)
            {
                let tag = format!("{} at {shards} shards, {mode:?}", exec.report.query_id);
                assert_eq!(&exec.groups, oracle, "streamed/monet mismatch on {tag}");
                assert_eq!(exec.groups, batched.groups, "streamed/batch mismatch on {tag}");
                assert_eq!(exec.report, batched.report, "report mismatch on {tag}");
            }
        }
    }
}

/// Disjunctive Q1-style queries on the range-split attribute: in the
/// two-crossbar layout every disjunct's `d_year` atom is
/// dimension-side, so each pays a mask read + write through the host —
/// the bandwidth-heavy shape the shared-bus model exists for.
fn disjunctive_queries(schema: &bbpim::db::schema::Schema) -> Vec<Query> {
    let probe = |id: &str, y1: u64, y2: u64| {
        Query::select([SelectItem::sum("revenue", AggExpr::mul("lo_extendedprice", "lo_discount"))])
            .id(id)
            .filter(
                col("d_year")
                    .eq(y1)
                    .and(col("lo_discount").between(1u64, 5u64))
                    .or(col("d_year").eq(y2).and(col("lo_quantity").lt(30u64))),
            )
            .build(schema)
            .expect("valid query")
    };
    vec![
        probe("or-a", 1992, 1995),
        probe("or-b", 1993, 1996),
        probe("or-c", 1994, 1997),
        probe("or-d", 1995, 1998),
    ]
}

#[test]
fn two_xb_overload_saturates_the_bus_beyond_dispatch_and_merge() {
    let wide = ssb_wide();
    // Bandwidth-starved host channel: the same DDR interface shared by
    // every module, throttled so transfers — not crossbar ops —
    // dominate, which is where the paper's journal extension says the
    // bottleneck lives at scale.
    let mut sim_cfg = SimConfig::default();
    sim_cfg.host.dram_bandwidth_gib_s = 0.05;
    let qs = disjunctive_queries(wide.schema());

    let mut c = ClusterEngine::new(
        sim_cfg.clone(),
        wide.clone(),
        EngineMode::TwoXb,
        4,
        Partitioner::range_by_attr("d_year"),
    )
    .expect("cluster construction");
    // Legacy transfer policy: this test saturates the bus to verify the
    // shared-bus *model*; the byte-diet levers (compressed masks,
    // batched dispatch, module reduction) exist precisely to relieve
    // this pressure and are exercised by xfer_policy_equivalence.rs.
    c.set_xfer_policy(bbpim::sim::XferPolicy::legacy());

    // 2× overload relative to the batch capacity estimate.
    let probe = c.run_batch(&qs).expect("capacity probe");
    let mean_service_ns = probe.serial_time_ns / qs.len() as f64;
    let workload = Workload::poisson(qs.clone(), 26, mean_service_ns / 2.0, 0xB1_7B17);
    let sched = SchedConfig { max_in_flight: 8, ..SchedConfig::default() };

    let out = run_stream(&mut c, &workload, &sched).expect("stream");
    assert!(
        out.host_utilisation() >= 0.9,
        "the starved host channel must be the bottleneck (utilisation {:.2})",
        out.host_utilisation(),
    );
    assert!(out.host_utilisation() <= 1.0, "utilisation saturates at 1");
    // the transfers push far more work through the bus than the
    // dispatch + merge occupancy of the stream's own executions
    let dispatch_and_merge: f64 =
        out.executions.iter().map(|e| e.report.dispatch_time_ns + e.report.merge_time_ns).sum();
    assert!(
        out.host_busy_ns > 2.0 * dispatch_and_merge,
        "bus busy {} ns vs dispatch + merge {dispatch_and_merge} ns",
        out.host_busy_ns
    );
}
