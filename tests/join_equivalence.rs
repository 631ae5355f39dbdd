//! Star-join equivalence: the normalized star cluster must return
//! bit-identical answers to the pre-joined cluster, the pre-joined
//! oracle and both MonetDB stand-ins for every SSB query, across shard
//! counts and engine modes — including
//! UPDATE-then-query on a dimension table. On top of equivalence, the
//! normalized path must put *fewer* bytes on the host channel than the
//! pre-joined two-crossbar path for the selective Q1.x class: a
//! compressed dimension bitmap replaces per-disjunct wide-mask traffic.

mod common;

use bbpim::cluster::{ClusterEngine, Partitioner};
use bbpim::db::builder::col;
use bbpim::db::plan::Query;
use bbpim::db::ssb::{queries, SsbDb};
use bbpim::db::stats;
use bbpim::engine::groupby::calibration::CalibrationConfig;
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::join::StarCluster;
use bbpim::monet::MonetEngine;
use bbpim::sim::SimConfig;
use common::{host_bytes, ssb};

const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// Normalized records are narrow enough for the small test config —
/// answers are config-independent, so the big matrix runs on it. Tests
/// comparing host-channel bytes against the pre-joined cluster use
/// [`SimConfig::default`] for both sides instead (the wide pre-joined
/// record does not fit a small crossbar).
fn star_with(cfg: SimConfig, db: &SsbDb, mode: EngineMode, shards: usize) -> StarCluster {
    StarCluster::new(cfg, db, mode, shards, Partitioner::RoundRobin)
        .expect("star cluster construction")
}

fn star(db: &SsbDb, mode: EngineMode, shards: usize) -> StarCluster {
    star_with(SimConfig::small_for_tests(), db, mode, shards)
}

fn prejoin_cluster(db: &SsbDb, mode: EngineMode, shards: usize) -> ClusterEngine {
    let mut c = ClusterEngine::new(
        SimConfig::default(),
        db.prejoin(),
        mode,
        shards,
        Partitioner::RoundRobin,
    )
    .expect("pre-joined cluster construction");
    c.calibrate(&CalibrationConfig::tiny_for_tests()).expect("calibration");
    c
}

#[test]
fn all_13_queries_match_prejoin_and_monet_across_the_matrix() {
    let db = ssb();
    let wide = db.prejoin();
    let query_set = queries::standard_queries();

    // references: row-at-a-time oracle, both MonetDB stand-ins, and the
    // pre-joined PIM cluster (one configuration suffices — its own
    // matrix equivalence is covered by `cluster_equivalence.rs`)
    let mnt_reg = MonetEngine::star(&db, 2);
    let mnt_join = MonetEngine::prejoined(&wide, 2);
    let mut prejoined = prejoin_cluster(&db, EngineMode::OneXb, 4);
    let references: Vec<_> = query_set
        .iter()
        .map(|q| {
            let oracle = stats::run_oracle(q, &wide).expect("oracle");
            assert_eq!(mnt_reg.run(q).unwrap().groups, oracle, "mnt_reg {}", q.id);
            assert_eq!(mnt_join.run(q).unwrap().groups, oracle, "mnt_join {}", q.id);
            assert_eq!(prejoined.run(q).unwrap().groups, oracle, "pre-joined PIM {}", q.id);
            oracle
        })
        .collect();

    for shards in SHARD_COUNTS {
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let mut c = star(&db, mode, shards);
            for (q, reference) in query_set.iter().zip(&references) {
                let out = c
                    .run(q)
                    .unwrap_or_else(|e| panic!("{} on {shards} shards, {mode:?}: {e}", q.id));
                assert_eq!(&out.groups, reference, "{} on {shards} shards, {mode:?}", q.id);
                // planner-only answers (empty dimension selection)
                // legitimately cost nothing
                if out.report.selected > 0 {
                    assert!(out.report.time_ns > 0.0, "{}", q.id);
                }
            }
        }
    }
}

#[test]
fn dimension_update_then_query_agrees_with_patched_oracle() {
    let db = ssb();
    // move 1994 into 1993 on the *date dimension*: one small module
    // rewrite instead of a replicated-column rewrite on every shard
    let m = Mutation::update()
        .filter(col("d_year").eq(1994u64))
        .set("d_year", 1993u64)
        .build_unchecked();
    let probe = queries::standard_query("Q1.1").unwrap(); // d_year = 1993
    let grouped = queries::standard_query("Q2.1").unwrap(); // groups by d_year

    // the oracle runs on the pre-joined relation with the same patch
    let mut wide = db.prejoin();
    let year = wide.schema().index_of("d_year").unwrap();
    for row in 0..wide.len() {
        if wide.value(row, year) == 1994 {
            wide.set_value(row, year, 1993).unwrap();
        }
    }

    for shards in SHARD_COUNTS {
        let mut c = star(&db, EngineMode::OneXb, shards);
        let rep = c.mutate(&m).unwrap();
        assert_eq!(rep.records_updated, 365, "{shards} shards");
        assert_eq!(rep.per_shard.len(), 1, "a dimension UPDATE touches one module");
        assert_eq!(rep.shards_pruned, 0);
        for q in [&probe, &grouped] {
            let out = c.run(q).unwrap();
            let oracle = stats::run_oracle(q, &wide).unwrap();
            assert_eq!(out.groups, oracle, "{} after UPDATE, {shards} shards", q.id);
        }
    }
}

#[test]
fn selective_queries_put_fewer_bytes_on_the_bus_than_prejoin() {
    let db = ssb();
    let shards = 4;
    let mut star_cluster = star_with(SimConfig::default(), &db, EngineMode::TwoXb, shards);
    let mut prejoined = prejoin_cluster(&db, EngineMode::TwoXb, shards);
    for id in ["Q1.1", "Q1.2", "Q1.3"] {
        let q = queries::standard_query(id).unwrap();
        let star_bytes = host_bytes(&star_cluster.run(&q).unwrap().report);
        let prejoin_bytes = host_bytes(&prejoined.run(&q).unwrap().report);
        assert!(
            star_bytes < prejoin_bytes,
            "{id}: normalized {star_bytes} B vs pre-joined {prejoin_bytes} B on the host channel"
        );
    }
}

#[test]
fn explain_ledger_matches_the_executed_win() {
    let db = ssb();
    let c = star(&db, EngineMode::TwoXb, 4);
    let q = queries::standard_query("Q1.1").unwrap();
    let ex = c.explain(&q).unwrap();
    assert!(!ex.join_transfers.is_empty(), "Q1.1 filters the date dimension");
    assert!(ex.join_wire_bytes() <= ex.join_raw_bytes());
    for t in &ex.join_transfers {
        assert!(t.keys_selected <= t.key_space);
        assert_eq!(t.broadcast_shards, 4);
    }
    let rendered = ex.detail();
    assert!(rendered.contains("semijoin: date"), "detail must render the transfer:\n{rendered}");
}

#[test]
fn streamed_star_workload_is_bit_identical_to_batch_runs() {
    use bbpim::sched::{run_stream, SchedConfig, Workload};
    let db = ssb();
    let query_set: Vec<Query> =
        ["Q1.1", "Q2.1", "Q3.1"].iter().map(|id| queries::standard_query(id).unwrap()).collect();
    let workload = Workload::poisson(query_set.clone(), 6, 40_000.0, 13);
    let mut c = star(&db, EngineMode::OneXb, 4);
    let out = run_stream(&mut c, &workload, &SchedConfig::default()).unwrap();
    assert_eq!(out.completions.len(), 6);
    let wide = db.prejoin();
    for (arrival, exec) in workload.arrivals().iter().zip(&out.executions) {
        let oracle = stats::run_oracle(&query_set[arrival.query], &wide).unwrap();
        assert_eq!(exec.groups, oracle);
    }
}
