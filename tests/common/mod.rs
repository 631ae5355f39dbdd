//! Fixtures the integration suites share: the tiny SSB database and its
//! pre-join, the tiny GROUP-BY model, the two cluster shapes most suites
//! drive, the wide and star mutation sets, the goldens' digest and pin
//! check, and the prefix-replay oracle. Each suite declares `mod
//! common;` and uses what it needs.
#![allow(dead_code)]

use std::fmt::Debug;
use std::sync::OnceLock;

use bbpim::cluster::{
    Cluster, ClusterEngine, ClusterExecution, ClusterReport, Partitioner, Storage,
};
use bbpim::db::builder::col;
use bbpim::db::plan::Query;
use bbpim::db::ssb::{SsbDb, SsbParams};
use bbpim::db::Relation;
use bbpim::engine::engine::PimQueryEngine;
use bbpim::engine::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim::engine::groupby::cost_model::GroupByModel;
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::join::StarCluster;
use bbpim::sched::QueryCompletion;
use bbpim::sim::SimConfig;

/// The tiny SSB database.
pub fn ssb() -> SsbDb {
    SsbDb::generate(&SsbParams::tiny_for_tests())
}

/// The tiny SSB database, pre-joined into one wide relation.
pub fn ssb_wide() -> Relation {
    ssb().prejoin()
}

/// The one-xb GROUP-BY model at the default config, fitted on the tiny
/// sweep once per test binary: the fit depends on config and mode only,
/// not on data or shard count.
pub fn shared_model() -> GroupByModel {
    static MODEL: OnceLock<GroupByModel> = OnceLock::new();
    let fit = || {
        let cal = CalibrationConfig::tiny_for_tests();
        run_calibration(&SimConfig::default(), EngineMode::OneXb, &cal).expect("calibration").1
    };
    MODEL.get_or_init(fit).clone()
}

/// `wide` on one `mode` module of the default config, calibrated on the
/// tiny sweep.
pub fn single_engine(wide: Relation, mode: EngineMode) -> PimQueryEngine {
    let mut engine = PimQueryEngine::new(SimConfig::default(), wide, mode).expect("engine");
    engine.calibrate(&CalibrationConfig::tiny_for_tests()).expect("calibration");
    engine
}

/// `wide` on `shards` one-xb modules of the default config under
/// `partitioner`, deciding with [`shared_model`].
pub fn prejoined_cluster_by(
    wide: &Relation,
    shards: usize,
    partitioner: Partitioner,
) -> ClusterEngine {
    let mut c = ClusterEngine::new(
        SimConfig::default(),
        wide.clone(),
        EngineMode::OneXb,
        shards,
        partitioner,
    )
    .expect("cluster construction");
    c.set_model(shared_model());
    c
}

/// The pre-joined cluster: [`prejoined_cluster_by`] range partitioning on `d_year`.
pub fn prejoined_cluster(wide: &Relation, shards: usize) -> ClusterEngine {
    prejoined_cluster_by(wide, shards, Partitioner::range_by_attr("d_year"))
}

/// The star cluster: `db`'s fact table round-robin over `shards` one-xb
/// modules of the small config, beside its four dimension modules.
pub fn star_cluster(db: &SsbDb, shards: usize) -> StarCluster {
    StarCluster::new(
        SimConfig::small_for_tests(),
        db,
        EngineMode::OneXb,
        shards,
        Partitioner::RoundRobin,
    )
    .expect("star cluster construction")
}

/// The wide model's mutation set: a point UPDATE, a DNF (OR-filtered)
/// UPDATE, and an INSERT replaying an existing row (already encoded,
/// so it validates against the wide schema).
pub fn wide_mutations(wide: &Relation) -> Vec<Mutation> {
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

/// The star model's mutation set: a fact UPDATE, a dimension UPDATE
/// (one small module rewrite on its own `ingest-lane-<d>`, which
/// invalidates cached semijoin plans), and a two-row fact INSERT.
pub fn star_mutations(db: &SsbDb) -> Vec<Mutation> {
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

/// Host-channel bytes a cluster execution put on the shared bus, from
/// the per-shard phase logs (join preludes ride the first shard's log).
pub fn host_bytes(report: &ClusterReport) -> u64 {
    report.per_shard.iter().map(|r| r.phases.host_bytes()).sum()
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Compare a golden's named digest rows with its pinned ones all at
/// once, so a failing run prints every row as a pasteable literal and
/// marks the rows that moved.
pub fn assert_pinned<R: PartialEq + Debug>(what: &str, got: &[(String, R)], want: &[R]) {
    let moved = |i: usize, row: &R| want.get(i) != Some(row);
    if got.len() == want.len() && !got.iter().enumerate().any(|(i, (_, row))| moved(i, row)) {
        return;
    }
    let rows: Vec<String> = got
        .iter()
        .enumerate()
        .map(|(i, (name, row))| {
            let literal: String = format!("{row:#018x?}").split_whitespace().collect();
            let literal = literal.replace(",]", "]").replace(",)", ")").replace(',', ", ");
            let mark = if moved(i, row) { " (moved)" } else { "" };
            format!("{literal}, // {name}{mark}")
        })
        .collect();
    panic!("{what} moved ({} rows pinned):\n{}", want.len(), rows.join("\n"));
}

/// The prefix-replay oracle. Each answer — a completion, its merged
/// execution and its query — must equal what `fresh` answers after
/// applying exactly the first `epoch` of `mutations` (admission order)
/// with `mutate`. Answers are walked in epoch order so one engine serves
/// them all; `fresh` ends having applied every mutation.
pub fn assert_prefix_replay<'a, S: Storage>(
    label: &str,
    fresh: &mut Cluster<S>,
    mutations: &[Mutation],
    answers: impl IntoIterator<Item = (&'a QueryCompletion, &'a ClusterExecution, &'a Query)>,
) {
    let mut by_epoch: Vec<_> = answers.into_iter().collect();
    by_epoch.sort_by_key(|(c, _, _)| c.epoch);
    let mut applied = 0;
    for (c, exec, query) in by_epoch {
        assert!(c.epoch <= mutations.len(), "{label}: epoch beyond the admitted-mutation count");
        for m in &mutations[applied..c.epoch] {
            fresh.mutate(m).expect("replay mutate");
        }
        applied = c.epoch;
        assert_eq!(
            *exec,
            fresh.run(query).expect("replay query"),
            "{label}: {} (arrival {}, epoch {}) diverged from its prefix replay",
            c.query_id,
            c.arrival,
            c.epoch
        );
    }
    for m in &mutations[applied..] {
        fresh.mutate(m).expect("replay mutate");
    }
}
