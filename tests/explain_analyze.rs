//! `EXPLAIN` then run, on one long-lived cluster: what a query actually
//! does never exceeds what `explain` planned for it — shards executed ≤
//! shards dispatched, pages scanned ≤ candidate pages, dispatch bytes ≤
//! the planner's dispatch ledger — for all 13 SSB queries, on both
//! storage models, and the answer stays oracle-identical (planning
//! first does not change the run).

use bbpim::cluster::{Cluster, ClusterEngine, Partitioner, Storage};
use bbpim::db::ssb::{queries, SsbDb, SsbParams};
use bbpim::db::{stats, Relation};
use bbpim::engine::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim::engine::modes::EngineMode;
use bbpim::engine::result::QueryReport;
use bbpim::join::StarCluster;
use bbpim::sim::timeline::PhaseKind;
use bbpim::sim::SimConfig;

const SHARDS: usize = 4;

fn shared_model() -> bbpim::engine::groupby::cost_model::GroupByModel {
    let (_, model) = run_calibration(
        &SimConfig::default(),
        EngineMode::OneXb,
        &CalibrationConfig::tiny_for_tests(),
    )
    .expect("calibration");
    model
}

/// Explains then runs every SSB query on `c`, in turn, and holds each
/// run to its plan and to the oracle over `wide`.
fn actuals_stay_within_the_plan<S: Storage>(tag: &str, c: &mut Cluster<S>, wide: &Relation) {
    for q in queries::standard_queries() {
        let tag = format!("{tag} {}", q.id);
        let plan = c.explain(&q).expect("explain");
        let exec = c.run(&q).expect("run");
        let report = &exec.report;
        let executed = report.active_shards - report.shards_pruned;
        assert!(executed <= plan.shards_dispatched(), "{tag}: shards beyond the plan");
        assert!(report.pages_scanned <= plan.pages_candidate(), "{tag}: pages beyond the plan");
        let dispatch = |r: &QueryReport| r.phases.host_bytes_in(PhaseKind::HostDispatch);
        let dispatch_bytes: u64 = report.per_shard.iter().map(dispatch).sum();
        assert!(
            dispatch_bytes <= plan.host_bytes.dispatch_bytes,
            "{tag}: dispatch bytes beyond the plan's ledger"
        );
        assert_eq!(
            exec.groups,
            stats::run_oracle(&q, wide).expect("oracle"),
            "{tag}: answer after explain stays oracle-identical"
        );
    }
}

#[test]
fn actuals_stay_within_the_plan_on_the_prejoined_cluster() {
    let wide = SsbDb::generate(&SsbParams::tiny_for_tests()).prejoin();
    let mut c = ClusterEngine::new(
        SimConfig::default(),
        wide.clone(),
        EngineMode::OneXb,
        SHARDS,
        Partitioner::range_by_attr("d_year"),
    )
    .expect("cluster construction");
    c.set_model(shared_model());
    actuals_stay_within_the_plan("pre-joined", &mut c, &wide);
}

#[test]
fn actuals_stay_within_the_plan_on_the_star_cluster() {
    let db = SsbDb::generate(&SsbParams::tiny_for_tests());
    let wide = db.prejoin();
    let mut c = StarCluster::new(
        SimConfig::small_for_tests(),
        &db,
        EngineMode::OneXb,
        SHARDS,
        Partitioner::RoundRobin,
    )
    .expect("star cluster construction");
    actuals_stay_within_the_plan("star", &mut c, &wide);
}
