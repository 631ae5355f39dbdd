//! `EXPLAIN ANALYZE` consistency: recorded actuals never exceed the
//! plan on pruned paths — shards executed ≤ shards dispatched, pages
//! scanned ≤ candidate pages, dispatch bytes ≤ the planner's dispatch
//! ledger — for all 13 SSB queries, on both storage models, and the
//! analyzed answer stays oracle-identical (analysis is a recorded run,
//! not a different one).

use bbpim::cluster::{ClusterEngine, Partitioner};
use bbpim::db::ssb::{queries, SsbDb, SsbParams};
use bbpim::db::stats;
use bbpim::engine::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim::engine::modes::EngineMode;
use bbpim::join::StarCluster;
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

    for q in queries::standard_queries() {
        let (plan, exec) = c.explain_analyze(&q).expect("explain analyze");
        let a = plan.actuals.expect("analyze attaches actuals");
        let errors = plan.consistency_errors();
        assert!(errors.is_empty(), "{}: plan/actual inconsistencies: {errors:?}", q.id);
        assert_eq!(
            a.pages_scanned, exec.report.pages_scanned,
            "{}: actuals mirror the execution report",
            q.id
        );
        assert!(plan.detail().contains("actual:"), "{}: detail renders the actuals row", q.id);
        assert_eq!(
            exec.groups,
            stats::run_oracle(&q, &wide).expect("oracle"),
            "{}: analyzed answer stays oracle-identical",
            q.id
        );
    }
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

    for q in queries::standard_queries() {
        let (plan, exec) = c.explain_analyze(&q).expect("explain analyze");
        assert!(plan.actuals.is_some(), "{}: analyze attaches actuals", q.id);
        let errors = plan.consistency_errors();
        assert!(errors.is_empty(), "{}: plan/actual inconsistencies: {errors:?}", q.id);
        assert_eq!(
            exec.groups,
            stats::run_oracle(&q, &wide).expect("oracle"),
            "{}: analyzed answer stays oracle-identical",
            q.id
        );
    }
}

#[test]
fn plain_explain_carries_no_actuals_and_flags_fabricated_excess() {
    let wide = SsbDb::generate(&SsbParams::tiny_for_tests()).prejoin();
    let mut c = ClusterEngine::new(
        SimConfig::default(),
        wide,
        EngineMode::OneXb,
        SHARDS,
        Partitioner::range_by_attr("d_year"),
    )
    .expect("cluster construction");
    c.set_model(shared_model());

    let q = queries::standard_query("Q1.1").expect("Q1.1");
    let plan = c.explain(&q).expect("explain");
    assert!(plan.actuals.is_none(), "plain EXPLAIN must not execute");
    assert!(plan.consistency_errors().is_empty(), "no actuals, nothing to contradict");

    // A fabricated over-plan actual must be flagged.
    let (mut analyzed, _) = c.explain_analyze(&q).expect("explain analyze");
    let over = analyzed.pages_candidate() + 1;
    analyzed.actuals.as_mut().expect("actuals").pages_scanned = over;
    assert!(
        !analyzed.consistency_errors().is_empty(),
        "scanning more pages than the plan admits must be reported"
    );
}
