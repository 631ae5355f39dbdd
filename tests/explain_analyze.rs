//! `EXPLAIN` then run, on one long-lived cluster: what a query actually
//! does never exceeds what `explain` planned for it — shards executed ≤
//! shards dispatched, pages scanned ≤ candidate pages, dispatch bytes ≤
//! the planner's dispatch ledger — for all 13 SSB queries, on both
//! storage models, and the answer stays oracle-identical (planning
//! first does not change the run).

mod common;

use bbpim::cluster::{Cluster, Storage};
use bbpim::db::ssb::queries;
use bbpim::db::{stats, Relation};
use bbpim::engine::result::QueryReport;
use bbpim::sim::timeline::PhaseKind;
use common::{prejoined_cluster, ssb, ssb_wide, star_cluster};

const SHARDS: usize = 4;

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
            dispatch_bytes <= plan.dispatch_bytes,
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
    let wide = ssb_wide();
    actuals_stay_within_the_plan("pre-joined", &mut prejoined_cluster(&wide, SHARDS), &wide);
}

#[test]
fn actuals_stay_within_the_plan_on_the_star_cluster() {
    let db = ssb();
    let wide = db.prejoin();
    actuals_stay_within_the_plan("star", &mut star_cluster(&db, SHARDS), &wide);
}
