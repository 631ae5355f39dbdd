//! Storage conformance: the contract every storage model of the one
//! `Cluster<S>` must keep, written once and instantiated for the
//! pre-joined wide store and the normalized star store.
//!
//! * stepwise `plan_shards` → `run_on_shard` → `merge_executions` on a
//!   fresh cluster equals `run` — the full `ClusterExecution`, not just
//!   the groups;
//! * flipping `pruning`, `contention` or any `XferPolicy` lever never
//!   changes the groups;
//! * on every SSB query, `run` stays inside what `explain` planned:
//!   executed shards, scanned pages and dispatch descriptor bytes;
//! * `plan_mutation_lanes` names exactly the lanes `mutate_on_lanes`
//!   then touches, and `mutate` reports the untouched fact shards as
//!   pruned;
//! * a filter no shard can match is answered by the planner alone;
//! * an invalid shard index is a typed error that leaves every later
//!   result unchanged.

use bbpim::cluster::{
    Cluster, ClusterEngine, ClusterError, ClusterExecution, Partitioner, StarCluster, Storage,
};
use bbpim::db::builder::col;
use bbpim::db::plan::Query;
use bbpim::db::ssb::{queries, SsbDb, SsbParams};
use bbpim::db::Relation;
use bbpim::engine::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::engine::result::{QueryExecution, QueryReport};
use bbpim::sim::timeline::PhaseKind;
use bbpim::sim::{SimConfig, XferPolicy};

const SHARDS: usize = 4;

/// A flat query behind a dimension filter, a GROUP BY on dimension
/// keys, and an OR of two dimension years (two DNF disjuncts).
fn probes() -> Vec<Query> {
    let mut two_years = queries::standard_query("Q1.1").expect("standard query");
    two_years.id = "two-years".into();
    two_years.filter = col("d_year").eq(1995u64).or(col("d_year").eq(1997u64));
    let mut out: Vec<Query> = ["Q1.1", "Q2.1"]
        .iter()
        .map(|id| queries::standard_query(id).expect("standard query"))
        .collect();
    out.push(two_years);
    out
}

/// `run` rebuilt from its public building blocks.
fn stepwise<S: Storage>(c: &mut Cluster<S>, q: &Query) -> ClusterExecution {
    let mask = c.plan_shards(&q.filter).expect("plan");
    let execs: Vec<QueryExecution> = (0..mask.len())
        .filter(|&i| mask[i])
        .map(|i| c.run_on_shard(i, q).expect("shard run"))
        .collect();
    let refs: Vec<&QueryExecution> = execs.iter().collect();
    c.merge_executions(q, &refs, mask.len() - execs.len())
}

/// The whole contract, against fresh clusters from `fresh` whose fact
/// relation is `fact`.
fn conforms<S: Storage>(tag: &str, fresh: impl Fn() -> Cluster<S>, fact: &Relation) {
    let active = fresh().active_shards();
    assert_eq!(active, SHARDS, "{tag}: every shard must hold records");
    // the placements below prune, so some probe's lead shard is not
    // shard 0 and the once-per-query charges must follow it
    let c = fresh();
    let leads_late = |q: &Query| !c.plan_shards(&q.filter).expect("plan")[0];
    assert!(probes().iter().any(leads_late), "{tag}: every probe leads on shard 0");

    for q in &probes() {
        let tag = format!("{tag} {}", q.id);
        let want = fresh().run(q).expect("run");
        assert!(want.report.selected > 0, "{tag}: the probe must select something");
        assert_eq!(stepwise(&mut fresh(), q), want, "{tag}: stepwise != run");

        // the toggles move clocks and bytes, never answers
        let on = XferPolicy::default();
        let toggles = [
            ("pruning off", false, true, on),
            ("contention off", true, false, on),
            ("raw masks", true, true, XferPolicy { compress_masks: false, ..on }),
            ("page doorbells", true, true, XferPolicy { batch_dispatch: false, ..on }),
            ("host reduce", true, true, XferPolicy { module_reduce: false, ..on }),
        ];
        for (label, pruning, contention, policy) in toggles {
            let mut c = fresh();
            c.set_pruning(pruning);
            c.set_contention(contention);
            c.set_xfer_policy(policy);
            assert_eq!(c.run(q).expect("toggled run").groups, want.groups, "{tag}: {label}");
        }

        // a bad shard index is refused before it can charge anything
        let mut c = fresh();
        assert!(
            matches!(c.run_on_shard(active, q), Err(ClusterError::InvalidCluster(_))),
            "{tag}: shard index {active} of {active} must be refused"
        );
        assert_eq!(stepwise(&mut c, q), want, "{tag}: a refused shard call changed later results");
    }

    // the plan bounds the run: it names exactly the shards and pages
    // that execute, and its dispatch ledger covers every descriptor byte
    // the shards' logs charge (the star ledger also counts dimension
    // filters that a planner-answered query never dispatches)
    for q in queries::standard_queries() {
        let tag = format!("{tag} {}", q.id);
        let mut c = fresh();
        let plan = c.explain(&q).expect("explain");
        let report = c.run(&q).expect("run").report;
        let executed = report.active_shards - report.shards_pruned;
        assert_eq!(executed, plan.shards_dispatched(), "{tag}: shards");
        assert_eq!(report.pages_scanned, plan.pages_candidate(), "{tag}: pages");
        let dispatch = |r: &QueryReport| r.phases.host_bytes_in(PhaseKind::HostDispatch);
        let dispatch_bytes: u64 = report.per_shard.iter().map(dispatch).sum();
        assert!(dispatch_bytes <= plan.host_bytes.dispatch_bytes, "{tag}: dispatch bytes");
        if executed > 0 {
            assert_eq!(dispatch_bytes, plan.host_bytes.dispatch_bytes, "{tag}: dispatch bytes");
        }
    }

    // the planner names the lanes the fan-out then touches
    let one_row = Mutation::insert().row(fact.row(0)).build(fact.schema()).expect("insert");
    let wrap_around = (0..=active)
        .fold(Mutation::insert(), |m, r| m.row(fact.row(r)))
        .build(fact.schema())
        .expect("wrapping insert");
    let fact_update = Mutation::update()
        .filter(col("lo_discount").eq(3u64))
        .set("lo_discount", 4u64)
        .build(fact.schema())
        .expect("fact update");
    for (label, m, lanes_touched) in [
        ("fact UPDATE", &fact_update, None),
        ("1-row INSERT", &one_row, Some(1)),
        ("wrapping INSERT", &wrap_around, Some(active)),
    ] {
        let mut c = fresh();
        let planned = c.plan_mutation_lanes(m).expect("lane plan");
        let touched: Vec<usize> =
            c.mutate_on_lanes(m).expect("fan-out").into_iter().map(|(lane, _)| lane).collect();
        assert_eq!(planned, touched, "{tag}: {label}");
        if let Some(n) = lanes_touched {
            assert_eq!(touched.len(), n, "{tag}: {label}");
        }
        // one rule for both storage models: active fact shards minus
        // the fact lanes touched
        let report = fresh().mutate(m).expect("mutate");
        assert_eq!(report.shards_pruned, active - touched.len(), "{tag}: {label}");
    }

    // no shard can hold lo_quantity > 50: the planner answers alone
    let mut nothing = queries::standard_query("Q1.1").expect("standard query");
    nothing.filter = col("lo_quantity").gt(50u64);
    let out = fresh().run(&nothing).expect("planner-only run");
    assert!(out.groups.is_empty(), "{tag}");
    assert_eq!(out.report.shards_pruned, out.report.active_shards, "{tag}");
    assert!(out.report.per_shard.is_empty(), "{tag}");
}

#[test]
fn prejoined_storage_conforms() {
    let wide = SsbDb::generate(&SsbParams::tiny_for_tests()).prejoin();
    let (_, model) = run_calibration(
        &SimConfig::default(),
        EngineMode::OneXb,
        &CalibrationConfig::tiny_for_tests(),
    )
    .expect("calibration");
    let fresh = || {
        let mut c = ClusterEngine::new(
            SimConfig::default(),
            wide.clone(),
            EngineMode::OneXb,
            SHARDS,
            Partitioner::range_by_attr("d_year"),
        )
        .expect("cluster construction");
        c.set_model(model.clone());
        c
    };
    conforms("pre-joined", fresh, &wide);
}

#[test]
fn star_storage_conforms() {
    let db = SsbDb::generate(&SsbParams::tiny_for_tests());
    // range placement on the date FK: dimension filters prune fact
    // shards through the join
    let fresh = || {
        StarCluster::new(
            SimConfig::small_for_tests(),
            &db,
            EngineMode::OneXb,
            SHARDS,
            Partitioner::range_by_attr("lo_orderdate"),
        )
        .expect("star cluster construction")
    };
    conforms("star", fresh, &db.lineorder);
}
