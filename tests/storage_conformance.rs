//! Storage conformance: the contract every storage model of the one
//! `Cluster<S>` must keep, written once and instantiated for the
//! pre-joined wide store and the normalized star store.
//!
//! * stepwise `plan_shards` → `run_on_shard` → `merge_executions` equals
//!   `run` — the full `ClusterExecution`, not just the groups — on a
//!   fresh cluster and on one that just ran the query;
//! * flipping `pruning`, `contention` or any `XferPolicy` lever never
//!   changes the groups;
//! * on every SSB query, `run` stays inside what `explain` planned:
//!   executed shards, scanned pages and dispatch descriptor bytes;
//! * `plan_mutation_lanes` names exactly the lanes `apply_mutation`
//!   then touches, and `mutate` reports the untouched fact shards as
//!   pruned;
//! * a filter no shard can match is answered by the planner alone;
//! * an invalid shard index is a typed error that leaves every later
//!   result unchanged;
//! * planning, `EXPLAIN` and execution reject a filter on an attribute
//!   the star's dimension layout keeps host-side with one error;
//! * an invalid SELECT list is a typed error before the scatter — on
//!   `run`, `run_batch`, the stream and the tenant server — also when
//!   every shard is pruned;
//! * every shard computes in the mode its table was built with and
//!   decides GROUP BY with the model its table holds.

mod common;

use bbpim::cluster::{
    Cluster, ClusterEngine, ClusterError, ClusterExecution, Partitioner, StarCluster, Storage,
    StreamEngine,
};
use bbpim::db::builder::col;
use bbpim::db::plan::{Pred, Query};
use bbpim::db::ssb::queries;
use bbpim::db::{DbError, Relation};
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::engine::result::{QueryExecution, QueryReport};
use bbpim::engine::CoreError;
use bbpim::sched::{run_stream, SchedConfig, SchedError, Workload};
use bbpim::serve::{run_serve, ArrivalProcess, ServeConfig, SloSpec, TenantSpec};
use bbpim::sim::timeline::PhaseKind;
use bbpim::sim::{SimConfig, XferPolicy};
use common::{prejoined_cluster, shared_model, ssb, ssb_wide, star_cluster};

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
        // `run` leaves no plan behind that a later stepwise run reuses
        let mut c = fresh();
        assert_eq!(c.run(q).expect("run"), want, "{tag}: run on a fresh cluster");
        assert_eq!(stepwise(&mut c, q), want, "{tag}: stepwise after run != run");

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
        assert!(dispatch_bytes <= plan.dispatch_bytes, "{tag}: dispatch bytes");
        if executed > 0 {
            assert_eq!(dispatch_bytes, plan.dispatch_bytes, "{tag}: dispatch bytes");
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
            c.apply_mutation(m).expect("fan-out").into_iter().map(|(lane, _)| lane).collect();
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
    let wide = ssb_wide();
    conforms("pre-joined", || prejoined_cluster(&wide, SHARDS), &wide);
}

#[test]
fn star_storage_conforms() {
    let db = ssb();
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

#[test]
fn a_host_only_dimension_attribute_is_rejected_alike_by_plan_explain_and_run() {
    let db = ssb();
    let mut c = star_cluster(&db, SHARDS);
    let mut q = queries::standard_query("Q1.1").expect("standard query");
    q.filter = col("d_dayofweek").eq(1u64);
    let planned = c.plan_shards(&q.filter).expect_err("planning a host-only attribute");
    match &planned {
        ClusterError::Core(CoreError::Unsupported(msg)) => {
            assert!(msg.contains("d_dayofweek") && msg.contains("host-only"), "{msg}");
        }
        other => panic!("expected a host-only error, got {other}"),
    }
    assert_eq!(c.explain(&q).expect_err("explaining a host-only attribute"), planned);
    assert_eq!(c.run(&q).expect_err("running a host-only attribute"), planned);
}

/// An empty SELECT list is the typed `InvalidQuery` on every front-end
/// of fresh clusters from `fresh`, before anything runs: whether its
/// filter dispatches every shard or, like `never`, prunes every one.
fn rejects_an_empty_select_list<S: Storage>(
    tag: &str,
    fresh: impl Fn() -> Cluster<S>,
    never: Pred,
) {
    assert!(!fresh().plan_shards(&never).unwrap().contains(&true), "{tag}: every shard pruned");
    let invalid = |e: &ClusterError| matches!(e, ClusterError::Db(DbError::InvalidQuery(_)));
    for filter in [never, Pred::always()] {
        let q = Query { id: "no-select".into(), filter, group_by: Vec::new(), select: Vec::new() };
        let err = fresh().run(&q).expect_err("run");
        assert!(invalid(&err), "{tag}: run gave {err}");
        let err = fresh().run_batch(std::slice::from_ref(&q)).expect_err("run_batch");
        assert!(invalid(&err), "{tag}: run_batch gave {err}");
        let workload = Workload::burst(vec![q.clone()]);
        match run_stream(&mut fresh(), &workload, &SchedConfig::default()).expect_err("stream") {
            SchedError::Cluster(e) => assert!(invalid(&e), "{tag}: run_stream gave {e}"),
            other => panic!("{tag}: run_stream gave {other}"),
        }
        let tenant = TenantSpec {
            name: "no-select".into(),
            queries: vec![q],
            process: ArrivalProcess::Burst { arrivals: 1, at_ns: 0.0 },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 1.0e9, deadline_ns: None },
            weight: 1.0,
        };
        match run_serve(&mut fresh(), &[tenant], &ServeConfig::default()).expect_err("serve") {
            SchedError::Cluster(e) => assert!(invalid(&e), "{tag}: run_serve gave {e}"),
            other => panic!("{tag}: run_serve gave {other}"),
        }
    }
}

/// The gather never sees an invalid SELECT list, even when the planner
/// alone would have answered the query.
#[test]
fn an_invalid_select_list_is_a_typed_error_even_when_every_shard_is_pruned() {
    let (db, wide) = (ssb(), ssb_wide());
    let never = col("d_year").eq(1800u64);
    rejects_an_empty_select_list("pre-joined", || prejoined_cluster(&wide, SHARDS), never);
    let never = col("lo_quantity").eq(1000u64);
    rejects_an_empty_select_list("star", || star_cluster(&db, SHARDS), never);
}

/// The tables own how they compute: a GROUP BY on any shard is
/// `NotCalibrated` until `set_model` installs the model on every shard,
/// and every report carries the mode the tables were built with.
#[test]
fn every_shard_computes_with_its_tables_mode_and_model() {
    let wide = ssb_wide();
    let q = queries::standard_query("Q2.1").expect("standard query");
    for mode in EngineMode::all() {
        let by_year = Partitioner::range_by_attr("d_year");
        let mut c = ClusterEngine::new(SimConfig::default(), wide.clone(), mode, SHARDS, by_year)
            .expect("cluster construction");
        assert_eq!(c.mode(), mode);
        for i in 0..c.active_shards() {
            assert_eq!(c.shard_table(i).unwrap().mode(), mode, "{mode:?} shard {i}");
            let err = c.run_on_shard(i, &q).expect_err("uncalibrated GROUP BY");
            assert_eq!(err, ClusterError::Core(CoreError::NotCalibrated), "{mode:?} shard {i}");
        }
        c.set_model(shared_model());
        for i in 0..c.active_shards() {
            let exec = c.run_on_shard(i, &q).expect("calibrated GROUP BY");
            assert_eq!(exec.report.mode, mode, "{mode:?} shard {i}");
        }
        let out = c.run(&q).expect("run");
        assert_eq!(out.report.mode, mode);
        assert!(out.report.per_shard.iter().all(|r| r.mode == mode), "{mode:?}");
    }
}

/// The star's tables are single-partition under every mode, yet a two-xb
/// star is still a two-xb engine: it reports two_xb and reduces through
/// the aggregation circuit, which a pimdb star never drives.
#[test]
fn a_two_xb_star_keeps_its_mode_and_the_circuit() {
    let db = ssb();
    let q = queries::standard_query("Q1.1").expect("standard query");
    let circuit_ns = |mode: EngineMode| {
        let mut c = StarCluster::new(
            SimConfig::small_for_tests(),
            &db,
            mode,
            SHARDS,
            Partitioner::RoundRobin,
        )
        .expect("star cluster construction");
        for i in 0..c.active_shards() {
            let table = c.shard_table(i).unwrap();
            assert_eq!((table.mode(), table.layout().partitions()), (mode, 1), "shard {i}");
        }
        let out = c.run(&q).expect("run");
        assert_eq!(out.report.mode, mode);
        assert!(out.report.per_shard.iter().all(|r| r.mode == mode), "{mode:?}");
        out.report.per_shard.iter().map(|r| r.phases.time_in(PhaseKind::PimAggCircuit)).sum::<f64>()
    };
    assert!(circuit_ns(EngineMode::TwoXb) > 0.0, "two_xb reduces through the circuit");
    assert_eq!(circuit_ns(EngineMode::PimDb), 0.0, "pimdb has no circuit");
}
