//! The v2 query surface, end to end:
//!
//! * builder-built queries are bit-identical to hand-built
//!   [`Query::single`] queries;
//! * a k-aggregate query equals k single-aggregate runs result-wise
//!   while charging at most one filter pass;
//! * DNF zone-map bounds never prune a page holding a matching record
//!   (soundness under `OR`);
//! * the headline win: a 3-aggregate SSB query over one filter
//!   simulates ≥ 1.8× lower energy than running the three aggregates as
//!   separate legacy queries — bit-identical to the separate runs and
//!   to the monet oracle, across shards {1, 4, 8} and both one-/two-
//!   crossbar layouts, at SSB SF 0.005.

use bbpim::cluster::{ClusterEngine, Partitioner};
use bbpim::db::builder::col;
use bbpim::db::plan::{AggExpr, AggFunc, Atom, Pred, Query, SelectItem};
use bbpim::db::schema::{Attribute, Schema};
use bbpim::db::ssb::{queries, SsbDb, SsbParams};
use bbpim::db::stats;
use bbpim::db::Relation;
use bbpim::engine::engine::PimQueryEngine;
use bbpim::engine::modes::EngineMode;
use bbpim::monet::MonetEngine;
use bbpim::sim::timeline::PhaseKind;
use bbpim::sim::SimConfig;

fn synthetic_relation(rows: u64) -> Relation {
    let schema = Schema::new(
        "t",
        vec![
            Attribute::numeric("lo_price", 8),
            Attribute::numeric("lo_disc", 4),
            Attribute::numeric("d_year", 3),
            Attribute::numeric("d_brand", 5),
        ],
    )
    .unwrap();
    let mut rel = Relation::new(schema);
    for i in 0..rows {
        rel.push_row(&[(3 * i + 1) % 251, i % 11, i % 7, (i * i) % 30]).unwrap();
    }
    rel
}

// ---------------------------------------------------------------------
// (a) builder == hand-built struct, bit-identically
// ---------------------------------------------------------------------

#[test]
fn builder_queries_equal_hand_built_struct_queries() {
    let rel = synthetic_relation(1200);
    let cases: Vec<(Query, Query)> = vec![
        (
            Query::single(
                "q1",
                vec![
                    Atom::Eq { attr: "d_year".into(), value: 3u64.into() },
                    Atom::Between { attr: "lo_disc".into(), lo: 1u64.into(), hi: 3u64.into() },
                ],
                vec![],
                AggFunc::Sum,
                AggExpr::mul("lo_price", "lo_disc"),
            ),
            Query::select([SelectItem::sum("value", AggExpr::mul("lo_price", "lo_disc"))])
                .id("q1")
                .filter(col("d_year").eq(3u64).and(col("lo_disc").between(1u64, 3u64)))
                .build(rel.schema())
                .unwrap(),
        ),
        (
            Query::single(
                "q2",
                vec![Atom::Gt { attr: "lo_price".into(), value: 60u64.into() }],
                vec!["d_year".into()],
                AggFunc::Max,
                AggExpr::attr("lo_price"),
            ),
            Query::select([SelectItem::max("value", AggExpr::attr("lo_price"))])
                .id("q2")
                .filter(col("lo_price").gt(60u64))
                .group_by(["d_year"])
                .build(rel.schema())
                .unwrap(),
        ),
    ];
    let mut engine =
        PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb).unwrap();
    engine
        .calibrate(&bbpim::engine::groupby::calibration::CalibrationConfig::tiny_for_tests())
        .unwrap();
    for (hand_built, built) in cases {
        // the logical plans are identical (modulo And-wrapping of a
        // single-atom filter, which normalisation removes)…
        assert_eq!(hand_built.id, built.id);
        assert_eq!(hand_built.filter.dnf(), built.filter.dnf(), "{}", built.id);
        assert_eq!(hand_built.group_by, built.group_by, "{}", built.id);
        assert_eq!(hand_built.select, built.select, "{}", built.id);
        // …and so are executions and phase logs (same program sequence).
        let a = engine.run(&hand_built).unwrap();
        let b = engine.run(&built).unwrap();
        assert_eq!(a.groups, b.groups, "{}", built.id);
        assert_eq!(a.groups, stats::run_oracle(&built, &rel).unwrap(), "{}", built.id);
        assert_eq!(a.report.phases, b.report.phases, "{}", built.id);
    }
}

// ---------------------------------------------------------------------
// (b) DNF zone-map soundness: never prune a page the oracle matches
// ---------------------------------------------------------------------

#[test]
fn dnf_bounds_never_prune_a_matching_page() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    // Sorted-by-value relation so page zones are tight and pruning is
    // aggressive; random OR-of-windows filters try to catch an unsound
    // prune.
    let schema =
        Schema::new("t", vec![Attribute::numeric("lo_v", 11), Attribute::numeric("d_g", 4)])
            .unwrap();
    let mut rel = Relation::new(schema);
    let rows = 1500u64;
    for i in 0..rows {
        rel.push_row(&[i, i % 13]).unwrap();
    }
    let cfg = SimConfig::small_for_tests();
    let records_per_page = cfg.records_per_page();
    let engine = PimQueryEngine::new(cfg, rel.clone(), EngineMode::OneXb).unwrap();

    let mut rng = StdRng::seed_from_u64(0xD9F);
    for case in 0..40 {
        let window = |rng: &mut StdRng| {
            let lo = rng.gen_range(0u64..rows);
            let hi = (lo + rng.gen_range(0u64..200)).min(rows + 100);
            col("lo_v").between(lo, hi)
        };
        let mut pred = window(&mut rng);
        for _ in 0..rng.gen_range(1usize..4) {
            pred = pred.or(window(&mut rng));
        }
        if rng.gen::<bool>() {
            pred = pred.and(col("d_g").lt(rng.gen_range(1u64..14)));
        }
        let q = Query::select([SelectItem::count("n")])
            .id(format!("sound{case}"))
            .filter(pred)
            .build(rel.schema())
            .unwrap();
        let plan = engine.plan(&q).unwrap();
        let matching = stats::filter_bitvec(&q, &rel).unwrap();
        for (record, hit) in matching.iter().enumerate() {
            if *hit {
                let page = record / records_per_page;
                assert!(
                    plan.indices().contains(&page),
                    "case {case}: page {page} holds matching record {record} but was pruned \
                     (filter {})",
                    q.filter,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// (c) the acceptance bar: 3 aggregates, one filter pass, ≥ 1.8× energy
// ---------------------------------------------------------------------

/// The revenue reporting triple over the Q1.1 filter: total, order
/// count, and average revenue — three named aggregates whose physical
/// plan deduplicates to one sum + one count, all fed by a single
/// planned filter mask.
fn revenue_stats_query(filter: &Pred) -> Query {
    Query {
        id: "Q1.1-revenue-stats".into(),
        filter: filter.clone(),
        group_by: vec![],
        select: vec![
            SelectItem::sum("revenue", AggExpr::attr("lo_revenue")),
            SelectItem::count("orders"),
            SelectItem::avg("avg_revenue", AggExpr::attr("lo_revenue")),
        ],
    }
}

/// The three legacy single-aggregate queries equivalent to
/// [`revenue_stats_query`]'s SELECT list, sharing its filter.
fn separate_legacy_queries(filter: &Pred) -> Vec<Query> {
    let mk = |id: &str, func: AggFunc, expr: Option<AggExpr>| Query {
        id: id.into(),
        filter: filter.clone(),
        group_by: vec![],
        select: vec![SelectItem { name: "value".into(), func, expr }],
    };
    vec![
        mk("sep-revenue", AggFunc::Sum, Some(AggExpr::attr("lo_revenue"))),
        mk("sep-orders", AggFunc::Count, None),
        mk("sep-avg-revenue", AggFunc::Avg, Some(AggExpr::attr("lo_revenue"))),
    ]
}

#[test]
fn three_aggregates_one_filter_beats_three_legacy_queries() {
    // SSB at SF 0.005 (the acceptance floor), shards {1, 4, 8}, both
    // crossbar layouts.
    let wide = SsbDb::generate(&SsbParams::uniform(0.005)).prejoin();
    let combined = revenue_stats_query(&queries::standard_query("Q1.1").expect("catalog").filter);
    let singles = separate_legacy_queries(&combined.filter);

    // Ground truth: the row-at-a-time oracle and the monet baseline.
    let oracle = stats::run_oracle(&combined, &wide).unwrap();
    let monet = MonetEngine::prejoined(&wide, 4).run(&combined).unwrap();
    assert_eq!(monet.groups, oracle, "monet oracle must support the combined surface");
    let key: Vec<u64> = Vec::new();
    let oracle_row = oracle.get(&key).expect("Q1.1 selects records at SF 0.005").clone();

    for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
        for shards in [1usize, 4, 8] {
            let mut cluster = ClusterEngine::new(
                SimConfig::default(),
                wide.clone(),
                mode,
                shards,
                Partitioner::RoundRobin,
            )
            .unwrap();

            let combined_out = cluster.run(&combined).unwrap();
            assert_eq!(combined_out.groups, oracle, "{mode:?}/{shards} shards: combined vs oracle");

            let mut separate_energy = 0.0;
            let mut separate_filter_phases = 0usize;
            for (i, q) in singles.iter().enumerate() {
                let single = cluster.run(q).unwrap();
                assert_eq!(
                    single.groups[&key][0], oracle_row[i],
                    "{mode:?}/{shards} shards: column {i} of the combined run must equal \
                     the separate legacy run ({})",
                    q.id
                );
                separate_energy += single.report.energy_pj;
                separate_filter_phases += pim_logic_phases(&single);
            }

            // ≥ 1.8× lower energy for the shared-filter run.
            let ratio = separate_energy / combined_out.report.energy_pj;
            assert!(
                ratio >= 1.8,
                "{mode:?}/{shards} shards: separate/combined energy ratio {ratio:.2} < 1.8"
            );

            // ≤ one filter pass: the combined run's bulk-bitwise program
            // count stays strictly below the three runs' total (each of
            // which pays its own filter programs).
            let combined_phases = pim_logic_phases(&combined_out);
            assert!(
                combined_phases < separate_filter_phases,
                "{mode:?}/{shards} shards: {combined_phases} PimLogic phases vs \
                 {separate_filter_phases} across the separate runs"
            );
        }
    }
}

/// Total bulk-bitwise (filter + expression) program phases across a
/// cluster execution's shard reports.
fn pim_logic_phases(exec: &bbpim::cluster::ClusterExecution) -> usize {
    exec.report
        .per_shard
        .iter()
        .map(|r| r.phases.phases().iter().filter(|p| p.kind == PhaseKind::PimLogic).count())
        .sum()
}

// ---------------------------------------------------------------------
// supporting equivalences: multi-aggregate GROUP BY across shards
// ---------------------------------------------------------------------

#[test]
fn multi_aggregate_group_by_is_shard_invariant() {
    // sum + count + avg per group must merge per named column and stay
    // bit-identical across shard counts (AVG derives only after the
    // merge — the test would catch per-shard division).
    let rel = synthetic_relation(1400);
    let q = Query::select([
        SelectItem::sum("total", AggExpr::attr("lo_price")),
        SelectItem::count("n"),
        SelectItem::avg("mean", AggExpr::attr("lo_price")),
    ])
    .id("gb-stats")
    .filter(col("lo_price").gt(40u64))
    .group_by(["d_year"])
    .build(rel.schema())
    .unwrap();
    let oracle = stats::run_oracle(&q, &rel).unwrap();
    // AVG over shards differs from per-shard AVGs: prove the merge is
    // doing the right thing by checking shard counts that split groups
    // across shards.
    for shards in [1usize, 3, 5] {
        let mut cluster = ClusterEngine::new(
            SimConfig::small_for_tests(),
            rel.clone(),
            EngineMode::OneXb,
            shards,
            Partitioner::RoundRobin,
        )
        .unwrap();
        cluster
            .calibrate(&bbpim::engine::groupby::calibration::CalibrationConfig::tiny_for_tests())
            .unwrap();
        let out = cluster.run(&q).unwrap();
        assert_eq!(out.groups, oracle, "{shards} shards");
    }
}

#[test]
fn disjunctive_filter_is_shard_invariant_and_prunes() {
    // OR of two year windows on a range-partitioned cluster: the middle
    // shards must be pruned, the answer bit-identical to the oracle.
    let rel = synthetic_relation(1400); // d_year uniform over 0..7
    let q = Query::select([
        SelectItem::sum("total", AggExpr::attr("lo_price")),
        SelectItem::count("n"),
    ])
    .id("or-years")
    .filter(col("d_year").eq(0u64).or(col("d_year").eq(6u64)))
    .build(rel.schema())
    .unwrap();
    let oracle = stats::run_oracle(&q, &rel).unwrap();
    let mut cluster = ClusterEngine::new(
        SimConfig::small_for_tests(),
        rel,
        EngineMode::OneXb,
        7,
        Partitioner::range_by_attr("d_year"),
    )
    .unwrap();
    let out = cluster.run(&q).unwrap();
    assert_eq!(out.groups, oracle);
    assert_eq!(
        out.report.shards_pruned, 5,
        "the five shards between the OR branches must be pruned pre-scatter"
    );
    // the explain dump carries the pretty filter and the interval union
    let explain = cluster.explain(&q).unwrap();
    assert_eq!(explain.filter, "(d_year = 0 OR d_year = 6)");
    let (attr, intervals) = explain.filter_bounds.first().expect("d_year bounds present");
    assert_eq!(attr, "d_year");
    assert_eq!(intervals, &vec![(0, 0), (6, 6)]);
    assert!(explain.detail().contains("bounds: d_year ∈ {0} ∪ {6}"));
}
