//! Pruning equivalence: zone-map-driven execution (shard- and
//! page-level pruning) must be bit-identical to the row-at-a-time
//! oracle for every SSB query, partitioner and shard count — including
//! after UPDATEs, which exercise zone-map widening — and must actually
//! prune (and win wall clock) on the range-partitioned placements the
//! planner was built for.

mod common;

use bbpim::cluster::{ClusterEngine, ClusterError, Partitioner, StreamEngine};
use bbpim::db::builder::col;
use bbpim::db::error::DbError;
use bbpim::db::plan::{AggExpr, AggFunc, Atom, Query, SelectItem};
use bbpim::db::schema::{Attribute, Schema};
use bbpim::db::ssb::{queries, SsbDb, SsbParams};
use bbpim::db::{stats, Relation};
use bbpim::engine::error::CoreError;
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::join::StarCluster;
use bbpim::sim::SimConfig;
use common::{prejoined_cluster, prejoined_cluster_by, single_engine, ssb, ssb_wide};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

fn partitioners(group_by: &[String]) -> Vec<Partitioner> {
    let mut ps = vec![Partitioner::RoundRobin, Partitioner::range_by_attr("d_year")];
    if group_by.is_empty() {
        // hash needs keys: hash on a dimension attribute instead
        ps.push(Partitioner::HashByKey(vec!["d_year".into()]));
    } else {
        ps.push(Partitioner::hash_by_group_keys(group_by));
    }
    ps
}

/// `set_pruning` reaches every table of a star cluster — each fact shard
/// and each dimension module — both ways, and every answer stays
/// oracle-identical under each setting. Pruning is sound, so answers
/// alone would not notice a table the switch missed.
#[test]
fn set_pruning_reaches_every_fact_shard_and_dimension_table() {
    let db = ssb();
    let wide = db.prejoin();
    let mut c = StarCluster::new(
        SimConfig::small_for_tests(),
        &db,
        EngineMode::OneXb,
        4,
        Partitioner::range_by_attr("lo_orderdate"),
    )
    .expect("star cluster construction");
    assert!(c.pruning(), "pruning must be the default");
    for enabled in [false, true] {
        c.set_pruning(enabled);
        assert_eq!(c.pruning(), enabled);
        let shards = (0..c.active_shards()).map(|i| c.shard_table(i).expect("active shard"));
        let tables: Vec<_> = shards.chain((0..).map_while(|d| c.aux_table(d))).collect();
        assert_eq!(tables.len(), c.active_shards() + 4, "four dimension tables");
        for table in tables {
            assert_eq!(table.pruning(), enabled, "{table:?} after set_pruning({enabled})");
        }
        for q in queries::standard_queries() {
            let out = c.run(&q).unwrap_or_else(|e| panic!("{} pruning={enabled}: {e}", q.id));
            let oracle = stats::run_oracle(&q, &wide).expect("oracle");
            assert_eq!(out.groups, oracle, "{} pruning={enabled}", q.id);
        }
    }
}

/// Run `q` pruned and exhaustive on `c`, checking both against `oracle`.
fn check_pruned_vs_exhaustive(
    c: &mut ClusterEngine,
    q: &Query,
    oracle: &stats::MultiGrouped,
    label: &str,
) {
    c.set_pruning(true);
    let pruned = c.run(q).unwrap_or_else(|e| panic!("{label} on {}: {e}", q.id));
    assert_eq!(&pruned.groups, oracle, "pruned vs oracle, {} {label}", q.id);
    // exhaustive dispatch agrees bit-exactly and never scans fewer
    // pages than the pruned plan
    c.set_pruning(false);
    let exhaustive = c.run(q).unwrap();
    assert_eq!(exhaustive.groups, pruned.groups, "{} {label}", q.id);
    assert_eq!(exhaustive.report.shards_pruned, 0);
    assert!(pruned.report.pages_scanned <= exhaustive.report.pages_scanned, "{} {label}", q.id);
    c.set_pruning(true);
}

#[test]
fn all_13_queries_pruned_equals_oracle_all_partitioners() {
    let wide = ssb_wide();
    let query_set = queries::standard_queries();
    let oracles: Vec<_> =
        query_set.iter().map(|q| stats::run_oracle(q, &wide).expect("oracle")).collect();

    for shards in SHARD_COUNTS {
        // query-independent partitioners: one calibrated cluster each
        for p in [Partitioner::RoundRobin, Partitioner::range_by_attr("d_year")] {
            let mut c = prejoined_cluster_by(&wide, shards, p.clone());
            assert!(c.pruning(), "pruning must be the default");
            for (q, oracle) in query_set.iter().zip(&oracles) {
                check_pruned_vs_exhaustive(
                    &mut c,
                    q,
                    oracle,
                    &format!("{} shards {}", shards, p.label()),
                );
            }
        }
        // hash partitioning keys depend on the query's GROUP BY
        for (q, oracle) in query_set.iter().zip(&oracles) {
            let p = if q.group_by.is_empty() {
                Partitioner::HashByKey(vec!["d_year".into()])
            } else {
                Partitioner::hash_by_group_keys(&q.group_by)
            };
            let mut c = prejoined_cluster_by(&wide, shards, p.clone());
            check_pruned_vs_exhaustive(
                &mut c,
                q,
                oracle,
                &format!("{} shards {}", shards, p.label()),
            );
        }
    }
}

#[test]
fn update_then_query_keeps_pruning_sound() {
    let wide = ssb_wide();
    let probe = Query::single(
        "post-update",
        vec![
            Atom::Eq { attr: "d_year".into(), value: 1998u64.into() },
            Atom::Gt { attr: "lo_quantity".into(), value: 10u64.into() },
        ],
        vec!["d_year".into()],
        AggFunc::Sum,
        AggExpr::Attr("lo_extendedprice".into()),
    );
    // Moves records *into* d_year = 1998: range shards that never held
    // 1998 must widen their zones or the probe would miss the records.
    let m = Mutation::update()
        .filter(col("lo_quantity").lt(25u64))
        .set("d_year", 1998u64)
        .build(wide.schema())
        .expect("update");

    // host-side reference: apply the update to a relation copy
    let mut reference = wide.clone();
    let (y, qty) = (
        reference.schema().index_of("d_year").unwrap(),
        reference.schema().index_of("lo_quantity").unwrap(),
    );
    let mut expected_updates = 0u64;
    for row in 0..reference.len() {
        if reference.value(row, qty) < 25 {
            reference.set_value(row, y, 1998).unwrap();
            expected_updates += 1;
        }
    }
    let oracle = stats::run_oracle(&probe, &reference).expect("oracle");

    for shards in SHARD_COUNTS {
        for p in partitioners(&probe.group_by) {
            let mut c = prejoined_cluster_by(&wide, shards, p.clone());
            let rep = c.mutate(&m).unwrap();
            assert_eq!(rep.records_updated, expected_updates, "{shards} shards {}", p.label());
            let out = c.run(&probe).unwrap();
            assert_eq!(out.groups, oracle, "{shards} shards {}", p.label());
        }
    }
}

/// An UPDATE whose SET list holds a numeric constant wider than its
/// attribute is refused whole, with nothing written. `build` names the
/// attribute; unchecked, the mutation fails on a single engine in every
/// mode and on a range-partitioned cluster before its first write, and
/// every probe, pruned and exhaustive, still answers as the unchanged
/// relation does. Had `lo_a = 200` been written before `lo_b = 1000`
/// failed, records would hold a `lo_a` no zone map admits, and the
/// pruned `lo_a = 200` count would miss them.
#[test]
fn an_out_of_range_set_constant_writes_nothing() {
    let attrs = vec![
        Attribute::numeric("lo_a", 8),
        Attribute::numeric("lo_b", 4),
        Attribute::numeric("d_year", 3),
    ];
    let mut rel = Relation::new(Schema::new("t", attrs).unwrap());
    for i in 0..5000u64 {
        rel.push_row(&[i % 199, i % 16, (i / 700) % 8]).unwrap();
    }
    let update = || {
        let m = Mutation::update().filter(col("lo_b").eq(3u64));
        m.set("lo_a", 200u64).set("lo_b", 1000u64)
    };
    let out_of_range = |err: &CoreError| matches!(err, CoreError::Db(DbError::ValueOutOfRange { attr, value: 1000, bits: 4 }) if attr == "lo_b");
    let err = update().build(rel.schema()).unwrap_err();
    assert!(out_of_range(&err), "{err}");
    let m = update().build_unchecked();
    let mut replayed = rel.clone();
    assert!(m.apply_to(&mut replayed).is_err(), "the replay oracle applied it");
    assert_eq!(replayed, rel, "the replay oracle wrote before refusing");

    let count = |filter| Query::select([SelectItem::count("n")]).filter(filter).build_unchecked();
    let by_year = Query::select([SelectItem::sum("s", AggExpr::attr("lo_a"))])
        .filter(col("lo_b").lt(8u64))
        .group_by(["d_year"])
        .build_unchecked();
    let probes = [count(col("lo_a").eq(200u64)), count(col("lo_b").eq(3u64)), by_year];
    let oracles: Vec<_> = probes.iter().map(|q| stats::run_oracle(q, &rel).unwrap()).collect();

    for mode in [EngineMode::OneXb, EngineMode::TwoXb, EngineMode::PimDb] {
        let mut engine = single_engine(rel.clone(), mode);
        let err = engine.mutate(&m).unwrap_err();
        assert!(out_of_range(&err), "{mode:?}: {err}");
        for pruning in [true, false] {
            engine.set_pruning(pruning);
            for (q, oracle) in probes.iter().zip(&oracles) {
                let got = engine.run(q).unwrap().groups;
                assert_eq!(&got, oracle, "{mode:?} pruning={pruning}: {}", q.filter);
            }
        }
    }
    let mut c = prejoined_cluster_by(&rel, 4, Partitioner::range_by_attr("d_year"));
    match c.mutate(&m).unwrap_err() {
        ClusterError::Core(err) => assert!(out_of_range(&err), "cluster: {err}"),
        err => panic!("cluster: {err}"),
    }
    for pruning in [true, false] {
        c.set_pruning(pruning);
        for (q, oracle) in probes.iter().zip(&oracles) {
            let got = c.run(q).unwrap().groups;
            assert_eq!(&got, oracle, "cluster pruning={pruning}: {}", q.filter);
        }
    }
}

/// A predicate constant wider than its attribute selects what the oracle
/// selects: the atom's value runs clip to the attribute's domain
/// (`lo_quantity` is 6 bits, `d_year` 11), so `lo_quantity < 1000` is
/// every record and `= 1000` none. Each atom — a fact atom, and the
/// dimension atom `d_year < 100000` — answers as the oracle does on the
/// single engine in every mode with pruning on and off, on a 4-shard
/// range-partitioned cluster and on the 4-shard star cluster.
#[test]
fn constants_wider_than_the_attribute_answer_as_the_oracle_does() {
    let db = ssb();
    let wide = db.prejoin();
    let filters = [
        col("lo_quantity").lt(1000u64),
        col("lo_quantity").gt(1000u64),
        col("lo_quantity").eq(1000u64),
        col("lo_quantity").between(3u64, 1000u64),
        col("lo_quantity").is_in([2u64, 1000]),
        col("d_year").lt(100_000u64),
    ];
    let probes: Vec<Query> = filters
        .iter()
        .map(|f| {
            let revenue = SelectItem::sum("r", AggExpr::attr("lo_revenue"));
            Query::select([SelectItem::count("n"), revenue]).filter(f.clone()).build_unchecked()
        })
        .collect();
    let oracles: Vec<_> = probes.iter().map(|q| stats::run_oracle(q, &wide).unwrap()).collect();
    let check = |what: &str, run: &mut dyn FnMut(&Query) -> stats::MultiGrouped| {
        for (q, oracle) in probes.iter().zip(&oracles) {
            assert_eq!(&run(q), oracle, "{what}: {}", q.filter);
        }
    };
    for mode in [EngineMode::OneXb, EngineMode::TwoXb, EngineMode::PimDb] {
        let mut engine = single_engine(wide.clone(), mode);
        for pruning in [true, false] {
            engine.set_pruning(pruning);
            let what = format!("{mode:?} pruning={pruning}");
            check(&what, &mut |q| engine.run(q).unwrap_or_else(|e| panic!("{what}: {e}")).groups);
        }
    }
    let mut c = prejoined_cluster(&wide, 4);
    let mut star = common::star_cluster(&db, 4);
    for pruning in [true, false] {
        c.set_pruning(pruning);
        star.set_pruning(pruning);
        let what = format!("cluster pruning={pruning}");
        check(&what, &mut |q| c.run(q).unwrap_or_else(|e| panic!("{what}: {e}")).groups);
        let what = format!("star pruning={pruning}");
        check(&what, &mut |q| star.run(q).unwrap_or_else(|e| panic!("{what}: {e}")).groups);
    }
}

/// Property test for OR-filtered (DNF) UPDATE widening: random
/// disjunctive filters and SET targets, applied to a range-partitioned
/// cluster, must leave every zone map wide enough that a pruned probe
/// over the SET attribute still matches a host-side rewrite. A widening
/// bug that unions only one disjunct's interval (or widens the wrong
/// attribute) makes the pruned probe silently drop the moved records.
#[test]
fn dnf_update_then_query_keeps_pruning_sound() {
    let wide = ssb_wide();
    let years: Vec<u64> = {
        let y = wide.schema().index_of("d_year").unwrap();
        let mut seen: Vec<u64> = (0..wide.len()).map(|r| wide.value(r, y)).collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    };
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xD9F_000 + case);
        // two-to-three-branch DNF over distinct years, moved to a
        // random (possibly brand-new) target year
        let mut pick = years.clone();
        let branches = rng.gen_range(2usize..=3);
        let mut chosen = Vec::with_capacity(branches);
        for _ in 0..branches {
            chosen.push(pick.remove(rng.gen_range(0..pick.len())));
        }
        let target = years[0] + rng.gen_range(0u64..=7);
        let qty_cap = rng.gen_range(5u64..=40);
        let mut filter = col("d_year").eq(chosen[0]).and(col("lo_quantity").lt(qty_cap));
        for &y in &chosen[1..] {
            filter = filter.or(col("d_year").eq(y).and(col("lo_quantity").lt(qty_cap)));
        }
        let m = Mutation::update()
            .filter(filter)
            .set("d_year", target)
            .build(wide.schema())
            .expect("DNF update");

        // host-side reference rewrite
        let mut reference = wide.clone();
        let (y, qty) = (
            reference.schema().index_of("d_year").unwrap(),
            reference.schema().index_of("lo_quantity").unwrap(),
        );
        let mut expected = 0u64;
        for row in 0..reference.len() {
            let hit =
                chosen.contains(&reference.value(row, y)) && reference.value(row, qty) < qty_cap;
            if hit {
                reference.set_value(row, y, target).unwrap();
                expected += 1;
            }
        }
        let probe = Query::single(
            format!("dnf-probe-{case}"),
            vec![Atom::Eq { attr: "d_year".into(), value: target.into() }],
            vec!["d_year".into()],
            AggFunc::Sum,
            AggExpr::Attr("lo_extendedprice".into()),
        );
        let oracle = stats::run_oracle(&probe, &reference).expect("oracle");

        for shards in [4usize, 8] {
            let mut c = prejoined_cluster(&wide, shards);
            let rep = c.mutate(&m).unwrap();
            assert_eq!(
                rep.records_updated,
                expected,
                "case {case}, {shards} shards: {} -> {target} under qty < {qty_cap}",
                chosen.iter().map(ToString::to_string).collect::<Vec<_>>().join("|"),
            );
            let out = c.run(&probe).unwrap();
            assert_eq!(
                out.groups, oracle,
                "case {case}, {shards} shards: pruned post-DNF-update answer diverged",
            );
        }
    }
}

/// The acceptance experiment: SSB Q1.1 (`d_year = 1993`) on an 8-shard
/// `RangeByAttr(d_year)` cluster. The seven SSB years map to distinct
/// buckets, so the zone maps prove at least 6 shards irrelevant before
/// the scatter, and skipping their host-side per-page dispatch must buy
/// at least 2× simulated wall clock over exhaustive dispatch — with the
/// answer bit-identical to the single-relation oracle.
#[test]
fn q11_range_by_year_prunes_6_of_8_shards_and_wins_2x() {
    let params = SsbParams { sf: 0.02, seed: 7, skew_theta: None };
    let wide = SsbDb::generate(&params).prejoin();
    let q = queries::standard_query("Q1.1").unwrap();
    let oracle = stats::run_oracle(&q, &wide).expect("oracle");
    assert!(!oracle.is_empty(), "Q1.1 must select something at this scale");

    // Full-width crossbars (the wide record needs 512 columns) but a
    // small page geometry, so the instance spans realistically many
    // pages without a production-scale record count.
    let mut cfg = SimConfig::small_for_tests();
    cfg.crossbar_cols = 512;
    cfg.page_bytes = cfg.crossbar_bytes() * 4;
    cfg.module_capacity_bytes = (cfg.page_bytes as u64) * 4096;
    cfg.validate().expect("consistent test geometry");

    let mut c = ClusterEngine::new(
        cfg,
        wide.clone(),
        EngineMode::OneXb,
        8,
        Partitioner::range_by_attr("d_year"),
    )
    .expect("cluster construction");
    // Batched dispatch descriptors (the byte-diet default) amortise the
    // very per-page dispatch cost this experiment measures pruning
    // against — pin the legacy per-page charge so the 2x bound keeps
    // measuring the pruning economics, not the batching ones.
    c.set_xfer_policy(bbpim::sim::XferPolicy {
        batch_dispatch: false,
        ..bbpim::sim::XferPolicy::default()
    });

    c.set_pruning(false);
    let exhaustive = c.run(&q).unwrap();
    c.set_pruning(true);
    let pruned = c.run(&q).unwrap();

    assert_eq!(pruned.groups, oracle, "pruned answer must equal the oracle");
    assert_eq!(exhaustive.groups, oracle, "exhaustive answer must equal the oracle");

    assert!(
        pruned.report.shards_pruned >= 6,
        "expected >= 6 of 8 shards pruned pre-scatter, got {} (active {})",
        pruned.report.shards_pruned,
        pruned.report.active_shards
    );
    let speedup = exhaustive.report.time_ns / pruned.report.time_ns;
    assert!(
        speedup >= 2.0,
        "zone-map pruning must improve simulated wall clock >= 2x over exhaustive \
         dispatch, got {speedup:.2}x ({:.3} ms vs {:.3} ms)",
        exhaustive.report.time_ns / 1e6,
        pruned.report.time_ns / 1e6
    );
    // pruned pages are unactivated: energy drops too
    assert!(pruned.report.energy_pj < exhaustive.report.energy_pj);
}
