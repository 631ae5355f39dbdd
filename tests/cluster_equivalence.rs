//! Shard-equivalence: the cluster engine must return bit-identical
//! multi-column answers to the single-module engine and the row-at-a-time
//! oracle for every shard count and partitioner, on generated SSB data,
//! including UPDATE-then-query sequences.

mod common;

use bbpim::cluster::{ClusterEngine, Partitioner};
use bbpim::db::builder::col;
use bbpim::db::plan::{AggExpr, AggFunc, Atom, Query};
use bbpim::db::ssb::queries;
use bbpim::db::stats;
use bbpim::db::Relation;
use bbpim::engine::groupby::calibration::CalibrationConfig;
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::sim::SimConfig;
use common::{prejoined_cluster_by, single_engine, ssb_wide};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn partitioners(group_by: &[String]) -> Vec<Partitioner> {
    let mut ps = vec![Partitioner::RoundRobin];
    if group_by.is_empty() {
        // hash needs keys: hash on a dimension attribute instead
        ps.push(Partitioner::HashByKey(vec!["d_year".into()]));
    } else {
        ps.push(Partitioner::hash_by_group_keys(group_by));
    }
    ps
}

#[test]
fn all_13_ssb_queries_agree_with_single_engine_and_oracle() {
    let wide = ssb_wide();
    let mut single = single_engine(wide.clone(), EngineMode::OneXb);
    let query_set = queries::standard_queries();
    let singles: Vec<_> =
        query_set.iter().map(|q| single.run(q).expect("single engine").groups).collect();

    for shards in SHARD_COUNTS {
        for (qi, q) in query_set.iter().enumerate() {
            for p in partitioners(&q.group_by) {
                let mut c = prejoined_cluster_by(&wide, shards, p.clone());
                let out = c.run(q).unwrap_or_else(|e| {
                    panic!("{} shards, {} on {}: {e}", shards, p.label(), q.id)
                });
                let oracle = stats::run_oracle(q, &wide).expect("oracle");
                assert_eq!(
                    out.groups,
                    oracle,
                    "{} vs oracle, {} shards {}",
                    q.id,
                    shards,
                    p.label()
                );
                assert_eq!(
                    out.groups,
                    singles[qi],
                    "{} vs single, {} shards {}",
                    q.id,
                    shards,
                    p.label()
                );
            }
        }
    }
}

#[test]
fn randomized_warehouses_agree_across_shard_counts() {
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xC1_0571 + case);
        let rel = random_relation(&mut rng);
        let q = Query::single(
            "prop",
            vec![Atom::Gt { attr: "lo_a".into(), value: rng.gen_range(0u64..200).into() }],
            vec!["d_g".into()],
            [AggFunc::Sum, AggFunc::Min, AggFunc::Max][rng.gen_range(0usize..3)],
            AggExpr::Attr("lo_a".into()),
        );
        let oracle = stats::run_oracle(&q, &rel).unwrap();
        for shards in SHARD_COUNTS {
            for p in partitioners(&q.group_by) {
                let mut c = ClusterEngine::new(
                    SimConfig::small_for_tests(),
                    rel.clone(),
                    EngineMode::OneXb,
                    shards,
                    p.clone(),
                )
                .unwrap();
                c.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
                let out = c.run(&q).unwrap();
                assert_eq!(out.groups, oracle, "case {case}, {shards} shards, {}", p.label());
            }
        }
    }
}

fn random_relation(rng: &mut StdRng) -> Relation {
    use bbpim::db::schema::{Attribute, Schema};
    let rows = rng.gen_range(80usize..=400);
    let schema = Schema::new(
        "w",
        vec![
            Attribute::numeric("lo_a", 8),
            Attribute::numeric("d_g", 4),
            Attribute::numeric("d_year", 3),
        ],
    )
    .unwrap();
    let mut rel = Relation::with_capacity(schema, rows);
    for _ in 0..rows {
        rel.push_row(&[rng.gen_range(0u64..256), rng.gen_range(0u64..16), rng.gen_range(0u64..8)])
            .unwrap();
    }
    rel
}

#[test]
fn update_then_query_agrees_with_single_engine() {
    let wide = ssb_wide();
    let probe = Query::single(
        "post-update",
        vec![Atom::Gt { attr: "lo_quantity".into(), value: 10u64.into() }],
        vec!["d_year".into()],
        AggFunc::Sum,
        AggExpr::Attr("lo_extendedprice".into()),
    );
    let m = Mutation::update()
        .filter(col("lo_quantity").lt(25u64))
        .set("d_year", 1998u64)
        .build(wide.schema())
        .expect("update");

    // single-module reference
    let mut single = single_engine(wide.clone(), EngineMode::OneXb);
    let single_updated = single.mutate(&m).unwrap().records_updated;
    let reference = single.run(&probe).unwrap().groups;

    for shards in SHARD_COUNTS {
        for p in partitioners(&probe.group_by) {
            let mut c = prejoined_cluster_by(&wide, shards, p.clone());
            let rep = c.mutate(&m).unwrap();
            assert_eq!(rep.records_updated, single_updated, "{shards} shards {}", p.label());
            let out = c.run(&probe).unwrap();
            assert_eq!(out.groups, reference, "{shards} shards {}", p.label());
        }
    }
}

#[test]
fn batch_results_match_individual_runs() {
    let wide = ssb_wide();
    let query_set: Vec<Query> = queries::standard_queries().into_iter().take(5).collect();
    let mut c = prejoined_cluster_by(&wide, 4, Partitioner::RoundRobin);
    let batch = c.run_batch(&query_set).unwrap();
    assert!(batch.wall_time_ns <= batch.serial_time_ns + 1e-9);
    for (q, e) in query_set.iter().zip(&batch.executions) {
        let oracle = stats::run_oracle(q, &wide).unwrap();
        assert_eq!(e.groups, oracle, "{}", q.id);
    }
}
