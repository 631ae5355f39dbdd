//! Randomized cross-crate tests: random mini-warehouses and random
//! queries must agree between the PIM engine, the column-store baseline
//! and the oracle; UPDATE through the PIM MUX must equal a host-side
//! rewrite.
//!
//! Formerly written with `proptest`; rewritten as deterministic
//! seed-driven loops because the build environment vendors only a
//! minimal `rand` stand-in. Each case is a pure function of the loop
//! index, so failures reproduce exactly.

use bbpim::db::builder::col;
use bbpim::db::plan::{AggExpr, AggFunc, Atom, Query};
use bbpim::db::schema::{Attribute, Schema};
use bbpim::db::stats;
use bbpim::db::Relation;
use bbpim::engine::engine::PimQueryEngine;
use bbpim::engine::groupby::calibration::CalibrationConfig;
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::monet::MonetEngine;
use bbpim::sim::SimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// A random mini-warehouse: two fact attributes, two dimension
/// attributes, and 64..=600 rows.
fn random_relation(rng: &mut StdRng) -> Relation {
    let rows = rng.gen_range(64usize..=600);
    let schema = Schema::new(
        "w",
        vec![
            Attribute::numeric("lo_a", 8),
            Attribute::numeric("lo_b", 6),
            Attribute::numeric("d_g", 4),
            Attribute::numeric("d_h", 3),
        ],
    )
    .unwrap();
    let mut rel = Relation::with_capacity(schema, rows);
    for _ in 0..rows {
        let row = [
            rng.gen_range(0u64..256),
            rng.gen_range(0u64..64),
            rng.gen_range(0u64..16),
            rng.gen_range(0u64..8),
        ];
        rel.push_row(&row).expect("row within widths");
    }
    rel
}

fn random_atom(rng: &mut StdRng) -> Atom {
    match rng.gen_range(0u64..5) {
        0 => Atom::Lt { attr: "lo_a".into(), value: rng.gen_range(0u64..256).into() },
        1 => Atom::Gt { attr: "lo_b".into(), value: rng.gen_range(0u64..64).into() },
        2 => Atom::Eq { attr: "d_g".into(), value: rng.gen_range(0u64..16).into() },
        3 => {
            let a = rng.gen_range(0u64..8);
            let b = rng.gen_range(0u64..8);
            Atom::Between { attr: "d_h".into(), lo: a.min(b).into(), hi: a.max(b).into() }
        }
        _ => {
            let n = rng.gen_range(1usize..4);
            Atom::In {
                attr: "d_g".into(),
                values: (0..n).map(|_| rng.gen_range(0u64..16).into()).collect(),
            }
        }
    }
}

fn random_query(rng: &mut StdRng, allow_sub: bool) -> Query {
    let agg_expr = loop {
        let e = match rng.gen_range(0u64..3) {
            0 => AggExpr::Attr("lo_a".into()),
            1 => AggExpr::Mul("lo_a".into(), "lo_b".into()),
            _ => AggExpr::Sub("lo_a".into(), "lo_b".into()),
        };
        // Sub can wrap (lo_a < lo_b); both oracle and engine use the
        // same wrapping semantics at the attribute widths, except the
        // in-crossbar subtraction wraps at max(width) while the oracle
        // wraps at u64 — keep inputs non-negative instead.
        if allow_sub || !matches!(e, AggExpr::Sub(..)) {
            break e;
        }
    };
    let agg_func = match rng.gen_range(0u64..5) {
        0 => AggFunc::Sum,
        1 => AggFunc::Min,
        2 => AggFunc::Max,
        3 => AggFunc::Count,
        _ => AggFunc::Avg,
    };
    let group_by = match rng.gen_range(0u64..3) {
        0 => Vec::new(),
        1 => vec!["d_g".to_string()],
        _ => vec!["d_g".to_string(), "d_h".to_string()],
    };
    let filter = (0..rng.gen_range(0usize..3)).map(|_| random_atom(rng)).collect();
    Query::single("prop", filter, group_by, agg_func, agg_expr)
}

#[test]
fn pim_engine_matches_oracle() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA110 + case);
        let rel = random_relation(&mut rng);
        let q = random_query(&mut rng, false);
        let mut engine =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        engine.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        let out = engine.run(&q).unwrap();
        let oracle = stats::run_oracle(&q, &rel).unwrap();
        assert_eq!(out.groups, oracle, "case {case}: {q:?}");
    }
}

#[test]
fn monet_matches_oracle() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB220 + case);
        let rel = random_relation(&mut rng);
        let q = random_query(&mut rng, true);
        let engine = MonetEngine::prejoined(&rel, 3);
        let got = engine.run(&q).unwrap();
        let oracle = stats::run_oracle(&q, &rel).unwrap();
        assert_eq!(got.groups, oracle, "case {case}: {q:?}");
    }
}

#[test]
fn update_via_mux_equals_host_rewrite() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC330 + case);
        let rel = random_relation(&mut rng);
        let threshold = rng.gen_range(0u64..256);
        let new_value = rng.gen_range(0u64..16);
        let mut engine =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        let m = Mutation::update()
            .filter(col("lo_a").lt(threshold))
            .set("d_g", new_value)
            .build(rel.schema())
            .expect("update");
        let report = engine.mutate(&m).unwrap();

        // host-side reference rewrite
        let mut reference = rel.clone();
        let g = reference.schema().index_of("d_g").unwrap();
        let a = reference.schema().index_of("lo_a").unwrap();
        let mut updated = 0u64;
        for row in 0..reference.len() {
            if reference.value(row, a) < threshold {
                reference.set_value(row, g, new_value).unwrap();
                updated += 1;
            }
        }
        assert_eq!(report.records_updated, updated, "case {case}");
        // engine catalog and reference agree
        for row in 0..reference.len() {
            assert_eq!(engine.relation().value(row, g), reference.value(row, g), "case {case}");
        }
    }
}

#[test]
fn selectivity_is_exact() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD440 + case);
        let rel = random_relation(&mut rng);
        let q = random_query(&mut rng, true);
        let mut engine =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        engine.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        let out = engine.run(&q).unwrap();
        let expected = stats::selectivity(&q, &rel).unwrap();
        assert!(
            (out.report.selectivity - expected).abs() < 1e-12,
            "case {case}: {} vs {expected}",
            out.report.selectivity
        );
    }
}
