//! Randomized tests on the relational substrate: dictionary
//! round-trips, width enforcement, oracle algebra, and generator
//! invariants.
//!
//! Formerly written with `proptest`; rewritten as deterministic
//! seed-driven loops (see `tests/properties.rs` at the workspace root
//! for the rationale).

use std::collections::BTreeSet;

use bbpim_db::column::Column;
use bbpim_db::dict::{bits_for, Dictionary};
use bbpim_db::plan::{AggExpr, AggFunc, Atom, Pred, Query};
use bbpim_db::relation::Relation;
use bbpim_db::schema::{Attribute, Schema};
use bbpim_db::ssb::skew::Zipf;
use bbpim_db::stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

fn random_word(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1usize..=8);
    (0..len).map(|_| (b'a' + rng.gen_range(0u64..26) as u8) as char).collect()
}

#[test]
fn dictionary_roundtrips() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1D1C7 + case);
        let mut words = BTreeSet::new();
        for _ in 0..rng.gen_range(1usize..50) {
            words.insert(random_word(&mut rng));
        }
        let values: Vec<String> = words.into_iter().collect(); // sorted, unique
        let dict = Dictionary::from_sorted(values.clone()).unwrap();
        for (code, value) in dict.iter() {
            assert_eq!(dict.encode(value), Some(code), "case {case}");
            assert_eq!(dict.decode(code), Some(value), "case {case}");
        }
        assert!(dict.code_bits() <= 6, "case {case}");
        assert_eq!(dict.len(), values.len(), "case {case}");
    }
}

#[test]
fn bits_for_is_minimal() {
    let mut rng = StdRng::seed_from_u64(0xB175);
    let check = |v: u64| {
        let bits = bits_for(v);
        assert!((1..=64).contains(&bits), "v={v}");
        if bits < 64 {
            assert!(v < (1u64 << bits), "v={v}");
        }
        if bits > 1 {
            assert!(v >= (1u64 << (bits - 1)), "v={v}");
        }
    };
    check(0);
    check(1);
    check(u64::MAX);
    for _ in 0..CASES {
        check(rng.gen::<u64>());
        // small values exercise the low-bit edge cases
        check(rng.gen_range(0u64..1024));
    }
}

#[test]
fn column_width_is_enforced() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC01 + case);
        let width = rng.gen_range(1usize..=63);
        let mut col = Column::new(width);
        let limit = 1u64 << width;
        for _ in 0..rng.gen_range(1usize..100) {
            // mix in-range and out-of-range values
            let v = if rng.gen::<bool>() { rng.gen::<u64>() } else { rng.gen::<u64>() % limit };
            let result = col.push(v);
            assert_eq!(result.is_ok(), v < limit, "case {case}, width {width}, v {v}");
        }
    }
}

fn two_attr_relation(rng: &mut StdRng) -> Relation {
    let schema =
        Schema::new("t", vec![Attribute::numeric("g", 3), Attribute::numeric("v", 7)]).unwrap();
    let mut rel = Relation::new(schema);
    for _ in 0..rng.gen_range(10usize..200) {
        rel.push_row(&[rng.gen_range(0u64..8), rng.gen_range(0u64..100)]).unwrap();
    }
    rel
}

#[test]
fn oracle_total_equals_sum_of_groups() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x04AC1E + case);
        let rel = two_attr_relation(&mut rng);
        let grouped =
            Query::single("g", vec![], vec!["g".into()], AggFunc::Sum, AggExpr::attr("v"));
        let total = Query { group_by: vec![], ..grouped.clone() };
        let by_group = stats::run_oracle(&grouped, &rel).unwrap();
        let overall = stats::run_oracle(&total, &rel).unwrap();
        let sum_of_groups: u64 = by_group.values().map(|vs| vs[0]).sum();
        assert_eq!(overall[&Vec::<u64>::new()], vec![sum_of_groups], "case {case}");
    }
}

#[test]
fn filter_monotone_under_conjunction() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF117 + case);
        let rel = two_attr_relation(&mut rng);
        let threshold = rng.gen_range(0u64..100);
        let one = Query::single(
            "one",
            vec![Atom::Lt { attr: "v".into(), value: threshold.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::attr("v"),
        );
        let two = Query {
            filter: Pred::all(vec![
                Atom::Lt { attr: "v".into(), value: threshold.into() },
                Atom::Eq { attr: "g".into(), value: 3u64.into() },
            ]),
            ..one.clone()
        };
        let s1 = stats::selectivity(&one, &rel).unwrap();
        let s2 = stats::selectivity(&two, &rel).unwrap();
        assert!(s2 <= s1 + 1e-12, "case {case}: adding a conjunct cannot select more");
    }
}

#[test]
fn zipf_samples_in_range() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x21BF + case);
        let n = rng.gen_range(1usize..1000);
        let theta = rng.gen::<f64>() * 1.5;
        let z = Zipf::new(n, theta);
        let mut sample_rng = StdRng::seed_from_u64(rng.gen::<u64>());
        for _ in 0..100 {
            let v = z.sample(&mut sample_rng);
            assert!(v >= 1 && v <= n as u64, "case {case}: {v} outside 1..={n}");
        }
    }
}

#[test]
fn potential_subgroups_bounds_occupied() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5B6 + case);
        let schema = Schema::new(
            "t",
            vec![
                Attribute::numeric("d_g", 3),
                Attribute::numeric("d_h", 2),
                Attribute::numeric("lo_v", 6),
            ],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        for _ in 0..rng.gen_range(20usize..200) {
            rel.push_row(&[
                rng.gen_range(0u64..6),
                rng.gen_range(0u64..4),
                rng.gen_range(0u64..50),
            ])
            .unwrap();
        }
        let q = Query::single(
            "t",
            vec![Atom::Lt { attr: "lo_v".into(), value: 25u64.into() }],
            vec!["d_g".into(), "d_h".into()],
            AggFunc::Sum,
            AggExpr::attr("lo_v"),
        );
        let potential = stats::potential_subgroups(&q, &rel).unwrap();
        let occupied = stats::occupied_subgroups(&q, &rel).unwrap();
        assert!(occupied <= potential, "case {case}: occupied {occupied} > potential {potential}");
    }
}
