//! The LINEORDER fact relation generator.
//!
//! Orders have 1–7 lines (≈4 on average, so a scale factor `sf` yields
//! ≈ 6,000,000 × sf lineorders from 1,500,000 × sf orders). Foreign keys
//! are drawn uniformly, or Zipf-distributed when a skew θ is configured
//! (the Rabl et al. variant the paper evaluates). `lo_supplycost` is
//! generated at 8–12 % of the extended price so that SSB Q4's
//! `revenue − supplycost` is always positive — documented substitution
//! for dbgen's formula, which preserves the profit-query behaviour.

use rand::rngs::StdRng;
use rand::Rng;

use crate::dict::bits_for;
use crate::error::DbError;
use crate::relation::Relation;
use crate::schema::{Attribute, Schema};
use crate::ssb::calendar;
use crate::ssb::dims::part_price;
use crate::ssb::names;
use crate::ssb::skew::Zipf;

/// Key-space sampler: uniform or Zipf over `1..=n`.
#[derive(Debug)]
pub enum KeySampler {
    /// Uniform over `1..=n`.
    Uniform(u64),
    /// Zipf over `1..=n`.
    Zipf(Zipf),
}

impl KeySampler {
    /// Build for `n` keys with optional Zipf θ.
    pub fn new(n: usize, theta: Option<f64>) -> Self {
        match theta {
            Some(t) if t > 0.0 => KeySampler::Zipf(Zipf::new(n, t)),
            _ => KeySampler::Uniform(n as u64),
        }
    }

    /// Draw a key in `1..=n`.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match self {
            KeySampler::Uniform(n) => rng.gen_range(1..=*n),
            KeySampler::Zipf(z) => z.sample(rng),
        }
    }
}

/// Inputs for [`generate`].
#[derive(Debug)]
pub struct LineorderSpec {
    /// Number of orders (lineorders ≈ 4 × orders).
    pub orders: usize,
    /// Customer count (key space).
    pub customers: usize,
    /// Supplier count.
    pub suppliers: usize,
    /// Part count.
    pub parts: usize,
    /// Zipf θ for foreign keys (None = uniform).
    pub skew_theta: Option<f64>,
}

/// Generate the LINEORDER relation.
///
/// # Errors
///
/// Propagates dictionary/width failures.
pub fn generate(spec: &LineorderSpec, rng: &mut StdRng) -> Result<Relation, DbError> {
    let prio_d = names::list_dict(&names::ORDER_PRIORITIES)?;
    let ship_d = names::list_dict(&names::SHIP_MODES)?;
    let max_ext = 50 * 9999u64;
    let schema = Schema::new(
        "lineorder",
        vec![
            Attribute::numeric("lo_orderkey", bits_for(spec.orders as u64)),
            Attribute::numeric("lo_linenumber", 3),
            Attribute::numeric("lo_custkey", bits_for(spec.customers as u64)),
            Attribute::numeric("lo_partkey", bits_for(spec.parts as u64)),
            Attribute::numeric("lo_suppkey", bits_for(spec.suppliers as u64)),
            Attribute::numeric("lo_orderdate", bits_for(calendar::TOTAL_DAYS as u64 - 1)),
            Attribute::dict("lo_orderpriority", prio_d),
            Attribute::numeric("lo_shippriority", 1),
            Attribute::numeric("lo_quantity", 6),
            Attribute::numeric("lo_extendedprice", bits_for(max_ext)),
            Attribute::numeric("lo_ordtotalprice", bits_for(7 * max_ext)),
            Attribute::numeric("lo_discount", 4),
            Attribute::numeric("lo_revenue", bits_for(max_ext)),
            Attribute::numeric("lo_supplycost", bits_for(max_ext * 12 / 100)),
            Attribute::numeric("lo_tax", 4),
            Attribute::numeric("lo_commitdate", bits_for(calendar::TOTAL_DAYS as u64 - 1)),
            Attribute::dict("lo_shipmode", ship_d),
        ],
    )?;

    let cust = KeySampler::new(spec.customers, spec.skew_theta);
    let part = KeySampler::new(spec.parts, spec.skew_theta);
    let supp = KeySampler::new(spec.suppliers, spec.skew_theta);
    let day = KeySampler::new(calendar::TOTAL_DAYS, spec.skew_theta);

    let mut rel = Relation::with_capacity(schema, spec.orders * 4);
    let mut line_buf: Vec<[u64; 17]> = Vec::with_capacity(7);
    for orderkey in 1..=spec.orders as u64 {
        let custkey = cust.sample(rng);
        let orderdate = day.sample(rng) - 1; // day index 0-based
        let priority = rng.gen_range(0..names::ORDER_PRIORITIES.len() as u64);
        let lines = rng.gen_range(1..=7u64);
        line_buf.clear();
        let mut ordtotal = 0u64;
        for line in 1..=lines {
            let partkey = part.sample(rng);
            let suppkey = supp.sample(rng);
            let quantity = rng.gen_range(1..=50u64);
            let discount = rng.gen_range(0..=10u64);
            let tax = rng.gen_range(0..=8u64);
            let extended = quantity * part_price(partkey);
            let revenue = extended * (100 - discount) / 100;
            let supplycost = extended * rng.gen_range(8..=12u64) / 100;
            let commit =
                (orderdate + rng.gen_range(30..=90u64)).min(calendar::TOTAL_DAYS as u64 - 1);
            let shipmode = rng.gen_range(0..names::SHIP_MODES.len() as u64);
            ordtotal += extended;
            line_buf.push([
                orderkey, line, custkey, partkey, suppkey, orderdate, priority, 0, quantity,
                extended, 0, discount, revenue, supplycost, tax, commit, shipmode,
            ]);
        }
        for row in line_buf.iter_mut() {
            row[10] = ordtotal;
            rel.push_row(row.as_slice())?;
        }
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn spec() -> LineorderSpec {
        LineorderSpec { orders: 500, customers: 100, suppliers: 10, parts: 400, skew_theta: None }
    }

    fn gen_with(theta: Option<f64>) -> Relation {
        let mut s = spec();
        s.skew_theta = theta;
        generate(&s, &mut StdRng::seed_from_u64(5)).unwrap()
    }

    #[test]
    fn line_count_near_four_per_order() {
        let lo = gen_with(None);
        let per_order = lo.len() as f64 / 500.0;
        assert!((3.0..5.0).contains(&per_order), "avg lines {per_order}");
    }

    #[test]
    fn revenue_formula_holds() {
        let lo = gen_with(None);
        for row in 0..lo.len().min(500) {
            let ext = lo.value_by_name(row, "lo_extendedprice").unwrap();
            let disc = lo.value_by_name(row, "lo_discount").unwrap();
            let rev = lo.value_by_name(row, "lo_revenue").unwrap();
            assert_eq!(rev, ext * (100 - disc) / 100);
        }
    }

    #[test]
    fn profit_always_positive() {
        let lo = gen_with(None);
        for row in 0..lo.len() {
            let rev = lo.value_by_name(row, "lo_revenue").unwrap();
            let cost = lo.value_by_name(row, "lo_supplycost").unwrap();
            assert!(rev >= cost, "row {row}: revenue {rev} < supplycost {cost}");
        }
    }

    #[test]
    fn ordtotalprice_sums_order_lines() {
        let lo = gen_with(None);
        // collect per order
        use std::collections::HashMap;
        let mut sums: HashMap<u64, u64> = HashMap::new();
        for row in 0..lo.len() {
            let ok = lo.value_by_name(row, "lo_orderkey").unwrap();
            let ext = lo.value_by_name(row, "lo_extendedprice").unwrap();
            *sums.entry(ok).or_default() += ext;
        }
        for row in 0..lo.len() {
            let ok = lo.value_by_name(row, "lo_orderkey").unwrap();
            let tot = lo.value_by_name(row, "lo_ordtotalprice").unwrap();
            assert_eq!(tot, sums[&ok]);
        }
    }

    #[test]
    fn foreign_keys_in_range() {
        let lo = gen_with(None);
        for row in 0..lo.len() {
            assert!((1..=100).contains(&lo.value_by_name(row, "lo_custkey").unwrap()));
            assert!((1..=400).contains(&lo.value_by_name(row, "lo_partkey").unwrap()));
            assert!((1..=10).contains(&lo.value_by_name(row, "lo_suppkey").unwrap()));
            assert!(lo.value_by_name(row, "lo_orderdate").unwrap() < 2556);
        }
    }

    #[test]
    fn commitdate_after_orderdate() {
        let lo = gen_with(None);
        for row in 0..lo.len() {
            let od = lo.value_by_name(row, "lo_orderdate").unwrap();
            let cd = lo.value_by_name(row, "lo_commitdate").unwrap();
            assert!(cd >= od);
        }
    }

    #[test]
    fn skew_concentrates_customers() {
        let uniform = gen_with(None);
        let skewed = gen_with(Some(1.0));
        let share = |rel: &Relation| {
            let col = rel.column_by_name("lo_custkey").unwrap();
            let top = (0..col.len()).filter(|&row| col.get(row) == 1).count();
            top as f64 / rel.len() as f64
        };
        assert!(share(&skewed) > 4.0 * share(&uniform), "zipf head should dominate");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&spec(), &mut StdRng::seed_from_u64(11)).unwrap();
        let b = generate(&spec(), &mut StdRng::seed_from_u64(11)).unwrap();
        assert_eq!(a.row(100), b.row(100));
    }
}
