//! Pre-joining (denormalisation) of the star schema.
//!
//! Section III of the paper: the fact relation is equi-joined with every
//! dimension on the dimension keys. Keys are unique, so each lineorder
//! matches exactly one row per dimension — the wide relation has exactly
//! as many records as the fact relation (no fan-out), and only grows in
//! record *width*, which bulk-bitwise PIM absorbs in the unused crossbar
//! row space.
//!
//! The duplicate key columns of the dimensions are dropped (their values
//! equal `lo_custkey` / `lo_suppkey` / `lo_partkey` / `lo_orderdate`).

use crate::error::DbError;
use crate::relation::Relation;
use crate::schema::Schema;

/// Dimension key columns omitted from the wide schema.
const DROPPED_KEYS: [&str; 4] = ["c_custkey", "s_suppkey", "p_partkey", "d_datekey"];

/// Build the pre-joined (denormalised) relation.
///
/// `dims` pairs each dimension with the fact attribute holding its key:
/// customer via `lo_custkey`, supplier via `lo_suppkey`, part via
/// `lo_partkey`, date via `lo_orderdate`. Dimension keys are dense and
/// 1-based except the date dimension, whose key is the 0-based day
/// index.
///
/// # Errors
///
/// [`DbError::DanglingKey`] if a fact row references a missing
/// dimension row; attribute errors if schemas do not line up.
pub fn prejoin(fact: &Relation, dims: &[(&Relation, &str)]) -> Result<Relation, DbError> {
    // Wide schema: all fact attributes, then each dimension's attributes
    // minus its key column.
    let mut attrs = fact.schema().attrs().to_vec();
    for (dim, _) in dims {
        for a in dim.schema().attrs() {
            if !DROPPED_KEYS.contains(&a.name.as_str()) {
                attrs.push(a.clone());
            }
        }
    }
    let wide_schema = Schema::new(format!("{}_prejoined", fact.schema().name), attrs)?;

    // Resolve indices once.
    let fact_arity = fact.schema().arity();
    struct DimPlan<'a> {
        rel: &'a Relation,
        fk_idx: usize,
        kept_cols: Vec<usize>,
        key_idx: usize,
        one_based: bool,
    }
    let mut plans = Vec::with_capacity(dims.len());
    for (dim, fk_name) in dims {
        let fk_idx = fact.schema().index_of(fk_name)?;
        let key_name = dim
            .schema()
            .attrs()
            .iter()
            .find(|a| DROPPED_KEYS.contains(&a.name.as_str()))
            .map(|a| a.name.clone())
            .ok_or_else(|| {
                DbError::InvalidQuery(format!(
                    "dimension `{}` has no recognised key column",
                    dim.schema().name
                ))
            })?;
        let key_idx = dim.schema().index_of(&key_name)?;
        let kept_cols: Vec<usize> = (0..dim.schema().arity()).filter(|i| *i != key_idx).collect();
        // The date dimension keys rows by 0-based day index.
        let one_based = key_name != "d_datekey";
        plans.push(DimPlan { rel: dim, fk_idx, kept_cols, key_idx, one_based });
    }

    let mut wide = Relation::with_capacity(wide_schema, fact.len());
    let mut row_buf: Vec<u64> = Vec::with_capacity(fact.schema().arity() + 32);
    for row in 0..fact.len() {
        row_buf.clear();
        for c in 0..fact_arity {
            row_buf.push(fact.value(row, c));
        }
        for plan in &plans {
            let key = fact.value(row, plan.fk_idx);
            let dim_row = if plan.one_based { key.checked_sub(1) } else { Some(key) }
                .map(|k| k as usize)
                .filter(|k| *k < plan.rel.len())
                .ok_or_else(|| DbError::DanglingKey {
                    relation: plan.rel.schema().name.clone(),
                    key,
                })?;
            // dense keys: verify the row really holds this key
            debug_assert_eq!(
                plan.rel.value(dim_row, plan.key_idx),
                key,
                "dimension rows must be key-ordered"
            );
            for &c in &plan.kept_cols {
                row_buf.push(plan.rel.value(dim_row, c));
            }
        }
        wide.push_row(&row_buf)?;
    }
    Ok(wide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssb::{SsbDb, SsbParams};

    fn db() -> SsbDb {
        SsbDb::generate(&SsbParams::tiny_for_tests())
    }

    #[test]
    fn wide_has_fact_cardinality() {
        let db = db();
        let wide = db.prejoin();
        assert_eq!(wide.len(), db.lineorder.len());
    }

    #[test]
    fn wide_arity_is_union_minus_keys() {
        let db = db();
        let wide = db.prejoin();
        let expected = db.lineorder.schema().arity()
            + (db.customer.schema().arity() - 1)
            + (db.supplier.schema().arity() - 1)
            + (db.part.schema().arity() - 1)
            + (db.date.schema().arity() - 1);
        assert_eq!(wide.schema().arity(), expected);
    }

    #[test]
    fn joined_values_match_dimension_lookup() {
        let db = db();
        let wide = db.prejoin();
        for row in (0..wide.len()).step_by(97) {
            let custkey = wide.value_by_name(row, "lo_custkey").unwrap();
            let expect_city = db.customer.value_by_name(custkey as usize - 1, "c_city").unwrap();
            assert_eq!(wide.value_by_name(row, "c_city").unwrap(), expect_city);

            let day = wide.value_by_name(row, "lo_orderdate").unwrap();
            let expect_year = db.date.value_by_name(day as usize, "d_year").unwrap();
            assert_eq!(wide.value_by_name(row, "d_year").unwrap(), expect_year);

            let partkey = wide.value_by_name(row, "lo_partkey").unwrap();
            let expect_brand = db.part.value_by_name(partkey as usize - 1, "p_brand1").unwrap();
            assert_eq!(wide.value_by_name(row, "p_brand1").unwrap(), expect_brand);
        }
    }

    #[test]
    fn dimension_key_columns_dropped() {
        let db = db();
        let wide = db.prejoin();
        for key in DROPPED_KEYS {
            assert!(wide.schema().index_of(key).is_err(), "{key} should be dropped");
        }
    }

    #[test]
    fn record_width_fits_one_crossbar_row_budget() {
        // The paper's claim: the pre-joined record (without NAME/ADDRESS)
        // fits a 512-bit crossbar row. Phones are excluded from the PIM
        // layout (see bbpim-core), so check the budget without them.
        let db = db();
        let wide = db.prejoin();
        let phone_bits: usize = wide
            .schema()
            .attrs()
            .iter()
            .filter(|a| a.name.ends_with("_phone"))
            .map(|a| a.bits)
            .sum();
        let bits = wide.schema().record_bits() - phone_bits;
        assert!(bits <= 440, "pre-joined record is {bits} bits; must leave scratch room");
    }
}
