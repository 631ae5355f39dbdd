//! Pre-joining (denormalisation) of the star schema.
//!
//! Section III of the paper: the fact relation is equi-joined with every
//! dimension on the dimension keys. Keys are unique, so each lineorder
//! matches exactly one row per dimension — the wide relation has exactly
//! as many records as the fact relation (no fan-out), and only grows in
//! record *width*, which bulk-bitwise PIM absorbs in the unused crossbar
//! row space.
//!
//! Each dimension's FK, key and key base come from its
//! [`DimMeta`] (see [`crate::ssb::star::DIMENSIONS`]). The duplicate key
//! columns of the dimensions are dropped: their values equal the fact
//! FKs.

use crate::error::DbError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::ssb::star::DimMeta;

/// Build the pre-joined (denormalised) relation.
///
/// `dims` pairs each dimension with its [`DimMeta`]: the fact attribute
/// holding its key, its key attribute and its key base (keys are dense,
/// key `k` at row `k - key_base`).
///
/// # Errors
///
/// [`DbError::DanglingKey`] if a fact row references a missing
/// dimension row; [`DbError::NoSuchAttribute`] if a FK or key is not in
/// its schema.
pub fn prejoin(fact: &Relation, dims: &[(&Relation, &DimMeta)]) -> Result<Relation, DbError> {
    // Resolve indices once.
    let fact_arity = fact.schema().arity();
    struct DimPlan<'a> {
        rel: &'a Relation,
        fk_idx: usize,
        kept_cols: Vec<usize>,
        key_idx: usize,
        meta: &'a DimMeta,
    }
    let mut plans = Vec::with_capacity(dims.len());
    for (dim, meta) in dims {
        let fk_idx = fact.schema().index_of(meta.fk)?;
        let key_idx = dim.schema().index_of(meta.key)?;
        let kept_cols: Vec<usize> = (0..dim.schema().arity()).filter(|i| *i != key_idx).collect();
        plans.push(DimPlan { rel: dim, fk_idx, kept_cols, key_idx, meta });
    }

    // Wide schema: all fact attributes, then each dimension's attributes
    // minus its key column.
    let mut attrs = fact.schema().attrs().to_vec();
    for plan in &plans {
        attrs.extend(plan.kept_cols.iter().map(|&c| plan.rel.schema().attrs()[c].clone()));
    }
    let wide_schema = Schema::new(format!("{}_prejoined", fact.schema().name), attrs)?;

    let mut wide = Relation::with_capacity(wide_schema, fact.len());
    let mut row_buf: Vec<u64> = Vec::with_capacity(fact.schema().arity() + 32);
    for row in 0..fact.len() {
        row_buf.clear();
        for c in 0..fact_arity {
            row_buf.push(fact.value(row, c));
        }
        for plan in &plans {
            let key = fact.value(row, plan.fk_idx);
            let dim_row = plan.meta.row(key, plan.rel.len())?;
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
    use crate::ssb::star::DIMENSIONS;
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
        for meta in DIMENSIONS {
            assert!(wide.schema().index_of(meta.key).is_err(), "{} should be dropped", meta.key);
        }
    }

    #[test]
    fn wide_arity_is_union_minus_keys() {
        // the fact's names, then each dimension's names minus its key
        let db = db();
        let names = |rel: &Relation| -> Vec<String> {
            rel.schema().attrs().iter().map(|a| a.name.clone()).collect()
        };
        let mut expected = names(&db.lineorder);
        for (d, meta) in DIMENSIONS.iter().enumerate() {
            expected.extend(names(db.dim(d)).into_iter().filter(|n| n != meta.key));
        }
        assert_eq!(names(&db.prejoin()), expected);
    }

    #[test]
    fn an_unrecognised_dimension_key_is_a_typed_error() {
        let db = db();
        let meta = DIMENSIONS[0];
        let renamed = DimMeta { key: "c_nokey", ..meta };
        let err = prejoin(&db.lineorder, &[(&db.customer, &renamed)]).unwrap_err();
        assert!(matches!(err, DbError::NoSuchAttribute { ref name, .. } if name == "c_nokey"));
        // a fact row whose FK has no dimension row
        let mut fact = Relation::new(db.lineorder.schema().clone());
        let mut row = db.lineorder.row(0);
        row[db.lineorder.schema().index_of(meta.fk).unwrap()] = 0;
        fact.push_row(&row).unwrap();
        let err = prejoin(&fact, &[(&db.customer, &meta)]).unwrap_err();
        assert_eq!(err, DbError::DanglingKey { relation: "customer".into(), key: 0 });
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
