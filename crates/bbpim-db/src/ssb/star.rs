//! The SSB star schema's one statement: [`DIMENSIONS`] names each
//! dimension's attribute prefix, fact foreign key, key and key base,
//! and everything that joins the fact table to its dimensions reads it
//! — the pre-join ([`crate::ssb::prejoin`]), the star storage model of
//! the PIM cluster and the column-store baseline's `mnt_reg`.
//!
//! The normalized storage model keeps each table at its own
//! cardinality — dimension attributes are stored once per dimension
//! row, not once per fact row — and joins through the fact FK as
//! semijoin bitmaps (dimension filter → key bitmap → fact FK probe).
//! This module derives what such a model needs from the generated
//! [`SsbDb`] itself ([`SsbDb::dim`]): which table an attribute belongs
//! to, which attributes the SSB workload leaves host-resident, and the
//! per-table PIM-resident footprint.
//!
//! Attribute names are globally unique across the five tables (`lo_*`,
//! `c_*`, `s_*`, `p_*`, `d_*`), so the same logical [`crate::plan::Query`]
//! text runs unmodified on either storage model.

use std::collections::BTreeSet;

use crate::error::DbError;
use crate::plan::{Atom, ResolvedAtom};
use crate::relation::Relation;
use crate::schema::{host_only, Schema};
use crate::ssb::SsbDb;

/// Static metadata of one dimension of the SSB star schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimMeta {
    /// Relation name (`"customer"`, …).
    pub name: &'static str,
    /// Attribute-name prefix owned by this dimension (`"c_"`, …).
    pub prefix: &'static str,
    /// Fact attribute holding this dimension's key.
    pub fk: &'static str,
    /// The dimension's key attribute.
    pub key: &'static str,
    /// Smallest key value: keys are dense in `key_base..key_base+len`
    /// (1-based except the date dimension's 0-based day index), so key
    /// `k` lives at row `k - key_base`.
    pub key_base: u64,
}

impl DimMeta {
    /// The one positional FK probe: the row of a `rows`-row dimension
    /// table that foreign key `fk` references (key `k` at row
    /// `k - key_base`).
    ///
    /// # Errors
    ///
    /// [`DbError::DanglingKey`] if no row holds `fk`.
    pub fn row(&self, fk: u64, rows: usize) -> Result<usize, DbError> {
        fk.checked_sub(self.key_base)
            .and_then(|row| usize::try_from(row).ok())
            .filter(|&row| row < rows)
            .ok_or_else(|| DbError::DanglingKey { relation: self.name.into(), key: fk })
    }
}

/// The four SSB dimensions, in catalog order (customer, supplier,
/// part, date) — the order of [`SsbDb::dim`] and the order
/// [`SsbDb::prejoin`] appends them in.
pub const DIMENSIONS: [DimMeta; 4] = [
    DimMeta { name: "customer", prefix: "c_", fk: "lo_custkey", key: "c_custkey", key_base: 1 },
    DimMeta { name: "supplier", prefix: "s_", fk: "lo_suppkey", key: "s_suppkey", key_base: 1 },
    DimMeta { name: "part", prefix: "p_", fk: "lo_partkey", key: "p_partkey", key_base: 1 },
    DimMeta { name: "date", prefix: "d_", fk: "lo_orderdate", key: "d_datekey", key_base: 0 },
];

/// Which dimension owns an attribute name (`None` = the fact table).
/// Resolution is purely by prefix, exploiting SSB's globally unique
/// attribute names.
pub fn dim_of_attr(attr: &str) -> Option<usize> {
    if attr.starts_with("lo_") {
        return None;
    }
    DIMENSIONS.iter().position(|m| attr.starts_with(m.prefix))
}

/// Split a conjunction by owning table: fact atoms plus per-dimension
/// atom lists (catalog order).
pub fn route_conjunct(conj: &[Atom]) -> (Vec<Atom>, [Vec<Atom>; 4]) {
    let mut fact = Vec::new();
    let mut dims: [Vec<Atom>; 4] = Default::default();
    for atom in conj {
        match dim_of_attr(atom.attr()) {
            None => fact.push(atom.clone()),
            Some(d) => dims[d].push(atom.clone()),
        }
    }
    (fact, dims)
}

/// Resolve a routed conjunction against its table's schema.
///
/// # Errors
///
/// The first atom's resolution failure (unknown attribute or constant).
pub fn resolve_all(atoms: &[Atom], schema: &Schema) -> Result<Vec<ResolvedAtom>, DbError> {
    atoms.iter().map(|a| a.resolve(schema)).collect()
}

/// Cold (host-resident) attribute lists for the five tables under the
/// full SSB workload (standard + combined queries): index 0 is the fact
/// table, indices 1–4 the dimensions in catalog order. An attribute is
/// cold when no query touches it (filter, GROUP BY or aggregate input),
/// it is not a fact FK and it is not [`host_only`] (the layout already
/// excludes those on its own).
///
/// The FKs stay on-module because semijoin probes read them although
/// no query names them. Dimension *keys* need no pin: keys are dense
/// (`row = key − key_base`), so the record's position already encodes
/// the key and the stored column is redundant on-module.
pub fn ssb_cold_attrs(db: &SsbDb) -> [Vec<String>; 5] {
    let mut workload = crate::ssb::queries::standard_queries();
    workload.extend(crate::ssb::queries::combined_queries());
    let hot: BTreeSet<&str> = workload.iter().flat_map(|q| q.referenced_attrs()).collect();
    let fks = DIMENSIONS.map(|m| m.fk);
    let cold = |rel: &Relation, keep: &[&str]| -> Vec<String> {
        let names = rel.schema().attrs().iter().map(|a| a.name.as_str());
        let cold = names.filter(|n| !hot.contains(n) && !keep.contains(n) && !host_only(n));
        cold.map(str::to_string).collect()
    };
    std::array::from_fn(|t| match t {
        0 => cold(&db.lineorder, &fks),
        t => cold(db.dim(t - 1), &[]),
    })
}

/// PIM-resident storage footprint of one table under a given layout
/// exclusion set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableFootprint {
    /// Relation name.
    pub table: String,
    /// Row count.
    pub records: usize,
    /// Bits of one record that actually reside in PIM.
    pub resident_bits: usize,
    /// Total resident data bytes (`records × resident_bits / 8`,
    /// rounded up).
    pub data_bytes: u64,
}

/// Resident data bytes of `rel` when `excluded` attributes (plus the
/// engine's always-excluded `*_phone` columns) stay host-side.
///
/// The byte count is *data* footprint — what the stored records cost in
/// crossbar cells — which is the quantity the normalized/pre-joined
/// comparison is about: page counts depend on a config's
/// records-per-page and hide the width difference entirely.
pub fn table_footprint(rel: &Relation, excluded: &[String]) -> TableFootprint {
    schema_footprint(rel.schema(), rel.len(), excluded)
}

/// [`table_footprint`] of `records` records of `schema` — for a table
/// whose records live only in PIM.
pub fn schema_footprint(schema: &Schema, records: usize, excluded: &[String]) -> TableFootprint {
    let resident_bits: usize = schema
        .attrs()
        .iter()
        .filter(|a| !host_only(&a.name) && !excluded.iter().any(|e| e == &a.name))
        .map(|a| a.bits)
        .sum();
    TableFootprint {
        table: schema.name.clone(),
        records,
        resident_bits,
        data_bytes: ((records * resident_bits) as u64).div_ceil(8),
    }
}

/// Per-table PIM-resident footprints of the normalized star schema:
/// the fact table first, then the four dimensions in catalog order,
/// each without its [`ssb_cold_attrs`] entry.
pub fn footprints(db: &SsbDb) -> Vec<TableFootprint> {
    let tables = std::iter::once(&db.lineorder).chain((0..DIMENSIONS.len()).map(|d| db.dim(d)));
    tables.zip(&ssb_cold_attrs(db)).map(|(rel, cold)| table_footprint(rel, cold)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssb::SsbParams;

    /// The fact attributes no SSB query (standard or combined) ever
    /// reads — filter, GROUP BY or aggregate: what [`ssb_cold_attrs`]
    /// leaves off the fact table's module.
    const COLD_FACT: [&str; 8] = [
        "lo_orderkey",
        "lo_linenumber",
        "lo_orderpriority",
        "lo_shippriority",
        "lo_ordtotalprice",
        "lo_tax",
        "lo_commitdate",
        "lo_shipmode",
    ];

    fn db() -> SsbDb {
        SsbDb::generate(&SsbParams::tiny_for_tests())
    }

    #[test]
    fn attr_resolution_routes_by_prefix() {
        assert_eq!(dim_of_attr("lo_revenue"), None);
        assert_eq!(dim_of_attr("c_region"), Some(0));
        assert_eq!(dim_of_attr("s_city"), Some(1));
        assert_eq!(dim_of_attr("p_brand1"), Some(2));
        assert_eq!(dim_of_attr("d_year"), Some(3));
    }

    #[test]
    fn fk_metadata_matches_prejoin_wiring() {
        let db = db();
        for (d, meta) in DIMENSIONS.iter().enumerate() {
            assert_eq!(db.dim(d).schema().name, meta.name);
            assert!(db.lineorder.schema().index_of(meta.fk).is_ok(), "{}", meta.fk);
            let key_idx = db.dim(d).schema().index_of(meta.key).unwrap();
            // dense, key_base-based: key k at row k - key_base
            for row in [0usize, db.dim(d).len() - 1] {
                assert_eq!(db.dim(d).value(row, key_idx), row as u64 + meta.key_base);
            }
        }
    }

    #[test]
    fn dim_value_agrees_with_prejoined_row() {
        let db = db();
        let wide = db.prejoin();
        let city_col = db.dim(0).schema().index_of("c_city").unwrap();
        let year_col = db.dim(3).schema().index_of("d_year").unwrap();
        // the positional probe: dense keys make the "hash" lookup an index
        let probe =
            |d: usize, fk: u64, col| db.dim(d).value((fk - DIMENSIONS[d].key_base) as usize, col);
        for row in (0..wide.len()).step_by(131) {
            let ck = wide.value_by_name(row, DIMENSIONS[0].fk).unwrap();
            assert_eq!(probe(0, ck, city_col), wide.value_by_name(row, "c_city").unwrap());
            let day = wide.value_by_name(row, DIMENSIONS[3].fk).unwrap();
            assert_eq!(probe(3, day, year_col), wide.value_by_name(row, "d_year").unwrap());
        }
    }

    #[test]
    fn cold_fact_attrs_unreferenced_by_all_queries() {
        for q in crate::ssb::queries::standard_queries()
            .iter()
            .chain(&crate::ssb::queries::combined_queries())
        {
            for attr in q.referenced_attrs() {
                assert!(!COLD_FACT.contains(&attr), "{} reads cold attr {attr}", q.id);
            }
        }
    }

    #[test]
    fn cold_fact_attrs_match_workload_derivation() {
        let cold = ssb_cold_attrs(&db());
        assert_eq!(cold[0], COLD_FACT.map(str::to_string));
        // dim keys go cold (positional), referenced dim attrs stay hot
        let c_cold = &cold[1];
        assert!(c_cold.contains(&DIMENSIONS[0].key.to_string()));
        assert!(c_cold.contains(&"c_mktsegment".to_string()));
        assert!(!c_cold.contains(&"c_region".to_string()));
    }

    #[test]
    fn normalized_footprint_is_under_a_third_of_prejoin_at_ci_scale() {
        // CI bench scale factor (the fixed 2556-row date dimension makes
        // the ratio scale-sensitive below ~10 K fact rows)
        let db = SsbDb::generate(&SsbParams::uniform(0.002));
        let wide = db.prejoin();
        let normalized: u64 = footprints(&db).iter().map(|f| f.data_bytes).sum();
        let prejoined = table_footprint(&wide, &[]).data_bytes;
        assert!(
            normalized * 3 <= prejoined,
            "normalized {normalized} B vs pre-joined {prejoined} B"
        );
    }

    #[test]
    fn footprints_cover_all_five_tables() {
        let db = db();
        let fps = footprints(&db);
        assert_eq!(fps.len(), 5);
        assert_eq!(fps[0].table, "lineorder");
        assert_eq!(fps[0].records, db.lineorder.len());
        for (d, meta) in DIMENSIONS.iter().enumerate() {
            assert_eq!(
                (fps[d + 1].table.as_str(), fps[d + 1].records),
                (meta.name, db.dim(d).len())
            );
        }
        for f in &fps {
            assert!(f.resident_bits > 0 && f.data_bytes > 0, "{}", f.table);
        }
        // phones never count as resident, even with nothing excluded
        let bits = |phones: bool| -> usize {
            let attrs = db.dim(0).schema().attrs().iter();
            attrs.filter(|a| phones || !a.name.ends_with("_phone")).map(|a| a.bits).sum()
        };
        assert!(bits(false) < bits(true));
        assert_eq!(table_footprint(db.dim(0), &[]).resident_bits, bits(false));
    }

    #[test]
    fn the_positional_probe_reports_dangling_keys() {
        let db = db();
        for (d, meta) in DIMENSIONS.iter().enumerate() {
            let rows = db.dim(d).len();
            assert_eq!(meta.row(meta.key_base, rows), Ok(0));
            let last = meta.key_base + rows as u64 - 1;
            assert_eq!(meta.row(last, rows), Ok(rows - 1));
            for key in [last + 1].into_iter().chain(meta.key_base.checked_sub(1)) {
                let dangling = DbError::DanglingKey { relation: meta.name.into(), key };
                assert_eq!(meta.row(key, rows), Err(dangling));
            }
        }
    }

    #[test]
    fn zone_maps_reflect_table_contents() {
        let db = db();
        let year_idx = db.dim(3).schema().index_of("d_year").unwrap();
        assert_eq!(crate::ZoneMap::of(db.dim(3)).range(year_idx), Some((1992, 1998)));
    }
}
