//! Normalized star-schema catalog: the fact table plus the four
//! dimension tables as *separate* relations, with the foreign-key
//! metadata a join executor needs.
//!
//! This is the storage model the pre-join ([`crate::ssb::prejoin`])
//! deliberately avoids: the paper denormalises SSB into one wide
//! relation so queries never join. The normalized catalog keeps each
//! table at its own cardinality instead — dimension attributes are
//! stored once per dimension row, not once per fact row — and records
//! which fact column carries each dimension's key so joins can run as
//! semijoin bitmaps (dimension filter → key bitmap → fact FK probe).
//!
//! Attribute names are globally unique across the five tables (`lo_*`,
//! `c_*`, `s_*`, `p_*`, `d_*`), so the same logical [`crate::plan::Query`]
//! text runs unmodified on either storage model.

use std::collections::BTreeSet;

use crate::plan::Query;
use crate::relation::Relation;
use crate::schema::Schema;
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

/// The four SSB dimensions, in catalog order (customer, supplier,
/// part, date) — the same order [`crate::ssb::SsbDb::prejoin`] joins
/// them in.
pub const DIMENSIONS: [DimMeta; 4] = [
    DimMeta { name: "customer", prefix: "c_", fk: "lo_custkey", key: "c_custkey", key_base: 1 },
    DimMeta { name: "supplier", prefix: "s_", fk: "lo_suppkey", key: "s_suppkey", key_base: 1 },
    DimMeta { name: "part", prefix: "p_", fk: "lo_partkey", key: "p_partkey", key_base: 1 },
    DimMeta { name: "date", prefix: "d_", fk: "lo_orderdate", key: "d_datekey", key_base: 0 },
];

/// Fact attributes no SSB query (standard or combined) ever reads —
/// filter, GROUP BY or aggregate. A PIM layout for the normalized fact
/// table may leave them off the module (no query can reach them there),
/// shrinking the PIM-resident record the same way the engine already
/// drops `*_phone`. Matches [`cold_attrs`] derived from the SSB
/// workload with the four foreign keys kept (tested below).
pub const COLD_FACT_ATTRS: [&str; 8] = [
    "lo_orderkey",
    "lo_linenumber",
    "lo_orderpriority",
    "lo_shippriority",
    "lo_ordtotalprice",
    "lo_tax",
    "lo_commitdate",
    "lo_shipmode",
];

/// Every attribute some query of `workload` touches (filter, GROUP BY
/// or aggregate input).
pub fn workload_attrs(workload: &[Query]) -> BTreeSet<String> {
    workload.iter().flat_map(|q| q.referenced_attrs().into_iter().map(str::to_string)).collect()
}

/// Attributes of `rel` a PIM layout can leave host-resident for a
/// given workload: everything not in `hot`, not in `keep`, and not a
/// `*_phone` column (the layout already excludes those on its own).
///
/// `keep` pins attributes the executor needs on-module even though no
/// query names them — the fact table's foreign keys, which semijoin
/// probes read. Dimension *keys* need no pin: keys are dense
/// (`row = key − key_base`), so the record's position already encodes
/// the key and the stored column is redundant on-module.
pub fn cold_attrs(rel: &Relation, hot: &BTreeSet<String>, keep: &[&str]) -> Vec<String> {
    rel.schema()
        .attrs()
        .iter()
        .map(|a| a.name.clone())
        .filter(|n| !hot.contains(n) && !keep.contains(&n.as_str()) && !n.ends_with("_phone"))
        .collect()
}

/// The full SSB workload (standard + combined queries) the catalog's
/// residency decisions are derived from.
pub fn ssb_workload() -> Vec<Query> {
    let mut qs = crate::ssb::queries::standard_queries();
    qs.extend(crate::ssb::queries::combined_queries());
    qs
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
        .filter(|a| !a.name.ends_with("_phone") && !excluded.iter().any(|e| e == &a.name))
        .map(|a| a.bits)
        .sum();
    TableFootprint {
        table: schema.name.clone(),
        records,
        resident_bits,
        data_bytes: ((records * resident_bits) as u64).div_ceil(8),
    }
}

/// The normalized star-schema catalog: one fact relation and the four
/// dimension relations, each with its own zone map.
#[derive(Debug, Clone)]
pub struct StarSchema {
    fact: Relation,
    dims: [Relation; 4],
}

impl StarSchema {
    /// Build the catalog from a generated SSB instance (clones the
    /// tables — the catalog owns mutable copies so UPDATEs can patch
    /// them).
    pub fn of_db(db: &SsbDb) -> StarSchema {
        StarSchema {
            fact: db.lineorder.clone(),
            dims: [db.customer.clone(), db.supplier.clone(), db.part.clone(), db.date.clone()],
        }
    }

    /// One dimension relation by catalog index (see [`DIMENSIONS`]).
    ///
    /// # Panics
    ///
    /// Panics when `d >= 4`.
    pub fn dim(&self, d: usize) -> &Relation {
        &self.dims[d]
    }

    /// Which dimension owns an attribute name (`None` = the fact
    /// table). Resolution is purely by prefix, exploiting SSB's
    /// globally unique attribute names.
    pub fn dim_of_attr(attr: &str) -> Option<usize> {
        if attr.starts_with("lo_") {
            return None;
        }
        DIMENSIONS.iter().position(|m| attr.starts_with(m.prefix))
    }

    /// Cold (host-resident) attribute lists for the five tables under
    /// the SSB workload: index 0 is the fact table (foreign keys
    /// pinned on-module), indices 1–4 the dimensions in catalog order
    /// (keys cold — dense keys make the stored column redundant).
    pub fn ssb_cold_attrs(&self) -> [Vec<String>; 5] {
        let hot = workload_attrs(&ssb_workload());
        let fks: Vec<&str> = DIMENSIONS.iter().map(|m| m.fk).collect();
        [
            cold_attrs(&self.fact, &hot, &fks),
            cold_attrs(&self.dims[0], &hot, &[]),
            cold_attrs(&self.dims[1], &hot, &[]),
            cold_attrs(&self.dims[2], &hot, &[]),
            cold_attrs(&self.dims[3], &hot, &[]),
        ]
    }

    /// Per-table PIM-resident footprints: the fact table first, then
    /// the four dimensions, each with the matching entry of `excluded`
    /// (see [`StarSchema::ssb_cold_attrs`]) host-resident.
    pub fn footprints(&self, excluded: &[Vec<String>; 5]) -> Vec<TableFootprint> {
        let mut out = Vec::with_capacity(5);
        out.push(table_footprint(&self.fact, &excluded[0]));
        for (d, dim) in self.dims.iter().enumerate() {
            out.push(table_footprint(dim, &excluded[d + 1]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssb::SsbParams;

    fn star() -> StarSchema {
        StarSchema::of_db(&SsbDb::generate(&SsbParams::tiny_for_tests()))
    }

    #[test]
    fn attr_resolution_routes_by_prefix() {
        assert_eq!(StarSchema::dim_of_attr("lo_revenue"), None);
        assert_eq!(StarSchema::dim_of_attr("c_region"), Some(0));
        assert_eq!(StarSchema::dim_of_attr("s_city"), Some(1));
        assert_eq!(StarSchema::dim_of_attr("p_brand1"), Some(2));
        assert_eq!(StarSchema::dim_of_attr("d_year"), Some(3));
    }

    #[test]
    fn fk_metadata_matches_prejoin_wiring() {
        let s = star();
        for (d, meta) in DIMENSIONS.iter().enumerate() {
            assert!(s.fact.schema().index_of(meta.fk).is_ok(), "{}", meta.fk);
            let key_idx = s.dim(d).schema().index_of(meta.key).unwrap();
            // dense, key_base-based: key k at row k - key_base
            for row in [0usize, s.dim(d).len() - 1] {
                assert_eq!(s.dim(d).value(row, key_idx), row as u64 + meta.key_base);
            }
        }
    }

    #[test]
    fn dim_value_agrees_with_prejoined_row() {
        let db = SsbDb::generate(&SsbParams::tiny_for_tests());
        let wide = db.prejoin();
        let s = StarSchema::of_db(&db);
        let city_col = s.dim(0).schema().index_of("c_city").unwrap();
        let year_col = s.dim(3).schema().index_of("d_year").unwrap();
        // the positional probe: dense keys make the "hash" lookup an index
        let probe =
            |d: usize, fk: u64, col| s.dim(d).value((fk - DIMENSIONS[d].key_base) as usize, col);
        for row in (0..wide.len()).step_by(131) {
            let ck = wide.value_by_name(row, "lo_custkey").unwrap();
            assert_eq!(probe(0, ck, city_col), wide.value_by_name(row, "c_city").unwrap());
            let day = wide.value_by_name(row, "lo_orderdate").unwrap();
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
                assert!(!COLD_FACT_ATTRS.contains(&attr), "{} reads cold attr {attr}", q.id);
            }
        }
    }

    #[test]
    fn cold_fact_attrs_match_workload_derivation() {
        let s = star();
        assert_eq!(
            s.ssb_cold_attrs()[0],
            COLD_FACT_ATTRS.iter().map(|a| a.to_string()).collect::<Vec<_>>()
        );
        // dim keys go cold (positional), referenced dim attrs stay hot
        let c_cold = &s.ssb_cold_attrs()[1];
        assert!(c_cold.contains(&"c_custkey".to_string()));
        assert!(c_cold.contains(&"c_mktsegment".to_string()));
        assert!(!c_cold.contains(&"c_region".to_string()));
    }

    #[test]
    fn normalized_footprint_is_under_a_third_of_prejoin_at_ci_scale() {
        // CI bench scale factor (the fixed 2556-row date dimension makes
        // the ratio scale-sensitive below ~10 K fact rows)
        let db = SsbDb::generate(&SsbParams::uniform(0.002));
        let wide = db.prejoin();
        let s = StarSchema::of_db(&db);
        let normalized: u64 = s.footprints(&s.ssb_cold_attrs()).iter().map(|f| f.data_bytes).sum();
        let prejoined = table_footprint(&wide, &[]).data_bytes;
        assert!(
            normalized * 3 <= prejoined,
            "normalized {normalized} B vs pre-joined {prejoined} B"
        );
    }

    #[test]
    fn footprints_cover_all_five_tables() {
        let s = star();
        let none: [Vec<String>; 5] = Default::default();
        let fps = s.footprints(&none);
        assert_eq!(fps.len(), 5);
        assert_eq!(fps[0].table, "lineorder");
        assert_eq!(fps[1].table, "customer");
        assert_eq!(fps[4].table, "date");
        for f in &fps {
            assert!(f.resident_bits > 0 && f.data_bytes > 0, "{}", f.table);
        }
        // phones never count as resident
        let with_phones: usize = s.dim(0).schema().attrs().iter().map(|a| a.bits).sum();
        assert!(fps[1].resident_bits < with_phones);
    }

    #[test]
    fn zone_maps_reflect_table_contents() {
        let s = star();
        let year_idx = s.dim(3).schema().index_of("d_year").unwrap();
        assert_eq!(crate::ZoneMap::of(s.dim(3)).range(year_idx), Some((1992, 1998)));
    }
}
