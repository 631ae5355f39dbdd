//! Horizontal partitioning strategies for the cluster layer.
//!
//! A [`Partitioner`] maps every record of the wide pre-joined relation
//! to one of `n` shards. Three strategies are provided:
//!
//! * [`Partitioner::RoundRobin`] — record *i* goes to shard `i % n`.
//!   Shard sizes are balanced to within one record regardless of data
//!   distribution, but every GROUP BY subgroup is spread over all
//!   shards, so the gather phase merges `n` partials per subgroup.
//! * [`Partitioner::HashByKey`] — records hash by the values of a set
//!   of attributes (typically the GROUP BY keys). All records of one
//!   subgroup land on one shard, making the merge a disjoint map union
//!   and keeping each shard's subgroup count — the `k` of the paper's
//!   Eq. (3) decision — `n`× smaller. Skewed keys can unbalance
//!   shards, which the max-of-shards wall-clock model makes visible.
//! * [`Partitioner::RangeByAttr`] — the attribute's observed `[min,
//!   max]` domain is cut into `n` equal-width buckets and each record
//!   goes to its value's bucket. This is *data placement for pruning*:
//!   shard zone maps become narrow on the split attribute, so filters
//!   constraining it (e.g. SSB's `d_year`) skip most shards before the
//!   scatter. Value skew can empty buckets — empty shards are dropped
//!   at cluster construction.

use bbpim_db::relation::Relation;

use crate::error::ClusterError;

/// How records are assigned to shards.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioner {
    /// Record `i` → shard `i % n`.
    RoundRobin,
    /// Records hash on the named attributes' values (FNV-1a) → shard.
    HashByKey(Vec<String>),
    /// Records bucket by the named attribute's value: `n` equal-width
    /// ranges over the attribute's observed `[min, max]` domain.
    RangeByAttr(String),
}

/// FNV-1a over a record's key attribute values: stable across runs and
/// platforms, so shard assignment is deterministic.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in values {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

impl Partitioner {
    /// A hash partitioner over a query's GROUP BY attributes.
    pub fn hash_by_group_keys(keys: &[String]) -> Self {
        Partitioner::HashByKey(keys.to_vec())
    }

    /// A range partitioner over one attribute (typically the attribute
    /// selective filters constrain, e.g. `d_year`).
    pub fn range_by_attr(attr: &str) -> Self {
        Partitioner::RangeByAttr(attr.to_string())
    }

    /// The shard each record of `rel` is assigned to, for `n` shards.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidCluster`] for zero shards or an empty
    /// hash-key list; [`ClusterError::Db`] for unknown key attributes.
    pub fn assignments(&self, rel: &Relation, n: usize) -> Result<Vec<usize>, ClusterError> {
        if n == 0 {
            return Err(ClusterError::InvalidCluster("cluster needs at least one shard".into()));
        }
        match self {
            Partitioner::RoundRobin => Ok((0..rel.len()).map(|row| row % n).collect()),
            Partitioner::HashByKey(keys) => {
                if keys.is_empty() {
                    return Err(ClusterError::InvalidCluster(
                        "hash partitioner needs at least one key attribute".into(),
                    ));
                }
                let idx: Vec<usize> = keys
                    .iter()
                    .map(|k| rel.schema().index_of(k))
                    .collect::<Result<_, _>>()
                    .map_err(ClusterError::Db)?;
                Ok((0..rel.len())
                    .map(|row| (fnv1a(idx.iter().map(|&i| rel.value(row, i))) % n as u64) as usize)
                    .collect())
            }
            Partitioner::RangeByAttr(attr) => {
                let idx = rel.schema().index_of(attr).map_err(ClusterError::Db)?;
                let column = rel.column(idx);
                let mut range: Option<(u64, u64)> = None;
                column.read(0..rel.len(), |_, v| {
                    range = Some(range.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))));
                });
                let Some((lo, hi)) = range else {
                    return Ok(Vec::new()); // empty relation: nothing to assign
                };
                // u128 arithmetic: `hi - lo + 1` and the product both
                // overflow u64 on full-domain attributes.
                let span = u128::from(hi - lo) + 1;
                let mut shards = Vec::with_capacity(rel.len());
                column.read(0..rel.len(), |_, v| {
                    shards.push((u128::from(v - lo) * n as u128 / span) as usize);
                });
                Ok(shards)
            }
        }
    }

    /// Split `rel` into `n` shard relations.
    ///
    /// # Errors
    ///
    /// See [`Partitioner::assignments`].
    pub fn split(&self, rel: &Relation, n: usize) -> Result<Vec<Relation>, ClusterError> {
        let assign = self.assignments(rel, n)?;
        rel.partition_by(n, |row| assign[row]).map_err(ClusterError::Db)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Partitioner::RoundRobin => "round-robin",
            Partitioner::HashByKey(_) => "hash-by-key",
            Partitioner::RangeByAttr(_) => "range-by-attr",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_db::zonemap::ZoneMap;

    fn rel(rows: u64) -> Relation {
        let schema =
            Schema::new("t", vec![Attribute::numeric("lo_v", 8), Attribute::numeric("d_g", 4)])
                .unwrap();
        let mut r = Relation::new(schema);
        for i in 0..rows {
            r.push_row(&[i % 256, i % 13]).unwrap();
        }
        r
    }

    #[test]
    fn round_robin_balances_within_one() {
        let r = rel(101);
        let parts = Partitioner::RoundRobin.split(&r, 4).unwrap();
        let sizes: Vec<usize> = parts.iter().map(Relation::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 101);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn hash_by_key_keeps_groups_together() {
        let r = rel(300);
        let p = Partitioner::hash_by_group_keys(&["d_g".to_string()]);
        let assign = p.assignments(&r, 4).unwrap();
        let g = r.schema().index_of("d_g").unwrap();
        // every record with the same key value must share a shard
        let mut seen = std::collections::BTreeMap::new();
        for (row, &shard) in assign.iter().enumerate() {
            let key = r.value(row, g);
            assert_eq!(*seen.entry(key).or_insert(shard), shard, "key {key}");
        }
    }

    #[test]
    fn hash_is_deterministic() {
        let r = rel(64);
        let p = Partitioner::HashByKey(vec!["d_g".into()]);
        assert_eq!(p.assignments(&r, 7).unwrap(), p.assignments(&r, 7).unwrap());
    }

    #[test]
    fn bad_configurations_are_rejected() {
        let r = rel(10);
        assert!(matches!(
            Partitioner::RoundRobin.assignments(&r, 0),
            Err(ClusterError::InvalidCluster(_))
        ));
        assert!(matches!(
            Partitioner::HashByKey(vec![]).assignments(&r, 2),
            Err(ClusterError::InvalidCluster(_))
        ));
        assert!(matches!(
            Partitioner::HashByKey(vec!["nope".into()]).assignments(&r, 2),
            Err(ClusterError::Db(_))
        ));
    }

    #[test]
    fn one_shard_is_identity() {
        let r = rel(50);
        for p in [
            Partitioner::RoundRobin,
            Partitioner::HashByKey(vec!["d_g".into()]),
            Partitioner::range_by_attr("d_g"),
        ] {
            let parts = p.split(&r, 1).unwrap();
            assert_eq!(parts.len(), 1, "{}", p.label());
            assert_eq!(parts[0], r);
        }
    }

    #[test]
    fn range_by_attr_buckets_are_ordered_and_disjoint() {
        let r = rel(300);
        let p = Partitioner::range_by_attr("lo_v");
        let parts = p.split(&r, 4).unwrap();
        assert_eq!(parts.iter().map(Relation::len).sum::<usize>(), 300);
        // the zones of successive shards are disjoint, ascending ranges
        let mut prev_hi: Option<u64> = None;
        for part in &parts {
            if let Some((lo, hi)) = ZoneMap::of(part).range(0) {
                if let Some(p) = prev_hi {
                    assert!(lo > p, "ranges must ascend disjointly");
                }
                prev_hi = Some(hi);
            }
        }
    }

    #[test]
    fn range_by_attr_with_more_shards_than_values_leaves_empties() {
        // d_g has 13 distinct values; 20 buckets cannot all be hit
        let r = rel(300);
        let parts = Partitioner::range_by_attr("d_g").split(&r, 20).unwrap();
        assert_eq!(parts.len(), 20);
        assert!(parts.iter().any(Relation::is_empty));
        assert_eq!(parts.iter().map(Relation::len).sum::<usize>(), 300);
    }

    #[test]
    fn range_by_attr_full_domain_does_not_overflow() {
        use bbpim_db::schema::{Attribute, Schema};
        let schema = Schema::new("t", vec![Attribute::numeric("x", 64)]).unwrap();
        let mut r = Relation::new(schema);
        for v in [0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            r.push_row(&[v]).unwrap();
        }
        let assign = Partitioner::range_by_attr("x").assignments(&r, 3).unwrap();
        assert!(assign.iter().all(|&s| s < 3));
        assert_eq!(assign[0], 0);
        assert_eq!(assign[4], 2);
    }

    #[test]
    fn range_by_attr_unknown_attribute_rejected() {
        let r = rel(10);
        assert!(matches!(
            Partitioner::range_by_attr("nope").assignments(&r, 2),
            Err(ClusterError::Db(_))
        ));
    }

    #[test]
    fn range_by_attr_empty_relation() {
        let r = rel(0);
        assert!(Partitioner::range_by_attr("lo_v").assignments(&r, 3).unwrap().is_empty());
        let parts = Partitioner::range_by_attr("lo_v").split(&r, 3).unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(Relation::is_empty));
    }
}
