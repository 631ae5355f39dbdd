//! Zone maps: per-attribute `[min, max]` summaries used for pruning.
//!
//! A [`ZoneMap`] summarises a *zone* — a horizontal slice of a relation
//! (a shard, a PIM page worth of records) — by the inclusive value range
//! every attribute takes inside it. The physical planner compares a
//! query's per-attribute bound intervals (see
//! [`crate::plan::FilterBounds`]) against these ranges: when no value in
//! a zone's range can satisfy some conjunct, the whole zone cannot
//! contribute a matching record and is skipped without being touched.
//!
//! Zone maps only ever *widen* under maintenance (an UPDATE adds the new
//! value to the range but cannot cheaply remove the old one), so they
//! stay sound over-approximations of the live contents.

use crate::relation::Relation;

/// Per-attribute `[min, max]` (inclusive) over one zone of records.
///
/// `None` means the zone holds no observed value for that attribute —
/// i.e. the zone is empty (all attributes of a zone are observed
/// together, row by row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneMap {
    ranges: Vec<Option<(u64, u64)>>,
}

impl ZoneMap {
    /// A zone map for `arity` attributes with nothing observed yet.
    pub fn empty(arity: usize) -> Self {
        ZoneMap { ranges: vec![None; arity] }
    }

    /// Build the zone map of a whole relation.
    pub fn of(rel: &Relation) -> Self {
        let mut zm = ZoneMap::empty(rel.schema().arity());
        for attr in 0..zm.arity() {
            rel.column(attr).read(0..rel.len(), |_, v| zm.widen(attr, v));
        }
        zm
    }

    /// Number of attributes this map summarises.
    pub fn arity(&self) -> usize {
        self.ranges.len()
    }

    /// The `[min, max]` range of one attribute (`None`: empty zone).
    ///
    /// # Panics
    ///
    /// Panics when `attr` is out of range.
    pub fn range(&self, attr: usize) -> Option<(u64, u64)> {
        self.ranges[attr]
    }

    /// Widen one attribute's range to include `value`.
    ///
    /// # Panics
    ///
    /// Panics when `attr` is out of range.
    pub fn widen(&mut self, attr: usize, value: u64) {
        let r = &mut self.ranges[attr];
        *r = match *r {
            None => Some((value, value)),
            Some((lo, hi)) => Some((lo.min(value), hi.max(value))),
        };
    }

    /// Widen this map to cover everything `other` covers.
    ///
    /// # Panics
    ///
    /// Panics when arities differ — merging maps of different schemas is
    /// always a caller bug.
    pub fn merge(&mut self, other: &ZoneMap) {
        assert_eq!(self.arity(), other.arity(), "cannot merge zone maps of different arity");
        for (idx, range) in other.ranges.iter().enumerate() {
            if let Some((lo, hi)) = range {
                self.widen(idx, *lo);
                self.widen(idx, *hi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};

    fn rel(rows: &[[u64; 2]]) -> Relation {
        let schema =
            Schema::new("t", vec![Attribute::numeric("a", 8), Attribute::numeric("b", 8)]).unwrap();
        let mut r = Relation::new(schema);
        for row in rows {
            r.push_row(row).unwrap();
        }
        r
    }

    #[test]
    fn of_relation_covers_min_max() {
        let zm = ZoneMap::of(&rel(&[[5, 200], [9, 3], [7, 100]]));
        assert_eq!(zm.range(0), Some((5, 9)));
        assert_eq!(zm.range(1), Some((3, 200)));
    }

    #[test]
    fn empty_relation_gives_empty_zone() {
        let zm = ZoneMap::of(&rel(&[]));
        assert_eq!((zm.range(0), zm.range(1)), (None, None));
    }

    #[test]
    fn widen_only_grows() {
        let mut zm = ZoneMap::empty(1);
        zm.widen(0, 10);
        assert_eq!(zm.range(0), Some((10, 10)));
        zm.widen(0, 4);
        zm.widen(0, 7); // inside: no change
        assert_eq!(zm.range(0), Some((4, 10)));
    }

    #[test]
    fn merge_is_union_of_ranges() {
        let mut a = ZoneMap::of(&rel(&[[1, 10]]));
        let b = ZoneMap::of(&rel(&[[5, 2]]));
        a.merge(&b);
        assert_eq!(a.range(0), Some((1, 5)));
        assert_eq!(a.range(1), Some((2, 10)));
        // merging an empty map changes nothing
        let before = a.clone();
        a.merge(&ZoneMap::empty(2));
        assert_eq!(a, before);
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn merge_rejects_arity_mismatch() {
        ZoneMap::empty(2).merge(&ZoneMap::empty(3));
    }
}
