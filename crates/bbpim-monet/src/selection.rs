//! Vectorized predicate kernels over columns with selection vectors.

use bbpim_db::column::Column;
use bbpim_db::plan::ResolvedAtom;

/// Row indices surviving the filters so far (always sorted ascending).
pub type SelectionVector = Vec<u32>;

/// Full selection over `len` rows.
pub fn select_all(len: usize) -> SelectionVector {
    (0..len as u32).collect()
}

/// Narrow `input` to the rows of `col` satisfying `atom`.
///
/// This is the vectorized kernel: one tight loop per atom over the
/// candidate rows, no per-row interpretation.
pub fn refine(col: &Column, atom: &ResolvedAtom, input: &SelectionVector) -> SelectionVector {
    match atom {
        ResolvedAtom::Eq { value, .. } => keep(col, input, |v| v == *value),
        ResolvedAtom::Between { lo, hi, .. } => keep(col, input, |v| v >= *lo && v <= *hi),
        ResolvedAtom::Lt { value, .. } => keep(col, input, |v| v < *value),
        ResolvedAtom::Gt { value, .. } => keep(col, input, |v| v > *value),
        ResolvedAtom::In { values: set, .. } => keep(col, input, |v| set.binary_search(&v).is_ok()),
    }
}

/// The candidates of `input` whose value in `col` passes `pred`: one
/// gather over the column's lane per atom.
fn keep(col: &Column, input: &SelectionVector, pred: impl Fn(u64) -> bool) -> SelectionVector {
    let mut out = SelectionVector::new();
    col.read(input.iter().map(|&i| i as usize), |row, v| {
        if pred(v) {
            out.push(row as u32);
        }
    });
    out
}

/// A per-key bitmap for dense 1-based (or 0-based) key spaces —
/// the probe side of the positional star join.
#[derive(Debug, Clone)]
pub struct KeyBitmap {
    bits: Vec<bool>,
    /// 1 for 1-based keys, 0 for 0-based (the date dimension).
    base: u64,
}

impl KeyBitmap {
    /// Build from the surviving rows of a dimension (`key_col` holds the
    /// dense keys).
    pub fn from_selection(
        key_col: &Column,
        selection: &SelectionVector,
        key_space: usize,
        base: u64,
    ) -> Self {
        let mut bits = vec![false; key_space + 1];
        for &row in selection {
            let key = key_col.get(row as usize);
            bits[(key - base) as usize] = true;
        }
        KeyBitmap { bits, base }
    }

    /// Does a foreign key hit a surviving dimension row? A key outside
    /// the key space (below the base or past the last row) hits none.
    #[inline]
    pub fn contains(&self, fk: u64) -> bool {
        fk.checked_sub(self.base).and_then(|k| self.bits.get(k as usize)).is_some_and(|&b| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_db::plan::ResolvedAtom;

    fn col(values: &[u64]) -> Column {
        let mut c = Column::new(16);
        for &v in values {
            c.push(v).unwrap();
        }
        c
    }

    #[test]
    fn refine_eq() {
        let c = col(&[5, 7, 5, 9]);
        let out = refine(&c, &ResolvedAtom::Eq { idx: 0, value: 5 }, &select_all(4));
        assert_eq!(out, vec![0, 2]);
    }

    #[test]
    fn refine_chains() {
        let c1 = col(&[1, 2, 3, 4, 5, 6]);
        let c2 = col(&[9, 9, 0, 9, 0, 9]);
        let s = refine(&c1, &ResolvedAtom::Gt { idx: 0, value: 2 }, &select_all(6));
        let s = refine(&c2, &ResolvedAtom::Eq { idx: 0, value: 9 }, &s);
        assert_eq!(s, vec![3, 5]);
    }

    #[test]
    fn refine_between_and_in() {
        let c = col(&[10, 20, 30, 40]);
        let b = refine(&c, &ResolvedAtom::Between { idx: 0, lo: 15, hi: 35 }, &select_all(4));
        assert_eq!(b, vec![1, 2]);
        let i = refine(&c, &ResolvedAtom::In { idx: 0, values: vec![10, 40] }, &select_all(4));
        assert_eq!(i, vec![0, 3]);
    }

    #[test]
    fn bitmap_probe_one_based() {
        let keys = col(&[1, 2, 3, 4, 5]);
        let surviving = vec![1u32, 3]; // keys 2 and 4
        let bm = KeyBitmap::from_selection(&keys, &surviving, 5, 1);
        assert!(!bm.contains(1));
        assert!(bm.contains(2));
        assert!(bm.contains(4));
        assert!(!bm.contains(5));
        // keys outside the key space select nothing
        assert!(!bm.contains(0));
        assert!(!bm.contains(u64::MAX));
    }

    #[test]
    fn bitmap_probe_zero_based() {
        let keys = col(&[0, 1, 2]);
        let bm = KeyBitmap::from_selection(&keys, &vec![0u32, 2], 3, 0);
        assert!(bm.contains(0));
        assert!(!bm.contains(1));
        assert!(bm.contains(2));
    }
}
