//! Width-checked columnar storage, held at the declared width.
//!
//! A [`Column`] keeps its values in the narrowest of four *lanes* —
//! `u8`, `u16`, `u32` or `u64` — that holds its declared `bits`, so a
//! 7-bit dictionary code costs one byte per row, not eight. The lane is
//! a private fact of this module: callers see `u64` values. Point
//! access ([`Column::get`]) picks the lane per call and stays one load;
//! anything that walks a column goes through [`Column::read`], which
//! picks the lane once for the whole run of rows.

use crate::error::DbError;

/// The values of one column, in the lane its width selected.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Lanes {
    B8(Vec<u8>),
    B16(Vec<u16>),
    B32(Vec<u32>),
    B64(Vec<u64>),
}

/// Run `$body` with `$v` bound to the lane's vector, whatever its
/// element type — the one place the four lanes are enumerated.
macro_rules! each_lane {
    ($lanes:expr, $v:ident => $body:expr) => {
        match $lanes {
            Lanes::B8($v) => $body,
            Lanes::B16($v) => $body,
            Lanes::B32($v) => $body,
            Lanes::B64($v) => $body,
        }
    };
}

/// A column of unsigned integers, each fitting `bits`, stored in the
/// narrowest lane (`u8` / `u16` / `u32` / `u64`) that holds `bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    bits: usize,
    lanes: Lanes,
}

impl Column {
    /// Empty column of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 64. A [`crate::schema::Schema`] only
    /// holds checked widths, so a column built for a relation cannot.
    pub fn new(bits: usize) -> Self {
        assert!((1..=64).contains(&bits), "column width must be 1..=64");
        let lanes = match bits {
            1..=8 => Lanes::B8(Vec::new()),
            9..=16 => Lanes::B16(Vec::new()),
            17..=32 => Lanes::B32(Vec::new()),
            _ => Lanes::B64(Vec::new()),
        };
        Column { bits, lanes }
    }

    /// Reserve room for exactly `additional` more values.
    pub(crate) fn reserve(&mut self, additional: usize) {
        each_lane!(&mut self.lanes, v => v.reserve_exact(additional));
    }

    /// Declared width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        each_lane!(&self.lanes, v => v.len())
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn check(&self, value: u64) -> Result<(), DbError> {
        if self.bits < 64 && value >> self.bits != 0 {
            return Err(DbError::ValueOutOfRange { attr: String::new(), value, bits: self.bits });
        }
        Ok(())
    }

    /// Append a value.
    ///
    /// # Errors
    ///
    /// [`DbError::ValueOutOfRange`] when the value exceeds the width.
    pub fn push(&mut self, value: u64) -> Result<(), DbError> {
        self.check(value)?;
        self.push_checked(value);
        Ok(())
    }

    /// Append a value the caller has already checked against `bits`
    /// ([`crate::schema::Schema::check_row`], or a value read out of a
    /// column of the same width): the narrowing cast below is lossless
    /// exactly because of that check.
    pub(crate) fn push_checked(&mut self, value: u64) {
        debug_assert!(self.check(value).is_ok(), "{value} does not fit {} bits", self.bits);
        each_lane!(&mut self.lanes, v => v.push(value as _));
    }

    /// Value at `row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds.
    #[inline]
    #[allow(clippy::unnecessary_cast)] // the widening cast is the identity in the u64 arm only
    pub fn get(&self, row: usize) -> u64 {
        each_lane!(&self.lanes, v => v[row] as u64)
    }

    /// Overwrite the value at `row`.
    ///
    /// # Errors
    ///
    /// [`DbError::ValueOutOfRange`] when the value exceeds the width.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds.
    pub fn set(&mut self, row: usize, value: u64) -> Result<(), DbError> {
        self.check(value)?;
        each_lane!(&mut self.lanes, v => v[row] = value as _);
        Ok(())
    }

    /// The one lane-aware reader: call `f(row, value)` for every row of
    /// `rows`, in the order `rows` yields them. The lane is selected
    /// once for the whole run, never per value, so a sequential walk
    /// (`0..len`, a page's run of rows) and a gather (a selection
    /// vector's indices) both compile to a loop over one typed slice.
    ///
    /// # Panics
    ///
    /// Panics when a yielded row is out of bounds.
    #[inline]
    #[allow(clippy::unnecessary_cast)] // as in `get`
    pub fn read(&self, rows: impl IntoIterator<Item = usize>, mut f: impl FnMut(usize, u64)) {
        each_lane!(&self.lanes, v => rows.into_iter().for_each(|row| f(row, v[row] as u64)));
    }

    /// Decode the run `rows` into `out` (cleared first; its allocation
    /// is reused from call to call).
    ///
    /// # Panics
    ///
    /// Panics when the run reaches past the column.
    pub fn decode_into(&self, rows: std::ops::Range<usize>, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(rows.len());
        self.read(rows, |_, v| out.push(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = Column::new(8);
        c.push(200).unwrap();
        c.push(0).unwrap();
        assert_eq!(c.get(0), 200);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn width_enforced() {
        let mut c = Column::new(4);
        assert!(c.push(16).is_err());
        assert!(c.push(15).is_ok());
    }

    #[test]
    fn full_width_accepts_max() {
        let mut c = Column::new(64);
        c.push(u64::MAX).unwrap();
        assert_eq!(c.get(0), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_width_rejected() {
        let _ = Column::new(0);
    }

    /// Tiny deterministic generator (the crate has no `rand` outside
    /// dev-dependencies of other packages).
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state ^ (*state >> 29)
    }

    /// Every lane and both sides of every lane boundary behave like a
    /// `Vec<u64>`: push / get / set / the reader (sequential and
    /// gathered) / the run decoder, and an out-of-range value is
    /// rejected with the column unchanged.
    #[test]
    fn lanes_match_a_vec_u64_reference() {
        for bits in [1usize, 7, 8, 9, 16, 17, 32, 33, 63, 64] {
            let max = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let mut seed = 0x5eed ^ bits as u64;
            let mut reference: Vec<u64> = vec![0, max];
            reference.extend((0..200).map(|_| lcg(&mut seed) & max));
            reference.extend([max, 0]);

            let mut col = Column::new(bits);
            col.reserve(3);
            assert_eq!(col.bits(), bits);
            assert!(col.is_empty());
            for &v in &reference {
                col.push(v).unwrap();
            }
            assert_eq!(col.len(), reference.len());
            let got: Vec<u64> = (0..col.len()).map(|r| col.get(r)).collect();
            assert_eq!(got, reference, "get, {bits} bits");

            // set: seeded overwrites including both extremes
            for (k, v) in [(0usize, max), (1, 0), (77, lcg(&mut seed) & max), (203, max)] {
                col.set(k, v).unwrap();
                reference[k] = v;
            }

            // the reader over a run, over a gather, and the run decoder
            let mut seen = Vec::new();
            col.read(0..col.len(), |row, v| seen.push((row, v)));
            let want: Vec<(usize, u64)> = reference.iter().copied().enumerate().collect();
            assert_eq!(seen, want, "read, {bits} bits");
            let picks = [203usize, 0, 17, 17, 100];
            let mut gathered = Vec::new();
            col.read(picks, |row, v| gathered.push((row, v)));
            let want: Vec<(usize, u64)> = picks.iter().map(|&r| (r, reference[r])).collect();
            assert_eq!(gathered, want, "gather, {bits} bits");
            let mut buf = vec![99; 5];
            for run in [0..0, 0..1, 3..150, 0..reference.len(), 203..204] {
                col.decode_into(run.clone(), &mut buf);
                assert_eq!(buf, reference[run], "decode_into, {bits} bits");
            }

            // out of range: rejected, nothing changes
            if bits < 64 {
                let before = col.clone();
                for bad in [max + 1, u64::MAX] {
                    assert!(matches!(
                        col.push(bad),
                        Err(DbError::ValueOutOfRange { value, bits: b, .. }) if value == bad && b == bits
                    ));
                    assert!(matches!(col.set(5, bad), Err(DbError::ValueOutOfRange { .. })));
                }
                assert_eq!(col, before, "{bits} bits");
            }
        }
    }

    #[test]
    fn lane_is_the_narrowest_that_holds_the_width() {
        let lane_bytes = |bits| match Column::new(bits).lanes {
            Lanes::B8(_) => 1,
            Lanes::B16(_) => 2,
            Lanes::B32(_) => 4,
            Lanes::B64(_) => 8,
        };
        for (bits, bytes) in
            [(1, 1), (8, 1), (9, 2), (16, 2), (17, 4), (32, 4), (33, 8), (63, 8), (64, 8)]
        {
            assert_eq!(lane_bytes(bits), bytes, "{bits} bits");
        }
    }
}
