//! Column-major bit matrix — the raw cell array of a crossbar.
//!
//! Bulk-bitwise PIM executes the *same* logic operation on every row of a
//! crossbar simultaneously (Fig. 1a of the paper), so the natural storage
//! is column-major: one column of cells is a contiguous `[u64]` bit
//! vector and a column-parallel MAGIC NOR is a handful of word ops.
//!
//! [`BitMatrix`] is purely functional storage — timing, energy and
//! endurance accounting live in [`crate::crossbar::Crossbar`]. The
//! kernels here cost what the layout says they should: a column op is
//! `rows / 64` word ops, a row access strides one word/bit position
//! down the columns, a column's set rows are walked by
//! `trailing_zeros`. Nothing here is per row, and neither is the wear
//! that goes with it: the crossbar counts a column op as one increment
//! of its all-rows counter and keeps a per-row vector only for
//! row-specific writes (row `r` took `all_rows_writes +
//! row_cell_writes[r]` — see the crossbar's module docs).

/// A `rows × cols` bit matrix stored column-major.
///
/// ```
/// use bbpim_sim::bitmat::BitMatrix;
/// let mut m = BitMatrix::new(64, 8);
/// m.set(3, 5, true);
/// assert!(m.get(3, 5));
/// assert_eq!(m.popcount_col(5), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    /// 64-bit words per column.
    wpc: usize,
    /// `data[col * wpc .. (col + 1) * wpc]` is column `col`, LSB = row 0.
    data: Vec<u64>,
}

impl BitMatrix {
    /// Create a zeroed matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a positive multiple of 64 or `cols` is 0.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && rows.is_multiple_of(64), "rows must be a positive multiple of 64");
        assert!(cols > 0, "cols must be positive");
        let wpc = rows / 64;
        BitMatrix { rows, cols, wpc, data: vec![0; wpc * cols] }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn idx(&self, col: usize) -> std::ops::Range<usize> {
        debug_assert!(col < self.cols);
        col * self.wpc..(col + 1) * self.wpc
    }

    /// Borrow a column as words (LSB of word 0 = row 0).
    pub fn col(&self, col: usize) -> &[u64] {
        &self.data[self.idx(col)]
    }

    /// Mutably borrow a column.
    pub fn col_mut(&mut self, col: usize) -> &mut [u64] {
        let r = self.idx(col);
        &mut self.data[r]
    }

    /// Read a single cell.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.rows);
        let w = self.data[col * self.wpc + row / 64];
        (w >> (row % 64)) & 1 == 1
    }

    /// Write a single cell.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        debug_assert!(row < self.rows);
        let w = &mut self.data[col * self.wpc + row / 64];
        if value {
            *w |= 1u64 << (row % 64);
        } else {
            *w &= !(1u64 << (row % 64));
        }
    }

    /// Set every cell of a column to `value`.
    pub fn fill_col(&mut self, col: usize, value: bool) {
        let fill = if value { u64::MAX } else { 0 };
        for w in self.col_mut(col) {
            *w = fill;
        }
    }

    /// Column `dst` mutably, beside a reader of every *other* column —
    /// the operands of a column-parallel gate, whose output differs
    /// from its inputs.
    fn gate_cols<'a>(&'a mut self, dst: usize) -> (&'a mut [u64], impl Fn(usize) -> &'a [u64]) {
        let wpc = self.wpc;
        let (below, rest) = self.data.split_at_mut(dst * wpc);
        let (out, above) = rest.split_at_mut(wpc);
        let (below, above): (&'a [u64], &'a [u64]) = (below, above);
        let input = move |c: usize| {
            debug_assert!(c != dst, "MAGIC output must differ from inputs");
            if c < dst {
                &below[c * wpc..(c + 1) * wpc]
            } else {
                &above[(c - dst - 1) * wpc..(c - dst) * wpc]
            }
        };
        (out, input)
    }

    /// MAGIC column-parallel NOR: `dst &= !(a | b)`.
    ///
    /// MAGIC's stateful NOR can only switch a pre-initialised `1` output
    /// cell to `0`; an output cell already at `0` stays `0`. Callers that
    /// want a true NOR must [`BitMatrix::fill_col`] `dst` with `1` first
    /// (that is exactly what the `INIT` micro-op does).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is one of the inputs.
    pub fn magic_nor_cols(&mut self, a: usize, b: usize, dst: usize) {
        let (out, input) = self.gate_cols(dst);
        for ((d, a), b) in out.iter_mut().zip(input(a)).zip(input(b)) {
            *d &= !(a | b);
        }
    }

    /// MAGIC column-parallel multi-input NOR: `dst &= !(c₀ | c₁ | …)`.
    ///
    /// Same stateful-output semantics as [`BitMatrix::magic_nor_cols`].
    ///
    /// # Panics
    ///
    /// Panics if `dst` is one of the inputs.
    pub fn magic_nor_many_cols(&mut self, inputs: &[usize], dst: usize) {
        let (out, input) = self.gate_cols(dst);
        for &c in inputs {
            for (d, w) in out.iter_mut().zip(input(c)) {
                *d &= !w;
            }
        }
    }

    /// Clear the cells of rows `0..rows` of a column.
    pub fn clear_col_prefix(&mut self, col: usize, rows: usize) {
        debug_assert!(rows <= self.rows);
        let words = self.col_mut(col);
        words[..rows / 64].fill(0);
        if !rows.is_multiple_of(64) {
            words[rows / 64] &= u64::MAX << (rows % 64);
        }
    }

    /// MAGIC row-parallel NOR: for every column `c`,
    /// `cell[dst_row][c] &= !(cell[a_row][c] | cell[b_row][c])`.
    pub fn magic_nor_rows(&mut self, a_row: usize, b_row: usize, dst_row: usize) {
        debug_assert!(a_row != dst_row && b_row != dst_row);
        for c in 0..self.cols {
            let v = !(self.get(a_row, c) | self.get(b_row, c));
            if !v {
                self.set(dst_row, c, false);
            }
        }
    }

    /// Set every cell of a row to `value`.
    pub fn fill_row(&mut self, row: usize, value: bool) {
        for c in 0..self.cols {
            self.set(row, c, value);
        }
    }

    /// Read `width ≤ 64` bits of a row starting at `col_lo` (LSB first).
    ///
    /// A row's cells sit one column stride apart at a fixed word and
    /// bit position, so the read strides that one position down the
    /// columns.
    pub fn read_row_bits(&self, row: usize, col_lo: usize, width: usize) -> u64 {
        debug_assert!(row < self.rows && width <= 64 && col_lo + width <= self.cols);
        let (mut at, bit) = (col_lo * self.wpc + row / 64, row % 64);
        let mut v = 0u64;
        for i in 0..width {
            v |= ((self.data[at] >> bit) & 1) << i;
            at += self.wpc;
        }
        v
    }

    /// Write `width ≤ 64` bits into a row starting at `col_lo` (LSB
    /// first), striding like [`BitMatrix::read_row_bits`].
    pub fn write_row_bits(&mut self, row: usize, col_lo: usize, width: usize, value: u64) {
        debug_assert!(row < self.rows && width <= 64 && col_lo + width <= self.cols);
        let (mut at, bit) = (col_lo * self.wpc + row / 64, row % 64);
        for i in 0..width {
            let w = &mut self.data[at];
            *w = (*w & !(1 << bit)) | (((value >> i) & 1) << bit);
            at += self.wpc;
        }
    }

    /// Count set cells in a column.
    pub fn popcount_col(&self, col: usize) -> usize {
        self.col(col).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate the row indices whose cell in `col` is set.
    pub fn ones_in_col(&self, col: usize) -> impl Iterator<Item = usize> + '_ {
        word_ones(self.col(col))
    }
}

/// The indices of the set bits of a bit-vector packed LSB-first into
/// `words`, ascending.
pub fn word_ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                wi * 64 + tz
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let m = BitMatrix::new(64, 4);
        for c in 0..4 {
            assert_eq!(m.popcount_col(c), 0);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn rejects_unaligned_rows() {
        let _ = BitMatrix::new(100, 4);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = BitMatrix::new(128, 3);
        m.set(127, 2, true);
        assert!(m.get(127, 2));
        m.set(127, 2, false);
        assert!(!m.get(127, 2));
    }

    #[test]
    fn magic_nor_cols_on_initialized_output_is_true_nor() {
        let mut m = BitMatrix::new(64, 3);
        // a = rows 0..32 set, b = even rows set
        for r in 0..32 {
            m.set(r, 0, true);
        }
        for r in (0..64).step_by(2) {
            m.set(r, 1, true);
        }
        m.fill_col(2, true); // INIT
        m.magic_nor_cols(0, 1, 2);
        for r in 0..64 {
            let expected = !(m.get(r, 0) | m.get(r, 1));
            assert_eq!(m.get(r, 2), expected, "row {r}");
        }
    }

    #[test]
    fn magic_nor_cols_without_init_only_clears() {
        let mut m = BitMatrix::new(64, 3);
        // dst starts all-zero; NOR of two zero inputs would be 1, but MAGIC
        // cannot switch 0 → 1.
        m.magic_nor_cols(0, 1, 2);
        assert_eq!(m.popcount_col(2), 0);
    }

    #[test]
    fn magic_nor_rows_matches_reference() {
        let mut m = BitMatrix::new(64, 8);
        for c in 0..8 {
            m.set(1, c, c % 2 == 0);
            m.set(2, c, c < 4);
        }
        m.fill_row(5, true);
        m.magic_nor_rows(1, 2, 5);
        for c in 0..8 {
            let expected = !(m.get(1, c) | m.get(2, c));
            assert_eq!(m.get(5, c), expected, "col {c}");
        }
    }

    #[test]
    fn row_bits_roundtrip() {
        let mut m = BitMatrix::new(64, 40);
        m.write_row_bits(10, 3, 17, 0x1_ABCD);
        assert_eq!(m.read_row_bits(10, 3, 17), 0x1_ABCD);
        // neighbours untouched
        assert!(!m.get(10, 2));
        assert!(!m.get(10, 20));
    }

    #[test]
    fn ones_in_col_lists_rows() {
        let mut m = BitMatrix::new(128, 1);
        for r in [0usize, 63, 64, 127] {
            m.set(r, 0, true);
        }
        let ones: Vec<usize> = m.ones_in_col(0).collect();
        assert_eq!(ones, vec![0, 63, 64, 127]);
    }
}
