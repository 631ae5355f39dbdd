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
//! `rows / 64` word ops, a column's set rows are walked by
//! `trailing_zeros`. Nothing here is per row, and neither is the wear
//! that goes with it: the crossbar counts a column op as one increment
//! of its all-rows counter and keeps a per-row vector only for
//! row-specific writes (row `r` took `all_rows_writes +
//! row_cell_writes[r]` — see the crossbar's module docs).
//!
//! Microprograms run through one kernel, `BitMatrix::run`, over a
//! program lowered once for the geometry ([`crate::isa`]'s module docs):
//! per op one `match`, then the op's word ops over the columns in
//! fixed-size `[u64; W]` blocks. `W` is a const parameter — the largest
//! power of two up to 16 that divides `rows / 64`, so the paper's
//! 1024-row column is one 16-word block and a 64-row one a single word —
//! and the fused `INIT`+NOR (`dst = !(a | b)`) and the clear-only NOR
//! (`dst &= !(a | b)`) are separate arms, so neither loop tests a flag.
//!
//! Row access crosses the layout. A single row strides one word/bit
//! position down the columns ([`BitMatrix::read_row_bits`] /
//! [`BitMatrix::write_row_bits`]). The 64 rows of one column word move
//! together instead: a 64 × 64 bit transpose (`rows_to_columns` /
//! `columns_to_rows`) turns 64 row values into the `width` column
//! words that hold them and back, so
//! [`BitMatrix::write_word_rows`] / [`BitMatrix::read_word_rows`] load
//! or store each column word once — what the host's record runs use.

use crate::isa::{Lowered, LoweredOp};

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

    /// Write `width ≤ 64` bits at `col_lo` into the rows of column word
    /// `word` that `mask` selects: row `64·word + r` takes `block[r]`
    /// (LSB first; bits at and above `width` are ignored), and every
    /// other cell keeps its bits — [`BitMatrix::write_row_bits`] for up
    /// to 64 rows at once, one store per column. `block` is left
    /// transposed.
    pub fn write_word_rows(
        &mut self,
        word: usize,
        mask: u64,
        col_lo: usize,
        width: usize,
        block: &mut [u64; 64],
    ) {
        debug_assert!(word < self.wpc && width <= 64 && col_lo + width <= self.cols);
        rows_to_columns(block, width);
        let mut at = col_lo * self.wpc + word;
        for &bits in &block[..width] {
            let w = &mut self.data[at];
            *w = (*w & !mask) | (bits & mask);
            at += self.wpc;
        }
    }

    /// Read `width ≤ 64` bits at `col_lo` of the 64 rows of column word
    /// `word` into `block`: row `64·word + r` into `block[r]` —
    /// [`BitMatrix::read_row_bits`] for 64 rows at once, one load per
    /// column.
    pub fn read_word_rows(&self, word: usize, col_lo: usize, width: usize, block: &mut [u64; 64]) {
        debug_assert!(word < self.wpc && width <= 64 && col_lo + width <= self.cols);
        let mut at = col_lo * self.wpc + word;
        for bits in &mut block[..width] {
            *bits = self.data[at];
            at += self.wpc;
        }
        columns_to_rows(block, width);
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

impl BitMatrix {
    /// Run a program lowered for this geometry on the cells (the bits
    /// only: the crossbar counts cycles and wear).
    pub(crate) fn run(&mut self, program: &Lowered) {
        debug_assert!(program.rows == self.rows && program.cols == self.cols);
        match 1 << self.wpc.trailing_zeros().min(4) {
            16 => self.run_blocks::<16>(program),
            8 => self.run_blocks::<8>(program),
            4 => self.run_blocks::<4>(program),
            2 => self.run_blocks::<2>(program),
            _ => self.run_blocks::<1>(program),
        }
    }

    /// [`BitMatrix::run`] a `W`-word block at a time; `W` divides the
    /// words per column.
    fn run_blocks<const W: usize>(&mut self, program: &Lowered) {
        let blocks = self.wpc / W;
        let at = |offset: u32, block: usize| offset as usize + block * W;
        for op in &program.ops {
            let data = &mut self.data;
            match *op {
                LoweredOp::Fill { dst } => {
                    for k in 0..blocks {
                        *words_mut::<W>(data, at(dst, k)) = [u64::MAX; W];
                    }
                }
                LoweredOp::Nor { a, b, dst } => {
                    for k in 0..blocks {
                        let (a, b) = (words::<W>(data, at(a, k)), words::<W>(data, at(b, k)));
                        let d = words_mut::<W>(data, at(dst, k));
                        for i in 0..W {
                            d[i] = !(a[i] | b[i]);
                        }
                    }
                }
                LoweredOp::NorInto { a, b, dst } => {
                    for k in 0..blocks {
                        let (a, b) = (words::<W>(data, at(a, k)), words::<W>(data, at(b, k)));
                        let d = words_mut::<W>(data, at(dst, k));
                        for i in 0..W {
                            d[i] &= !(a[i] | b[i]);
                        }
                    }
                }
                LoweredOp::NorMany { lo, hi, dst } => {
                    let inputs = &program.inputs[lo as usize..hi as usize];
                    for k in 0..blocks {
                        let any = any_of::<W>(data, inputs, k);
                        let d = words_mut::<W>(data, at(dst, k));
                        for i in 0..W {
                            d[i] = !any[i];
                        }
                    }
                }
                LoweredOp::NorManyInto { lo, hi, dst } => {
                    let inputs = &program.inputs[lo as usize..hi as usize];
                    for k in 0..blocks {
                        let any = any_of::<W>(data, inputs, k);
                        let d = words_mut::<W>(data, at(dst, k));
                        for i in 0..W {
                            d[i] &= !any[i];
                        }
                    }
                }
                LoweredOp::InitRow { dst } => self.fill_row(dst as usize, true),
                LoweredOp::NorRows { a, b, dst } => {
                    self.magic_nor_rows(a as usize, b as usize, dst as usize);
                }
            }
        }
    }
}

/// The `W` words at `at`, copied.
#[inline(always)]
fn words<const W: usize>(data: &[u64], at: usize) -> [u64; W] {
    data[at..at + W].try_into().expect("W words")
}

/// The `W` words at `at`.
#[inline(always)]
fn words_mut<const W: usize>(data: &mut [u64], at: usize) -> &mut [u64; W] {
    (&mut data[at..at + W]).try_into().expect("W words")
}

/// The OR of block `k` of the columns at `inputs`.
#[inline(always)]
fn any_of<const W: usize>(data: &[u64], inputs: &[u32], k: usize) -> [u64; W] {
    let mut any = [0; W];
    for &c in inputs {
        let w = words::<W>(data, c as usize + k * W);
        for i in 0..W {
            any[i] |= w[i];
        }
    }
    any
}

/// The block-swap rounds of a 64 × 64 bit transpose, from 32 × 32
/// blocks down to single bits. Round `(j, low)` pairs each word of
/// every `2j`-word group's upper half with the word `j` below it, and
/// trades the upper word's high `j` bits of each `2j`-bit group
/// (`!low`) for the lower word's low `j` bits (`low`): it swaps bit
/// `log₂ j` of the row index with that of the column index. The rounds
/// commute, and rounds below `j` never move a bit across a `j`-word
/// group, which is what lets a narrow field skip most of the work.
const ROUNDS: [(usize, u64); 6] = [
    (32, 0x0000_0000_FFFF_FFFF),
    (16, 0x0000_FFFF_0000_FFFF),
    (8, 0x00FF_00FF_00FF_00FF),
    (4, 0x0F0F_0F0F_0F0F_0F0F),
    (2, 0x3333_3333_3333_3333),
    (1, 0x5555_5555_5555_5555),
];

/// One round over `words`.
#[inline(always)]
fn swap_round(words: &mut [u64], j: usize, low: u64) {
    for group in words.chunks_exact_mut(2 * j) {
        let (upper, lower) = group.split_at_mut(j);
        for (a, b) in upper.iter_mut().zip(lower) {
            let t = ((*a >> j) ^ *b) & low;
            *a ^= t << j;
            *b ^= t;
        }
    }
}

/// Transpose a 64 × 64 bit block in place, rows to columns: before,
/// `block[r]` is row `r`'s value; after, `block[c]` for `c < width`
/// is column `c`, row `r` at bit `r`. Row bits at and above `width`
/// are ignored and the words from `width` on are left unspecified, so
/// at `width = 64` this is the plain transpose (bit `c` of word `r`
/// becomes bit `r` of word `c`).
///
/// A round at or above the field's power-of-two span only sorts
/// unwanted columns away, so it keeps the upper half of its pairs and
/// drops the other; the remaining rounds run on the span's words.
fn rows_to_columns(block: &mut [u64; 64], width: usize) {
    let span = width.next_power_of_two();
    for (j, low) in ROUNDS {
        if j >= span {
            let (upper, lower) = block[..2 * j].split_at_mut(j);
            for (a, b) in upper.iter_mut().zip(&*lower) {
                *a = (*a & low) | ((*b & low) << j);
            }
        } else {
            swap_round(&mut block[..span], j, low);
        }
    }
}

/// [`rows_to_columns`] backwards: before, `block[c]` for `c < width`
/// is column `c` (the words from `width` on are ignored); after,
/// `block[r]` is row `r`'s `width`-bit value.
///
/// The rounds inside the field's span run first, on its words; each
/// round at or above it then splits its upper words' high bits out
/// into the empty words below them.
fn columns_to_rows(block: &mut [u64; 64], width: usize) {
    let span = width.next_power_of_two();
    block[width..span].fill(0);
    for (j, low) in ROUNDS.into_iter().rev() {
        if j >= span {
            let (upper, lower) = block[..2 * j].split_at_mut(j);
            for (a, b) in upper.iter_mut().zip(lower) {
                *b = (*a >> j) & low;
                *a &= low;
            }
        } else {
            swap_round(&mut block[..span], j, low);
        }
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
    use crate::crossbar::Crossbar;
    use crate::isa::Microprogram;

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

    /// `INIT dst; NOR a b → dst`, run through the crossbar: the fused
    /// op leaves a true NOR.
    #[test]
    fn magic_nor_cols_on_initialized_output_is_true_nor() {
        let mut xb = Crossbar::new(64, 3);
        let m = xb.bits_mut_unaccounted();
        // a = rows 0..32 set, b = even rows set
        for r in 0..32 {
            m.set(r, 0, true);
        }
        for r in (0..64).step_by(2) {
            m.set(r, 1, true);
        }
        let mut p = Microprogram::new();
        p.gate_nor(0, 1, 2);
        xb.execute(&p).unwrap();
        let m = xb.bits();
        for r in 0..64 {
            let expected = !(m.get(r, 0) | m.get(r, 1));
            assert_eq!(m.get(r, 2), expected, "row {r}");
        }
    }

    #[test]
    fn magic_nor_cols_without_init_only_clears() {
        // dst starts half set; NOR of two zero inputs would be 1, but MAGIC
        // cannot switch 0 → 1, and a set input clears its row.
        let mut xb = Crossbar::new(64, 3);
        for r in 0..64 {
            xb.bits_mut_unaccounted().set(r, 2, r < 32);
            xb.bits_mut_unaccounted().set(r, 0, r % 4 == 0);
        }
        let mut p = Microprogram::new();
        p.nor_cols(0, 1, 2);
        xb.execute(&p).unwrap();
        for r in 0..64 {
            assert_eq!(xb.bits().get(r, 2), r < 32 && r % 4 != 0, "row {r}");
        }
        // the multi-input NOR likewise
        let mut p = Microprogram::new();
        p.nor_many_cols(vec![0, 1], 2);
        let mut zeros = Crossbar::new(64, 3);
        zeros.execute(&p).unwrap();
        assert_eq!(zeros.bits().popcount_col(2), 0);
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

    /// Both directions against the bit-by-bit statement at every width,
    /// with bits set above the field in the rows and in the words past
    /// it.
    #[test]
    fn transposes_match_the_bit_by_bit_statement_at_every_width() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for width in 0..=64 {
            let rows: [u64; 64] = std::array::from_fn(|_| next());
            let bit = |v: u64, i: usize| (v >> i) & 1;
            let mut block = rows;
            rows_to_columns(&mut block, width);
            for (c, col) in block[..width].iter().enumerate() {
                for (r, row) in rows.iter().enumerate() {
                    assert_eq!(bit(*col, r), bit(*row, c), "width {width}: row {r} col {c}");
                }
            }
            // back again, past-the-field words holding garbage
            let cols: [u64; 64] =
                std::array::from_fn(|c| if c < width { block[c] } else { next() });
            let mut back = cols;
            columns_to_rows(&mut back, width);
            let field = if width == 64 { u64::MAX } else { (1 << width) - 1 };
            assert_eq!(back, rows.map(|r| r & field), "width {width}");
        }
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
