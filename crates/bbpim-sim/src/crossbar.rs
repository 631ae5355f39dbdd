//! A single memory crossbar: cells, MAGIC execution, reads/writes, and
//! per-row endurance counters.
//!
//! Records are stored one per crossbar row; attributes occupy fixed
//! column ranges (managed by higher layers). The crossbar executes
//! [`Microprogram`]s on its real bits — lowered once, `INIT` fused into
//! the NOR that follows it, run by the block kernel of
//! [`crate::bitmat`] — and keeps count of the cell writes each row has
//! experienced, op by op of the original program, which feeds the
//! paper's endurance analysis (Fig. 9).
//!
//! # Wear representation
//!
//! A column-parallel op writes one cell in *every* row, so it wears all
//! rows alike. The crossbar therefore keeps one counter for the writes
//! every row took plus a per-row vector for the row-specific rest (row
//! ops, host writes, result write-backs), and the largest entry of that
//! vector. The invariants: row `r` has taken
//! `all_rows_writes + row_cell_writes[r]` cell writes since the last
//! [`Crossbar::reset_endurance`], and `row_max` is the maximum of
//! `row_cell_writes` (counters only grow between resets, so a running
//! maximum is exact). A column op costs the simulator one increment
//! however many rows it covers — like the hardware it models — and the
//! worst row is read off in O(1).
//!
//! The per-row vector is *empty* — every entry an implied zero — until
//! the first row-specific write since the last reset, and a reset
//! empties it again rather than zeroing it: a crossbar that only ever
//! runs column ops after its load (most of a loaded relation) holds no
//! counters at all, 8 KB less than its 64 KB of cells.

use crate::bitmat::BitMatrix;
use crate::error::SimError;
use crate::isa::{Lowered, Microprogram};

/// Outcome of running a microprogram on one crossbar (identical across
/// the crossbars of a page, since they execute in lock-step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecSummary {
    /// Logic cycles consumed (one per micro-op).
    pub cycles: u64,
    /// Cells written on this crossbar.
    pub cells_written: u64,
}

/// A `rows × cols` RRAM crossbar with endurance bookkeeping.
///
/// ```
/// use bbpim_sim::crossbar::Crossbar;
/// use bbpim_sim::isa::Microprogram;
///
/// let mut xb = Crossbar::new(64, 32);
/// xb.write_row_bits(0, 0, 8, 0b1010_0110);
/// assert_eq!(xb.read_row_bits(0, 0, 8), 0b1010_0110);
///
/// let mut p = Microprogram::new();
/// p.gate_not(0, 8); // col 8 := NOT col 0
/// p.validate(64, 32)?;
/// xb.execute(&p)?;
/// // row 0's col 0 held the value's LSB (0), so its NOT is 1:
/// assert!(xb.bits().get(0, 8));
/// # Ok::<(), bbpim_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    bits: BitMatrix,
    /// Cell writes every row has taken (column-parallel work).
    all_rows_writes: u64,
    /// Cumulative cell writes per row beyond `all_rows_writes`
    /// (wear-leveling spreads them over the row's cells, per the
    /// paper's endurance assumption). Empty — all zeros — until the
    /// first row-specific write since the last reset.
    row_cell_writes: Vec<u64>,
    /// The largest entry of `row_cell_writes`.
    row_max: u64,
}

impl Crossbar {
    /// Create a zeroed crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a positive multiple of 64 or `cols` is 0
    /// (see [`BitMatrix::new`]).
    pub fn new(rows: usize, cols: usize) -> Self {
        Crossbar {
            bits: BitMatrix::new(rows, cols),
            all_rows_writes: 0,
            row_cell_writes: Vec::new(),
            row_max: 0,
        }
    }

    /// Rows (records) in this crossbar.
    pub fn rows(&self) -> usize {
        self.bits.rows()
    }

    /// Columns (bits per record slot).
    pub fn cols(&self) -> usize {
        self.bits.cols()
    }

    /// Read-only view of the raw cells.
    pub fn bits(&self) -> &BitMatrix {
        &self.bits
    }

    /// Mutable view of the raw cells *without* endurance accounting.
    ///
    /// Intended for test setup and for modeled operations that do their
    /// own accounting (the bulk-bitwise reduction fast path and the
    /// aggregation circuit).
    pub fn bits_mut_unaccounted(&mut self) -> &mut BitMatrix {
        &mut self.bits
    }

    /// Execute a microprogram on the stored bits.
    ///
    /// The program is lowered for this geometry and run by the block
    /// kernel (see [`crate::isa`]'s module docs): an `INIT` and the NOR
    /// into its column run as one pass, every other op as itself.
    /// Updates per-row endurance counters from the original ops: a column
    /// op writes one cell in every row, a row op writes `cols` cells of
    /// its destination row.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] if the program references
    /// cells outside this crossbar.
    pub fn execute(&mut self, program: &Microprogram) -> Result<ExecSummary, SimError> {
        let mut lowered = Lowered::default();
        program.lower(self.rows(), self.cols(), &mut lowered)?;
        Ok(self.run(&lowered))
    }

    /// [`Crossbar::execute`] for a program lowered for this geometry (a
    /// page lowers once for its lock-step crossbars, the module once for
    /// all its pages).
    pub(crate) fn run(&mut self, program: &Lowered) -> ExecSummary {
        self.bits.run(program);
        // every column op of the original program writes every row once
        let row_ops = program.row_dsts.len() as u64;
        self.all_rows_writes += program.summary.cycles - row_ops;
        let cols = self.cols() as u64;
        for &row in &program.row_dsts {
            self.note_row_writes(row, cols);
        }
        program.summary
    }

    /// Host/loader write of `width` bits into a row (endurance-counted).
    pub fn write_row_bits(&mut self, row: usize, col_lo: usize, width: usize, value: u64) {
        self.bits.write_row_bits(row, col_lo, width, value);
        self.note_row_writes(row, width as u64);
    }

    /// Host write of zeros into `[col_lo, col_lo + width)` of rows
    /// `0..rows`, a column at a time — the bits and wear of
    /// [`Crossbar::write_row_bits`] with value 0 on each of those rows.
    pub fn clear_rows(&mut self, rows: usize, col_lo: usize, width: usize) {
        for col in col_lo..col_lo + width {
            self.bits.clear_col_prefix(col, rows);
        }
        if rows == self.rows() {
            self.all_rows_writes += width as u64;
        } else {
            for row in 0..rows {
                self.note_row_writes(row, width as u64);
            }
        }
    }

    /// Read `width ≤ 64` bits of a row (no endurance impact).
    pub fn read_row_bits(&self, row: usize, col_lo: usize, width: usize) -> u64 {
        self.bits.read_row_bits(row, col_lo, width)
    }

    /// Record `width` cell writes against `row` without touching bits —
    /// used by modeled operations (aggregation-circuit write-back,
    /// reduction trees) that mutate bits through
    /// [`Crossbar::bits_mut_unaccounted`].
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds.
    pub fn note_row_writes(&mut self, row: usize, width: u64) {
        if self.row_cell_writes.is_empty() {
            self.alloc_row_counters();
        }
        let writes = &mut self.row_cell_writes[row];
        *writes += width;
        self.row_max = self.row_max.max(*writes);
    }

    /// Out of line: the loader's per-value writes inline
    /// [`Crossbar::note_row_writes`], and the allocation runs once per
    /// crossbar per reset.
    #[cold]
    #[inline(never)]
    fn alloc_row_counters(&mut self) {
        self.row_cell_writes = vec![0; self.rows()];
    }

    /// Record `per_row` cell writes against *every* row (modeled
    /// column-parallel work).
    pub fn note_all_rows_writes(&mut self, per_row: u64) {
        self.all_rows_writes += per_row;
    }

    /// The largest cell-write count any row has accumulated.
    pub fn max_row_cell_writes(&self) -> u64 {
        self.all_rows_writes + self.row_max
    }

    /// Reset endurance counters (e.g. after load, before measuring a query).
    pub fn reset_endurance(&mut self) {
        (self.all_rows_writes, self.row_max) = (0, 0);
        // Dropped, not zeroed: the counters' memory goes back too.
        self.row_cell_writes = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::MicroOp;

    fn nor_reference(a: bool, b: bool) -> bool {
        !(a | b)
    }

    #[test]
    fn execute_not_gate_matches_reference() {
        let mut xb = Crossbar::new(64, 8);
        for r in 0..64 {
            xb.bits_mut_unaccounted().set(r, 0, r % 3 == 0);
        }
        let mut p = Microprogram::new();
        p.gate_not(0, 1);
        xb.execute(&p).unwrap();
        for r in 0..64 {
            assert_eq!(xb.bits().get(r, 1), !xb.bits().get(r, 0), "row {r}");
        }
    }

    #[test]
    fn execute_nor_gate_matches_reference() {
        let mut xb = Crossbar::new(64, 8);
        for r in 0..64 {
            xb.bits_mut_unaccounted().set(r, 0, r & 1 == 1);
            xb.bits_mut_unaccounted().set(r, 1, r & 2 == 2);
        }
        let mut p = Microprogram::new();
        p.gate_nor(0, 1, 2);
        let s = xb.execute(&p).unwrap();
        assert_eq!(s.cycles, 2);
        for r in 0..64 {
            assert_eq!(
                xb.bits().get(r, 2),
                nor_reference(xb.bits().get(r, 0), xb.bits().get(r, 1)),
                "row {r}"
            );
        }
    }

    #[test]
    fn endurance_counts_column_ops_per_row() {
        let mut xb = Crossbar::new(64, 8);
        let mut p = Microprogram::new();
        p.gate_nor(0, 1, 2); // 2 column ops
        p.gate_not(2, 3); // 2 more
        xb.execute(&p).unwrap();
        assert_eq!(xb.max_row_cell_writes(), 4);
    }

    #[test]
    fn endurance_counts_host_writes() {
        let mut xb = Crossbar::new(64, 32);
        xb.write_row_bits(5, 0, 16, 0xffff);
        xb.write_row_bits(5, 16, 16, 0x0);
        assert_eq!(xb.max_row_cell_writes(), 32);
        xb.reset_endurance();
        assert_eq!(xb.max_row_cell_writes(), 0);
    }

    /// The lazily allocated counters against a dense per-row reference
    /// (one `u64` per row, every write applied to it directly): the
    /// worst row and every row's total agree before any row-specific
    /// write, across row-specific writes, a reset, and writes again.
    #[test]
    fn lazy_row_counters_match_the_dense_reference() {
        const ROWS: usize = 128;
        const COLS: usize = 16;
        let mut xb = Crossbar::new(ROWS, COLS);
        let mut dense = vec![0u64; ROWS];
        let agree = |xb: &Crossbar, dense: &[u64], at: &str| {
            let totals: Vec<u64> = (0..ROWS)
                .map(|r| xb.all_rows_writes + xb.row_cell_writes.get(r).copied().unwrap_or(0))
                .collect();
            assert_eq!(totals, dense, "per-row totals {at}");
            assert_eq!(xb.max_row_cell_writes(), *dense.iter().max().unwrap(), "worst row {at}");
        };
        let mut column_ops = Microprogram::new();
        column_ops.gate_nor(0, 1, 2);
        let mut row_ops = Microprogram::new();
        row_ops.push(MicroOp::InitRow { dst: 9 });
        row_ops.push(MicroOp::NorRows { a: 1, b: 2, dst: 9 });
        row_ops.gate_not(2, 3);

        for round in 0..2 {
            // column-parallel work only: no counters are held
            xb.execute(&column_ops).unwrap();
            xb.clear_rows(ROWS, 4, 3);
            xb.note_all_rows_writes(5);
            dense.iter_mut().for_each(|w| *w += 2 + 3 + 5);
            assert!(xb.row_cell_writes.is_empty(), "round {round}: column ops allocate nothing");
            agree(&xb, &dense, "after column ops");

            // row-specific writes of every kind
            xb.write_row_bits(5 + round, 0, 12, 0xabc);
            dense[5 + round] += 12;
            xb.note_row_writes(ROWS - 1, 7);
            dense[ROWS - 1] += 7;
            xb.clear_rows(70, 8, 2);
            dense[..70].iter_mut().for_each(|w| *w += 2);
            xb.execute(&row_ops).unwrap();
            dense[9] += 2 * COLS as u64;
            dense.iter_mut().for_each(|w| *w += 2);
            assert_eq!(xb.row_cell_writes.len(), ROWS);
            agree(&xb, &dense, "after row-specific writes");

            xb.reset_endurance();
            dense.fill(0);
            assert!(xb.row_cell_writes.is_empty(), "round {round}: a reset holds nothing");
            assert_eq!(xb.row_cell_writes.capacity(), 0, "and gives the memory back");
            agree(&xb, &dense, "after the reset");
        }
    }

    #[test]
    fn execute_rejects_invalid_program() {
        let mut xb = Crossbar::new(64, 8);
        let mut p = Microprogram::new();
        p.nor_cols(0, 1, 9);
        assert!(xb.execute(&p).is_err());
    }

    #[test]
    fn row_op_endurance_hits_destination_row_only() {
        let mut xb = Crossbar::new(64, 8);
        let mut p = Microprogram::new();
        p.push(MicroOp::InitRow { dst: 7 });
        xb.execute(&p).unwrap();
        assert_eq!(xb.max_row_cell_writes(), 8);
    }
}
