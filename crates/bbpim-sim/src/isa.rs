//! The micro-operation set executed by a PIM page controller.
//!
//! Bulk-bitwise PIM exposes two physical primitives (Fig. 1a):
//!
//! * **column-parallel** ops — the same gate evaluated in *every row* of
//!   the crossbar at once, with whole columns as operands;
//! * **row-parallel** ops — the transpose: whole rows as operands,
//!   evaluated in every column at once.
//!
//! MAGIC stateful logic gives us `NOR` plus an `INIT` that pre-charges
//! output cells to `1`; everything else (NOT/AND/OR/XOR, adders,
//! comparators, multipliers, the Algorithm 1 MUX) is *compiled* to
//! `INIT`/`NOR` sequences by [`crate::compiler`]. One micro-op costs one
//! logic cycle (Table I: 30 ns).

use crate::error::SimError;

/// One micro-operation. Costs one bulk-bitwise logic cycle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MicroOp {
    /// Pre-charge every cell of column `dst` to `1` (MAGIC output init).
    InitCol {
        /// Output column.
        dst: usize,
    },
    /// Column-parallel MAGIC NOR: for every row, `dst &= !(a | b)`.
    NorCols {
        /// First input column.
        a: usize,
        /// Second input column (equal to `a` realises NOT).
        b: usize,
        /// Output column (must have been initialised for a true NOR).
        dst: usize,
    },
    /// Column-parallel multi-input MAGIC NOR: for every row,
    /// `dst &= !(inputs[0] | inputs[1] | …)`.
    ///
    /// MAGIC realises N-input NOR in a single cycle by connecting all
    /// input cells to one output cell; PIMDB-style equality filters use
    /// it to AND many term columns at once (`AND t_i = NOR ¬t_i`).
    NorManyCols {
        /// Input columns (at least one).
        inputs: Vec<usize>,
        /// Output column.
        dst: usize,
    },
    /// Pre-charge every cell of row `dst` to `1`.
    InitRow {
        /// Output row.
        dst: usize,
    },
    /// Row-parallel MAGIC NOR: for every column, `dst &= !(a | b)`.
    NorRows {
        /// First input row.
        a: usize,
        /// Second input row.
        b: usize,
        /// Output row.
        dst: usize,
    },
}

impl MicroOp {
    /// Cells written by this op on a `rows × cols` crossbar.
    fn cells_written(&self, rows: usize, cols: usize) -> u64 {
        match self {
            MicroOp::InitCol { .. } | MicroOp::NorCols { .. } | MicroOp::NorManyCols { .. } => {
                rows as u64
            }
            MicroOp::InitRow { .. } | MicroOp::NorRows { .. } => cols as u64,
        }
    }

    /// True for column-parallel ops.
    fn is_column_op(&self) -> bool {
        matches!(
            self,
            MicroOp::InitCol { .. } | MicroOp::NorCols { .. } | MicroOp::NorManyCols { .. }
        )
    }
}

/// A sequence of micro-ops dispatched to a page controller as one PIM
/// request and executed on all crossbars of the page concurrently.
///
/// ```
/// use bbpim_sim::isa::{MicroOp, Microprogram};
/// let mut p = Microprogram::new();
/// p.init_col(2);
/// p.nor_cols(0, 1, 2);
/// assert_eq!(p.cycles(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Microprogram {
    ops: Vec<MicroOp>,
}

impl Microprogram {
    /// Create an empty program.
    pub fn new() -> Self {
        Microprogram { ops: Vec::new() }
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Append a raw op.
    pub fn push(&mut self, op: MicroOp) {
        self.ops.push(op);
    }

    /// Append `INIT dst` (column).
    pub fn init_col(&mut self, dst: usize) {
        self.push(MicroOp::InitCol { dst });
    }

    /// Append `NOR a b → dst` (column-parallel).
    pub fn nor_cols(&mut self, a: usize, b: usize, dst: usize) {
        self.push(MicroOp::NorCols { a, b, dst });
    }

    /// Append a multi-input `NOR inputs → dst` (column-parallel).
    pub fn nor_many_cols(&mut self, inputs: Vec<usize>, dst: usize) {
        self.push(MicroOp::NorManyCols { inputs, dst });
    }

    /// Append an initialised NOR gate (`INIT dst; NOR a b → dst`) — the
    /// canonical 2-cycle MAGIC gate.
    pub fn gate_nor(&mut self, a: usize, b: usize, dst: usize) {
        self.init_col(dst);
        self.nor_cols(a, b, dst);
    }

    /// Append a NOT gate (`NOR a a → dst`, with init).
    pub fn gate_not(&mut self, a: usize, dst: usize) {
        self.gate_nor(a, a, dst);
    }

    /// Append all ops of `other`.
    pub fn extend(&mut self, other: &Microprogram) {
        self.ops.extend_from_slice(&other.ops);
    }

    /// Number of logic cycles this program takes (one per op).
    pub fn cycles(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Total cells written when run on one `rows × cols` crossbar.
    pub fn cells_written(&self, rows: usize, cols: usize) -> u64 {
        self.ops.iter().map(|op| op.cells_written(rows, cols)).sum()
    }

    /// Cell writes a single *row* experiences when the program runs
    /// (column ops write one cell in every row; row ops write `cols`
    /// cells of one row). Returns the maximum over rows, which is the
    /// quantity the paper's endurance metric divides by cells per row.
    pub fn max_row_cell_writes(&self, rows: usize, cols: usize) -> u64 {
        let col_ops = self.ops.iter().filter(|op| op.is_column_op()).count() as u64;
        let mut per_row = vec![0u64; rows];
        for op in &self.ops {
            match op {
                MicroOp::InitRow { dst } | MicroOp::NorRows { dst, .. } => {
                    per_row[*dst] += cols as u64;
                }
                _ => {}
            }
        }
        col_ops + per_row.into_iter().max().unwrap_or(0)
    }

    /// Check every referenced row/column is inside a `rows × cols` frame.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] naming the first offending op.
    pub fn validate(&self, rows: usize, cols: usize) -> Result<(), SimError> {
        for (i, op) in self.ops.iter().enumerate() {
            let ok = match op {
                MicroOp::InitCol { dst } => *dst < cols,
                MicroOp::NorCols { a, b, dst } => {
                    *a < cols && *b < cols && *dst < cols && a != dst && b != dst
                }
                MicroOp::NorManyCols { inputs, dst } => {
                    !inputs.is_empty()
                        && *dst < cols
                        && inputs.iter().all(|c| *c < cols && c != dst)
                }
                MicroOp::InitRow { dst } => *dst < rows,
                MicroOp::NorRows { a, b, dst } => {
                    *a < rows && *b < rows && *dst < rows && a != dst && b != dst
                }
            };
            if !ok {
                return Err(SimError::InvalidProgram(format!(
                    "op {i} ({op:?}) out of {rows}x{cols} frame or writes its own input"
                )));
            }
        }
        Ok(())
    }

    /// True when the program contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Fold the op sequence into the running 64-bit FNV-1a digest `h`:
    /// the op count, then per op a tag and its operands. Programs fold
    /// alike only when they are op-for-op identical, so a chain of
    /// these pins everything a module was asked to execute.
    pub fn digest(&self, h: u64) -> u64 {
        let word = |h: u64, w: usize| {
            (w as u64)
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        };
        self.ops.iter().fold(word(h, self.ops.len()), |h, op| match op {
            MicroOp::InitCol { dst } => [0, *dst].into_iter().fold(h, word),
            MicroOp::NorCols { a, b, dst } => [1, *a, *b, *dst].into_iter().fold(h, word),
            MicroOp::NorManyCols { inputs, dst } => {
                let h = inputs.iter().fold(word(word(h, 2), inputs.len()), |h, c| word(h, *c));
                word(h, *dst)
            }
            MicroOp::InitRow { dst } => [3, *dst].into_iter().fold(h, word),
            MicroOp::NorRows { a, b, dst } => [4, *a, *b, *dst].into_iter().fold(h, word),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_nor_is_two_cycles() {
        let mut p = Microprogram::new();
        p.gate_nor(0, 1, 2);
        assert_eq!(p.cycles(), 2);
        assert_eq!(p.ops().len(), 2);
        assert!(matches!(p.ops()[0], MicroOp::InitCol { dst: 2 }));
    }

    #[test]
    fn cells_written_counts_rows_for_column_ops() {
        let mut p = Microprogram::new();
        p.gate_nor(0, 1, 2); // 2 column ops
        p.push(MicroOp::NorRows { a: 0, b: 1, dst: 2 }); // 1 row op
        assert_eq!(p.cells_written(1024, 512), 1024 * 2 + 512);
    }

    #[test]
    fn max_row_cell_writes_mixes_col_and_row_ops() {
        let mut p = Microprogram::new();
        p.gate_nor(0, 1, 2); // every row gets 2 cell writes
        p.push(MicroOp::InitRow { dst: 5 }); // row 5 gets +cols
        assert_eq!(p.max_row_cell_writes(64, 32), 2 + 32);
    }

    #[test]
    fn validate_rejects_out_of_frame() {
        let mut p = Microprogram::new();
        p.nor_cols(0, 1, 600);
        assert!(matches!(p.validate(1024, 512), Err(SimError::InvalidProgram(_))));
    }

    #[test]
    fn validate_rejects_inplace_output() {
        let mut p = Microprogram::new();
        p.nor_cols(3, 1, 3);
        assert!(p.validate(64, 8).is_err());
    }

    #[test]
    fn validate_rejects_empty_multi_nor() {
        let mut p = Microprogram::new();
        p.nor_many_cols(vec![], 2);
        assert!(p.validate(64, 8).is_err());
    }

    #[test]
    fn multi_nor_counts_one_cycle() {
        let mut p = Microprogram::new();
        p.init_col(7);
        p.nor_many_cols(vec![0, 1, 2, 3], 7);
        assert_eq!(p.cycles(), 2);
        p.validate(64, 8).unwrap();
    }

    #[test]
    fn validate_accepts_well_formed() {
        let mut p = Microprogram::new();
        p.gate_not(0, 1);
        p.gate_nor(1, 0, 2);
        p.validate(64, 8).unwrap();
    }
}
