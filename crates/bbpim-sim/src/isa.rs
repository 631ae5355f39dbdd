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
//!
//! # Lowering
//!
//! The simulator does not interpret a [`Microprogram`] op by op. Before
//! it runs, a program is validated and *lowered* once for the crossbar
//! geometry into a flat list the crossbar kernel executes
//! ([`crate::bitmat`]): column indices become word offsets into the
//! column-major cells, and an `INIT dst` immediately followed by a NOR
//! into the same `dst` — the 2-cycle MAGIC gate, about half of every
//! compiled program — becomes one *assigning* op, `dst = !(a | b)`. A
//! lone `INIT` stays a fill, and a NOR without its `INIT` keeps MAGIC's
//! clear-only `dst &= !(a | b)`. A page lowers a program once for its
//! lock-step crossbars and the module once for all the pages it runs on,
//! into buffers the module keeps from one request to the next, so
//! `exec_program` allocates nothing once they have grown.
//! Cycles, cells written and wear still count the original ops: lowering
//! changes how the host computes the cells, not what the hardware does.

use crate::crossbar::ExecSummary;
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
        const PRIME: u64 = 0x100_0000_01b3;
        // Six FNV-1a steps over zero bytes: `h ^ 0 = h`, so only the
        // multiplies remain.
        const PRIME_POW_6: u64 = PRIME
            .wrapping_mul(PRIME)
            .wrapping_mul(PRIME)
            .wrapping_mul(PRIME)
            .wrapping_mul(PRIME)
            .wrapping_mul(PRIME);
        let byte = |h: u64, b: u64| (h ^ b).wrapping_mul(PRIME);
        let word = |h: u64, w: usize| {
            let w = w as u64;
            if w < 1 << 16 {
                // the 8 little-endian bytes, the top six of them zero
                byte(byte(h, w & 0xff), w >> 8).wrapping_mul(PRIME_POW_6)
            } else {
                w.to_le_bytes().iter().fold(h, |h, &b| byte(h, u64::from(b)))
            }
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

    /// Validate the program against a `rows × cols` crossbar and lower
    /// it for that geometry into `out` (see the module docs), reusing
    /// `out`'s buffers. `out` is left untouched if validation fails.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] as [`Microprogram::validate`].
    pub(crate) fn lower(
        &self,
        rows: usize,
        cols: usize,
        out: &mut Lowered,
    ) -> Result<(), SimError> {
        self.validate(rows, cols)?;
        let wpc = rows / 64;
        assert!(
            u32::try_from(rows.max(cols * wpc)).is_ok(),
            "a crossbar's rows and words fit 32-bit operands"
        );
        out.rows = rows;
        out.cols = cols;
        out.summary =
            ExecSummary { cycles: self.cycles(), cells_written: self.cells_written(rows, cols) };
        let Lowered { ops: lowered, inputs, row_dsts, .. } = out;
        lowered.clear();
        inputs.clear();
        row_dsts.clear();
        // word offset of a column; rows stay rows
        let at = |col: usize| (col * wpc) as u32;
        let mut many = |columns: &[usize]| {
            let lo = inputs.len() as u32;
            inputs.extend(columns.iter().map(|&c| at(c)));
            (lo, inputs.len() as u32)
        };
        lowered.reserve(self.ops.len());
        let mut ops = self.ops.iter().peekable();
        while let Some(op) = ops.next() {
            lowered.push(match *op {
                MicroOp::InitCol { dst } => match ops.next_if(|next| {
                    matches!(next, MicroOp::NorCols { dst: d, .. }
                        | MicroOp::NorManyCols { dst: d, .. } if *d == dst)
                }) {
                    Some(MicroOp::NorCols { a, b, .. }) => {
                        LoweredOp::Nor { a: at(*a), b: at(*b), dst: at(dst) }
                    }
                    Some(MicroOp::NorManyCols { inputs, .. }) => {
                        let (lo, hi) = many(inputs);
                        LoweredOp::NorMany { lo, hi, dst: at(dst) }
                    }
                    _ => LoweredOp::Fill { dst: at(dst) },
                },
                MicroOp::NorCols { a, b, dst } => {
                    LoweredOp::NorInto { a: at(a), b: at(b), dst: at(dst) }
                }
                MicroOp::NorManyCols { ref inputs, dst } => {
                    let (lo, hi) = many(inputs);
                    LoweredOp::NorManyInto { lo, hi, dst: at(dst) }
                }
                MicroOp::InitRow { dst } => {
                    row_dsts.push(dst);
                    LoweredOp::InitRow { dst: dst as u32 }
                }
                MicroOp::NorRows { a, b, dst } => {
                    row_dsts.push(dst);
                    LoweredOp::NorRows { a: a as u32, b: b as u32, dst: dst as u32 }
                }
            });
        }
        Ok(())
    }
}

/// One op of a [`Lowered`] program. Column operands are word offsets of
/// the column's first word in the crossbar's column-major cells
/// (`col · rows / 64`); row operands are row indices.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LoweredOp {
    /// `dst = 1…1`: an `INIT` no NOR into its column follows.
    Fill { dst: u32 },
    /// `dst = !(a | b)`: `INIT dst; NOR a b → dst`, fused.
    Nor { a: u32, b: u32, dst: u32 },
    /// `dst &= !(a | b)`: a NOR without its `INIT` only clears.
    NorInto { a: u32, b: u32, dst: u32 },
    /// `dst = !(c₀ | c₁ | …)` over the offsets `inputs[lo..hi]`:
    /// `INIT dst; NOR inputs → dst`, fused.
    NorMany { lo: u32, hi: u32, dst: u32 },
    /// `dst &= !(c₀ | c₁ | …)`: a multi-input NOR without its `INIT`.
    NorManyInto { lo: u32, hi: u32, dst: u32 },
    /// Pre-charge row `dst`.
    InitRow { dst: u32 },
    /// Row-parallel MAGIC NOR.
    NorRows { a: u32, b: u32, dst: u32 },
}

/// A validated [`Microprogram`] lowered for one crossbar geometry — the
/// op list every crossbar of that geometry runs, plus what the original
/// program costs there.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lowered {
    /// The geometry it was lowered for.
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) ops: Vec<LoweredOp>,
    /// The multi-input NORs' input offsets, each op's a range of them.
    pub(crate) inputs: Vec<u32>,
    /// Destination rows of the original program's row ops, in order.
    pub(crate) row_dsts: Vec<usize>,
    /// Cycles and per-crossbar cells written of the original program.
    pub(crate) summary: ExecSummary,
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
