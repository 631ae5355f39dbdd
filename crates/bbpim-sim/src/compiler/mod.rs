//! Compilers that lower database operations to NOR-only microprograms.
//!
//! Everything a query needs inside the crossbar — equality and range
//! predicates, the Algorithm 1 multiplexer for UPDATE, and the
//! arithmetic that materialises aggregate expressions such as
//! `extendedprice · discount` — is compiled down to `INIT`/`NOR`
//! micro-ops and *executed on the stored bits*, so cycle counts, energy
//! and endurance are those of the real gate sequence, not an estimate.
//!
//! * [`CodeBuilder`] — gate-level emission with scratch-column
//!   allocation (NOT/OR/AND/XOR built from MAGIC NOR), and the
//!   per-program complements of the columns a program only reads.
//! * [`predicate`] — one range emitter for sorted value runs (aligned
//!   prefix cubes over shared complements), and the clear-only AND / OR
//!   of result columns the mask builders use. The runs come from the
//!   planner: an atom's selected values clipped to its width, a
//!   semijoin's key runs, a group key's value.
//! * [`arith`] — ripple-carry add/sub and shift-add multiply between
//!   attribute column ranges.
//! * [`mux`] — the paper's Algorithm 1: select-bit-controlled overwrite
//!   of an attribute with an immediate.
//! * [`reduce`] — the cost model of *pure bulk-bitwise* aggregation
//!   (reduction trees), used by the PIMDB baseline.

pub mod arith;
pub mod mux;
pub mod predicate;
pub mod reduce;

use crate::error::SimError;
use crate::isa::Microprogram;

/// A contiguous range of crossbar columns holding one attribute,
/// LSB at `lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRange {
    /// First (least significant) column.
    pub lo: usize,
    /// Width in bits.
    pub width: usize,
}

impl ColRange {
    /// Create a range; `width` may be 0 for a placeholder.
    pub fn new(lo: usize, width: usize) -> Self {
        ColRange { lo, width }
    }

    /// Column of bit `i` (LSB = bit 0).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: usize) -> usize {
        assert!(i < self.width, "bit {i} out of {}-bit attribute", self.width);
        self.lo + i
    }

    /// One-past-the-end column.
    pub fn end(&self) -> usize {
        self.lo + self.width
    }
}

/// Allocator for scratch columns inside the crossbar's reserved compute
/// region.
///
/// Gates always `INIT` their output before evaluating, so freed columns
/// can be reused without explicit clearing.
#[derive(Debug, Clone)]
pub struct ScratchPool {
    region: ColRange,
    free: Vec<usize>,
}

impl ScratchPool {
    /// A pool over the given column region.
    pub fn new(region: ColRange) -> Self {
        ScratchPool { region, free: (region.lo..region.end()).rev().collect() }
    }

    /// Allocate one scratch column.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] when the compute region is
    /// exhausted — the relation layout must reserve more scratch space.
    pub fn alloc(&mut self) -> Result<usize, SimError> {
        self.free.pop().ok_or_else(|| {
            SimError::InvalidProgram(format!(
                "scratch region exhausted ({} columns at {})",
                self.region.width, self.region.lo
            ))
        })
    }

    /// Return a column to the pool.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `col` is outside the region.
    pub fn release(&mut self, col: usize) {
        debug_assert!(col >= self.region.lo && col < self.region.end());
        self.free.push(col);
    }
}

/// Emits NOR-only gate sequences into a [`Microprogram`], allocating
/// scratch columns on demand.
///
/// All `emit_*` methods return the column holding the result (freshly
/// allocated unless documented otherwise); call [`CodeBuilder::release`]
/// when a temporary is dead.
///
/// ```
/// use bbpim_sim::compiler::{CodeBuilder, ColRange, ScratchPool};
/// # use bbpim_sim::crossbar::Crossbar;
/// let mut pool = ScratchPool::new(ColRange::new(32, 16));
/// let mut b = CodeBuilder::new(&mut pool);
/// let na = b.emit_not(0)?; // column 32 := NOT column 0
/// let prog = b.finish();
/// assert_eq!(prog.cycles(), 2);
/// # Ok::<(), bbpim_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct CodeBuilder<'a> {
    prog: Microprogram,
    pool: &'a mut ScratchPool,
    const_one: Option<usize>,
    const_zero: Option<usize>,
    /// `(column, its complement)` pairs kept for the rest of the program.
    complements: Vec<(usize, usize)>,
}

/// Scratch columns the predicate emitters and the mask builders
/// ([`predicate`]) hold at most at once besides the complements they
/// share: a program keeps a new complement only while more than this
/// many columns are free, so any predicate compiles in a pool of this
/// size.
pub const WORKING_COLS: usize = 6;

impl<'a> CodeBuilder<'a> {
    /// Start a builder over a scratch pool.
    pub fn new(pool: &'a mut ScratchPool) -> Self {
        CodeBuilder {
            prog: Microprogram::new(),
            pool,
            const_one: None,
            const_zero: None,
            complements: Vec::new(),
        }
    }

    /// Finish and take the program.
    pub fn finish(self) -> Microprogram {
        self.prog
    }

    /// Direct access to the underlying program (for raw ops).
    pub fn program_mut(&mut self) -> &mut Microprogram {
        &mut self.prog
    }

    /// Allocate a scratch column (uninitialised).
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn alloc(&mut self) -> Result<usize, SimError> {
        self.pool.alloc()
    }

    /// Release a scratch column. Constants and shared complements are
    /// never released.
    pub fn release(&mut self, col: usize) {
        if Some(col) == self.const_one
            || Some(col) == self.const_zero
            || self.complements.iter().any(|&(_, c)| c == col)
        {
            return;
        }
        self.pool.release(col);
    }

    /// The shared complement of `col`, a column this program only
    /// reads: `NOT col` is emitted on first use into a column kept until
    /// the program ends, so every later use costs nothing — while more
    /// than [`WORKING_COLS`] scratch columns are free. `None` once
    /// scratch runs short: the caller complements into a temporary.
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn complement(&mut self, col: usize) -> Result<Option<usize>, SimError> {
        if let Some(&(_, c)) = self.complements.iter().find(|&&(src, _)| src == col) {
            return Ok(Some(c));
        }
        if self.available() <= WORKING_COLS {
            return Ok(None);
        }
        let c = self.emit_not(col)?;
        self.complements.push((col, c));
        Ok(Some(c))
    }

    /// A column holding constant `1` in every row (created on first use).
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn one(&mut self) -> Result<usize, SimError> {
        if let Some(c) = self.const_one {
            return Ok(c);
        }
        let c = self.alloc()?;
        self.prog.init_col(c);
        self.const_one = Some(c);
        Ok(c)
    }

    /// A column holding constant `0` in every row (created on first use).
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn zero(&mut self) -> Result<usize, SimError> {
        if let Some(c) = self.const_zero {
            return Ok(c);
        }
        let one = self.one()?;
        let c = self.alloc()?;
        self.prog.gate_nor(one, one, c); // NOR(1,1) = 0
        self.const_zero = Some(c);
        Ok(c)
    }

    /// `dst := NOR(a, b)` into a fresh column.
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn emit_nor(&mut self, a: usize, b: usize) -> Result<usize, SimError> {
        let dst = self.alloc()?;
        self.prog.gate_nor(a, b, dst);
        Ok(dst)
    }

    /// `dst := NOT a` into a fresh column.
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn emit_not(&mut self, a: usize) -> Result<usize, SimError> {
        self.emit_nor(a, a)
    }

    /// `dst := a OR b` into a fresh column (NOR + NOT, 4 cycles).
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn emit_or(&mut self, a: usize, b: usize) -> Result<usize, SimError> {
        let n = self.emit_nor(a, b)?;
        let dst = self.emit_not(n)?;
        self.release(n);
        Ok(dst)
    }

    /// `dst := a AND b` into a fresh column (`NOR(¬a, ¬b)`, 6 cycles).
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn emit_and(&mut self, a: usize, b: usize) -> Result<usize, SimError> {
        let na = self.emit_not(a)?;
        let nb = self.emit_not(b)?;
        let dst = self.emit_nor(na, nb)?;
        self.release(na);
        self.release(nb);
        Ok(dst)
    }

    /// `dst := a XOR b` into a fresh column
    /// (`NOR(NOR(a,b), AND(a,b))`, 10 cycles).
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn emit_xor(&mut self, a: usize, b: usize) -> Result<usize, SimError> {
        let nor_ab = self.emit_nor(a, b)?;
        let and_ab = self.emit_and(a, b)?;
        let dst = self.emit_nor(nor_ab, and_ab)?;
        self.release(nor_ab);
        self.release(and_ab);
        Ok(dst)
    }

    /// Multi-input `dst := NOR(inputs…)` into a fresh column (2 cycles).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] on an empty input list, or
    /// scratch exhaustion.
    pub fn emit_nor_many(&mut self, inputs: Vec<usize>) -> Result<usize, SimError> {
        if inputs.is_empty() {
            return Err(SimError::InvalidProgram("NOR of zero inputs".into()));
        }
        let dst = self.alloc()?;
        self.prog.init_col(dst);
        self.prog.nor_many_cols(inputs, dst);
        Ok(dst)
    }

    /// Full adder on columns: returns `(sum, carry_out)` in fresh columns
    /// (nine 2-input NORs, 18 cycles; see
    /// [`CodeBuilder::emit_full_adder_into`]).
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn emit_full_adder(
        &mut self,
        a: usize,
        b: usize,
        cin: usize,
    ) -> Result<(usize, usize), SimError> {
        let sum = self.alloc()?;
        let cout = self.emit_full_adder_into(a, b, cin, sum)?;
        Ok((sum, cout))
    }

    /// Full adder whose last NOR writes `a + b + cin`'s sum bit into the
    /// column `sum` the caller names; returns the carry-out in a fresh
    /// column. Nine 2-input NORs, 18 cycles:
    ///
    /// ```text
    /// n1 = NOR(a, b)     n2 = NOR(a, n1)    n3 = NOR(b, n1)
    /// x  = NOR(n2, n3)   (a XNOR b)         n5 = NOR(x, cin)
    /// cout = NOR(n1, n5) n6 = NOR(x, n5)    n7 = NOR(cin, n5)
    /// sum  = NOR(n6, n7)
    /// ```
    ///
    /// Every read of `a`, `b` and `cin` precedes the last NOR, so `sum`
    /// may be one of them — an accumulator bit added in place.
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn emit_full_adder_into(
        &mut self,
        a: usize,
        b: usize,
        cin: usize,
        sum: usize,
    ) -> Result<usize, SimError> {
        let n1 = self.emit_nor(a, b)?;
        let xnor = self.emit_xnor_from(a, b, n1)?;
        let n5 = self.emit_nor(xnor, cin)?;
        let cout = self.emit_nor(n1, n5)?;
        self.release(n1);
        let n6 = self.emit_nor(xnor, n5)?;
        let n7 = self.emit_nor(cin, n5)?;
        self.release(xnor);
        self.release(n5);
        self.prog.gate_nor(n6, n7, sum);
        self.release(n6);
        self.release(n7);
        Ok(cout)
    }

    /// Half adder whose fifth NOR writes `a + b`'s sum bit into the
    /// column `sum` the caller names (which may be `a` or `b`); returns
    /// the carry-out `NOR(n1, sum) = a AND b` in a fresh column. Six
    /// 2-input NORs, 12 cycles: the full adder's first four, then
    /// `sum = NOT(a XNOR b)`.
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn emit_half_adder_into(
        &mut self,
        a: usize,
        b: usize,
        sum: usize,
    ) -> Result<usize, SimError> {
        let n1 = self.emit_nor(a, b)?;
        let xnor = self.emit_xnor_from(a, b, n1)?;
        self.prog.gate_not(xnor, sum);
        self.release(xnor);
        let cout = self.emit_nor(n1, sum)?;
        self.release(n1);
        Ok(cout)
    }

    /// `a XNOR b` into a fresh column, given `n1 = NOR(a, b)`: three
    /// NORs, `NOR(NOR(a, n1), NOR(b, n1))`.
    fn emit_xnor_from(&mut self, a: usize, b: usize, n1: usize) -> Result<usize, SimError> {
        let n2 = self.emit_nor(a, n1)?;
        let n3 = self.emit_nor(b, n1)?;
        let xnor = self.emit_nor(n2, n3)?;
        self.release(n2);
        self.release(n3);
        Ok(xnor)
    }

    /// Scratch columns still free in the pool.
    pub fn available(&self) -> usize {
        self.pool.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::Crossbar;

    /// Run a builder-produced program on a crossbar whose columns 0 and 1
    /// enumerate all (a, b) combinations, then check `check(a, b, out)`.
    fn exercise_two_input(
        emit: impl FnOnce(&mut CodeBuilder<'_>) -> usize,
        reference: impl Fn(bool, bool) -> bool,
    ) {
        let mut xb = Crossbar::new(64, 32);
        for r in 0..64 {
            xb.bits_mut_unaccounted().set(r, 0, r & 1 == 1);
            xb.bits_mut_unaccounted().set(r, 1, r & 2 == 2);
        }
        let mut pool = ScratchPool::new(ColRange::new(8, 24));
        let mut b = CodeBuilder::new(&mut pool);
        let out = emit(&mut b);
        let prog = b.finish();
        xb.execute(&prog).unwrap();
        for r in 0..64 {
            let a = r & 1 == 1;
            let bb = r & 2 == 2;
            assert_eq!(xb.bits().get(r, out), reference(a, bb), "row {r}");
        }
    }

    #[test]
    fn emit_not_truth_table() {
        exercise_two_input(|b| b.emit_not(0).unwrap(), |a, _| !a);
    }

    #[test]
    fn emit_and_truth_table() {
        exercise_two_input(|b| b.emit_and(0, 1).unwrap(), |a, b| a && b);
    }

    #[test]
    fn emit_or_truth_table() {
        exercise_two_input(|b| b.emit_or(0, 1).unwrap(), |a, b| a || b);
    }

    #[test]
    fn emit_xor_truth_table() {
        exercise_two_input(|b| b.emit_xor(0, 1).unwrap(), |a, b| a ^ b);
    }

    #[test]
    fn emit_nor_many_truth_table() {
        exercise_two_input(|b| b.emit_nor_many(vec![0, 1]).unwrap(), |a, b| !(a || b));
    }

    #[test]
    fn constants_hold_their_value() {
        let mut xb = Crossbar::new(64, 16);
        let mut pool = ScratchPool::new(ColRange::new(4, 12));
        let mut b = CodeBuilder::new(&mut pool);
        let one = b.one().unwrap();
        let zero = b.zero().unwrap();
        let prog = b.finish();
        xb.execute(&prog).unwrap();
        for r in 0..64 {
            assert!(xb.bits().get(r, one));
            assert!(!xb.bits().get(r, zero));
        }
    }

    #[test]
    fn full_adder_truth_table() {
        // columns 0,1,2 enumerate (a, b, cin)
        let mut xb = Crossbar::new(64, 40);
        for r in 0..64 {
            xb.bits_mut_unaccounted().set(r, 0, r & 1 == 1);
            xb.bits_mut_unaccounted().set(r, 1, r & 2 == 2);
            xb.bits_mut_unaccounted().set(r, 2, r & 4 == 4);
        }
        let mut pool = ScratchPool::new(ColRange::new(8, 32));
        let mut b = CodeBuilder::new(&mut pool);
        let (sum, cout) = b.emit_full_adder(0, 1, 2).unwrap();
        let prog = b.finish();
        xb.execute(&prog).unwrap();
        for r in 0..64 {
            let a = (r & 1 == 1) as u8;
            let bb = (r & 2 == 2) as u8;
            let c = (r & 4 == 4) as u8;
            let total = a + bb + c;
            assert_eq!(xb.bits().get(r, sum), total & 1 == 1, "sum row {r}");
            assert_eq!(xb.bits().get(r, cout), total >= 2, "cout row {r}");
        }
    }

    #[test]
    fn scratch_pool_exhausts_cleanly() {
        let mut pool = ScratchPool::new(ColRange::new(0, 2));
        let a = pool.alloc().unwrap();
        let _b = pool.alloc().unwrap();
        assert!(pool.alloc().is_err());
        pool.release(a);
        assert_eq!(pool.alloc().unwrap(), a, "exactly the released column is free again");
        assert!(pool.alloc().is_err());
    }

    #[test]
    fn release_ignores_constants() {
        let mut pool = ScratchPool::new(ColRange::new(0, 4));
        let mut b = CodeBuilder::new(&mut pool);
        let one = b.one().unwrap();
        b.release(one);
        // `one` is still reserved: allocating the rest never hands it out.
        let mut seen = Vec::new();
        while let Ok(c) = b.alloc() {
            seen.push(c);
        }
        assert!(!seen.contains(&one));
    }

    #[test]
    fn col_range_bits() {
        let r = ColRange::new(10, 4);
        assert_eq!(r.bit(0), 10);
        assert_eq!(r.bit(3), 13);
        assert_eq!(r.end(), 14);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn col_range_bit_out_of_range_panics() {
        let r = ColRange::new(10, 4);
        let _ = r.bit(4);
    }
}
