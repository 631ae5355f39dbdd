//! The predicate compiler: one emitter for every mask term.
//!
//! A term reads "this column range holds one of these values", the
//! values a sorted list of disjoint inclusive *runs*. The planner
//! decides the runs — an atom's selected values clipped to the
//! attribute's domain (`bbpim_db::plan::ResolvedAtom::runs`), a
//! semijoin's selected key runs, a group key's one value — and
//! [`Conjunction::and_ranges`] compiles any run list:
//!
//! * each run splits into its maximal aligned prefix cubes — the
//!   values whose high bits equal a prefix and whose low bits are free
//!   — at most `2·w` of them on a `w`-bit attribute;
//! * a cube is one multi-input NOR over the complements of its fixed
//!   bits' literals: the attribute bit itself where the prefix has a 0,
//!   the bit's complement where it has a 1. A complement is emitted at
//!   most once per program ([`CodeBuilder::complement`]), so every run
//!   and every term on the same attribute share it;
//! * a cube with one literal is that literal's column, no gate at all;
//! * the runs' OR is kept as its complement, the NOR of the cubes,
//!   folded clear-only into one INITed column in NORs of at most
//!   [`MAX_FAN_IN`] inputs ([`Disjunction`]);
//! * a [`Conjunction`] ANDs terms by clear-only MAGIC NORs into one
//!   column, INITed once: a one-cube term NORs its literals straight
//!   in, a wider one its cubes' NOR (the complement of the term).
//!
//! A compiled predicate leaves a one-bit *result column* (1 = record
//! matches); `bbpim-core`'s mask builders AND every term and the
//! validity bit into the mask column itself. All programs are
//! column-parallel, so one execution evaluates the predicate for every
//! record of every crossbar of a page.
//!
//! # Cost
//!
//! [`compile_ranges`] on a fresh builder with room to keep every
//! complement, for `Q` cubes: with no cube (nothing selected) 3 cycles;
//! with one cube, `2·ones + 2` (its prefix's 1 bits complemented, one
//! NOR), or 1 when the cube is the whole domain; with `Q ≥ 2`,
//!
//! ```text
//! 2·|S| + 2·Q₂ + 1 + ⌈Q / 64⌉ + 2
//! ```
//!
//! where `Q₂` counts the cubes with at least two literals and `S` the
//! bits complemented: a 1 bit of a `Q₂` cube's prefix, or the 0 bit of a
//! one-literal cube. `2·|S|` is at most `2·w`.
//!
//! # Scratch
//!
//! A complement is kept only while more than [`WORKING_COLS`] (6)
//! scratch columns are free; once scratch runs short, complements
//! become per-cube temporaries and pending cubes fold early. So every
//! predicate — any width ≤ 64, any run count — and both of
//! `bbpim-core`'s mask builders compile in a pool of 6 columns, a
//! quarter of the 24 every layout reserves (`MIN_SCRATCH_COLS`);
//! columns beyond that only hold shared complements and pending cubes.

use crate::compiler::{CodeBuilder, ColRange, WORKING_COLS};
use crate::error::SimError;

/// The widest NOR the emitters issue: an equality on a 64-bit
/// attribute. A wider OR splits into clear-only NORs into one column.
pub const MAX_FAN_IN: usize = 64;

/// The largest `width`-bit value (`2^width − 1`).
fn span(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// The maximal aligned prefix cubes covering `runs`, each as its first
/// value and its count of free low bits. A run `[lo, hi]` takes at most
/// `2·width` of them.
fn cubes(width: usize, runs: &[(u64, u64)]) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    for &(first, hi) in runs {
        let mut lo = first;
        loop {
            let mut free = if lo == 0 { width } else { (lo.trailing_zeros() as usize).min(width) };
            while span(free) > hi - lo {
                free -= 1;
            }
            out.push((lo, free));
            let last = lo + span(free);
            if last == hi {
                break;
            }
            lo = last + 1;
        }
    }
    out
}

/// A cube's literals as `(column, positive)`, LSB first: bit `i` of the
/// prefix set asks for the attribute bit, clear for its complement.
fn literals(attr: ColRange, (value, free): (u64, usize)) -> Vec<(usize, bool)> {
    (free..attr.width).map(|i| (attr.bit(i), value >> i & 1 == 1)).collect()
}

/// Reject a run list that is not sorted, disjoint and inside the
/// attribute's domain.
fn check_runs(attr: ColRange, runs: &[(u64, u64)]) -> Result<(), SimError> {
    let max = span(attr.width);
    // the least value the next run may start at; `None` past `u64::MAX`
    let mut next = Some(0u64);
    for (k, &(lo, hi)) in runs.iter().enumerate() {
        if lo > hi || hi > max || next.is_none_or(|n| lo < n) {
            return Err(SimError::InvalidProgram(format!(
                "run {k} [{lo}, {hi}] is not a sorted, disjoint run of {}-bit values",
                attr.width
            )));
        }
        next = hi.checked_add(1);
    }
    Ok(())
}

/// A one-bit column built as the AND of terms by clear-only MAGIC NORs
/// (`col &= NOR(…)`): INITed once, right before the first NOR into it.
/// A conjunction no term narrowed is constant true.
#[derive(Debug)]
pub struct Conjunction {
    col: Option<usize>,
    inited: bool,
}

impl Conjunction {
    /// Build into `col`, a column outside scratch (a mask column).
    pub fn into_col(col: usize) -> Self {
        Conjunction { col: Some(col), inited: false }
    }

    /// Build into a scratch column, allocated at the first NOR.
    pub fn fresh() -> Self {
        Conjunction { col: None, inited: false }
    }

    /// `col &= NOR(inputs…)`, in NORs of at most [`MAX_FAN_IN`] inputs.
    fn nor(&mut self, b: &mut CodeBuilder<'_>, inputs: &[usize]) -> Result<(), SimError> {
        for chunk in inputs.chunks(MAX_FAN_IN) {
            let col = match self.col {
                Some(col) => col,
                None => {
                    self.col = Some(b.emit_nor_many(chunk.to_vec())?);
                    self.inited = true;
                    continue;
                }
            };
            if !self.inited {
                b.program_mut().init_col(col);
                self.inited = true;
            }
            b.program_mut().nor_many_cols(chunk.to_vec(), col);
        }
        Ok(())
    }

    /// AND the literals `(column, positive)`: a positive literal ANDs the
    /// column, a negative one its complement. A negative literal's NOR
    /// input is the column itself, a positive one's the column's shared
    /// complement — or, once scratch runs short, a temporary (the NOR
    /// then splits wherever scratch fills).
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn and_literals(
        &mut self,
        b: &mut CodeBuilder<'_>,
        literals: &[(usize, bool)],
    ) -> Result<(), SimError> {
        let mut inputs = Vec::with_capacity(literals.len());
        let mut temps = Vec::new();
        // a scratch conjunction's own column is allocated at its first NOR
        let room = usize::from(self.col.is_none());
        for &(col, positive) in literals {
            if !positive {
                inputs.push(col);
            } else if let Some(c) = b.complement(col)? {
                inputs.push(c);
            } else {
                if b.available() <= room && !temps.is_empty() {
                    self.nor(b, &inputs)?;
                    inputs.clear();
                    temps.drain(..).for_each(|t| b.release(t));
                }
                let t = b.emit_not(col)?;
                temps.push(t);
                inputs.push(t);
            }
        }
        if !inputs.is_empty() {
            self.nor(b, &inputs)?;
        }
        temps.into_iter().for_each(|t| b.release(t));
        Ok(())
    }

    /// AND `attr ∈ runs`, for sorted, disjoint, inclusive runs: nothing
    /// for a run covering the whole domain, constant false for none,
    /// one cube's literals NORed straight in, or the NOR of two or more
    /// cubes (the complement of their OR) as one input.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidProgram`] for an unsorted, overlapping
    /// or out-of-domain run list; propagates scratch exhaustion.
    pub fn and_ranges(
        &mut self,
        b: &mut CodeBuilder<'_>,
        attr: ColRange,
        runs: &[(u64, u64)],
    ) -> Result<(), SimError> {
        check_runs(attr, runs)?;
        match cubes(attr.width, runs).as_slice() {
            [] => {
                let one = b.one()?;
                self.nor(b, &[one])
            }
            [cube] => self.and_literals(b, &literals(attr, *cube)),
            many => {
                let mut any = Disjunction::new();
                for &cube in many {
                    let lits = literals(attr, cube);
                    // a one-literal cube is a column already there
                    let shared = match lits.as_slice() {
                        [(col, true)] => Some(*col),
                        [(col, false)] => b.complement(*col)?,
                        _ => None,
                    };
                    if let Some(col) = shared {
                        any.push(b, col, false)?;
                    } else {
                        let mut term = Conjunction::fresh();
                        term.and_literals(b, &lits)?;
                        let col = term.finish(b)?;
                        any.push(b, col, true)?;
                    }
                }
                let miss = any.finish_complement(b)?;
                self.nor(b, &[miss])?;
                b.release(miss);
                Ok(())
            }
        }
    }

    /// The column, INITed (constant true) if no term was ANDed in.
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn finish(self, b: &mut CodeBuilder<'_>) -> Result<usize, SimError> {
        let col = match self.col {
            Some(col) => col,
            None => b.alloc()?,
        };
        if !self.inited {
            b.program_mut().init_col(col);
        }
        Ok(col)
    }
}

/// The OR of one-bit columns, kept as its complement: pushed columns
/// wait for one clear-only NOR of up to [`MAX_FAN_IN`] inputs into an
/// INITed column, and fold early once scratch runs short.
#[derive(Debug)]
pub struct Disjunction {
    miss: Conjunction,
    /// Columns not yet folded, each with whether it is a temporary to
    /// release once folded.
    pending: Vec<(usize, bool)>,
}

impl Disjunction {
    /// An empty disjunction (its complement: constant true).
    pub fn new() -> Self {
        Disjunction { miss: Conjunction::fresh(), pending: Vec::new() }
    }

    /// OR `col` in; `owned` marks a scratch temporary the disjunction
    /// releases once folded.
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn push(
        &mut self,
        b: &mut CodeBuilder<'_>,
        col: usize,
        owned: bool,
    ) -> Result<(), SimError> {
        self.pending.push((col, owned));
        if self.pending.len() == MAX_FAN_IN || b.available() < WORKING_COLS {
            self.fold(b)?;
        }
        Ok(())
    }

    fn fold(&mut self, b: &mut CodeBuilder<'_>) -> Result<(), SimError> {
        let inputs: Vec<usize> = self.pending.iter().map(|&(c, _)| c).collect();
        self.miss.nor(b, &inputs)?;
        for (c, owned) in self.pending.drain(..) {
            if owned {
                b.release(c);
            }
        }
        Ok(())
    }

    /// The scratch column holding the complement of the OR: 1 where no
    /// pushed column is set.
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn finish_complement(mut self, b: &mut CodeBuilder<'_>) -> Result<usize, SimError> {
        if !self.pending.is_empty() {
            self.fold(b)?;
        }
        self.miss.finish(b)
    }
}

impl Default for Disjunction {
    fn default() -> Self {
        Disjunction::new()
    }
}

/// Compile `attr ∈ runs` — the OR of sorted, disjoint, inclusive runs
/// — into a fresh result column (see the module docs for its cost).
///
/// # Errors
///
/// As [`Conjunction::and_ranges`].
pub fn compile_ranges(
    b: &mut CodeBuilder<'_>,
    attr: ColRange,
    runs: &[(u64, u64)],
) -> Result<usize, SimError> {
    let mut out = Conjunction::fresh();
    out.and_ranges(b, attr, runs)?;
    out.finish(b)
}

/// Compile `attr == value` into a fresh result column: the one run
/// `[value, value]`, one cube, so `AND_i t_i = NOR_i ¬t_i` over every
/// bit — 2 cycles per set bit of `value` (its complement) plus one wide
/// NOR.
///
/// # Errors
///
/// As [`compile_ranges`]: `value` past the attribute's domain is an
/// out-of-domain run.
pub fn compile_eq_const(
    b: &mut CodeBuilder<'_>,
    attr: ColRange,
    value: u64,
) -> Result<usize, SimError> {
    compile_ranges(b, attr, &[(value, value)])
}

/// Compile `lo <= attr <= hi` (unsigned, inclusive) into a fresh result
/// column: the one run `[lo, hi]`, whose cubes share the complements.
///
/// # Errors
///
/// As [`compile_ranges`]: `lo > hi` or `hi` past the attribute's domain
/// is not a run.
pub fn compile_between_const(
    b: &mut CodeBuilder<'_>,
    attr: ColRange,
    lo: u64,
    hi: u64,
) -> Result<usize, SimError> {
    compile_ranges(b, attr, &[(lo, hi)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::ScratchPool;
    use crate::crossbar::Crossbar;

    const ATTR: ColRange = ColRange { lo: 0, width: 8 };
    const SCRATCH: ColRange = ColRange { lo: 16, width: 100 };

    /// Crossbar whose row r stores value r in an 8-bit attribute.
    fn identity_crossbar() -> Crossbar {
        let mut xb = Crossbar::new(256, 128);
        for r in 0..256 {
            xb.write_row_bits(r, ATTR.lo, ATTR.width, r as u64);
        }
        xb
    }

    fn run(
        emit: impl FnOnce(&mut CodeBuilder<'_>) -> Result<usize, SimError>,
    ) -> (Crossbar, usize) {
        let mut xb = identity_crossbar();
        let mut pool = ScratchPool::new(SCRATCH);
        let mut b = CodeBuilder::new(&mut pool);
        let out = emit(&mut b).unwrap();
        let prog = b.finish();
        prog.validate(xb.rows(), xb.cols()).unwrap();
        xb.execute(&prog).unwrap();
        (xb, out)
    }

    #[test]
    fn eq_const_selects_exactly_one_row() {
        let (xb, out) = run(|b| compile_eq_const(b, ATTR, 0xA5));
        for r in 0..256 {
            assert_eq!(xb.bits().get(r, out), r == 0xA5, "row {r}");
        }
    }

    #[test]
    fn eq_zero_matches_row_zero_only() {
        let (xb, out) = run(|b| compile_eq_const(b, ATTR, 0));
        assert_eq!(xb.bits().popcount_col(out), 1);
        assert!(xb.bits().get(0, out));
    }

    #[test]
    fn lt_const_matches_reference() {
        for threshold in [0u64, 1, 2, 100, 128, 255] {
            let below: Vec<_> = threshold.checked_sub(1).map(|hi| (0, hi)).into_iter().collect();
            let (xb, out) = run(|b| compile_ranges(b, ATTR, &below));
            for r in 0..256 {
                assert_eq!(xb.bits().get(r, out), (r as u64) < threshold, "r={r} t={threshold}");
            }
        }
    }

    #[test]
    fn gt_const_matches_reference() {
        for threshold in [0u64, 1, 127, 254, 255] {
            let above: Vec<_> =
                (threshold < 255).then_some((threshold + 1, 255)).into_iter().collect();
            let (xb, out) = run(|b| compile_ranges(b, ATTR, &above));
            for r in 0..256 {
                assert_eq!(xb.bits().get(r, out), (r as u64) > threshold, "r={r} t={threshold}");
            }
        }
    }

    #[test]
    fn between_is_inclusive() {
        let (xb, out) = run(|b| compile_between_const(b, ATTR, 10, 20));
        for r in 0..256 {
            assert_eq!(xb.bits().get(r, out), (10..=20).contains(&r), "row {r}");
        }
    }

    #[test]
    fn between_rejects_inverted_bounds() {
        let mut pool = ScratchPool::new(SCRATCH);
        let mut b = CodeBuilder::new(&mut pool);
        assert!(compile_between_const(&mut b, ATTR, 30, 10).is_err());
    }

    #[test]
    fn in_set_matches_members_only() {
        let set = [3u64, 77, 200];
        let (xb, out) = run(|b| compile_ranges(b, ATTR, &set.map(|v| (v, v))));
        for r in 0..256 {
            assert_eq!(xb.bits().get(r, out), set.contains(&(r as u64)), "row {r}");
        }
    }

    #[test]
    fn no_run_selects_nothing() {
        let (xb, out) = run(|b| compile_ranges(b, ATTR, &[]));
        assert_eq!(xb.bits().popcount_col(out), 0);
    }

    #[test]
    fn ranges_reject_unsorted_overlapping_and_out_of_domain_runs() {
        let bad: [&[(u64, u64)]; 4] =
            [&[(5, 3)], &[(0, 10), (10, 12)], &[(4, 6), (0, 2)], &[(0, 256)]];
        for runs in bad {
            let mut pool = ScratchPool::new(SCRATCH);
            let mut b = CodeBuilder::new(&mut pool);
            assert!(compile_ranges(&mut b, ATTR, runs).is_err(), "{runs:?}");
        }
    }

    #[test]
    fn eq_rejects_oversized_constant() {
        let mut pool = ScratchPool::new(SCRATCH);
        let mut b = CodeBuilder::new(&mut pool);
        assert!(compile_eq_const(&mut b, ATTR, 256).is_err());
    }

    #[test]
    fn conjunction_of_predicates() {
        // (attr > 50) AND (attr < 60): rows 51..=59
        let (xb, out) = run(|b| {
            let gt = compile_ranges(b, ATTR, &[(51, 255)])?;
            let lt = compile_ranges(b, ATTR, &[(0, 59)])?;
            let out = b.emit_and(gt, lt)?;
            b.release(gt);
            b.release(lt);
            Ok(out)
        });
        for r in 0..256 {
            assert_eq!(xb.bits().get(r, out), (51..=59).contains(&r), "row {r}");
        }
    }

    #[test]
    fn eq_cost_scales_with_set_bits() {
        // value with no set bits: just the wide NOR (2 cycles)
        let mut pool = ScratchPool::new(SCRATCH);
        let mut b = CodeBuilder::new(&mut pool);
        compile_eq_const(&mut b, ATTR, 0).unwrap();
        assert_eq!(b.finish().cycles(), 2);

        let mut pool = ScratchPool::new(SCRATCH);
        let mut b = CodeBuilder::new(&mut pool);
        compile_eq_const(&mut b, ATTR, 0xFF).unwrap();
        // 8 NOTs (2 cycles each) + wide NOR (2 cycles)
        assert_eq!(b.finish().cycles(), 8 * 2 + 2);
    }
}
