//! Predicate compilers: `=`, `<`, `>`, `BETWEEN`, `IN` against constants.
//!
//! A compiled predicate leaves a one-bit *result column* (1 = record
//! matches) that higher layers AND into the page's filter mask. All
//! programs are column-parallel, so one execution evaluates the
//! predicate for every record of every crossbar of a page.

use crate::compiler::{CodeBuilder, ColRange};
use crate::error::SimError;

/// Compile `attr == value` into a fresh result column.
///
/// Uses the multi-input NOR form `AND_i t_i = NOR_i ¬t_i` where `t_i` is
/// the attribute bit (for a 1 in `value`) or its complement (for a 0):
/// cost is 2 cycles per set bit of `value` plus one wide NOR.
///
/// # Errors
///
/// Returns [`SimError::InvalidProgram`] if `value` does not fit in
/// `attr.width` bits, or on scratch exhaustion.
pub fn compile_eq_const(
    b: &mut CodeBuilder<'_>,
    attr: ColRange,
    value: u64,
) -> Result<usize, SimError> {
    check_fits(attr, value)?;
    if attr.width == 0 {
        return Err(SimError::InvalidProgram("equality on zero-width attribute".into()));
    }
    // ¬t_i: for value bit 1 → ¬b_i (needs a NOT); for value bit 0 → b_i.
    let mut nor_inputs = Vec::with_capacity(attr.width);
    let mut temporaries = Vec::new();
    for i in 0..attr.width {
        let bit_col = attr.bit(i);
        if (value >> i) & 1 == 1 {
            let n = b.emit_not(bit_col)?;
            temporaries.push(n);
            nor_inputs.push(n);
        } else {
            nor_inputs.push(bit_col);
        }
    }
    let out = b.emit_nor_many(nor_inputs)?;
    for t in temporaries {
        b.release(t);
    }
    Ok(out)
}

/// Compile `attr < value` (unsigned) into a fresh result column.
///
/// MSB-to-LSB scan maintaining `lt` (already strictly less) and `eq`
/// (prefix equal so far):
/// for a constant bit 1: `lt |= eq & ¬b_i; eq &= b_i`;
/// for a constant bit 0: `eq &= ¬b_i`.
///
/// # Errors
///
/// Returns [`SimError::InvalidProgram`] if `value` does not fit, or on
/// scratch exhaustion.
pub fn compile_lt_const(
    b: &mut CodeBuilder<'_>,
    attr: ColRange,
    value: u64,
) -> Result<usize, SimError> {
    check_fits(attr, value)?;
    let one = b.one()?;
    let zero = b.zero()?;
    // lt starts false, eq starts true.
    let mut lt = b.emit_not(one)?; // 0
    let mut eq = b.emit_not(zero)?; // 1
    for i in (0..attr.width).rev() {
        let bit_col = attr.bit(i);
        if (value >> i) & 1 == 1 {
            let nb = b.emit_not(bit_col)?;
            let eq_and_nb = b.emit_and(eq, nb)?;
            let new_lt = b.emit_or(lt, eq_and_nb)?;
            let new_eq = b.emit_and(eq, bit_col)?;
            b.release(nb);
            b.release(eq_and_nb);
            b.release(lt);
            b.release(eq);
            lt = new_lt;
            eq = new_eq;
        } else {
            let nb = b.emit_not(bit_col)?;
            let new_eq = b.emit_and(eq, nb)?;
            b.release(nb);
            b.release(eq);
            eq = new_eq;
        }
    }
    b.release(eq);
    Ok(lt)
}

/// Compile `attr > value` (unsigned) into a fresh result column.
///
/// Symmetric scan: for a constant bit 0: `gt |= eq & b_i; eq &= ¬b_i`;
/// for a constant bit 1: `eq &= b_i`.
///
/// # Errors
///
/// Same conditions as [`compile_lt_const`].
pub fn compile_gt_const(
    b: &mut CodeBuilder<'_>,
    attr: ColRange,
    value: u64,
) -> Result<usize, SimError> {
    check_fits(attr, value)?;
    let one = b.one()?;
    let zero = b.zero()?;
    let mut gt = b.emit_not(one)?; // 0
    let mut eq = b.emit_not(zero)?; // 1
    for i in (0..attr.width).rev() {
        let bit_col = attr.bit(i);
        if (value >> i) & 1 == 1 {
            let new_eq = b.emit_and(eq, bit_col)?;
            b.release(eq);
            eq = new_eq;
        } else {
            let eq_and_b = b.emit_and(eq, bit_col)?;
            let new_gt = b.emit_or(gt, eq_and_b)?;
            let nb = b.emit_not(bit_col)?;
            let new_eq = b.emit_and(eq, nb)?;
            b.release(eq_and_b);
            b.release(nb);
            b.release(gt);
            b.release(eq);
            gt = new_gt;
            eq = new_eq;
        }
    }
    b.release(eq);
    Ok(gt)
}

/// Compile `lo <= attr <= hi` (unsigned, inclusive) into a fresh result
/// column: `¬(attr < lo) AND ¬(attr > hi)`.
///
/// # Errors
///
/// Returns [`SimError::InvalidProgram`] if `lo > hi`, a bound does not
/// fit, or on scratch exhaustion.
pub fn compile_between_const(
    b: &mut CodeBuilder<'_>,
    attr: ColRange,
    lo: u64,
    hi: u64,
) -> Result<usize, SimError> {
    if lo > hi {
        return Err(SimError::InvalidProgram(format!("BETWEEN with lo {lo} > hi {hi}")));
    }
    let lt_lo = compile_lt_const(b, attr, lo)?;
    let gt_hi = compile_gt_const(b, attr, hi)?;
    let below = b.emit_not(lt_lo)?;
    let above = b.emit_not(gt_hi)?;
    let out = b.emit_and(below, above)?;
    b.release(lt_lo);
    b.release(gt_hi);
    b.release(below);
    b.release(above);
    Ok(out)
}

/// Compile `attr IN (set…)` into a fresh result column (OR of equalities).
///
/// # Errors
///
/// Returns [`SimError::InvalidProgram`] on an empty set, a non-fitting
/// member, or scratch exhaustion.
pub fn compile_in_set(
    b: &mut CodeBuilder<'_>,
    attr: ColRange,
    set: &[u64],
) -> Result<usize, SimError> {
    if set.is_empty() {
        return Err(SimError::InvalidProgram("IN over empty set".into()));
    }
    let mut eqs = Vec::with_capacity(set.len());
    for &v in set {
        eqs.push(compile_eq_const(b, attr, v)?);
    }
    let out = b.emit_or_many(eqs.clone())?;
    for c in eqs {
        b.release(c);
    }
    Ok(out)
}

fn check_fits(attr: ColRange, value: u64) -> Result<(), SimError> {
    if attr.width < 64 && value >> attr.width != 0 {
        return Err(SimError::InvalidProgram(format!(
            "constant {value} does not fit in {}-bit attribute",
            attr.width
        )));
    }
    Ok(())
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
            let (xb, out) = run(|b| compile_lt_const(b, ATTR, threshold));
            for r in 0..256 {
                assert_eq!(xb.bits().get(r, out), (r as u64) < threshold, "r={r} t={threshold}");
            }
        }
    }

    #[test]
    fn gt_const_matches_reference() {
        for threshold in [0u64, 1, 127, 254, 255] {
            let (xb, out) = run(|b| compile_gt_const(b, ATTR, threshold));
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
        let (xb, out) = run(|b| compile_in_set(b, ATTR, &set));
        for r in 0..256 {
            assert_eq!(xb.bits().get(r, out), set.contains(&(r as u64)), "row {r}");
        }
    }

    #[test]
    fn in_set_rejects_empty() {
        let mut pool = ScratchPool::new(SCRATCH);
        let mut b = CodeBuilder::new(&mut pool);
        assert!(compile_in_set(&mut b, ATTR, &[]).is_err());
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
            let gt = compile_gt_const(b, ATTR, 50)?;
            let lt = compile_lt_const(b, ATTR, 60)?;
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
