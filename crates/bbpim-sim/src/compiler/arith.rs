//! In-crossbar arithmetic: ripple-carry add/sub and shift-add multiply.
//!
//! These materialise aggregate *expressions* inside the crossbar before
//! aggregation — e.g. SSB Q1's `extendedprice · discount` and Q4's
//! `revenue − supplycost` are computed into the scratch region by one
//! column-parallel program, for all records of a page at once.
//!
//! Every sum bit is written straight into its destination column by the
//! last NOR of a nine-NOR full adder
//! ([`CodeBuilder::emit_full_adder_into`]), so no bit is copied back: an
//! add or sub costs 18 cycles per destination bit plus a few cycles of
//! constants and complements. The multiply complements each operand bit
//! once, forms every partial-product bit with one 2-cycle NOR, adds it
//! in place, and skips the adder inputs it knows to be zero.
//!
//! All arithmetic is unsigned with wrap-around at the destination width
//! (callers size destinations so overflow cannot occur; `compile_sub`
//! documents the borrow semantics).

use crate::compiler::{CodeBuilder, ColRange};
use crate::error::SimError;

/// Compile `dst := (a + b) mod 2^dst.width`.
///
/// `a` and `b` may be narrower than `dst`; missing bits are treated as 0.
///
/// # Errors
///
/// Returns [`SimError::InvalidProgram`] if `dst` overlaps an input or has
/// zero width, or on scratch exhaustion.
pub fn compile_add(
    b: &mut CodeBuilder<'_>,
    lhs: ColRange,
    rhs: ColRange,
    dst: ColRange,
) -> Result<(), SimError> {
    check_disjoint(lhs, dst)?;
    check_disjoint(rhs, dst)?;
    if dst.width == 0 {
        return Err(SimError::InvalidProgram("zero-width add destination".into()));
    }
    let zero = b.zero()?;
    let mut carry = zero; // carry-in 0
    for i in 0..dst.width {
        let abit = if i < lhs.width { lhs.bit(i) } else { zero };
        let bbit = if i < rhs.width { rhs.bit(i) } else { zero };
        let cout = b.emit_full_adder_into(abit, bbit, carry, dst.bit(i))?;
        b.release(carry);
        carry = cout;
    }
    b.release(carry);
    Ok(())
}

/// Compile `dst := (a − b) mod 2^dst.width` (two's complement:
/// `a + ¬b + 1`). When `a ≥ b` and the result fits, this is the plain
/// difference; otherwise it wraps.
///
/// # Errors
///
/// Same conditions as [`compile_add`].
pub fn compile_sub(
    b: &mut CodeBuilder<'_>,
    lhs: ColRange,
    rhs: ColRange,
    dst: ColRange,
) -> Result<(), SimError> {
    check_disjoint(lhs, dst)?;
    check_disjoint(rhs, dst)?;
    if dst.width == 0 {
        return Err(SimError::InvalidProgram("zero-width sub destination".into()));
    }
    let zero = b.zero()?;
    let one = b.one()?;
    let mut carry = one; // +1 of the two's complement
    for i in 0..dst.width {
        let abit = if i < lhs.width { lhs.bit(i) } else { zero };
        // ¬b_i; beyond rhs.width the complement of 0 is 1.
        let nb = if i < rhs.width { b.emit_not(rhs.bit(i))? } else { one };
        let cout = b.emit_full_adder_into(abit, nb, carry, dst.bit(i))?;
        b.release(nb);
        b.release(carry);
        carry = cout;
    }
    b.release(carry);
    Ok(())
}

/// Scratch columns [`compile_mul`] needs beside its cached lhs
/// complements: `¬b_j`, a partial-product bit, a carry-in and the full
/// adder's five live temporaries.
const MUL_WORKSPACE: usize = 8;

/// Compile `dst := (a · b) mod 2^dst.width` by shift-add over the bits of
/// `rhs` (cheapest when `rhs` is the narrow operand, e.g. a 4-bit
/// discount).
///
/// Each lhs bit is complemented once (while the scratch region has
/// room; the rest are complemented per row) and each rhs bit once per
/// row, so every partial-product bit `a_i AND b_j = NOR(¬a_i, ¬b_j)` is
/// one 2-cycle NOR. Row `j` adds `a · b_j` into `dst` at offset `j`, in
/// place, tracking which destination bits and carries are known zero:
/// a bit with one live input is written straight into `dst` (row 0 is
/// all such bits), two live inputs take a half adder, three a full
/// adder, and a row stops once its partial product and its carry are
/// both known zero. Destination bits still known zero at the end are
/// cleared.
///
/// # Errors
///
/// Same conditions as [`compile_add`].
pub fn compile_mul(
    b: &mut CodeBuilder<'_>,
    lhs: ColRange,
    rhs: ColRange,
    dst: ColRange,
) -> Result<(), SimError> {
    check_disjoint(lhs, dst)?;
    check_disjoint(rhs, dst)?;
    if dst.width == 0 {
        return Err(SimError::InvalidProgram("zero-width mul destination".into()));
    }
    let wa = lhs.width.min(dst.width);
    let cached = wa.min(b.available().saturating_sub(MUL_WORKSPACE));
    let mut not_a = Vec::with_capacity(cached);
    for i in 0..cached {
        not_a.push(b.emit_not(lhs.bit(i))?);
    }
    // dst[..live] may hold a one; dst[live..] is known zero.
    let mut live = 0;
    for j in 0..rhs.width.min(dst.width) {
        let not_bj = b.emit_not(rhs.bit(j))?;
        let mut carry: Option<usize> = None;
        for k in j..dst.width {
            let i = k - j;
            if i >= wa && carry.is_none() {
                break;
            }
            let sum = dst.bit(k);
            let dst_live = k < live;
            // the partial-product bit, straight into `dst` when it is
            // the only live input there
            let p = if i < wa {
                let target = if dst_live || carry.is_some() { b.alloc()? } else { sum };
                match not_a.get(i) {
                    Some(&na) => b.program_mut().gate_nor(na, not_bj, target),
                    None => {
                        let na = b.emit_not(lhs.bit(i))?;
                        b.program_mut().gate_nor(na, not_bj, target);
                        b.release(na);
                    }
                }
                (target != sum).then_some(target)
            } else {
                None
            };
            // the live inputs of this bit, the in-place addend first
            let (mut inputs, mut n) = ([0; 3], 0);
            for x in [dst_live.then_some(sum), p, carry].into_iter().flatten() {
                inputs[n] = x;
                n += 1;
            }
            let cout = match inputs[..n] {
                [x, y, c] => Some(b.emit_full_adder_into(x, y, c, sum)?),
                [x, y] => Some(b.emit_half_adder_into(x, y, sum)?),
                [x] if x != sum => {
                    copy_into(b, x, sum)?;
                    None
                }
                _ => None,
            };
            for t in p.into_iter().chain(carry) {
                b.release(t);
            }
            carry = cout;
            live = live.max(k + 1);
        }
        if let Some(c) = carry {
            b.release(c); // carried out of dst: wraps
        }
        b.release(not_bj);
    }
    for na in not_a {
        b.release(na);
    }
    if live < dst.width {
        let one = b.one()?;
        for k in live..dst.width {
            b.program_mut().gate_nor(one, one, dst.bit(k));
        }
    }
    Ok(())
}

/// Copy one column into another (INIT + double-NOT through a temp when
/// writing in place would alias; here src ≠ dst always holds).
fn copy_into(b: &mut CodeBuilder<'_>, src: usize, dst: usize) -> Result<(), SimError> {
    let n = b.emit_not(src)?;
    b.program_mut().gate_nor(n, n, dst);
    b.release(n);
    Ok(())
}

fn check_disjoint(a: ColRange, bb: ColRange) -> Result<(), SimError> {
    if a.lo < bb.end() && bb.lo < a.end() && a.width > 0 && bb.width > 0 {
        return Err(SimError::InvalidProgram(format!(
            "column ranges overlap: [{}..{}) and [{}..{})",
            a.lo,
            a.end(),
            bb.lo,
            bb.end()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::ScratchPool;
    use crate::crossbar::Crossbar;

    const A: ColRange = ColRange { lo: 0, width: 8 };
    const B: ColRange = ColRange { lo: 8, width: 8 };
    const DST: ColRange = ColRange { lo: 16, width: 16 };
    const SCRATCH: ColRange = ColRange { lo: 40, width: 88 };

    fn crossbar_with(values: &[(u64, u64)]) -> Crossbar {
        let mut xb = Crossbar::new(64, 128);
        for (r, (a, b)) in values.iter().enumerate() {
            xb.write_row_bits(r, A.lo, A.width, *a);
            xb.write_row_bits(r, B.lo, B.width, *b);
        }
        xb
    }

    fn run(xb: &mut Crossbar, emit: impl FnOnce(&mut CodeBuilder<'_>) -> Result<(), SimError>) {
        let mut pool = ScratchPool::new(SCRATCH);
        let mut b = CodeBuilder::new(&mut pool);
        emit(&mut b).unwrap();
        let prog = b.finish();
        prog.validate(xb.rows(), xb.cols()).unwrap();
        xb.execute(&prog).unwrap();
    }

    #[test]
    fn add_matches_integer_semantics() {
        let pairs: Vec<(u64, u64)> =
            vec![(0, 0), (1, 1), (255, 255), (200, 100), (13, 29), (128, 127)];
        let mut xb = crossbar_with(&pairs);
        run(&mut xb, |b| compile_add(b, A, B, DST));
        for (r, (a, bb)) in pairs.iter().enumerate() {
            assert_eq!(xb.read_row_bits(r, DST.lo, DST.width), a + bb, "row {r}");
        }
    }

    #[test]
    fn add_wraps_at_destination_width() {
        let narrow = ColRange { lo: 16, width: 8 };
        let pairs = vec![(200u64, 100u64)];
        let mut xb = crossbar_with(&pairs);
        run(&mut xb, |b| compile_add(b, A, B, narrow));
        assert_eq!(xb.read_row_bits(0, narrow.lo, narrow.width), (200 + 100) % 256);
    }

    #[test]
    fn sub_matches_integer_semantics_when_no_borrow() {
        let pairs: Vec<(u64, u64)> = vec![(10, 3), (255, 0), (100, 100), (77, 76)];
        let mut xb = crossbar_with(&pairs);
        run(&mut xb, |b| compile_sub(b, A, B, DST));
        for (r, (a, bb)) in pairs.iter().enumerate() {
            assert_eq!(xb.read_row_bits(r, DST.lo, DST.width), (a - bb), "row {r}");
        }
    }

    #[test]
    fn sub_wraps_two_complement() {
        let narrow = ColRange { lo: 16, width: 8 };
        let pairs = vec![(3u64, 10u64)];
        let mut xb = crossbar_with(&pairs);
        run(&mut xb, |b| compile_sub(b, A, B, narrow));
        assert_eq!(xb.read_row_bits(0, narrow.lo, narrow.width), (256 + 3 - 10));
    }

    #[test]
    fn mul_matches_integer_semantics() {
        let pairs: Vec<(u64, u64)> = vec![(0, 7), (7, 0), (1, 255), (15, 15), (255, 255), (12, 10)];
        let mut xb = crossbar_with(&pairs);
        run(&mut xb, |b| compile_mul(b, A, B, DST));
        for (r, (a, bb)) in pairs.iter().enumerate() {
            assert_eq!(xb.read_row_bits(r, DST.lo, DST.width), a * bb, "row {r}");
        }
    }

    #[test]
    fn mul_all_rows_in_parallel() {
        // every row gets a distinct pair; one program computes them all
        let pairs: Vec<(u64, u64)> = (0..64).map(|r| (r as u64, (63 - r) as u64)).collect();
        let mut xb = crossbar_with(&pairs);
        run(&mut xb, |b| compile_mul(b, A, B, DST));
        for (r, (a, bb)) in pairs.iter().enumerate() {
            assert_eq!(xb.read_row_bits(r, DST.lo, DST.width), a * bb, "row {r}");
        }
    }

    #[test]
    fn overlapping_destination_rejected() {
        let overlap = ColRange { lo: 4, width: 16 };
        let mut pool = ScratchPool::new(SCRATCH);
        let mut b = CodeBuilder::new(&mut pool);
        assert!(compile_add(&mut b, A, B, overlap).is_err());
    }

    #[test]
    fn narrow_rhs_multiply_is_cheap() {
        // 8×2-bit multiply must cost far less than 8×8.
        let rhs2 = ColRange { lo: 8, width: 2 };
        let mut pool = ScratchPool::new(SCRATCH);
        let mut b = CodeBuilder::new(&mut pool);
        compile_mul(&mut b, A, rhs2, DST).unwrap();
        let cheap = b.finish().cycles();

        let mut pool = ScratchPool::new(SCRATCH);
        let mut b = CodeBuilder::new(&mut pool);
        compile_mul(&mut b, A, B, DST).unwrap();
        let full = b.finish().cycles();
        assert!(cheap * 2 < full, "2-bit rhs {cheap} vs 8-bit rhs {full}");
    }

    /// `compile_mul`'s cycles as a closed form of the widths, for
    /// `dst` at least `lhs + rhs` bits wide (`wa, wb ≥ 2`):
    ///
    /// * `2·wa` complements of lhs, `2·wb` of rhs (one per row);
    /// * row 0: `2·wa`, every partial-product bit straight into `dst`;
    /// * row 1: `2·wa` partial products, a half adder (12) at bit 1,
    ///   `wa − 2` full adders (18), a half adder of the top partial
    ///   product and the carry into a known-zero bit, and a 4-cycle
    ///   copy of the last carry: `20·wa − 8`;
    /// * rows 2.. : a half adder, `wa − 1` full adders and the carry
    ///   copy: `20·wa − 2` each;
    /// * bits past `wa + wb` stay known zero: one `1` constant, then
    ///   2 cycles each.
    fn mul_cycles(wa: u64, wb: u64, wd: u64) -> u64 {
        let zero_fill = if wd > wa + wb { 1 + 2 * (wd - wa - wb) } else { 0 };
        4 * wa + 2 * wb + (20 * wa - 8) + (wb - 2) * (20 * wa - 2) + zero_fill
    }

    #[test]
    fn mul_cycles_follow_the_closed_form() {
        let cycles = |wa: usize, wb: usize, wd: usize| {
            let mut pool = ScratchPool::new(ColRange::new(200, 200));
            let mut b = CodeBuilder::new(&mut pool);
            let (lhs, rhs, dst) =
                (ColRange::new(0, wa), ColRange::new(64, wb), ColRange::new(100, wd));
            compile_mul(&mut b, lhs, rhs, dst).unwrap();
            b.finish().cycles()
        };
        for wa in 2..=32 {
            for wb in 2..=8 {
                for wd in [wa + wb, wa + wb + 3] {
                    let want = mul_cycles(wa as u64, wb as u64, wd as u64);
                    assert_eq!(cycles(wa, wb, wd), want, "{wa}x{wb}->{wd}");
                }
            }
        }
        // SSB Q1's lo_extendedprice × lo_discount
        assert_eq!(cycles(19, 4, 23), 1212);
        assert!(cycles(19, 4, 23) <= 1400);
    }

    #[test]
    fn mul_is_exact_when_scratch_holds_only_some_complements() {
        let pairs: Vec<(u64, u64)> = (0..64).map(|r| (r * 37 % 256, (r * 11 + 5) % 256)).collect();
        // none, three and all eight lhs complements cached
        for extra in [0, 3, 8] {
            let mut xb = crossbar_with(&pairs);
            let mut pool = ScratchPool::new(ColRange::new(40, MUL_WORKSPACE + extra));
            let mut b = CodeBuilder::new(&mut pool);
            compile_mul(&mut b, A, B, DST).unwrap();
            xb.execute(&b.finish()).unwrap();
            for (r, (a, bb)) in pairs.iter().enumerate() {
                let got = xb.read_row_bits(r, DST.lo, DST.width);
                assert_eq!(got, a * bb, "{extra} spare columns, row {r}");
            }
        }
    }
}
