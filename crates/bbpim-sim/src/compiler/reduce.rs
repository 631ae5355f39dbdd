//! Pure bulk-bitwise aggregation — the PIMDB baseline.
//!
//! PIMDB (the system the paper extends) aggregates *inside* the crossbar
//! with logic operations only: the selected values are masked, then a
//! binary reduction tree folds the upper half of the live rows into the
//! lower half — a row-parallel copy into scratch rows followed by a
//! column-parallel ripple add (or compare-and-select for MIN/MAX) — for
//! `log₂(rows)` levels. This is exactly the cost the paper's aggregation
//! circuit removes (Section IV: aggregation is "expensive in terms of
//! execution time, power, and cell endurance").
//!
//! Executing ~10 k micro-ops per crossbar gate-by-gate adds nothing over
//! the closed-form count (the sequence is data-independent), so this
//! module provides a **modeled** operation: [`reduce_cost`] charges the
//! exact op counts of the sequence described above, and
//! [`masked_reduce`] computes the functionally identical result that the
//! tree would leave in the result slot. Unit tests pin the cost formula;
//! the result path is verified against plain iterator folds.

/// Aggregation operator supported in-memory (paper: SUM, MIN, MAX).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Wrapping sum at the result width.
    Sum,
    /// Minimum of the selected values (identity: all-ones).
    Min,
    /// Maximum of the selected values (identity: zero).
    Max,
}

/// Cost of one pure-bitwise reduction over a crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceCost {
    /// Total logic cycles (one per micro-op).
    pub cycles: u64,
    /// Column-parallel micro-ops (each writes one cell in every row).
    pub col_ops: u64,
    /// Row-parallel micro-ops (each writes `cols` cells of one row).
    pub row_ops: u64,
    /// Worst-case cell writes experienced by a single row.
    pub max_row_cell_writes: u64,
}

/// Micro-ops of one column-parallel AND: `CodeBuilder::emit_and`'s three
/// INIT+NOR gates (two NOTs and the NOR that combines them).
const AND_OPS_PER_BIT: u64 = 6;
/// Micro-ops per bit of a ripple-carry add: one `emit_full_adder`, nine
/// INIT+NOR gates whose last writes the sum bit in place, no copy-back —
/// the adder `compile_add` and `compile_mul` emit.
const ADD_OPS_PER_BIT: u64 = 18;
/// Micro-ops per bit of a column-parallel compare-and-select (MIN/MAX):
/// a borrow-chain bit of `a < b` (a NOT and `maj(¬a_i, b_i, borrow)` as
/// three NORs and one 3-input NOR, 10 cycles), then a 3-NOR select
/// (6 cycles). `tests::cmp_sel_constant_is_the_emitted_circuit` pins it.
const CMP_SEL_OPS_PER_BIT: u64 = 16;
/// Row-parallel micro-ops per row copy (init temp, NOR to temp, init
/// destination, NOR back).
const ROW_COPY_OPS: u64 = 4;

/// Closed-form cost of a masked reduction of `width`-bit values over a
/// `rows × cols` crossbar.
///
/// The sequence: one masking pass (`AND` of every value bit with the
/// selection bit), then `log₂ rows` fold levels, level ℓ copying
/// `rows/2^ℓ` rows (4 row-ops each) and running one column-parallel
/// combine across the folded pairs.
///
/// # Panics
///
/// Panics if `rows` is not a power of two (crossbars always are).
pub fn reduce_cost(rows: usize, cols: usize, width: usize, op: ReduceOp) -> ReduceCost {
    assert!(rows.is_power_of_two(), "crossbar rows must be a power of two");
    let levels = rows.trailing_zeros() as u64;
    let combine_per_bit = match op {
        ReduceOp::Sum => ADD_OPS_PER_BIT,
        ReduceOp::Min | ReduceOp::Max => CMP_SEL_OPS_PER_BIT,
    };
    let w = width as u64;
    let col_ops = AND_OPS_PER_BIT * w + levels * combine_per_bit * w;
    let row_ops = ROW_COPY_OPS * (rows as u64 - 1);
    ReduceCost {
        cycles: col_ops + row_ops,
        col_ops,
        row_ops,
        // Column ops hit every row once each; the worst row additionally
        // serves as a copy destination once per level (4 row-ops × cols
        // cells each).
        max_row_cell_writes: col_ops + ROW_COPY_OPS * levels * cols as u64,
    }
}

/// The value the reduction tree leaves behind: fold of `values[i]` for
/// rows with `mask[i]` set, wrapped to `width` bits for SUM — the dense
/// statement of [`reduce_selected`], which the aggregation kernels are
/// checked against.
///
/// # Panics
///
/// Panics if `values` and `mask` lengths differ or `width` is 0 or > 64.
pub fn masked_reduce(values: &[u64], mask: &[bool], width: usize, op: ReduceOp) -> u64 {
    assert_eq!(values.len(), mask.len(), "values/mask length mismatch");
    reduce_selected(values.iter().zip(mask).filter(|(_, &m)| m).map(|(&v, _)| v), width, op)
}

/// Fold the `selected` values at `width` bits.
///
/// Identities follow the hardware: SUM starts at 0, MIN at all-ones
/// (`2^width − 1`), MAX at 0 — so an empty selection yields the
/// identity, exactly as the masked tree would.
///
/// # Panics
///
/// Panics if `width` is 0 or > 64.
pub fn reduce_selected(selected: impl Iterator<Item = u64>, width: usize, op: ReduceOp) -> u64 {
    assert!(width > 0 && width <= 64, "width must be in 1..=64");
    let modulus_mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    let selected = selected.map(|v| v & modulus_mask);
    match op {
        ReduceOp::Sum => selected.fold(0u64, |acc, v| acc.wrapping_add(v)) & modulus_mask,
        ReduceOp::Min => selected.fold(modulus_mask, u64::min),
        ReduceOp::Max => selected.fold(0, u64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_grows_with_width() {
        let narrow = reduce_cost(1024, 512, 16, ReduceOp::Sum);
        let wide = reduce_cost(1024, 512, 32, ReduceOp::Sum);
        assert!(wide.cycles > narrow.cycles);
        assert_eq!(wide.row_ops, narrow.row_ops); // copies are width-independent
    }

    #[test]
    fn cost_formula_pinned_for_paper_geometry() {
        // 1024 rows, 32-bit sum: 10 levels.
        let c = reduce_cost(1024, 512, 32, ReduceOp::Sum);
        assert_eq!(c.col_ops, 6 * 32 + 10 * 18 * 32);
        assert_eq!(c.row_ops, 4 * 1023);
        assert_eq!(c.cycles, c.col_ops + c.row_ops);
        // ≈ 10.0 k cycles → ~301 µs at 30 ns: the expense the aggregation
        // circuit eliminates.
        assert_eq!(c.cycles, 10_044);
    }

    /// The per-bit constants are the emitters' programs, cycle for
    /// cycle: a cheaper adder or AND has to change this test.
    #[test]
    fn per_bit_constants_are_the_emitted_gates() {
        use crate::compiler::{CodeBuilder, ColRange, ScratchPool};
        let mut pool = ScratchPool::new(ColRange::new(8, 32));
        let mut b = CodeBuilder::new(&mut pool);
        b.emit_and(0, 1).unwrap();
        assert_eq!(b.finish().cycles(), AND_OPS_PER_BIT);
        let mut b = CodeBuilder::new(&mut pool);
        b.emit_full_adder(0, 1, 2).unwrap();
        assert_eq!(b.finish().cycles(), ADD_OPS_PER_BIT);
    }

    /// `dst := MIN(a, b)` (or MAX) of two column values, the fold step
    /// `CMP_SEL_OPS_PER_BIT` prices: a borrow chain decides `a < b`,
    /// then every bit selects.
    fn emit_cmp_sel(
        b: &mut crate::compiler::CodeBuilder<'_>,
        a: crate::compiler::ColRange,
        bb: crate::compiler::ColRange,
        dst: crate::compiler::ColRange,
        max: bool,
    ) {
        // borrow' = maj(¬a_i, b_i, borrow) = NOR(NOR(¬a_i, b_i), NOR(¬a_i, borrow), NOR(b_i, borrow))
        let mut borrow = b.zero().unwrap();
        for i in 0..a.width {
            let na = b.emit_not(a.bit(i)).unwrap();
            let terms = vec![
                b.emit_nor(na, bb.bit(i)).unwrap(),
                b.emit_nor(na, borrow).unwrap(),
                b.emit_nor(bb.bit(i), borrow).unwrap(),
            ];
            let next = b.emit_nor_many(terms.clone()).unwrap();
            for t in terms.into_iter().chain([na, borrow]) {
                b.release(t);
            }
            borrow = next;
        }
        // s = a < b: MIN keeps `a` where s holds, MAX keeps `b`
        let (when_s, otherwise) = if max { (bb, a) } else { (a, bb) };
        let not_s = b.emit_not(borrow).unwrap();
        for i in 0..a.width {
            let t1 = b.emit_nor(when_s.bit(i), not_s).unwrap();
            let t2 = b.emit_nor(otherwise.bit(i), borrow).unwrap();
            b.program_mut().gate_nor(t1, t2, dst.bit(i));
            b.release(t1);
            b.release(t2);
        }
    }

    /// The compare-and-select constant is the emitted circuit's per-bit
    /// cost (a zero constant and `¬s` add 5 cycles per fold, which the
    /// model leaves out, as it leaves out the adder's zero carry-in),
    /// and that circuit folds every pair of 3-bit values correctly.
    #[test]
    fn cmp_sel_constant_is_the_emitted_circuit() {
        use crate::compiler::{CodeBuilder, ColRange, ScratchPool};
        use crate::crossbar::Crossbar;
        for w in 1..=8 {
            let mut pool = ScratchPool::new(ColRange::new(32, 32));
            let mut b = CodeBuilder::new(&mut pool);
            let (a, bb, dst) = (ColRange::new(0, w), ColRange::new(8, w), ColRange::new(16, w));
            emit_cmp_sel(&mut b, a, bb, dst, false);
            assert_eq!(b.finish().cycles(), CMP_SEL_OPS_PER_BIT * w as u64 + 5, "{w} bits");
        }
        for max in [false, true] {
            let (a, bb, dst) = (ColRange::new(0, 3), ColRange::new(8, 3), ColRange::new(16, 3));
            let mut xb = Crossbar::new(64, 64);
            for r in 0..64 {
                xb.write_row_bits(r, a.lo, 3, r as u64 & 7);
                xb.write_row_bits(r, bb.lo, 3, r as u64 >> 3);
            }
            let mut pool = ScratchPool::new(ColRange::new(32, 32));
            let mut b = CodeBuilder::new(&mut pool);
            emit_cmp_sel(&mut b, a, bb, dst, max);
            xb.execute(&b.finish()).unwrap();
            for r in 0..64u64 {
                let (x, y) = (r & 7, r >> 3);
                let want = if max { x.max(y) } else { x.min(y) };
                assert_eq!(xb.read_row_bits(r as usize, dst.lo, 3), want, "max={max} {x} {y}");
            }
        }
    }

    #[test]
    fn min_max_cheaper_than_sum() {
        let sum = reduce_cost(1024, 512, 32, ReduceOp::Sum);
        let min = reduce_cost(1024, 512, 32, ReduceOp::Min);
        assert!(min.cycles < sum.cycles);
    }

    #[test]
    fn endurance_dominated_by_row_copies() {
        let c = reduce_cost(1024, 512, 32, ReduceOp::Sum);
        // 10 levels × 4 ops × 512 cells ≫ col op share
        assert!(c.max_row_cell_writes > 10 * 4 * 512);
    }

    #[test]
    fn masked_sum_matches_fold() {
        let values = [5u64, 10, 20, 40];
        let mask = [true, false, true, true];
        assert_eq!(masked_reduce(&values, &mask, 16, ReduceOp::Sum), 65);
    }

    #[test]
    fn masked_sum_wraps_at_width() {
        let values = [200u64, 100];
        let mask = [true, true];
        assert_eq!(masked_reduce(&values, &mask, 8, ReduceOp::Sum), (200 + 100) % 256);
    }

    #[test]
    fn empty_selection_yields_identity() {
        let values = [5u64, 6];
        let mask = [false, false];
        assert_eq!(masked_reduce(&values, &mask, 8, ReduceOp::Sum), 0);
        assert_eq!(masked_reduce(&values, &mask, 8, ReduceOp::Min), 255);
        assert_eq!(masked_reduce(&values, &mask, 8, ReduceOp::Max), 0);
    }

    #[test]
    fn min_max_respect_mask() {
        let values = [9u64, 1, 250, 17];
        let mask = [true, false, false, true];
        assert_eq!(masked_reduce(&values, &mask, 8, ReduceOp::Min), 9);
        assert_eq!(masked_reduce(&values, &mask, 8, ReduceOp::Max), 17);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cost_rejects_non_pow2_rows() {
        let _ = reduce_cost(1000, 512, 16, ReduceOp::Sum);
    }
}
