//! Aggregation execution: in-crossbar expression materialisation, the
//! peripheral-circuit (or pure-bitwise) reduction, and the host combine.
//!
//! SSB Q1 aggregates `extendedprice · discount` and Q4 aggregates
//! `revenue − supplycost`; [`Scan::materialize`] compiles the arithmetic
//! to a column-parallel program that computes the expression for every
//! record of every page at once, into a reserved slice of the scratch
//! region. [`Scan::aggregate`] then reduces the (possibly computed)
//! value under a mask column: through the aggregation circuit
//! (`one-xb`/`two-xb`) or the PIMDB bulk-bitwise reduction tree
//! (`pimdb`). Getting the partials to the host — one cache line per
//! result chunk per page and a host-side fold, or a module-side fold and
//! one read — is priced by the module
//! ([`bbpim_sim::module::PimModule::result_phases`]); this file passes it
//! the page, line and partial counts.

use bbpim_db::plan::{AggExpr, PhysFunc};
use bbpim_sim::aggcircuit::AggRequest;
use bbpim_sim::compiler::reduce::ReduceOp;
use bbpim_sim::compiler::{arith, CodeBuilder, ColRange, ScratchPool};

use crate::error::CoreError;
use crate::scan::Scan;

/// Where the value being aggregated lives after preparation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggInput {
    /// Vertical partition holding the value.
    pub partition: usize,
    /// Columns of the value (an attribute, or a computed expression in
    /// scratch).
    pub value: ColRange,
    /// Scratch still free for later programs (group masks…).
    pub scratch_left: ColRange,
}

/// Map a physical aggregate component onto the hardware operator.
/// `Count` never reaches a value reduction (it reads the count register
/// / mask popcount); it maps to `Sum` defensively.
pub fn reduce_op(func: PhysFunc) -> ReduceOp {
    match func {
        PhysFunc::Sum | PhysFunc::Count => ReduceOp::Sum,
        PhysFunc::Min => ReduceOp::Min,
        PhysFunc::Max => ReduceOp::Max,
    }
}

/// Reads (`n` of the paper's Eq. 2) the aggregation circuit performs per
/// row for a value range: its 16-bit chunks.
pub fn reads_per_value(layout_cols_chunk_bits: usize, value: ColRange) -> usize {
    let first = value.lo / layout_cols_chunk_bits;
    let last = (value.end() - 1) / layout_cols_chunk_bits;
    last - first + 1
}

/// Result width of a computed expression whose operands are `a` and `b`
/// bits wide: a product takes both widths, a difference the wider one.
pub(crate) fn computed_width(expr: &AggExpr, a: usize, b: usize) -> usize {
    match expr {
        AggExpr::Mul(..) => a + b,
        _ => a.max(b),
    }
}

impl Scan<'_> {
    /// Prepare the aggregation inputs: a plain attribute is used in
    /// place; a `Mul`/`Sub` expression is computed into scratch by one
    /// bulk-bitwise program (executed here and charged). The computed
    /// ones stack into disjoint scratch slices so they stay live
    /// together — the multi-aggregate GROUP BY needs every input
    /// resident while it walks subgroup keys (one group-mask program
    /// per key feeds *all* aggregates). Duplicate expressions share one
    /// materialisation.
    ///
    /// Every returned [`AggInput`]'s `scratch_left` is the scratch
    /// remaining in its partition *after* all stacked values, so
    /// follow-up mask programs cannot clobber any materialised input.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] when an input lives outside partition
    /// 0 (every PIM reduction runs under the query mask, which only
    /// partition 0 holds; this is the one place that rule is checked)
    /// or an expression's operands sit in different partitions (cannot
    /// happen for SSB: expression operands are fact attributes);
    /// [`CoreError::Layout`] when the stacked widths leave less than the
    /// minimum program workspace; compiler and simulator failures
    /// otherwise.
    pub fn materialize(&mut self, exprs: &[&AggExpr]) -> Result<Vec<AggInput>, CoreError> {
        let layout = &self.table.layout;
        // Pass 1: place every computed expression (deduplicated), tracking
        // per-partition stacked usage.
        let mut used: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
        // (expr, partition, operand ranges, dst)
        let mut placed: Vec<(&AggExpr, usize, [ColRange; 2], ColRange)> = Vec::new();
        for expr in exprs {
            let (a, b) = match expr {
                AggExpr::Attr(_) => continue,
                AggExpr::Mul(a, b) | AggExpr::Sub(a, b) => (a, b),
            };
            if placed.iter().any(|(e, ..)| e == expr) {
                continue;
            }
            let pa = layout.placement(a)?;
            let pb = layout.placement(b)?;
            if pa.partition != pb.partition {
                return Err(CoreError::Unsupported(format!(
                    "aggregate expression operands `{a}` and `{b}` live in different partitions"
                )));
            }
            let width = computed_width(expr, pa.range.width, pb.range.width);
            let scratch = layout.scratch(pa.partition);
            let offset = used.entry(pa.partition).or_insert(0);
            if *offset + width + crate::layout::MIN_SCRATCH_COLS > scratch.width {
                return Err(CoreError::Layout(format!(
                    "stacked expressions need {} result columns plus workspace; scratch has {}",
                    *offset + width,
                    scratch.width
                )));
            }
            let dst = ColRange::new(scratch.lo + *offset, width);
            *offset += width;
            placed.push((expr, pa.partition, [pa.range, pb.range], dst));
        }
        let remaining = |partition: usize| -> ColRange {
            let scratch = layout.scratch(partition);
            let off = used.get(&partition).copied().unwrap_or(0);
            ColRange::new(scratch.lo + off, scratch.width - off)
        };

        // Pass 2: assemble the inputs in request order.
        let inputs = exprs
            .iter()
            .map(|expr| {
                let (partition, value) = match expr {
                    AggExpr::Attr(name) => {
                        let p = layout.placement(name)?;
                        (p.partition, p.range)
                    }
                    computed => {
                        let (_, partition, _, dst) = placed
                            .iter()
                            .find(|(e, ..)| e == computed)
                            .expect("computed expressions were placed in pass 1");
                        (*partition, *dst)
                    }
                };
                // the query mask lives in partition 0 only; a value
                // stored elsewhere cannot be reduced under it
                if partition != 0 {
                    return Err(CoreError::Unsupported(
                        "aggregating dimension-partition attributes (the query mask lives in \
                         the fact partition)"
                            .into(),
                    ));
                }
                Ok(AggInput { partition, value, scratch_left: remaining(partition) })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;

        // Pass 3: compile + execute one program per computed expression,
        // with the workspace pool confined to the region past every
        // stacked value of that partition.
        let programs = placed
            .into_iter()
            .map(|(expr, partition, [a, b], dst)| {
                let mut pool = ScratchPool::new(remaining(partition));
                let mut builder = CodeBuilder::new(&mut pool);
                match expr {
                    AggExpr::Mul(..) => arith::compile_mul(&mut builder, a, b, dst)?,
                    _ => arith::compile_sub(&mut builder, a, b, dst)?,
                }
                Ok((partition, builder.finish()))
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        for (partition, program) in &programs {
            self.exec(*partition, program)?;
        }
        Ok(inputs)
    }

    /// Aggregate `input` under `mask_col` over the planned pages of its
    /// partition — through the aggregation circuit, or on a
    /// [`crate::modes::EngineMode::PimDb`] table the reduction tree —
    /// returning the
    /// combined value. Charges the PIM aggregation and the module's
    /// price for getting the partials to the host.
    ///
    /// With `counted` the request also returns the selected-row count —
    /// what pim-gb needs, since SQL must tell an empty subgroup from a
    /// zero sum. The result slot is split — the value partial in its
    /// low 48 bits, the count in the top 16-bit chunk — so the host
    /// still reads one extra line per page at most. Under `pimdb` the
    /// count costs a second reduction tree (no count register in pure
    /// bulk-bitwise logic). Per-crossbar SUM partials then wrap at 48
    /// bits: size aggregated values so `value.width + log2(rows)` ≤ 48
    /// (every SSB attribute and expression is ≤ 37; cross-engine tests
    /// would catch a violation as an oracle mismatch).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn aggregate(
        &mut self,
        input: &AggInput,
        mask_col: usize,
        func: PhysFunc,
        counted: bool,
    ) -> Result<(u64, Option<u64>), CoreError> {
        let module = &mut self.table.module;
        // Result slot: the value plus carry room for `rows` addends,
        // clamped to what the count chunk leaves of the slot.
        let slot = self.table.layout.result_slot(input.partition);
        let carry = (usize::BITS - (module.config().crossbar_rows - 1).leading_zeros()) as usize;
        let count_dst = counted.then(|| ColRange::new(slot.end() - 16, 16));
        let room = slot.width - count_dst.map_or(0, |c| c.width);
        let dst = ColRange::new(slot.lo, (input.value.width + carry).min(room));
        let req = AggRequest { op: reduce_op(func), value: input.value, mask_col, dst_row: 0, dst };
        let pages = self.pages.ids(&self.table.loaded, input.partition);
        let (partials, phase) =
            module.aggregate(&pages, &req, count_dst, self.table.mode.uses_agg_circuit())?;
        self.log.push(phase);

        // value chunks + the count chunk
        let chunks =
            (reads_per_value(module.config().read_width_bits, dst) + usize::from(counted)) as u64;
        let values: Vec<u64> = partials.values.into_iter().flatten().collect();
        let counts: Option<Vec<u64>> =
            counted.then(|| partials.counts.into_iter().flatten().collect());
        // one per-crossbar partial per stream (value + count); the host
        // folds the value stream's
        let crossbar_partials = (1 + u64::from(counted)) * values.len() as u64;
        let folds = Some(values.len() as u64);
        for phase in module.result_phases(pages.len(), chunks, crossbar_partials, folds) {
            self.log.push(phase);
        }
        // MIN/MAX must skip crossbars that selected nothing, when known
        let live = |i: usize| counts.as_ref().is_none_or(|c| c[i] > 0);
        let extremes = || values.iter().enumerate().filter(|(i, _)| live(*i)).map(|(_, v)| *v);
        let combined = match func {
            PhysFunc::Sum | PhysFunc::Count => {
                values.iter().fold(0u64, |acc, v| acc.wrapping_add(*v))
            }
            PhysFunc::Min => extremes().min().unwrap_or(u64::MAX),
            PhysFunc::Max => extremes().max().unwrap_or(0),
        };
        Ok((combined, counts.map(|c| c.iter().sum())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter_exec::build_conjunction_program;
    use crate::fixture;
    use crate::layout::{MASK_COL, VALID_COL};
    use crate::modes::EngineMode;
    use crate::table::PimTable;
    use bbpim_db::builder::col;
    use bbpim_db::plan::Pred;
    use bbpim_db::Relation;

    fn table(mode: EngineMode) -> (PimTable, Relation) {
        let rows = (0..500).map(|i| vec![(i * 7) % 256, i % 11, i % 8]);
        fixture::table(mode, &[("lo_price", 8), ("lo_disc", 4), ("d_g", 4)], rows)
    }

    /// Filter by `pred`, then reduce `expr` under the query mask.
    fn aggregate(t: &mut PimTable, pred: &Pred, expr: &AggExpr, f: PhysFunc) -> u64 {
        let mut scan = fixture::filtered(t, pred);
        let input = scan.materialize(&[expr]).unwrap()[0];
        scan.aggregate(&input, MASK_COL, f, false).unwrap().0
    }

    #[test]
    fn plain_attribute_sum_matches_oracle() {
        for mode in [EngineMode::OneXb, EngineMode::PimDb] {
            let (mut t, rel) = table(mode);
            let (pred, expr) = (col("lo_price").lt(100u64), AggExpr::attr("lo_price"));
            let total = aggregate(&mut t, &pred, &expr, PhysFunc::Sum);
            let prices = rel.column_by_name("lo_price").unwrap();
            let expected: u64 = (0..prices.len()).map(|r| prices.get(r)).filter(|v| *v < 100).sum();
            assert_eq!(total, expected, "{mode:?}");
        }
    }

    #[test]
    fn mul_expression_matches_oracle() {
        let (mut t, rel) = table(EngineMode::OneXb);
        let expr = AggExpr::mul("lo_price", "lo_disc");
        let mut scan = fixture::filtered(&mut t, &Pred::always());
        let input = scan.materialize(&[&expr]).unwrap()[0];
        assert_eq!(input.value.width, 12);
        let total = scan.aggregate(&input, MASK_COL, PhysFunc::Sum, false).unwrap().0;
        let expected: u64 = (0..rel.len()).map(|r| rel.value(r, 0) * rel.value(r, 1)).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn sub_expression_matches_oracle() {
        // price >= disc always here (disc ≤ 10 < price except small ones);
        // restrict to rows where price ≥ disc to stay in unsigned range.
        let (mut t, rel) = table(EngineMode::OneXb);
        let (pred, expr) = (col("lo_price").gt(15u64), AggExpr::sub("lo_price", "lo_disc"));
        let total = aggregate(&mut t, &pred, &expr, PhysFunc::Sum);
        let expected: u64 = (0..rel.len())
            .filter(|&r| rel.value(r, 0) > 15)
            .map(|r| rel.value(r, 0) - rel.value(r, 1))
            .sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn min_max_aggregation() {
        let (mut t, rel) = table(EngineMode::OneXb);
        let (all, expr) = (Pred::always(), AggExpr::attr("lo_price"));
        let min = aggregate(&mut t, &all, &expr, PhysFunc::Min);
        let max = aggregate(&mut t, &all, &expr, PhysFunc::Max);
        let prices = rel.column_by_name("lo_price").unwrap();
        let values = || (0..prices.len()).map(|r| prices.get(r));
        assert_eq!(min, values().min().unwrap());
        assert_eq!(max, values().max().unwrap());
    }

    #[test]
    fn pimdb_aggregation_costs_more_time_and_energy() {
        let run = |mode| {
            let (mut t, _) = table(mode);
            let mut scan = fixture::filtered(&mut t, &Pred::always());
            let input = scan.materialize(&[&AggExpr::attr("lo_price")]).unwrap()[0];
            scan.take_log();
            let value = scan.aggregate(&input, MASK_COL, PhysFunc::Sum, false).unwrap().0;
            (value, scan.take_log())
        };
        let (v1, a1) = run(EngineMode::OneXb);
        let (v2, a2) = run(EngineMode::PimDb);
        assert_eq!(v1, v2);
        assert!(a2.total_time_ns() > a1.total_time_ns());
        assert!(a2.total_energy_pj() > a1.total_energy_pj());
    }

    #[test]
    fn scratch_reservation_leaves_room_for_more_programs() {
        let (mut t, _) = table(EngineMode::OneXb);
        let mut scan = fixture::scan(&mut t);
        let input = scan.materialize(&[&AggExpr::mul("lo_price", "lo_disc")]).unwrap()[0];
        // A follow-up mask program must compile inside the remaining
        // scratch without touching the materialised product.
        let prog =
            build_conjunction_program(input.scratch_left, &[], &[VALID_COL], MASK_COL, false);
        assert!(prog.is_ok());
        assert!(input.scratch_left.width >= crate::layout::MIN_SCRATCH_COLS);
        assert!(input.scratch_left.lo >= input.value.end());
    }
}
