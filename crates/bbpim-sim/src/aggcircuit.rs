//! The paper's per-crossbar aggregation circuit (Fig. 3).
//!
//! A small CMOS ALU sits at each crossbar's periphery. On an aggregation
//! PIM request it serially reads the selected attribute — one fixed
//! 16-bit crossbar read per cycle — through SUM/MIN/MAX logic (with the
//! shift/mask needed for words wider than one read), then writes the
//! final value back to a result slot in the crossbar, where the host
//! fetches it with a standard memory read.
//!
//! Compared to the pure bulk-bitwise reduction
//! ([`crate::compiler::reduce`]) this trades ~10 k logic cycles of cell
//! writes for ~2 k cell *reads* — the source of the paper's 1.83×
//! latency, 4.31× energy and 3.21× lifetime improvements.

use crate::compiler::reduce::{reduce_selected, ReduceOp};
use crate::compiler::ColRange;
use crate::config::SimConfig;
use crate::crossbar::Crossbar;
use crate::error::SimError;

/// One aggregation request, executed by every crossbar of the targeted
/// pages in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggRequest {
    /// Aggregation operator.
    pub op: ReduceOp,
    /// Columns of the aggregated attribute (may live in the scratch
    /// region when aggregating a computed expression).
    pub value: ColRange,
    /// Column holding the selection bit (1 = record participates).
    pub mask_col: usize,
    /// Row receiving the result.
    pub dst_row: usize,
    /// Columns receiving the result (the partial wraps at this width).
    pub dst: ColRange,
}

/// Per-crossbar cost of serving one [`AggRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggCost {
    /// Serial crossbar reads performed (rows × (value chunks + mask)).
    pub reads: u64,
    /// Bits read from the array.
    pub bits_read: u64,
    /// Bits written back (the result slot).
    pub bits_written: u64,
    /// Circuit-busy time in nanoseconds.
    pub time_ns: f64,
}

impl AggRequest {
    /// Crossbar reads needed per row: one per 16-bit chunk the value
    /// spans, plus one for the chunk holding the mask bit.
    pub fn reads_per_row(&self, cfg: &SimConfig) -> u64 {
        let value_chunks = span_chunks(self.value, cfg.read_width_bits);
        value_chunks + 1
    }

    /// Validate against a crossbar geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAggregation`] for zero/oversized widths,
    /// out-of-range columns, or a destination overlapping the source.
    pub fn validate(&self, rows: usize, cols: usize) -> Result<(), SimError> {
        if self.value.width == 0 || self.value.width > 64 {
            return Err(SimError::InvalidAggregation(format!(
                "value width {} not in 1..=64",
                self.value.width
            )));
        }
        if self.dst.width == 0 || self.dst.width > 64 {
            return Err(SimError::InvalidAggregation(format!(
                "result width {} not in 1..=64",
                self.dst.width
            )));
        }
        if self.value.end() > cols || self.dst.end() > cols || self.mask_col >= cols {
            return Err(SimError::InvalidAggregation("columns out of range".into()));
        }
        if self.dst_row >= rows {
            return Err(SimError::InvalidAggregation(format!(
                "destination row {} out of range",
                self.dst_row
            )));
        }
        Ok(())
    }

    /// Cost of this request on one crossbar.
    ///
    /// Reads proceed back-to-back at the crossbar read latency (the ALU
    /// is pipelined behind them); the write-back pays the RRAM write
    /// latency per result chunk.
    pub fn cost(&self, cfg: &SimConfig) -> AggCost {
        let rows = cfg.crossbar_rows as u64;
        let reads = rows * self.reads_per_row(cfg);
        let bits_read = reads * cfg.read_width_bits as u64;
        let result_chunks = span_chunks(self.dst, cfg.read_width_bits);
        let bits_written = result_chunks * cfg.read_width_bits as u64;
        let time_ns =
            reads as f64 * cfg.read_latency_ns + result_chunks as f64 * cfg.write_latency_ns;
        AggCost { reads, bits_read, bits_written, time_ns }
    }

    /// Validate a count slot next to this request's value slot: the
    /// ALU's *count* register (selected rows) is written back to
    /// `count_dst` in the result row by the same serial pass — the
    /// circuit already reads the mask bit of every row, so the extra
    /// cost is only the second write-back.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAggregation`] for a slot width
    /// outside `1..=64`, an out-of-range slot, or one overlapping the
    /// value slot.
    pub fn validate_count_slot(&self, count_dst: ColRange, cols: usize) -> Result<(), SimError> {
        if count_dst.lo < self.dst.end() && self.dst.lo < count_dst.end() {
            return Err(SimError::InvalidAggregation("count slot overlaps the value slot".into()));
        }
        if count_dst.width == 0 || count_dst.width > 64 || count_dst.end() > cols {
            return Err(SimError::InvalidAggregation("bad count slot".into()));
        }
        Ok(())
    }

    /// Write the selected-row count, wrapped at the slot width, into a
    /// validated `count_dst` of the result row; returns it.
    pub(crate) fn count_into(&self, xb: &mut Crossbar, count_dst: ColRange) -> u64 {
        let count = xb.bits().popcount_col(self.mask_col) as u64;
        let wrapped =
            if count_dst.width >= 64 { count } else { count & ((1 << count_dst.width) - 1) };
        xb.bits_mut_unaccounted().write_row_bits(
            self.dst_row,
            count_dst.lo,
            count_dst.width,
            wrapped,
        );
        xb.note_row_writes(self.dst_row, count_dst.width as u64);
        wrapped
    }

    /// Execute functionally on one crossbar: fold the masked values and
    /// write the (width-wrapped) result into the destination slot.
    ///
    /// Endurance is charged for the result write-back only — serial reads
    /// do not wear RRAM cells.
    ///
    /// # Errors
    ///
    /// Propagates [`AggRequest::validate`].
    pub fn apply(&self, xb: &mut Crossbar) -> Result<u64, SimError> {
        self.validate(xb.rows(), xb.cols())?;
        let result = self.fold(xb);
        xb.note_row_writes(self.dst_row, self.dst.width as u64);
        Ok(result)
    }

    /// The functional half of a validated request, shared by the
    /// circuit and the reduction tree (which leave the same value and
    /// differ in wear): fold, wrap, write the slot — no endurance.
    pub(crate) fn fold(&self, xb: &mut Crossbar) -> u64 {
        // only the mask column's set rows are read
        let selected = xb
            .bits()
            .ones_in_col(self.mask_col)
            .map(|r| xb.read_row_bits(r, self.value.lo, self.value.width));
        // The ALU register is dst.width wide; MIN's identity must match it.
        let result = reduce_selected(selected, self.dst.width.max(self.value.width), self.op);
        let result =
            if self.dst.width == 64 { result } else { result & ((1u64 << self.dst.width) - 1) };
        xb.bits_mut_unaccounted().write_row_bits(self.dst_row, self.dst.lo, self.dst.width, result);
        result
    }
}

/// Number of 16-bit read chunks a column range spans (alignment-aware).
fn span_chunks(range: ColRange, chunk_bits: usize) -> u64 {
    if range.width == 0 {
        return 0;
    }
    let first = range.lo / chunk_bits;
    let last = (range.end() - 1) / chunk_bits;
    (last - first + 1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::small_for_tests()
    }

    fn request() -> AggRequest {
        AggRequest {
            op: ReduceOp::Sum,
            value: ColRange::new(0, 16),
            mask_col: 20,
            dst_row: 0,
            dst: ColRange::new(32, 32),
        }
    }

    #[test]
    fn sum_of_masked_rows_lands_in_slot() {
        let mut xb = Crossbar::new(64, 64);
        for r in 0..64 {
            xb.write_row_bits(r, 0, 16, r as u64 * 10);
            xb.bits_mut_unaccounted().set(r, 20, r % 2 == 0);
        }
        let req = request();
        let result = req.apply(&mut xb).unwrap();
        let expected: u64 = (0..64).filter(|r| r % 2 == 0).map(|r| r * 10).sum();
        assert_eq!(result, expected);
        assert_eq!(xb.read_row_bits(0, 32, 32), expected);
    }

    #[test]
    fn min_max_variants() {
        let mut xb = Crossbar::new(64, 64);
        for r in 0..64 {
            xb.write_row_bits(r, 0, 16, 1000 - r as u64);
            xb.bits_mut_unaccounted().set(r, 20, (10..20).contains(&r));
        }
        let mut req = request();
        req.op = ReduceOp::Min;
        assert_eq!(req.apply(&mut xb).unwrap(), 1000 - 19);
        req.op = ReduceOp::Max;
        req.dst_row = 1;
        assert_eq!(req.apply(&mut xb).unwrap(), 1000 - 10);
    }

    #[test]
    fn empty_mask_gives_sum_identity() {
        let mut xb = Crossbar::new(64, 64);
        for r in 0..64 {
            xb.write_row_bits(r, 0, 16, 7);
        }
        assert_eq!(request().apply(&mut xb).unwrap(), 0);
    }

    #[test]
    fn reads_per_row_counts_value_chunks_plus_mask() {
        let c = cfg();
        let mut req = request();
        assert_eq!(req.reads_per_row(&c), 1 + 1); // 16-bit value, aligned
        req.value = ColRange::new(0, 32);
        assert_eq!(req.reads_per_row(&c), 2 + 1);
        req.value = ColRange::new(8, 16); // straddles two chunks
        assert_eq!(req.reads_per_row(&c), 2 + 1);
    }

    #[test]
    fn cost_scales_with_rows_and_chunks() {
        let c = cfg();
        let req = request();
        let cost = req.cost(&c);
        assert_eq!(cost.reads, 64 * 2);
        assert_eq!(cost.bits_read, 64 * 2 * 16);
        assert!(cost.time_ns > 0.0);
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut req = request();
        req.mask_col = 200;
        assert!(req.validate(64, 64).is_err());
        let mut req = request();
        req.dst_row = 64;
        assert!(req.validate(64, 64).is_err());
        let mut req = request();
        req.value = ColRange::new(0, 0);
        assert!(req.validate(64, 64).is_err());
    }

    #[test]
    fn writeback_charges_endurance_on_dst_row_only() {
        let mut xb = Crossbar::new(64, 64);
        xb.bits_mut_unaccounted().set(3, 20, true);
        xb.write_row_bits(3, 0, 16, 42);
        xb.reset_endurance();
        request().apply(&mut xb).unwrap();
        assert_eq!(xb.max_row_cell_writes(), 32); // the 32-bit result slot
    }

    #[test]
    fn agg_circuit_reads_far_fewer_cells_than_bitwise_writes() {
        use crate::compiler::reduce::reduce_cost;
        let c = SimConfig::default();
        let req = AggRequest {
            op: ReduceOp::Sum,
            value: ColRange::new(0, 32),
            mask_col: 40,
            dst_row: 0,
            dst: ColRange::new(448, 48),
        };
        let circuit = req.cost(&c);
        let bitwise = reduce_cost(1024, 512, 32, ReduceOp::Sum);
        let circuit_time = circuit.time_ns;
        let bitwise_time = bitwise.cycles as f64 * c.logic_cycle_ns;
        assert!(
            bitwise_time > 5.0 * circuit_time,
            "bitwise {bitwise_time} ns should dwarf circuit {circuit_time} ns"
        );
    }
}
