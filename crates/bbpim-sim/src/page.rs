//! A huge page: the unit of PIM execution.
//!
//! A 2 MB page consists of 32 crossbars that its PIM controller drives
//! in lock-step — one PIM request executes the same microprogram on all
//! of them concurrently (Section II-B). Records fill a page
//! *interleaved*: record `r` lives in crossbar `r mod 32` at row
//! `r div 32`, so 32 consecutive records share one row index and hence
//! one cache line per chunk — the layout behind both the read
//! amplification and the dense-scan amortisation the paper describes.
//!
//! Since the crossbars share one geometry, a program is lowered once per
//! page (or once per module request, for all its pages) and the same
//! flat op list — `INIT`s fused into their NORs, column operands as word
//! offsets — runs on each crossbar in turn.

use crate::config::SimConfig;
use crate::crossbar::{Crossbar, ExecSummary};
use crate::error::SimError;
use crate::isa::{Lowered, Microprogram};

/// A record's physical slot inside a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordSlot {
    /// Crossbar index within the page.
    pub crossbar: usize,
    /// Row within the crossbar.
    pub row: usize,
}

/// One huge page: `crossbars_per_page` crossbars driven in lock-step.
#[derive(Debug, Clone)]
pub struct PimPage {
    crossbars: Vec<Crossbar>,
    rows: usize,
    cols: usize,
}

impl PimPage {
    /// Create a zeroed page for a configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        let n = cfg.crossbars_per_page();
        let crossbars =
            (0..n).map(|_| Crossbar::new(cfg.crossbar_rows, cfg.crossbar_cols)).collect();
        PimPage { crossbars, rows: cfg.crossbar_rows, cols: cfg.crossbar_cols }
    }

    /// Crossbars in this page.
    pub fn crossbar_count(&self) -> usize {
        self.crossbars.len()
    }

    /// Records this page can hold.
    pub fn record_capacity(&self) -> usize {
        self.crossbars.len() * self.rows
    }

    /// Borrow a crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn crossbar(&self, i: usize) -> &Crossbar {
        &self.crossbars[i]
    }

    /// Mutably borrow a crossbar.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn crossbar_mut(&mut self, i: usize) -> &mut Crossbar {
        &mut self.crossbars[i]
    }

    /// Iterate the crossbars.
    pub fn crossbars(&self) -> impl Iterator<Item = &Crossbar> {
        self.crossbars.iter()
    }

    /// Mutably iterate the crossbars.
    pub fn crossbars_mut(&mut self) -> impl Iterator<Item = &mut Crossbar> {
        self.crossbars.iter_mut()
    }

    /// Physical slot of record `r` (interleaved mapping).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RowOutOfRange`] past the page capacity.
    pub fn record_slot(&self, r: usize) -> Result<RecordSlot, SimError> {
        if r >= self.record_capacity() {
            return Err(SimError::RowOutOfRange { row: r, rows: self.record_capacity() });
        }
        Ok(RecordSlot { crossbar: r % self.crossbars.len(), row: r / self.crossbars.len() })
    }

    /// Inverse of [`PimPage::record_slot`].
    pub fn slot_record(&self, slot: RecordSlot) -> usize {
        slot.row * self.crossbars.len() + slot.crossbar
    }

    /// Execute one microprogram on every crossbar (lock-step).
    ///
    /// The crossbars of a page share one geometry, so the program is
    /// validated and lowered once for all of them (see [`crate::isa`]'s
    /// module docs) and each crossbar runs the lowered list. Returns the
    /// per-crossbar summary (identical for all of them); scale by
    /// [`PimPage::crossbar_count`] for energy.
    ///
    /// # Errors
    ///
    /// Propagates program validation failures; no crossbar is touched.
    pub fn execute(&mut self, program: &Microprogram) -> Result<ExecSummary, SimError> {
        let mut lowered = Lowered::default();
        program.lower(self.rows, self.cols, &mut lowered)?;
        Ok(self.run(&lowered))
    }

    /// [`PimPage::execute`] for a program the caller has lowered for the
    /// module's crossbar geometry.
    pub(crate) fn run(&mut self, program: &Lowered) -> ExecSummary {
        for xb in self.crossbars.iter_mut() {
            xb.run(program);
        }
        program.summary
    }

    /// Host write of one value per record into `[col_lo, col_lo + width)`
    /// of the slots `first..first + values.len()` (endurance-counted:
    /// every written record's row wears `width` cells; the loader and
    /// INSERT store rows through it). Bits of a value at and above
    /// `width` are ignored.
    ///
    /// The image is column-major and the values come a record at a
    /// time, so the run is transposed: per crossbar and 64-row column
    /// word, the run's values for those rows are gathered into a block,
    /// transposed, and each of the `width` column words is stored once,
    /// under the mask of the rows the run covers
    /// ([`crate::bitmat::BitMatrix::write_word_rows`]).
    ///
    /// # Errors
    ///
    /// [`SimError::ColumnOutOfRange`] for a field past the crossbar or
    /// wider than 64 bits, [`SimError::RowOutOfRange`] for a run past the
    /// page capacity; either way nothing is written.
    pub fn write_records(
        &mut self,
        first: usize,
        col_lo: usize,
        width: usize,
        values: &[u64],
    ) -> Result<(), SimError> {
        self.check_field(col_lo, width)?;
        let end = first.saturating_add(values.len());
        if end > self.record_capacity() {
            return Err(SimError::RowOutOfRange { row: end, rows: self.record_capacity() });
        }
        let n = self.crossbars.len();
        // A run over the whole page wears `width` cells in every row of
        // every crossbar alike: one all-rows count per crossbar, and no
        // per-row counters come into being for a full page's load.
        let whole_page = values.len() == self.record_capacity();
        let mut block = [0u64; 64];
        for (i, xb) in self.crossbars.iter_mut().enumerate() {
            // crossbar i holds slots i, i + n, …: the run's are its rows
            // ⌈(first − i)/n⌉ .. ⌈(end − i)/n⌉
            let rows = first.saturating_sub(i).div_ceil(n)..end.saturating_sub(i).div_ceil(n);
            if rows.is_empty() {
                continue;
            }
            for word in rows.start / 64..rows.end.div_ceil(64) {
                let base = word * 64;
                let covered = rows.start.max(base)..rows.end.min(base + 64);
                for row in covered.clone() {
                    block[row - base] = values[row * n + i - first];
                }
                let mask = (u64::MAX >> (64 - covered.len())) << (covered.start - base);
                xb.bits_mut_unaccounted().write_word_rows(word, mask, col_lo, width, &mut block);
            }
            if whole_page {
                xb.note_all_rows_writes(width as u64);
            } else {
                for row in rows {
                    xb.note_row_writes(row, width as u64);
                }
            }
        }
        Ok(())
    }

    /// Host write of one flag per record into the chunk
    /// `[col_lo, col_lo + width)` of the page's first `records` slots.
    /// The host writes whole chunks: each record's chunk takes its flag
    /// at `col_lo` and zeros above it, and every written row wears
    /// `width` cells — [`PimPage::write_records`] per record, done
    /// a column at a time. `set` yields the slots whose flag is 1.
    ///
    /// # Panics
    ///
    /// Panics on a zero `width`: the chunk holds at least the flag.
    ///
    /// # Errors
    ///
    /// [`SimError::ColumnOutOfRange`] for a chunk past the crossbar or
    /// wider than 64 bits and [`SimError::RowOutOfRange`] for `records`
    /// past the page capacity, with nothing written; the latter also for
    /// a set slot past `records`, with the chunks already cleared.
    pub fn write_record_flags(
        &mut self,
        col_lo: usize,
        width: usize,
        records: usize,
        set: impl Iterator<Item = usize>,
    ) -> Result<(), SimError> {
        assert!(width > 0, "a flag chunk holds at least the flag");
        self.check_field(col_lo, width)?;
        if records > self.record_capacity() {
            return Err(SimError::RowOutOfRange { row: records, rows: self.record_capacity() });
        }
        let n = self.crossbars.len();
        for (i, xb) in self.crossbars.iter_mut().enumerate() {
            // crossbar i holds slots i, i + n, …: its first ⌈(records − i)/n⌉ rows
            xb.clear_rows(records.saturating_sub(i).div_ceil(n), col_lo, width);
        }
        for slot in set {
            if slot >= records {
                return Err(SimError::RowOutOfRange { row: slot, rows: records });
            }
            self.crossbars[slot % n].bits_mut_unaccounted().set(slot / n, col_lo, true);
        }
        Ok(())
    }

    /// Read `width` bits of a record's row at bit offset `col_lo`.
    ///
    /// # Errors
    ///
    /// Propagates slot errors.
    pub fn read_record_bits(
        &self,
        record: usize,
        col_lo: usize,
        width: usize,
    ) -> Result<u64, SimError> {
        let slot = self.record_slot(record)?;
        Ok(self.crossbars[slot.crossbar].read_row_bits(slot.row, col_lo, width))
    }

    /// Read `width ≤ 64` bits at `col_lo` of the slots `0..records` into
    /// `out` (cleared first, slot order) — [`PimPage::read_record_bits`]
    /// for a whole run, [`PimPage::write_records`] backwards: per
    /// crossbar and 64-row column word, the `width` column words are
    /// loaded once and transposed into the rows' values
    /// ([`crate::bitmat::BitMatrix::read_word_rows`]).
    ///
    /// # Errors
    ///
    /// [`SimError::ColumnOutOfRange`] for a field past the crossbar or
    /// wider than 64 bits, [`SimError::RowOutOfRange`] for a run past the
    /// page capacity; either way nothing is read.
    pub fn read_records(
        &self,
        col_lo: usize,
        width: usize,
        records: usize,
        out: &mut Vec<u64>,
    ) -> Result<(), SimError> {
        self.check_field(col_lo, width)?;
        if records > self.record_capacity() {
            return Err(SimError::RowOutOfRange { row: records, rows: self.record_capacity() });
        }
        out.clear();
        out.resize(records, 0);
        let n = self.crossbars.len();
        let mut block = [0u64; 64];
        for (i, xb) in self.crossbars.iter().enumerate() {
            // crossbar i holds slots i, i + n, …: its first ⌈(records − i)/n⌉ rows
            let rows = records.saturating_sub(i).div_ceil(n);
            for word in 0..rows.div_ceil(64) {
                xb.bits().read_word_rows(word, col_lo, width, &mut block);
                let base = word * 64;
                for (row, v) in (base..rows.min(base + 64)).zip(block) {
                    out[row * n + i] = v;
                }
            }
        }
        Ok(())
    }

    /// A run's field `[col_lo, col_lo + width)`: inside the crossbar and
    /// one value of at most 64 bits wide.
    ///
    /// # Errors
    ///
    /// [`SimError::ColumnOutOfRange`] naming the first column past the
    /// field's reach.
    fn check_field(&self, col_lo: usize, width: usize) -> Result<(), SimError> {
        let reach = self.cols.min(col_lo.saturating_add(64));
        if col_lo.saturating_add(width) > reach {
            return Err(SimError::ColumnOutOfRange { col: reach.max(col_lo), cols: reach });
        }
        Ok(())
    }

    /// The worst per-row cell-write count over all crossbars.
    pub fn max_row_cell_writes(&self) -> u64 {
        self.crossbars.iter().map(Crossbar::max_row_cell_writes).max().unwrap_or(0)
    }

    /// Reset endurance counters on every crossbar.
    pub fn reset_endurance(&mut self) {
        for xb in self.crossbars.iter_mut() {
            xb.reset_endurance();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> PimPage {
        PimPage::new(&SimConfig::small_for_tests())
    }

    #[test]
    fn geometry_from_config() {
        let p = page();
        assert_eq!(p.crossbar_count(), 4);
        assert_eq!(p.record_capacity(), 4 * 64);
    }

    #[test]
    fn interleaved_slot_mapping() {
        let p = page();
        assert_eq!(p.record_slot(0).unwrap(), RecordSlot { crossbar: 0, row: 0 });
        assert_eq!(p.record_slot(1).unwrap(), RecordSlot { crossbar: 1, row: 0 });
        assert_eq!(p.record_slot(4).unwrap(), RecordSlot { crossbar: 0, row: 1 });
        assert_eq!(p.record_slot(255).unwrap(), RecordSlot { crossbar: 3, row: 63 });
    }

    #[test]
    fn slot_roundtrip() {
        let p = page();
        for r in [0usize, 1, 5, 100, 255] {
            assert_eq!(p.slot_record(p.record_slot(r).unwrap()), r);
        }
    }

    #[test]
    fn slot_out_of_capacity_errors() {
        assert!(page().record_slot(256).is_err());
    }

    #[test]
    fn consecutive_records_share_row_index() {
        // 32-consecutive-record amortisation (here 4 per row): records
        // 0..4 are at row 0 of the 4 crossbars.
        let p = page();
        for r in 0..4 {
            assert_eq!(p.record_slot(r).unwrap().row, 0);
        }
    }

    #[test]
    fn record_bits_roundtrip() {
        let mut p = page();
        p.write_records(37, 8, 16, &[0xBEEF]).unwrap();
        assert_eq!(p.read_record_bits(37, 8, 16).unwrap(), 0xBEEF);
        // sibling record untouched
        assert_eq!(p.read_record_bits(36, 8, 16).unwrap(), 0);
    }

    #[test]
    fn a_run_fills_consecutive_slots_or_nothing() {
        let mut p = page();
        let capacity = p.record_capacity();
        p.write_records(capacity - 3, 8, 16, &[7, 8, 9]).unwrap();
        for (slot, v) in
            [(capacity - 4, 0), (capacity - 3, 7), (capacity - 2, 8), (capacity - 1, 9)]
        {
            assert_eq!(p.read_record_bits(slot, 8, 16).unwrap(), v, "slot {slot}");
        }
        // each written row wore its 16 cells, once
        assert_eq!(p.max_row_cell_writes(), 16);
        // a run over the whole page wears every row alike and holds no
        // per-row counters; a partial run after it adds to its rows
        let mut full = page();
        full.write_records(0, 8, 16, &vec![0xABCD; capacity]).unwrap();
        assert_eq!(full.read_record_bits(capacity - 1, 8, 16).unwrap(), 0xABCD);
        assert_eq!(full.max_row_cell_writes(), 16);
        full.write_records(5, 24, 4, &[3]).unwrap();
        assert_eq!(full.max_row_cell_writes(), 20);
        // a run past the page is refused before its first cell
        assert!(p.write_records(capacity - 1, 30, 8, &[1, 2]).is_err());
        assert_eq!(p.read_record_bits(capacity - 1, 30, 8).unwrap(), 0);
        assert_eq!(p.max_row_cell_writes(), 16);
    }

    /// The run reader equals the per-record reader on every prefix of
    /// a page (partial rows included), at widths up to 64.
    #[test]
    fn a_run_reads_what_the_record_reader_reads() {
        let mut p = page();
        let capacity = p.record_capacity();
        let fields = [(3usize, 1usize), (4, 13), (17, 64), (81, 7)];
        for (k, &(lo, width)) in fields.iter().enumerate() {
            let mask = if width == 64 { u64::MAX } else { (1 << width) - 1 };
            let hash = |s: u64| (s ^ k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
            let v: Vec<u64> = (0..capacity as u64).map(hash).collect();
            p.write_records(0, lo, width, &v).unwrap();
        }
        let mut out = vec![7; 3];
        for records in [0, 1, 3, 4, 5, 63, 129, capacity - 1, capacity] {
            for &(lo, width) in &fields {
                p.read_records(lo, width, records, &mut out).unwrap();
                let want: Vec<u64> =
                    (0..records).map(|s| p.read_record_bits(s, lo, width).unwrap()).collect();
                assert_eq!(out, want, "{records} records of bits {lo}..{}", lo + width);
            }
        }
        assert!(p.read_records(0, 1, capacity + 1, &mut out).is_err());
    }

    /// A field past the crossbar or wider than a value is refused by all
    /// three run accessors before any cell or counter moves — in release
    /// too, where the bounds were only `debug_assert!`s.
    #[test]
    fn fields_out_of_reach_are_typed_errors() {
        let mut p = page();
        p.write_records(0, 250, 6, &[0x2A; 9]).unwrap();
        let (before, wear) = (p.clone(), p.max_row_cell_writes());
        let cols = p.cols;
        let refused = |col, reach| Err(SimError::ColumnOutOfRange { col, cols: reach });
        // (col_lo, width) → the error: past the last column, wider than
        // 64 bits inside the crossbar, starting past it, overflowing
        let cases = [
            ((250, 7), refused(cols, cols)),
            ((0, 65), refused(64, 64)),
            ((100, 80), refused(164, 164)),
            ((cols + 3, 1), refused(cols + 3, cols)),
            ((usize::MAX, 2), refused(usize::MAX, cols)),
        ];
        let mut out = vec![7];
        for ((col_lo, width), want) in cases {
            assert_eq!(p.write_records(0, col_lo, width, &[u64::MAX; 5]), want, "{col_lo}+{width}");
            assert_eq!(p.read_records(col_lo, width, 5, &mut out), want, "{col_lo}+{width}");
            let flags = p.write_record_flags(col_lo, width, 5, [1, 2].into_iter());
            assert_eq!(flags, want, "{col_lo}+{width}");
            assert_eq!(out, [7], "nothing read");
            for (a, b) in p.crossbars().zip(before.crossbars()) {
                assert_eq!(a.bits(), b.bits(), "nothing written");
            }
            assert_eq!(p.max_row_cell_writes(), wear, "nothing worn");
        }
        // the edges themselves are fields
        p.write_records(0, cols - 64, 64, &[u64::MAX]).unwrap();
        p.read_records(cols - 1, 1, 1, &mut out).unwrap();
        assert_eq!(out, [1]);
        p.read_records(cols, 0, 3, &mut out).unwrap();
        assert_eq!(out, [0; 3]);
    }

    #[test]
    fn execute_runs_on_all_crossbars() {
        let mut p = page();
        // set column 0 of every record, derive NOT into column 1
        for r in 0..p.record_capacity() {
            p.write_records(r, 0, 1, &[1]).unwrap();
        }
        let mut prog = Microprogram::new();
        prog.gate_not(0, 1);
        p.execute(&prog).unwrap();
        for r in 0..p.record_capacity() {
            assert_eq!(p.read_record_bits(r, 1, 1).unwrap(), 0, "record {r}");
        }
    }

    #[test]
    fn endurance_rollup_is_max_over_crossbars() {
        let mut p = page();
        p.write_records(0, 0, 8, &[0xFF]).unwrap(); // crossbar 0, row 0: 8 writes
        p.write_records(1, 0, 4, &[0xF]).unwrap(); // crossbar 1: 4 writes
        assert_eq!(p.max_row_cell_writes(), 8);
        p.reset_endurance();
        assert_eq!(p.max_row_cell_writes(), 0);
    }
}
