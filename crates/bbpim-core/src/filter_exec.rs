//! Filter execution: compile the query's filter (in disjunctive normal
//! form) to bulk-bitwise microprograms and leave a one-bit mask per
//! record.
//!
//! Every atom reaches the crossbar as one [`RangeTerm`]: its column
//! range and the value runs the planner resolved it to
//! ([`ResolvedAtom::runs`], clipped to the attribute's width, so a
//! constant wider than the attribute selects what the oracle selects).
//! The mask builders never look at the atom itself.
//!
//! In `one-xb` mode a single program evaluates every DNF disjunct (a
//! conjunction of atoms), ORs the disjunct terms together and ANDs in
//! the validity bit. In `two-xb` mode each disjunct is evaluated in
//! sequence: its dimension-side atoms produce a mask that is
//! *transferred through the host* — read as cache lines, rewritten into
//! the fact partition's transfer chunk — before the fact-side program
//! combines the disjunct and ORs it into the accumulated mask (the
//! inter-partition traffic Section III predicts vertical partitioning
//! will pay, now once per disjunct that touches a dimension).
//!
//! Either way the mask is built **once per query** and reused by every
//! aggregate in the SELECT list — the multi-aggregate surface's whole
//! point: aggregates cost aggregate passes, not extra filter passes.

use bbpim_db::plan::ResolvedAtom;
use bbpim_sim::bitmat::word_ones;
use bbpim_sim::compiler::predicate::Conjunction;
use bbpim_sim::compiler::{CodeBuilder, ColRange, ScratchPool};
use bbpim_sim::isa::Microprogram;
use bbpim_sim::maskwire::{self, PackedBits};
use bbpim_sim::module::MaskPath;
use bbpim_sim::page::{PimPage, RecordSlot};

use crate::error::CoreError;
use crate::layout::{MASK_COL, TRANSFER_COL, VALID_COL};
use crate::loader::LoadedRelation;
use crate::scan::Scan;
use crate::semijoin::build_dnf_mask_program;
use crate::table::PimTable;

/// One term of a mask program: the attribute in `range` holds one of
/// `runs`, sorted, disjoint, inclusive value runs — an atom's selected
/// values ([`ResolvedAtom::runs`]), a dimension's selected keys on the
/// fact FK, or a group key's value. No run makes the term false. Both
/// mask builders AND a term in through the one range emitter
/// ([`Conjunction::and_ranges`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeTerm {
    /// The column range the term reads.
    pub range: ColRange,
    /// The selected values.
    pub runs: Vec<(u64, u64)>,
}

/// Build the program for one conjunction inside a partition:
/// `AND(terms) AND and_cols` (validity, transferred masks…) written to
/// `dst_col` — or, with `accumulate`, ORed into what `dst_col` holds
/// (the accumulation step of multi-disjunct two-xb filtering). The
/// workspace is `scratch`: the partition's whole scratch region, or
/// what a materialised aggregate expression left of it.
///
/// The AND is built by clear-only MAGIC NORs into one INITed column
/// ([`Conjunction`]): each term NORs in its cube's literals or the
/// complement of its runs, and `and_cols` one NOR of their shared
/// complements. Plain, that column is `dst_col` itself; accumulating,
/// a scratch term, then `dst_col := NOT NOR(dst_col, term)`.
///
/// # Errors
///
/// Propagates compiler failures.
pub fn build_conjunction_program(
    scratch: ColRange,
    terms: &[RangeTerm],
    and_cols: &[usize],
    dst_col: usize,
    accumulate: bool,
) -> Result<Microprogram, CoreError> {
    let mut pool = ScratchPool::new(scratch);
    let mut b = CodeBuilder::new(&mut pool);
    let mut conj = if accumulate { Conjunction::fresh() } else { Conjunction::into_col(dst_col) };
    for t in terms {
        conj.and_ranges(&mut b, t.range, &t.runs)?;
    }
    let positive: Vec<(usize, bool)> = and_cols.iter().map(|&c| (c, true)).collect();
    conj.and_literals(&mut b, &positive)?;
    let term = conj.finish(&mut b)?;
    if accumulate {
        let either_not = b.emit_nor(dst_col, term)?;
        b.program_mut().gate_not(either_not, dst_col);
    }
    Ok(b.finish())
}

/// The words of a per-record bit-vector that hold one page's records,
/// bit 0 its slot 0: whole words, because a page's slot count
/// (crossbars × rows) is a multiple of 64 and only the relation's last
/// page can be partly filled.
fn page_words<'a>(bits: &'a PackedBits, loaded: &LoadedRelation, page_index: usize) -> &'a [u64] {
    let records = loaded.page_records(page_index);
    &bits.words()[records.start / 64..records.end.div_ceil(64)]
}

/// The record slots of `page` below `records` whose cell in the one-bit
/// column `col` is set, crossbar by crossbar: only the column's set
/// cells are visited (a column word at a time), each mapped back to its
/// slot. Slots past `records` — the padding of a partly filled last
/// page — are never a record's, whatever their cells hold.
pub(crate) fn ones_in_col(
    page: &PimPage,
    col: usize,
    records: usize,
) -> impl Iterator<Item = usize> + '_ {
    page.crossbars()
        .enumerate()
        .flat_map(move |(crossbar, xb)| {
            xb.bits()
                .ones_in_col(col)
                .map(move |row| page.slot_record(RecordSlot { crossbar, row }))
        })
        .filter(move |&slot| slot < records)
}

impl Scan<'_> {
    /// Read a one-bit column of a partition's planned pages into a
    /// per-record bit-vector, free of charge (the simulator peeking,
    /// not the host reading — [`Scan::move_mask`] is the charged read);
    /// records on pruned pages read `false`, the all-false mask
    /// semantics pruning guarantees. Each page's set records come from
    /// the per-page helper `ones_in_col`, which [`Scan::sample`] shares.
    pub fn mask(&self, partition: usize, col: usize) -> PackedBits {
        let (module, loaded) = (&self.table.module, &self.table.loaded);
        let mut out = PackedBits::zeros(loaded.records());
        for (pg_idx, pid) in self.pages.entries(loaded, partition) {
            let records = loaded.page_records(pg_idx);
            for slot in ones_in_col(module.page(pid), col, records.len()) {
                out.set(records.start + slot);
            }
        }
        out
    }

    /// Count the set bits of a one-bit column over partition 0's
    /// planned pages (the popcount a mask program leaves for free).
    pub(crate) fn count(&self, col: usize) -> u64 {
        let module = &self.table.module;
        let popcount = |xb: &bbpim_sim::crossbar::Crossbar| xb.bits().popcount_col(col) as u64;
        self.pages
            .ids(&self.table.loaded, 0)
            .into_iter()
            .map(|p| module.page(p).crossbars().map(popcount).sum::<u64>())
            .sum()
    }

    /// Move the mask column `col` of partition `from` over the host
    /// channel and return its per-record bits: read back to the host —
    /// the filter-result fetch of a host-side gather — or, with `to`,
    /// on through the host into that partition's transfer chunk (the
    /// host writes whole 16-bit chunks, so each record's row takes a
    /// 16-cell write).
    ///
    /// The module prices the movement
    /// ([`bbpim_sim::module::PimModule::mask_phases`]): raw, each
    /// direction costs one line per (page, row) — 1024 lines per 2 MB
    /// page, the paper's 32× read reduction; under
    /// [`bbpim_sim::XferPolicy::compress_masks`] it asks this method for
    /// the [`maskwire`] size of the planned pages' mask bits (8-byte
    /// header + min(bit-packed, RLE)), which is computed only then.
    /// Answers are unaffected either way — the mask bits are moved
    /// exactly; only their wire *size* is computed, from the packed
    /// words.
    ///
    /// # Errors
    ///
    /// Propagates page-slot failures.
    pub fn move_mask(
        &mut self,
        from: usize,
        col: usize,
        to: Option<usize>,
    ) -> Result<PackedBits, CoreError> {
        let bits = self.mask(from, col);
        let (cfg, loaded) = (self.table.module.config(), &self.table.loaded);
        let raw_lines = self.pages.len() as u64 * cfg.crossbar_rows as u64;
        let wire_lines = || {
            // what the movement carries: the planned pages' bits, page order
            let planned = self.pages.indices().iter();
            let len: usize = planned.clone().map(|&pg| loaded.page_records(pg).len()).sum();
            let payload = planned.flat_map(|&pg| page_words(&bits, loaded, pg)).copied();
            maskwire::packed_wire_lines(payload, len as u64, cfg.line_bytes() as u64)
        };
        let path = if to.is_some() { MaskPath::ThroughHost } else { MaskPath::ToHost };
        for phase in self.table.module.mask_phases(raw_lines, wire_lines, path) {
            self.log.push(phase);
        }
        if let Some(partition) = to {
            let PimTable { module, loaded, .. } = &mut *self.table;
            for (pg_idx, pid) in self.pages.entries(loaded, partition) {
                let records = loaded.page_records(pg_idx).len();
                let set = word_ones(page_words(&bits, loaded, pg_idx));
                module.page_mut(pid).write_record_flags(TRANSFER_COL, 16, records, set)?;
            }
        }
        Ok(bits)
    }

    /// Execute the query filter — a DNF resolved against the table's
    /// schema; the layout placement of every atom is attached here —
    /// over the planned pages, leaving the final mask in partition 0's
    /// [`MASK_COL`] of those pages; returns the selected-record count.
    /// Pruned pages are never touched: no program executes on them and
    /// their records count as unselected (sound, because the planner
    /// proved they cannot match). Charges every phase (PIM programs,
    /// transfer reads and writes); an empty plan charges nothing and
    /// selects nothing.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] for an atom on a host-resident
    /// attribute; compiler/simulator failures otherwise.
    pub fn filter(&mut self, dnf: &[Vec<ResolvedAtom>]) -> Result<u64, CoreError> {
        let (layout, schema) = (&self.table.layout, &self.table.schema);
        let mut disjuncts = Vec::with_capacity(dnf.len());
        for conj in dnf {
            // the conjunction's atoms as terms over their column ranges,
            // split into the fact side (partition 0) and the dimension side
            let mut sides = [Vec::new(), Vec::new()];
            for atom in conj {
                let placement = layout.placement(&schema.attrs()[atom.attr_index()].name)?;
                let (range, side) = (placement.range, usize::from(placement.partition != 0));
                sides[side].push(RangeTerm { range, runs: atom.runs(range.width) });
            }
            disjuncts.push(sides);
        }
        if layout.partitions() == 1 || disjuncts.is_empty() {
            // one program for the whole DNF (FALSE for an empty one: an
            // exhaustively dispatched filter must still leave an
            // all-false mask)
            let joined: Vec<Vec<RangeTerm>> = disjuncts.into_iter().map(|[fact, _]| fact).collect();
            return self.filter_joined(&joined);
        }
        if self.pages.is_empty() {
            return Ok(0);
        }
        // two-xb: evaluate disjunct by disjunct, ORing into the fact
        // mask. Each disjunct's dimension-side conjunction travels
        // through the host once, in the compressed wire format when the
        // policy allows.
        let scratch = [self.table.layout.scratch(0), self.table.layout.scratch(1)];
        for (i, sides) in disjuncts.iter().enumerate() {
            let mut fact_and = vec![VALID_COL];
            if !sides[1].is_empty() {
                let dim_side = build_conjunction_program(
                    scratch[1],
                    &sides[1],
                    &[VALID_COL],
                    MASK_COL,
                    false,
                )?;
                self.exec(1, &dim_side)?;
                self.move_mask(1, MASK_COL, Some(0))?;
                fact_and.push(TRANSFER_COL);
            }
            let fact_side =
                build_conjunction_program(scratch[0], &sides[0], &fact_and, MASK_COL, i > 0)?;
            self.exec(0, &fact_side)?;
        }
        Ok(self.count(MASK_COL))
    }

    /// [`Scan::filter`] for a single-partition table, over disjuncts
    /// already resolved to terms — on a star join's fact shard the fact
    /// atoms' terms and one FK term per filtered dimension: one program
    /// evaluates the whole DNF into [`MASK_COL`].
    ///
    /// # Errors
    ///
    /// Propagates compiler/simulator failures.
    pub fn filter_joined(&mut self, disjuncts: &[Vec<RangeTerm>]) -> Result<u64, CoreError> {
        if self.pages.is_empty() {
            return Ok(0);
        }
        let scratch = self.table.layout.scratch(0);
        self.exec(0, &build_dnf_mask_program(scratch, disjuncts, &[VALID_COL], MASK_COL)?)?;
        Ok(self.count(MASK_COL))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::modes::EngineMode;
    use crate::planner::PageSet;
    use bbpim_db::builder::col;
    use bbpim_db::plan::Pred;
    use bbpim_db::Relation;
    use bbpim_sim::timeline::PhaseKind;
    use bbpim_sim::XferPolicy;

    fn table(mode: EngineMode) -> (PimTable, Relation) {
        fixture::table(mode, &[("lo_v", 8), ("d_g", 4)], (0..600).map(|i| vec![i % 200, i % 10]))
    }

    /// Run `pred` over every page; the selected count and the mask must
    /// equal the oracle's. Returns the scan for phase checks.
    fn check<'t>(table: &'t mut PimTable, rel: &Relation, pred: &Pred, what: &str) -> Scan<'t> {
        let expected = fixture::oracle_mask(rel, pred);
        let mut scan = fixture::scan(table);
        let selected = fixture::filter(&mut scan, pred);
        assert_eq!(selected, expected.iter().filter(|b| **b).count() as u64, "{what}");
        assert_eq!(scan.mask(0, MASK_COL).iter().collect::<Vec<_>>(), expected, "{what}");
        scan
    }

    #[test]
    fn one_xb_filter_matches_oracle() {
        let (mut t, rel) = table(EngineMode::OneXb);
        let scan = check(&mut t, &rel, &col("lo_v").lt(50u64).and(col("d_g").eq(3u64)), "one-xb");
        assert!(scan.log.total_time_ns() > 0.0);
    }

    #[test]
    fn disjunctive_filter_matches_oracle_both_modes() {
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let (mut t, rel) = table(mode);
            // (lo_v < 30 AND d_g = 2) OR (lo_v > 150) OR (d_g = 7)
            let pred = col("lo_v")
                .lt(30u64)
                .and(col("d_g").eq(2u64))
                .or(col("lo_v").gt(150u64))
                .or(col("d_g").eq(7u64));
            assert_eq!(pred.dnf().len(), 3, "three disjuncts");
            check(&mut t, &rel, &pred, &format!("{mode:?}"));
        }
    }

    #[test]
    fn two_xb_disjunction_charges_one_transfer_per_dim_disjunct() {
        let (mut t, rel) = table(EngineMode::TwoXb);
        // two disjuncts with dimension atoms, one without
        let pred = col("d_g").eq(1u64).or(col("d_g").eq(5u64)).or(col("lo_v").lt(10u64));
        let scan = check(&mut t, &rel, &pred, "two-xb");
        // exactly two host read+write transfer pairs (the lo_v disjunct
        // stays fact-side)
        let of = |kind| scan.log.phases().iter().filter(|p| p.kind == kind).count();
        assert_eq!(of(PhaseKind::HostRead), 2);
        assert_eq!(of(PhaseKind::HostWrite), 2);
    }

    #[test]
    fn two_xb_filter_matches_oracle_and_charges_transfer() {
        let (mut t, rel) = table(EngineMode::TwoXb);
        let pred = col("lo_v").lt(120u64).and(col("d_g").is_in([2u64, 7u64]));
        let scan = check(&mut t, &rel, &pred, "two-xb");
        // transfer phases present: at least one host read + one host write
        assert!(scan.log.time_in(PhaseKind::HostRead) > 0.0);
        assert!(scan.log.time_in(PhaseKind::HostWrite) > 0.0);
    }

    #[test]
    fn two_xb_without_dim_atoms_skips_transfer() {
        let (mut t, _) = table(EngineMode::TwoXb);
        let scan = fixture::filtered(&mut t, &col("lo_v").gt(150u64));
        assert_eq!(scan.log.time_in(PhaseKind::HostRead), 0.0);
    }

    #[test]
    fn false_filter_selects_nothing_exhaustively() {
        // an empty DNF (Pred::Or(vec![])) run over all pages must leave
        // an all-false mask
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let (mut t, _) = table(mode);
            let mut scan = fixture::scan(&mut t);
            assert_eq!(scan.filter(&[]).unwrap(), 0, "{mode:?}");
            assert_eq!(scan.mask(0, MASK_COL).count_ones(), 0);
        }
    }

    #[test]
    fn padding_rows_never_selected() {
        // trivially-true filter: v < 255 selects every *valid* record —
        // 600 records, none of the padding slots counted
        let (mut t, rel) = table(EngineMode::OneXb);
        check(&mut t, &rel, &col("lo_v").lt(255u64), "padding");
    }

    #[test]
    fn empty_filter_selects_all_valid() {
        let (mut t, rel) = table(EngineMode::OneXb);
        let records = rel.len() as u64;
        let mut scan = fixture::scan(&mut t);
        assert_eq!(fixture::filter(&mut scan, &Pred::always()), records);
    }

    /// The stored bit of `col` for every record of `partition`, read
    /// cell by cell.
    fn stored_bits(t: &PimTable, partition: usize, col: usize) -> Vec<bool> {
        (0..t.loaded().records())
            .map(|record| {
                let (pg, slot) = t.loaded().locate(record);
                let page = t.module().page(t.loaded().pages(partition)[pg]);
                let s = page.record_slot(slot).unwrap();
                page.crossbar(s.crossbar).bits().get(s.row, col)
            })
            .collect()
    }

    #[test]
    fn mask_equals_per_record_get_and_pruned_pages_read_false() {
        // 600 records: two full pages and a partly filled third; the
        // plan prunes the middle one
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let (mut t, _) = table(mode);
            let plan = PageSet::from_indices(vec![0, 2], t.page_count());
            let g = t.layout().placement("d_g").unwrap();
            // the validity bit is set on every page, pruned ones too;
            // an attribute bit mixes ones and zeros
            for (partition, col) in [(0, VALID_COL), (g.partition, g.range.lo)] {
                let stored = stored_bits(&t, partition, col);
                assert!(stored[256..512].contains(&true), "the pruned page holds set bits");
                let scan = t.begin(plan.clone(), None);
                let got = scan.mask(partition, col);
                let planned = |record| plan.indices().contains(&scan.table.loaded.locate(record).0);
                for (record, bit) in stored.iter().enumerate() {
                    assert_eq!(
                        got.get(record),
                        *bit && planned(record),
                        "{mode:?} record {record}"
                    );
                }
                assert_eq!(got.len(), stored.len());
            }
        }
    }

    #[test]
    fn transfer_writes_every_planned_chunk_and_charges_the_codec_size() {
        let (mut t, _) = table(EngineMode::TwoXb);
        let plan = PageSet::from_indices(vec![0, 2], t.page_count());
        let g = t.layout().placement("d_g").unwrap();
        assert_eq!(g.partition, 1);
        let moved = stored_bits(&t, 1, g.range.lo);
        let mut scan = t.begin(plan.clone(), None);
        scan.take_log();
        scan.move_mask(1, g.range.lo, Some(0)).unwrap();
        // charged at the byte codec's size of the planned pages' bits
        let loaded = &scan.table.loaded;
        let payload: Vec<bool> = plan
            .indices()
            .iter()
            .flat_map(|&pg| &moved[loaded.page_records(pg)])
            .copied()
            .collect();
        let cfg = scan.table.module.config();
        let wire = maskwire::wire_lines(&payload, cfg.line_bytes() as u64);
        let raw = (plan.len() * cfg.crossbar_rows) as u64;
        assert!(wire < raw);
        let expected = scan.table.module.mask_phases(raw, || wire, MaskPath::ThroughHost);
        assert_eq!(scan.log.phases(), expected.as_slice());
        // every planned record's chunk holds its bit, zero above it;
        // the pruned page's chunks were never written
        for (record, bit) in moved.iter().enumerate() {
            let chunk = u64::from(*bit && loaded.locate(record).0 != 1);
            let (pg, slot) = loaded.locate(record);
            let page = scan.table.module.page(loaded.pages(0)[pg]);
            assert_eq!(page.read_record_bits(slot, TRANSFER_COL, 16).unwrap(), chunk, "{record}");
        }
        // a 16-cell write on every written row, none elsewhere
        let wear = |pg: usize| scan.table.module.max_row_cell_writes(&[loaded.pages(0)[pg]]);
        assert_eq!([wear(0), wear(1), wear(2)], [16, 0, 16]);
    }

    #[test]
    fn mask_read_lines_is_rows_times_pages() {
        // an uncompressed mask read-back costs one line per (page, row)
        let (mut t, _) = table(EngineMode::OneXb);
        t.set_xfer_policy(XferPolicy::legacy());
        let (pages, cfg) = (t.page_count(), t.config().clone());
        let mut scan = fixture::filtered(&mut t, &Pred::always());
        scan.take_log();
        scan.move_mask(0, MASK_COL, None).unwrap();
        let lines = (pages * cfg.crossbar_rows) as u64;
        assert_eq!(scan.log.host_bytes(), lines * cfg.line_bytes() as u64);
    }
}
