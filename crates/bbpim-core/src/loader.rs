//! Loading a relation into the PIM module.
//!
//! Records fill pages in order; every partition gets its own page run
//! (aligned: record *i* sits at the same page offset and slot in every
//! partition). Padding rows of the last page keep `VALID = 0`, so
//! filters never select them.
//!
//! Loading is a one-time cost outside query measurement; endurance
//! counters are reset after the load.

use bbpim_db::relation::Relation;
use bbpim_db::zonemap::ZoneMap;
use bbpim_sim::module::{PageId, PimModule};
use bbpim_sim::timeline::{Phase, RunLog};

use crate::error::CoreError;
use crate::layout::{RecordLayout, VALID_COL};

/// A relation resident in PIM.
///
/// Besides the page runs, the loader keeps one [`ZoneMap`] per page
/// index — the per-attribute min/max over the records the page holds —
/// which is what the physical planner tests filters against
/// ([`crate::planner::plan_pages`]). UPDATEs widen these maps (see
/// [`LoadedRelation::widen_zones`]) so pruning stays sound after writes.
#[derive(Debug, Clone)]
pub struct LoadedRelation {
    /// Pages per partition: `pages[partition][page_index]`.
    pages: Vec<Vec<PageId>>,
    /// Per page index (shared across partitions): min/max per attribute.
    page_zones: Vec<ZoneMap>,
    records: usize,
    records_per_page: usize,
}

impl LoadedRelation {
    /// Number of loaded records.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Pages of one partition.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn pages(&self, partition: usize) -> &[PageId] {
        &self.pages[partition]
    }

    /// Page count per partition (the paper's `M`).
    pub fn page_count(&self) -> usize {
        self.pages[0].len()
    }

    /// Records per page.
    pub fn records_per_page(&self) -> usize {
        self.records_per_page
    }

    /// All pages of all partitions (for endurance resets).
    pub fn all_pages(&self) -> Vec<PageId> {
        self.pages.iter().flatten().copied().collect()
    }

    /// Page index and in-page slot of a record.
    pub fn locate(&self, record: usize) -> (usize, usize) {
        (record / self.records_per_page, record % self.records_per_page)
    }

    /// Global record index from page index and in-page slot.
    pub fn record_at(&self, page_index: usize, slot: usize) -> usize {
        page_index * self.records_per_page + slot
    }

    /// The global record indices one page index holds (its occupied
    /// slots, in slot order).
    pub fn page_records(&self, page_index: usize) -> std::ops::Range<usize> {
        let first = self.record_at(page_index, 0);
        first.min(self.records)..(first + self.records_per_page).min(self.records)
    }

    /// The zone map of one page index.
    ///
    /// # Panics
    ///
    /// Panics if `page_index` is out of range.
    pub fn page_zone(&self, page_index: usize) -> &ZoneMap {
        &self.page_zones[page_index]
    }

    /// All per-page zone maps, in page order.
    pub fn page_zones(&self) -> &[ZoneMap] {
        &self.page_zones
    }

    /// The whole loaded relation's zone map (merge over pages).
    pub fn zone_map(&self) -> ZoneMap {
        let arity = self.page_zones.first().map(ZoneMap::arity).unwrap_or(0);
        let mut zm = ZoneMap::empty(arity);
        for page in &self.page_zones {
            zm.merge(page);
        }
        zm
    }

    /// Widen the given pages' zones so attribute `attr_idx` also covers
    /// `value` — UPDATE maintenance: after a MUX rewrite the affected
    /// pages may hold the new value, and the maps must keep
    /// over-approximating the live contents.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range page index or attribute.
    pub fn widen_zones(&mut self, page_indices: &[usize], attr_idx: usize, value: u64) {
        for &idx in page_indices {
            self.page_zones[idx].widen(attr_idx, value);
        }
    }
}

/// Write `rel` into `module` under `layout`.
///
/// # Errors
///
/// Propagates allocation failures ([`bbpim_sim::SimError::OutOfCapacity`])
/// and placement errors.
pub fn load_relation(
    module: &mut PimModule,
    rel: &Relation,
    layout: &RecordLayout,
) -> Result<LoadedRelation, CoreError> {
    let records_per_page = module.config().records_per_page();
    let page_count = rel.len().div_ceil(records_per_page).max(1);
    let mut pages = Vec::with_capacity(layout.partitions());
    for _ in 0..layout.partitions() {
        pages.push(module.alloc_pages(page_count)?);
    }

    // Resolve attribute columns once.
    let mut cols: Vec<(usize, crate::layout::AttrPlacement)> = Vec::new();
    for (idx, attr) in rel.schema().attrs().iter().enumerate() {
        if layout.is_excluded(&attr.name) {
            continue;
        }
        cols.push((idx, layout.placement(&attr.name)?));
    }

    let mut page_zones = vec![ZoneMap::empty(rel.schema().arity()); page_count];
    for record in 0..rel.len() {
        let page_idx = record / records_per_page;
        let slot = record % records_per_page;
        for partition_pages in &pages {
            let page = module.page_mut(partition_pages[page_idx]);
            page.write_record_bits(slot, VALID_COL, 1, 1)?;
        }
        for &(col_idx, placement) in &cols {
            let value = rel.value(record, col_idx);
            let page = module.page_mut(pages[placement.partition][page_idx]);
            page.write_record_bits(slot, placement.range.lo, placement.range.width, value)?;
        }
        for attr_idx in 0..rel.schema().arity() {
            page_zones[page_idx].widen(attr_idx, rel.value(record, attr_idx));
        }
    }

    let loaded = LoadedRelation { pages, page_zones, records: rel.len(), records_per_page };
    // Loading is not part of query endurance.
    module.reset_endurance(&loaded.all_pages());
    Ok(loaded)
}

/// Append encoded rows behind an already-loaded relation.
///
/// Unlike [`load_relation`] this is an *online* operation — part of the
/// measured workload, charged on the host channel as byte-tagged writes
/// (INSERT data crosses the bus) plus a dispatch phase for the touched
/// pages, and it does **not** reset endurance counters: streamed
/// inserts wear cells, which is exactly what the endurance model wants
/// to see. Fresh pages are allocated on demand when the current image
/// is full; new rows keep the aligned slot/page invariant and the
/// touched pages' zone maps are widened over the new values. The
/// host-side catalog copy `rel` is appended in lockstep.
///
/// Returns the phase log and the touched page indices (in page order).
///
/// # Errors
///
/// Row arity/domain violations, allocation failures
/// ([`bbpim_sim::SimError::OutOfCapacity`]), and placement errors. On
/// error some rows may already be applied (mutations are not atomic);
/// callers treat this as fatal for the stream.
pub fn append_rows(
    module: &mut PimModule,
    layout: &RecordLayout,
    loaded: &mut LoadedRelation,
    rel: &mut Relation,
    rows: &[Vec<u64>],
) -> Result<(RunLog, Vec<usize>), CoreError> {
    let mut log = RunLog::new();
    if rows.is_empty() {
        return Ok((log, Vec::new()));
    }

    let mut cols: Vec<(usize, crate::layout::AttrPlacement)> = Vec::new();
    for (idx, attr) in rel.schema().attrs().iter().enumerate() {
        if layout.is_excluded(&attr.name) {
            continue;
        }
        cols.push((idx, layout.placement(&attr.name)?));
    }

    let mut touched: Vec<usize> = Vec::new();
    for row in rows {
        // catalog first: push_row validates arity and bit domains
        rel.push_row(row)?;
        let record = loaded.records;
        let page_idx = record / loaded.records_per_page;
        let slot = record % loaded.records_per_page;
        if page_idx == loaded.page_count() {
            // image full: grow every partition by one aligned page
            for partition_pages in &mut loaded.pages {
                partition_pages.push(module.alloc_pages(1)?[0]);
            }
            loaded.page_zones.push(ZoneMap::empty(rel.schema().arity()));
        }
        for partition_pages in &loaded.pages {
            let page = module.page_mut(partition_pages[page_idx]);
            page.write_record_bits(slot, VALID_COL, 1, 1)?;
        }
        for &(col_idx, placement) in &cols {
            let page = module.page_mut(loaded.pages[placement.partition][page_idx]);
            page.write_record_bits(slot, placement.range.lo, placement.range.width, row[col_idx])?;
        }
        for (attr_idx, &value) in row.iter().enumerate() {
            loaded.page_zones[page_idx].widen(attr_idx, value);
        }
        loaded.records += 1;
        if touched.last() != Some(&page_idx) {
            touched.push(page_idx);
        }
    }

    // Host-channel accounting: one dispatch over the touched pages plus
    // the row payload itself, written per partition as memory lines.
    let host = &module.config().host;
    log.push(Phase::host_dispatch(
        touched.len() as f64 * layout.partitions() as f64 * host.dispatch_ns_per_page,
    ));
    let row_bytes = module.config().crossbar_cols.div_ceil(8) as u64;
    let lines = (rows.len() as u64 * row_bytes).div_ceil(host.line_bytes as u64).max(1);
    for _ in 0..layout.partitions() {
        log.push(module.host_write_phase(lines));
    }
    Ok((log, touched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RecordLayout;
    use crate::modes::EngineMode;
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_sim::SimConfig;

    fn small_setup(records: usize) -> (PimModule, Relation, RecordLayout) {
        let cfg = SimConfig::small_for_tests();
        let schema =
            Schema::new("t", vec![Attribute::numeric("lo_a", 8), Attribute::numeric("d_b", 6)]);
        let mut rel = Relation::new(schema);
        for i in 0..records {
            rel.push_row(&[(i % 251) as u64, (i % 61) as u64]).unwrap();
        }
        let layout = RecordLayout::build(rel.schema(), &cfg, EngineMode::OneXb, &[]).unwrap();
        (PimModule::new(cfg), rel, layout)
    }

    #[test]
    fn roundtrip_values_through_pim() {
        let (mut module, rel, layout) = small_setup(300);
        let loaded = load_relation(&mut module, &rel, &layout).unwrap();
        assert_eq!(loaded.records(), 300);
        let a = layout.placement("lo_a").unwrap();
        for record in [0usize, 1, 255, 299] {
            let (pg, slot) = loaded.locate(record);
            let page = module.page(loaded.pages(0)[pg]);
            let got = page.read_record_bits(slot, a.range.lo, a.range.width).unwrap();
            assert_eq!(got, rel.value(record, 0), "record {record}");
        }
    }

    #[test]
    fn valid_bits_set_for_records_only() {
        let (mut module, rel, layout) = small_setup(300);
        let loaded = load_relation(&mut module, &rel, &layout).unwrap();
        // capacity = 256 records/page in the small config (4 xb × 64 rows)
        let rpp = loaded.records_per_page();
        let last_page = module.page(loaded.pages(0)[loaded.page_count() - 1]);
        let in_last = 300 - rpp; // records in the final page
        for slot in 0..rpp {
            let valid = last_page.read_record_bits(slot, VALID_COL, 1).unwrap();
            assert_eq!(valid == 1, slot < in_last, "slot {slot}");
        }
    }

    #[test]
    fn page_count_covers_records() {
        let (mut module, rel, layout) = small_setup(513);
        let loaded = load_relation(&mut module, &rel, &layout).unwrap();
        assert_eq!(loaded.page_count(), 513usize.div_ceil(loaded.records_per_page()));
        assert_eq!(loaded.record_at(1, 3), loaded.records_per_page() + 3);
    }

    #[test]
    fn two_partition_load_is_aligned() {
        let cfg = SimConfig::small_for_tests();
        let schema =
            Schema::new("t", vec![Attribute::numeric("lo_a", 8), Attribute::numeric("d_b", 6)]);
        let mut rel = Relation::new(schema);
        for i in 0..100 {
            rel.push_row(&[i % 256, i % 60]).unwrap();
        }
        let layout = RecordLayout::build(rel.schema(), &cfg, EngineMode::TwoXb, &[]).unwrap();
        let mut module = PimModule::new(cfg);
        let loaded = load_relation(&mut module, &rel, &layout).unwrap();
        let b = layout.placement("d_b").unwrap();
        assert_eq!(b.partition, 1);
        for record in [0usize, 57, 99] {
            let (pg, slot) = loaded.locate(record);
            let page = module.page(loaded.pages(1)[pg]);
            let got = page.read_record_bits(slot, b.range.lo, b.range.width).unwrap();
            assert_eq!(got, rel.value(record, 1));
        }
    }

    #[test]
    fn module_capacity_exhaustion_is_reported() {
        // shrink the module to 2 pages, then load 3 pages worth
        let mut cfg = SimConfig::small_for_tests();
        cfg.module_capacity_bytes = (cfg.page_bytes as u64) * 2;
        let schema = Schema::new("t", vec![Attribute::numeric("lo_a", 8)]);
        let mut rel = Relation::new(schema);
        let rpp = cfg.records_per_page();
        for i in 0..(3 * rpp) {
            rel.push_row(&[(i % 251) as u64]).unwrap();
        }
        let layout = RecordLayout::build(rel.schema(), &cfg, EngineMode::OneXb, &[]).unwrap();
        let mut module = PimModule::new(cfg);
        let err = load_relation(&mut module, &rel, &layout).unwrap_err();
        assert!(matches!(
            err,
            crate::error::CoreError::Sim(bbpim_sim::SimError::OutOfCapacity { .. })
        ));
    }

    #[test]
    fn page_zones_cover_each_pages_records() {
        let (mut module, rel, layout) = small_setup(600);
        let loaded = load_relation(&mut module, &rel, &layout).unwrap();
        assert_eq!(loaded.page_zones().len(), loaded.page_count());
        let rpp = loaded.records_per_page();
        for (pg, zone) in loaded.page_zones().iter().enumerate() {
            let recs = (pg * rpp)..((pg + 1) * rpp).min(loaded.records());
            for attr in 0..rel.schema().arity() {
                let lo = recs.clone().map(|r| rel.value(r, attr)).min().unwrap();
                let hi = recs.clone().map(|r| rel.value(r, attr)).max().unwrap();
                assert_eq!(zone.range(attr), Some((lo, hi)), "page {pg} attr {attr}");
            }
        }
        // merged zone equals the relation's own
        assert_eq!(loaded.zone_map(), rel.zone_map());
    }

    #[test]
    fn widen_zones_grows_the_named_pages_only() {
        let (mut module, rel, layout) = small_setup(600);
        let mut loaded = load_relation(&mut module, &rel, &layout).unwrap();
        let before: Vec<_> = loaded.page_zones().to_vec();
        loaded.widen_zones(&[1], 0, 255);
        assert_eq!(loaded.page_zone(0), &before[0]);
        assert_eq!(loaded.page_zone(1).range(0).unwrap().1, 255);
    }

    #[test]
    fn endurance_reset_after_load() {
        let (mut module, rel, layout) = small_setup(100);
        let loaded = load_relation(&mut module, &rel, &layout).unwrap();
        assert_eq!(module.max_row_cell_writes(&loaded.all_pages()), 0);
    }
}
