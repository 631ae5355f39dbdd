//! Loading a relation into the PIM module.
//!
//! Records fill pages in order; every partition gets its own page run
//! (aligned: record *i* sits at the same page offset and slot in every
//! partition). Padding rows of the last page keep `VALID = 0`, so
//! filters never select them.
//!
//! Loading is a one-time cost outside query measurement; endurance
//! counters are reset after the load.
//!
//! This is the host's write path to stored records: the load and the
//! online INSERT are the two callers of one writer
//! (`LoadedRelation::store`), which differ in what brackets it —
//! allocate + write + reset against reserve + write + charge. An INSERT
//! batch is all-or-nothing: a bad row or a module out of capacity
//! leaves the table unchanged (see [`append_rows`]).
//!
//! The writer puts one attribute's values for one page's run of
//! records into a buffer, hands it to `PimPage::write_records` — which
//! transposes it into the column-major crossbars a 64-row word at a
//! time — and folds the page's zone bounds from the same buffer in one
//! pass. A load reads its values from a [`Relation`]
//! ([`load_relation`]) or from plain columns
//! (`PimTable::from_columns`: calibration draws its synthetic records
//! straight into columns).

use std::ops::Range;
use std::sync::Mutex;

use bbpim_db::domain::DomainIndex;
use bbpim_db::relation::Relation;
use bbpim_db::schema::Schema;
use bbpim_db::zonemap::ZoneMap;
use bbpim_sim::config::SimConfig;
use bbpim_sim::module::{PageId, PimModule};
use bbpim_sim::timeline::RunLog;

use crate::error::CoreError;
use crate::layout::{RecordLayout, VALID_COL};
use crate::modes::EngineMode;
use crate::table::PimTable;

impl PimTable {
    /// Build `mode`'s layout for `relation`, allocate pages on a fresh
    /// module and load it; the relation is dropped (the image is the
    /// table).
    ///
    /// # Errors
    ///
    /// A configuration that fails `SimConfig::validate`, layout failures
    /// (record too wide), module capacity and loader failures.
    pub fn new(cfg: SimConfig, relation: Relation, mode: EngineMode) -> Result<Self, CoreError> {
        let layout = RecordLayout::build(relation.schema(), &cfg, mode, &[])?;
        Self::with_layout(cfg, relation, mode, layout)
    }

    /// Like [`PimTable::new`] but with a caller-supplied layout — e.g. a
    /// [`RecordLayout::build_custom`] placement that co-locates hot
    /// subgroup identifiers with the fact attributes (the paper's
    /// Section V-A placement optimisation).
    ///
    /// # Errors
    ///
    /// [`CoreError::Layout`] when the layout's partition count does not
    /// match the mode; loader failures otherwise.
    pub fn with_layout(
        cfg: SimConfig,
        relation: Relation,
        mode: EngineMode,
        layout: RecordLayout,
    ) -> Result<Self, CoreError> {
        if layout.partitions() != mode.partitions() {
            return Err(CoreError::Layout(format!(
                "layout has {} partitions but mode {} needs {}",
                layout.partitions(),
                mode.label(),
                mode.partitions()
            )));
        }
        Self::load(cfg, &relation, mode, layout)
    }

    /// Allocate pages on a fresh module and load `rel` under `layout`,
    /// whatever its partition count: the star's tables are
    /// single-partition under every mode.
    ///
    /// # Errors
    ///
    /// A configuration that fails `SimConfig::validate`, module capacity
    /// and loader failures.
    pub fn load(
        cfg: SimConfig,
        rel: &Relation,
        mode: EngineMode,
        layout: RecordLayout,
    ) -> Result<Self, CoreError> {
        let mut module = PimModule::new(cfg)?;
        let loaded = load_relation(&mut module, rel, &layout)?;
        Ok(PimTable::of_image(module, rel.schema().clone(), mode, layout, loaded))
    }

    /// [`PimTable::load`] for `records` records held as columns rather
    /// than as a [`Relation`]: `column(attr, run, values)` puts attribute
    /// `attr` of the records `run` into `values`, each value inside its
    /// attribute's width (calibration's synthetic data, drawn straight
    /// into columns).
    pub(crate) fn from_columns(
        cfg: SimConfig,
        schema: Schema,
        mode: EngineMode,
        layout: RecordLayout,
        records: usize,
        column: impl FnMut(usize, Range<usize>, &mut Vec<u64>),
    ) -> Result<Self, CoreError> {
        let mut module = PimModule::new(cfg)?;
        let loaded = load_columns(&mut module, &schema, &layout, records, column)?;
        Ok(PimTable::of_image(module, schema, mode, layout, loaded))
    }

    fn of_image(
        module: PimModule,
        schema: Schema,
        mode: EngineMode,
        layout: RecordLayout,
        loaded: LoadedRelation,
    ) -> Self {
        let domains = Mutex::new(DomainIndex::new(&schema, |name| !layout.is_excluded(name)));
        PimTable { module, schema, layout, loaded, domains, mode, model: None, pruning: true }
    }
}

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
    pub(crate) page_zones: Vec<ZoneMap>,
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

    /// Grow the image to hold `records` records. Every partition's new
    /// pages come out of one allocation, so either all partitions grow
    /// or — out of capacity — nothing changes.
    fn reserve(
        &mut self,
        module: &mut PimModule,
        records: usize,
        arity: usize,
    ) -> Result<(), CoreError> {
        let page_count = records.div_ceil(self.records_per_page).max(1);
        let new = page_count.saturating_sub(self.page_count());
        let fresh = module.alloc_pages(new * self.pages.len())?;
        for (run, ids) in self.pages.iter_mut().zip(fresh.chunks(new.max(1))) {
            run.extend_from_slice(ids);
        }
        self.page_zones.resize(self.page_count(), ZoneMap::empty(arity));
        Ok(())
    }

    /// The one writer: store `count` new records behind the image into
    /// the reserved pages, page by page and within a page a column at a
    /// time — VALID in every partition, each resident attribute in its
    /// own — and widen the pages' zone maps over every attribute.
    /// `column(attr, run, values)` puts attribute `attr` of the new
    /// records `run` (positions in the batch) into `values`. Returns the
    /// touched page indices, in page order.
    fn store(
        &mut self,
        module: &mut PimModule,
        layout: &RecordLayout,
        schema: &Schema,
        count: usize,
        mut column: impl FnMut(usize, Range<usize>, &mut Vec<u64>),
    ) -> Result<Vec<usize>, CoreError> {
        let attrs = schema.attrs();
        let resident: Vec<usize> =
            (0..attrs.len()).filter(|&a| !layout.is_excluded(&attrs[a].name)).collect();
        let stored = layout.project(resident.iter().map(|&a| attrs[a].name.as_str()))?;
        let mut placement = vec![None; attrs.len()];
        for (&attr, p) in resident.iter().zip(stored.placements()) {
            placement[attr] = Some(p);
        }
        let (first, end) = (self.records, self.records + count);
        let valid = vec![1; count.min(self.records_per_page)];
        // One attribute's values over one page's run of rows, put into a
        // reused buffer once per run.
        let mut values = Vec::with_capacity(valid.len());
        let mut touched = Vec::new();
        while self.records < end {
            let (pg, slot) = self.locate(self.records);
            let run = self.records..end.min(self.record_at(pg + 1, 0));
            for pages in &self.pages {
                let page = module.page_mut(pages[pg]);
                page.write_records(slot, VALID_COL, 1, &valid[..run.len()])?;
            }
            for (attr, placed) in placement.iter().enumerate() {
                column(attr, run.start - first..run.end - first, &mut values);
                if let Some(p) = placed {
                    let page = module.page_mut(self.pages[p.partition][pg]);
                    page.write_records(slot, p.range.lo, p.range.width, &values)?;
                }
                let (lo, hi) =
                    values.iter().fold((u64::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                if !values.is_empty() {
                    self.page_zones[pg].widen(attr, lo);
                    self.page_zones[pg].widen(attr, hi);
                }
            }
            touched.push(pg);
            self.records = run.end;
        }
        Ok(touched)
    }
}

/// Write `rel` into `module` under `layout`: allocate the page runs,
/// store every row, reset the wear the load caused.
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
    let column = |attr, run, values: &mut Vec<u64>| rel.column(attr).decode_into(run, values);
    load_columns(module, rel.schema(), layout, rel.len(), column)
}

/// [`load_relation`] for `records` records of `schema` that `column`
/// produces a run of one attribute at a time (see
/// [`LoadedRelation::store`]).
fn load_columns(
    module: &mut PimModule,
    schema: &Schema,
    layout: &RecordLayout,
    records: usize,
    column: impl FnMut(usize, Range<usize>, &mut Vec<u64>),
) -> Result<LoadedRelation, CoreError> {
    let mut loaded = LoadedRelation {
        pages: vec![Vec::new(); layout.partitions()],
        page_zones: Vec::new(),
        records: 0,
        records_per_page: module.config().records_per_page(),
    };
    loaded.reserve(module, records, schema.arity())?;
    loaded.store(module, layout, schema, records, column)?;
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
/// to see. Fresh pages are reserved when the current image is full; new
/// rows keep the aligned slot/page invariant and the touched pages'
/// zone maps are widened over the new values.
///
/// The batch is all-or-nothing: every row must be a row of the schema
/// and every partition must be able to take every new page before the
/// first bit or zone is written, so a batch with a bad row or one the
/// module cannot hold leaves the table exactly as it was.
///
/// Returns the phase log and the touched page indices (in page order).
///
/// # Errors
///
/// Row arity/domain violations ([`bbpim_db::Schema::check_row`]) and
/// [`bbpim_sim::SimError::OutOfCapacity`], each with nothing applied.
pub fn append_rows(
    module: &mut PimModule,
    layout: &RecordLayout,
    loaded: &mut LoadedRelation,
    schema: &Schema,
    rows: &[Vec<u64>],
) -> Result<(RunLog, Vec<usize>), CoreError> {
    let mut log = RunLog::new();
    if rows.is_empty() {
        return Ok((log, Vec::new()));
    }
    rows.iter().try_for_each(|row| schema.check_row(row))?;
    loaded.reserve(module, loaded.records + rows.len(), schema.arity())?;
    let column = |attr, run: Range<usize>, values: &mut Vec<u64>| {
        values.clear();
        values.extend(rows[run].iter().map(|row| row[attr]));
    };
    let touched = loaded.store(module, layout, schema, rows.len(), column)?;

    // Host-channel accounting: one dispatch over the touched pages plus
    // the row payload itself, written per partition as memory lines.
    // The dispatch rings per-page doorbells even under batched dispatch.
    log.push(module.doorbell_phase(touched.len(), layout.partitions()));
    let cfg = module.config();
    let row_bytes = cfg.crossbar_cols.div_ceil(8) as u64;
    let lines = (rows.len() as u64 * row_bytes).div_ceil(cfg.line_bytes() as u64).max(1);
    for _ in 0..layout.partitions() {
        log.push(module.host_write_phase(lines));
    }
    Ok((log, touched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_db::schema::Attribute;

    fn small_setup(records: usize) -> (PimModule, Relation, RecordLayout) {
        let cfg = SimConfig::small_for_tests();
        let schema =
            Schema::new("t", vec![Attribute::numeric("lo_a", 8), Attribute::numeric("d_b", 6)])
                .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..records {
            rel.push_row(&[(i % 251) as u64, (i % 61) as u64]).unwrap();
        }
        let layout = RecordLayout::build(rel.schema(), &cfg, EngineMode::OneXb, &[]).unwrap();
        (PimModule::new(cfg).unwrap(), rel, layout)
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
        let rpp = loaded.records_per_page;
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
        assert_eq!(loaded.page_count(), 513usize.div_ceil(loaded.records_per_page));
        assert_eq!(loaded.record_at(1, 3), loaded.records_per_page + 3);
    }

    #[test]
    fn two_partition_load_is_aligned() {
        let cfg = SimConfig::small_for_tests();
        let schema =
            Schema::new("t", vec![Attribute::numeric("lo_a", 8), Attribute::numeric("d_b", 6)])
                .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..100 {
            rel.push_row(&[i % 256, i % 60]).unwrap();
        }
        let layout = RecordLayout::build(rel.schema(), &cfg, EngineMode::TwoXb, &[]).unwrap();
        let mut module = PimModule::new(cfg).unwrap();
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
        let schema = Schema::new("t", vec![Attribute::numeric("lo_a", 8)]).unwrap();
        let mut rel = Relation::new(schema);
        let rpp = cfg.records_per_page();
        for i in 0..(3 * rpp) {
            rel.push_row(&[(i % 251) as u64]).unwrap();
        }
        let layout = RecordLayout::build(rel.schema(), &cfg, EngineMode::OneXb, &[]).unwrap();
        let mut module = PimModule::new(cfg).unwrap();
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
        assert_eq!(loaded.page_zones.len(), loaded.page_count());
        let rpp = loaded.records_per_page;
        for (pg, zone) in loaded.page_zones.iter().enumerate() {
            let recs = (pg * rpp)..((pg + 1) * rpp).min(loaded.records());
            for attr in 0..rel.schema().arity() {
                let lo = recs.clone().map(|r| rel.value(r, attr)).min().unwrap();
                let hi = recs.clone().map(|r| rel.value(r, attr)).max().unwrap();
                assert_eq!(zone.range(attr), Some((lo, hi)), "page {pg} attr {attr}");
            }
        }
        // merged zone equals the relation's own
        assert_eq!(loaded.zone_map(), ZoneMap::of(&rel));
    }

    #[test]
    fn widen_zones_grows_the_named_pages_only() {
        let (mut module, rel, layout) = small_setup(600);
        let mut loaded = load_relation(&mut module, &rel, &layout).unwrap();
        let before: Vec<_> = loaded.page_zones.to_vec();
        loaded.widen_zones(&[1], 0, 255);
        assert_eq!(loaded.page_zone(0), &before[0]);
        assert_eq!(loaded.page_zone(1).range(0).unwrap().1, 255);
    }

    /// The retired row-at-a-time writer, kept as the reference: one
    /// single-record write per cell, one zone widening per value. Stores
    /// catalog rows `records` into `pages[partition][page]`.
    fn store_per_record(
        module: &mut PimModule,
        layout: &RecordLayout,
        pages: &[Vec<PageId>],
        zones: &mut [ZoneMap],
        rel: &Relation,
        records: std::ops::Range<usize>,
    ) {
        let rpp = module.config().records_per_page();
        for record in records {
            let (pg, slot) = (record / rpp, record % rpp);
            for run in pages {
                module.page_mut(run[pg]).write_records(slot, VALID_COL, 1, &[1]).unwrap();
            }
            for (idx, attr) in rel.schema().attrs().iter().enumerate() {
                zones[pg].widen(idx, rel.value(record, idx));
                if !layout.is_excluded(&attr.name) {
                    let p = layout.placement(&attr.name).unwrap();
                    let page = module.page_mut(pages[p.partition][pg]);
                    let value = rel.value(record, idx);
                    page.write_records(slot, p.range.lo, p.range.width, &[value]).unwrap();
                }
            }
        }
    }

    /// Seeded rows over a schema with a host-only attribute, a wide one
    /// and both two-xb sides.
    fn seeded(records: usize, seed: u64) -> Relation {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let attrs = [("lo_a", 8), ("c_phone", 12), ("lo_wide", 37), ("d_b", 6), ("d_c", 1)];
        let attrs = attrs.map(|(name, bits)| Attribute::numeric(name, bits));
        let mut rel = Relation::new(Schema::new("t", attrs.to_vec()).unwrap());
        for _ in 0..records {
            let row: Vec<u64> =
                rel.schema().attrs().iter().map(|a| rng.gen::<u64>() >> (64 - a.bits)).collect();
            rel.push_row(&row).unwrap();
        }
        rel
    }

    /// Every stored bit (VALID and padding rows included), the per-page
    /// worst-row wear and the zone maps of the image against the
    /// reference module's.
    fn assert_same_image(
        (module, loaded): (&PimModule, &LoadedRelation),
        (ref_module, ref_pages, ref_zones): (&PimModule, &[Vec<PageId>], &[ZoneMap]),
        what: &str,
    ) {
        assert_eq!(loaded.page_zones, ref_zones, "{what}: zones");
        for (partition, ref_run) in ref_pages.iter().enumerate() {
            assert_eq!(loaded.pages(partition).len(), ref_run.len(), "{what}: page run");
            for (pg, (id, ref_id)) in loaded.pages(partition).iter().zip(ref_run).enumerate() {
                let (page, ref_page) = (module.page(*id), ref_module.page(*ref_id));
                for (xb, ref_xb) in page.crossbars().zip(ref_page.crossbars()) {
                    assert_eq!(xb.bits(), ref_xb.bits(), "{what}: partition {partition} page {pg}");
                }
                assert_eq!(
                    page.max_row_cell_writes(),
                    ref_page.max_row_cell_writes(),
                    "{what}: wear of partition {partition} page {pg}"
                );
            }
        }
    }

    #[test]
    fn writer_matches_the_per_record_reference() {
        let cfg = SimConfig::small_for_tests();
        let rpp = cfg.records_per_page();
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            for records in [0, 1, 5, rpp - 1, rpp, rpp + 1, 2 * rpp + 77] {
                let what = format!("{mode:?}, {records} records");
                let rel = seeded(records, 0x10AD + records as u64);
                let layout = RecordLayout::build(rel.schema(), &cfg, mode, &[]).unwrap();
                let arity = rel.schema().arity();

                // the load, before its reset: the writer's own wear shows
                let mut module = PimModule::new(cfg.clone()).unwrap();
                let mut loaded = LoadedRelation {
                    pages: vec![Vec::new(); layout.partitions()],
                    page_zones: Vec::new(),
                    records: 0,
                    records_per_page: rpp,
                };
                loaded.reserve(&mut module, records, arity).unwrap();
                let column = |attr, run, values: &mut Vec<u64>| {
                    rel.column(attr).decode_into(run, values);
                };
                let touched =
                    loaded.store(&mut module, &layout, rel.schema(), records, column).unwrap();
                assert_eq!(touched, (0..records.div_ceil(rpp)).collect::<Vec<_>>(), "{what}");
                assert_eq!(loaded.records(), records, "{what}");

                let mut ref_module = PimModule::new(cfg.clone()).unwrap();
                let page_count = records.div_ceil(rpp).max(1);
                let ref_pages: Vec<Vec<PageId>> = (0..layout.partitions())
                    .map(|_| ref_module.alloc_pages(page_count).unwrap())
                    .collect();
                let mut ref_zones = vec![ZoneMap::empty(arity); page_count];
                let everything = 0..records;
                store_per_record(
                    &mut ref_module,
                    &layout,
                    &ref_pages,
                    &mut ref_zones,
                    &rel,
                    everything,
                );
                assert_same_image(
                    (&module, &loaded),
                    (&ref_module, &ref_pages, &ref_zones),
                    &format!("{what}, load before reset"),
                );
                // and load_relation is that image with the wear reset
                let mut fresh = PimModule::new(cfg.clone()).unwrap();
                let image = load_relation(&mut fresh, &rel, &layout).unwrap();
                ref_module.reset_endurance(&ref_pages.concat());
                assert_same_image(
                    (&fresh, &image),
                    (&ref_module, &ref_pages, &ref_zones),
                    &format!("{what}, loaded"),
                );
            }
        }
    }

    #[test]
    fn insert_batches_match_the_per_record_reference() {
        let cfg = SimConfig::small_for_tests();
        let rpp = cfg.records_per_page();
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let mut rel = seeded(rpp / 2 + 3, 0xBA7C);
            let layout = RecordLayout::build(rel.schema(), &cfg, mode, &[]).unwrap();
            let arity = rel.schema().arity();
            let mut module = PimModule::new(cfg.clone()).unwrap();
            let mut loaded = load_relation(&mut module, &rel, &layout).unwrap();

            let mut ref_module = PimModule::new(cfg.clone()).unwrap();
            let mut ref_pages: Vec<Vec<PageId>> =
                (0..layout.partitions()).map(|_| ref_module.alloc_pages(1).unwrap()).collect();
            let mut ref_zones = vec![ZoneMap::empty(arity)];
            store_per_record(
                &mut ref_module,
                &layout,
                &ref_pages,
                &mut ref_zones,
                &rel,
                0..rel.len(),
            );

            // batches that start mid-page, end mid-page, end on a page
            // boundary, start on one, and cross one (or two)
            let to_boundary = rpp - (rel.len() + 7);
            for (i, batch) in [7, to_boundary, 1, rpp + 5, 2 * rpp].into_iter().enumerate() {
                let what = format!("{mode:?}, batch {i} of {batch} rows");
                let rows: Vec<Vec<u64>> = {
                    let fresh = seeded(batch, 0xF00 + i as u64);
                    (0..batch).map(|r| fresh.row(r)).collect()
                };
                let before = rel.len();
                // like run_mutation: the batch reports its own wear
                module.reset_endurance(&loaded.all_pages());
                ref_module.reset_endurance(&ref_pages.concat());
                let (_, touched) =
                    append_rows(&mut module, &layout, &mut loaded, rel.schema(), &rows).unwrap();
                for row in &rows {
                    rel.push_row(row).unwrap();
                }
                assert_eq!(rel.len(), before + batch, "{what}");
                assert_eq!(loaded.records(), rel.len(), "{what}");
                let pages = before / rpp..(rel.len() - 1) / rpp + 1;
                assert_eq!(touched, pages.collect::<Vec<_>>(), "{what}");

                while ref_zones.len() < rel.len().div_ceil(rpp) {
                    for run in &mut ref_pages {
                        run.push(ref_module.alloc_pages(1).unwrap()[0]);
                    }
                    ref_zones.push(ZoneMap::empty(arity));
                }
                store_per_record(
                    &mut ref_module,
                    &layout,
                    &ref_pages,
                    &mut ref_zones,
                    &rel,
                    before..rel.len(),
                );
                assert_same_image((&module, &loaded), (&ref_module, &ref_pages, &ref_zones), &what);
            }
        }
    }

    #[test]
    fn a_batch_with_a_bad_row_leaves_the_table_unchanged() {
        use crate::mutation::Mutation;
        use bbpim_db::plan::{Query, SelectItem};
        let (_, rel, layout) = small_setup(250);
        let mut t =
            PimTable::load(SimConfig::small_for_tests(), &rel, EngineMode::OneXb, layout).unwrap();
        // builds the d_b prefix: 61 tuples over 250 records are kept
        let by_b = Query::select([SelectItem::count("n")]).group_by(["d_b"]).build_unchecked();
        let domains = t.group_domains(&by_b).unwrap();
        assert_eq!(domains, bbpim_db::stats::group_domains(&by_b, &rel).unwrap());
        // ten good rows with a d_b no record holds — enough to need a
        // second page — then one past d_b's 6 bits, or one of the wrong
        // arity: refused by the writer and by the INSERT alike
        for bad in [vec![1, 64], vec![1]] {
            let mut rows = vec![vec![1, 62]; 10];
            rows.push(bad);
            let PimTable { module, schema, layout, loaded, .. } = &mut t;
            let err = append_rows(module, layout, loaded, schema, &rows).unwrap_err();
            assert!(matches!(err, CoreError::Db(_)), "{err}");
            let err = t.mutate(&Mutation::Insert { rows }).unwrap_err();
            assert!(matches!(err, CoreError::Db(_)), "{err}");
            assert_eq!(t.records(), 250);
            assert_eq!(t.page_count(), 1);
            assert!(t.module.try_page(PageId(1)).is_err(), "no second page was reserved");
            assert_eq!(t.zone_map(), ZoneMap::of(&rel));
            assert_eq!(t.module.max_row_cell_writes(&t.loaded.all_pages()), 0);
            assert_eq!(t.group_domains(&by_b).unwrap(), domains, "the index counted nothing");
        }
    }

    #[test]
    fn endurance_reset_after_load() {
        let (mut module, rel, layout) = small_setup(100);
        let loaded = load_relation(&mut module, &rel, &layout).unwrap();
        assert_eq!(module.max_row_cell_writes(&loaded.all_pages()), 0);
    }
}
