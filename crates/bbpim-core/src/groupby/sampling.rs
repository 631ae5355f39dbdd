//! One-page sampling for subgroup-size estimation (Section IV).
//!
//! After the filter, the host reads the mask and the group-key chunks of
//! *one* 2 MB page (32 K records in the paper's geometry) and scales the
//! per-key counts up to the whole relation. The estimate drives both
//! `r(k)` in Eq. (3) and the ordering of subgroups by size.

use bbpim_db::plan::{PhysAgg, PhysFunc};
use bbpim_db::stats::GroupedResult;

use crate::error::CoreError;
use crate::filter_exec::ones_in_col;
use crate::layout::{Projection, MASK_COL};
use crate::record::{fold_record, ScatteredRead};
use crate::scan::Scan;

/// What the sample folds per key: a record count.
const COUNT: &[PhysAgg] = &[PhysAgg { func: PhysFunc::Count, expr: None }];

/// Subgroup-size estimate from one sampled page.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleEstimate {
    /// Records in the sample (≤ one page).
    pub sample_records: usize,
    /// Sampled records passing the filter.
    pub sample_selected: usize,
    /// Estimated selectivity of the query.
    pub est_selectivity: f64,
    /// Keys seen in the sample with their estimated *total* record
    /// counts, largest first (deterministic tie-break by key).
    pub groups: Vec<(Vec<u64>, f64)>,
    /// Estimated total selected records in the relation.
    pub est_selected_total: f64,
}

impl SampleEstimate {
    /// Estimated share of selected records belonging to the i-th
    /// largest sampled subgroup (0 for indices past the sample).
    pub fn share(&self, i: usize) -> f64 {
        if self.est_selected_total <= 0.0 {
            return 0.0;
        }
        self.groups.get(i).map(|(_, est)| est / self.est_selected_total).unwrap_or(0.0)
    }

    /// `r(k)` of Eq. (3): estimated ratio of records (to the whole
    /// relation) left for host-gb after the `k` largest subgroups go to
    /// PIM.
    pub fn r_of_k(&self, k: usize) -> f64 {
        let covered: f64 = (0..k).map(|i| self.share(i)).sum();
        (self.est_selectivity * (1.0 - covered)).max(0.0)
    }

    /// Subgroups observed in the sample (Table II's "subgroups in
    /// sample").
    pub fn seen(&self) -> usize {
        self.groups.len()
    }
}

impl Scan<'_> {
    /// Read one candidate page's mask and group keys, estimate subgroup
    /// sizes. The sampled page is the plan's first candidate — sampling
    /// a pruned page would see only mask bits the filter never wrote.
    /// Its selected records come from the mask column's words through
    /// the per-page helper `ones_in_col`, which [`Scan::mask`] shares;
    /// each one's keys are then read with [`crate::PimTable::read`].
    ///
    /// Charges the mask lines (one per row) and the key-chunk lines of
    /// the selected sampled records.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures; the plan must be non-empty.
    pub fn sample(&mut self, keys: &Projection) -> Result<SampleEstimate, CoreError> {
        let table = &*self.table;
        let (module, loaded) = (&table.module, &table.loaded);
        let sample_idx = self
            .pages
            .first()
            .ok_or_else(|| CoreError::Unsupported("sampling an empty page plan".into()))?;
        let sampled = loaded.page_records(sample_idx);
        let sample_records = sampled.len();

        // Mask of the sampled page (partition 0): one line per occupied
        // row, read raw even under compressed mask moves.
        let cfg = module.config();
        self.log
            .push(module.host_read_phase(sample_records.div_ceil(cfg.crossbars_per_page()) as u64));
        let mask_page = module.page(loaded.pages(0)[sample_idx]);

        // Group-key chunks of the selected sampled records, counted per key.
        let mut fetched = ScatteredRead::new(cfg, loaded.records());
        let mut counts = [GroupedResult::new()];
        let (mut key, mut sample_selected) = (Vec::new(), 0usize);
        for slot in ones_in_col(mask_page, MASK_COL, sample_records) {
            let record = sampled.start + slot;
            table.read(keys, record, &mut key)?;
            fetched.mark(record);
            fold_record(COUNT, &mut counts, &key, &[]);
            sample_selected += 1;
        }
        self.log.push(module.host_read_scattered_phase(fetched.lines(keys.chunks_per_row())));
        let [counts] = counts;

        // Selected records exist only on candidate pages (pruned pages are
        // proven matchless), so the sample scales up to the *candidate*
        // record count, not the whole relation.
        let candidate_records: usize =
            self.pages.indices().iter().map(|&idx| loaded.page_records(idx).len()).sum();
        // (a sampled page with no records means an empty relation)
        let per_sampled = |n: usize| n as f64 / sample_records.max(1) as f64;
        let scale = per_sampled(candidate_records);
        let mut groups: Vec<(Vec<u64>, f64)> =
            counts.into_iter().map(|(k, c)| (k, c as f64 * scale)).collect();
        groups.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        Ok(SampleEstimate {
            sample_records,
            sample_selected,
            est_selectivity: per_sampled(sample_selected),
            groups,
            est_selected_total: sample_selected as f64 * scale,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::modes::EngineMode;
    use crate::planner::PageSet;
    use crate::table::PimTable;
    use bbpim_db::builder::col;
    use bbpim_db::plan::Pred;

    /// Skewed groups (group 0 gets half the rows), filtered, sampled.
    fn filter_and_sample(filter: Pred) -> SampleEstimate {
        let rows = (0..1000).map(|i| vec![i % 250, if i % 2 == 0 { 0 } else { 1 + (i % 7) }]);
        let (mut t, _) = fixture::table(EngineMode::OneXb, &[("lo_v", 8), ("d_g", 4)], rows);
        let mut scan = fixture::filtered(&mut t, &filter);
        let keys = scan.table().layout().project(["d_g"]).unwrap();
        scan.sample(&keys).unwrap()
    }

    /// The sample as it was before the word scan: one mask-bit read per
    /// slot of the sampled page's records.
    fn per_slot_reference(scan: &mut Scan<'_>, keys: &Projection) -> SampleEstimate {
        let table = &*scan.table;
        let (module, loaded) = (&table.module, &table.loaded);
        let sample_idx = scan.pages.first().unwrap();
        let sampled = loaded.page_records(sample_idx);
        let sample_records = sampled.len();
        let cfg = module.config();
        scan.log
            .push(module.host_read_phase(sample_records.div_ceil(cfg.crossbars_per_page()) as u64));
        let mask_page = module.page(loaded.pages(0)[sample_idx]);
        let mut fetched = ScatteredRead::new(cfg, loaded.records());
        let mut counts = [GroupedResult::new()];
        let (mut key, mut sample_selected) = (Vec::new(), 0usize);
        for (slot, record) in sampled.enumerate() {
            if mask_page.read_record_bits(slot, MASK_COL, 1).unwrap() == 1 {
                table.read(keys, record, &mut key).unwrap();
                fetched.mark(record);
                fold_record(COUNT, &mut counts, &key, &[]);
                sample_selected += 1;
            }
        }
        scan.log.push(module.host_read_scattered_phase(fetched.lines(keys.chunks_per_row())));
        let [counts] = counts;
        let candidate_records: usize =
            scan.pages.indices().iter().map(|&idx| loaded.page_records(idx).len()).sum();
        let per_sampled = |n: usize| n as f64 / sample_records.max(1) as f64;
        let scale = per_sampled(candidate_records);
        let mut groups: Vec<(Vec<u64>, f64)> =
            counts.into_iter().map(|(k, c)| (k, c as f64 * scale)).collect();
        groups.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        SampleEstimate {
            sample_records,
            sample_selected,
            est_selectivity: per_sampled(sample_selected),
            groups,
            est_selected_total: sample_selected as f64 * scale,
        }
    }

    #[test]
    fn the_word_scan_equals_the_per_slot_reference() {
        // three pages of 256 records on the small geometry, the last
        // holding 88: slots 88..256 are its padding
        let rows = (0..600u64).map(|i| vec![i % 250, if i % 3 == 0 { 0 } else { 1 + (i % 7) }]);
        let rows: Vec<Vec<u64>> = rows.collect();
        for mode in [EngineMode::OneXb, EngineMode::TwoXb, EngineMode::PimDb] {
            let (mut t, _) = fixture::table(mode, &[("lo_v", 8), ("d_g", 4)], rows.clone());
            let pages = t.page_count();
            assert_eq!(pages, 3);
            let keys = t.layout().project(["d_g"]).unwrap();
            for (plan, filter) in [
                (PageSet::all(pages), col("lo_v").lt(125u64)),
                (PageSet::from_indices(vec![2], pages), col("lo_v").gt(40u64)),
                (PageSet::from_indices(vec![1, 2], pages), Pred::always()),
            ] {
                let last = plan.first() == Some(2);
                let mut scan = t.begin(plan, None);
                fixture::filter(&mut scan, &filter);
                if last {
                    // set mask cells no record owns
                    let PimTable { module, loaded, .. } = &mut *scan.table;
                    let page = module.page_mut(loaded.pages(0)[2]);
                    for slot in [88, 89, 150, 255] {
                        let at = page.record_slot(slot).unwrap();
                        let xb = page.crossbars_mut().nth(at.crossbar).unwrap();
                        xb.write_row_bits(at.row, MASK_COL, 1, 1);
                    }
                }
                scan.take_log();
                let got = scan.sample(&keys).unwrap();
                let got_log = scan.take_log();
                let want = per_slot_reference(&mut scan, &keys);
                let what = format!("{mode:?}, {filter}, last page first: {last}");
                assert_eq!(got, want, "{what}");
                assert_eq!(got_log, scan.take_log(), "{what}: charged phases");
                assert!(got.sample_selected > 0, "{what}: nothing sampled");
            }
        }
    }

    #[test]
    fn estimates_ordered_and_head_heavy() {
        let est = filter_and_sample(Pred::always());
        assert!(est.sample_selected > 0);
        assert!((est.est_selectivity - 1.0).abs() < 1e-9);
        // group 0 holds ~half the records and must rank first
        assert_eq!(est.groups[0].0, vec![0u64]);
        assert!(est.share(0) > 0.3);
        for w in est.groups.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn r_of_k_decreases_and_respects_selectivity() {
        let est = filter_and_sample(col("lo_v").lt(125u64));
        let r0 = est.r_of_k(0);
        assert!((r0 - est.est_selectivity).abs() < 1e-9);
        let mut prev = r0;
        for k in 1..=est.seen() {
            let rk = est.r_of_k(k);
            assert!(rk <= prev + 1e-12, "r(k) must be non-increasing");
            prev = rk;
        }
        // past the sampled groups r stays flat
        assert!((est.r_of_k(est.seen() + 5) - est.r_of_k(est.seen())).abs() < 1e-12);
    }

    #[test]
    fn empty_selection_gives_zero_estimates() {
        // lo_v < 0 is impossible
        let est = filter_and_sample(col("lo_v").lt(0u64));
        assert_eq!(est.sample_selected, 0);
        assert_eq!(est.seen(), 0);
        assert_eq!(est.r_of_k(0), 0.0);
        assert_eq!(est.share(0), 0.0);
    }

    #[test]
    fn estimated_counts_scale_to_relation() {
        let est = filter_and_sample(Pred::always());
        // sample is the full first page; totals scale by records/sample
        let total_est: f64 = est.groups.iter().map(|(_, c)| c).sum();
        assert!((total_est - 1000.0).abs() / 1000.0 < 0.25, "total {total_est}");
    }
}
