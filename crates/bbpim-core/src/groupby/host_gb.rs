//! host-gb: the host reads the selected records and hash-aggregates.
//!
//! The host reads the filter-result bit-vector (one line per row), then
//! the group-key and aggregate-operand chunks of every selected record —
//! with exact unique-line accounting, so dense selections amortise the
//! 32-records-per-line layout and sparse ones pay full amplification —
//! and folds each record into a hash table, evaluating **every**
//! physical aggregate of the SELECT list in the same pass (the record
//! is already in a host register; extra aggregates cost host ALU work,
//! not extra reads). Records whose key belongs to a PIM-aggregated
//! subgroup are read (the key must be seen to be skipped) but not
//! folded.

use std::collections::{BTreeSet, HashSet};

use bbpim_db::plan::PhysAgg;
use bbpim_db::stats::GroupedResult;
use bbpim_sim::timeline::Phase;

use crate::error::CoreError;
use crate::layout::{AttrPlacement, MASK_COL};
use crate::scan::Scan;

/// One host-gb run.
#[derive(Debug)]
pub struct HostGbRequest<'a> {
    /// GROUP BY attributes with placements (key order = plan order).
    pub group_placements: &'a [(String, AttrPlacement)],
    /// The physical aggregates to evaluate host-side (plan order).
    /// `Count` components contribute 1 per selected record.
    pub aggs: &'a [PhysAgg],
    /// Keys already aggregated in PIM — read but not folded.
    pub skip: &'a HashSet<Vec<u64>>,
}

impl Scan<'_> {
    /// Execute host-gb. Charges mask-read, record-read and host-compute
    /// phases and returns the aggregated tail groups — one
    /// [`GroupedResult`] per requested physical aggregate, in request
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates placement/slot failures.
    pub fn host_gb(&mut self, req: &HostGbRequest<'_>) -> Result<Vec<GroupedResult>, CoreError> {
        // 1. Filter-result bit-vector of the planned pages only (pruned
        //    pages hold no selected records and are not read).
        let mask = self.move_mask(0, MASK_COL, None)?;
        let table = &*self.table;

        // 2. Which chunks must be read per record: group keys + the union
        //    of every aggregate's operands (shared operands read once).
        let mut read_attrs: Vec<&str> =
            req.group_placements.iter().map(|(n, _)| n.as_str()).collect();
        for agg in req.aggs {
            read_attrs.extend(agg.attrs());
        }
        read_attrs.sort_unstable();
        read_attrs.dedup();
        let chunk_map = table.layout.chunks_for(read_attrs.iter().copied())?;

        // 3. Exact unique-line accounting over the selected records: a
        //    line holds one chunk of one row across the page's crossbars,
        //    so every row with a selected record costs each chunk once.
        //    Records arrive ascending, a row's records back to back.
        let cfg = table.module.config();
        let (mut rows_touched, mut last_row) = (0u64, None);
        for row in mask.ones().map(|record| record / cfg.crossbars_per_page()) {
            if last_row.replace(row) != Some(row) {
                rows_touched += 1;
            }
        }
        let chunks_per_row: usize = chunk_map.values().map(BTreeSet::len).sum();
        // Record fetches are mask-directed (data-dependent addresses):
        // latency-bound scattered reads, per the paper's host-gb behaviour.
        self.log.push(table.module.host_read_scattered_phase(rows_touched * chunks_per_row as u64));

        // 4. Hash aggregation at the host, all physical aggregates folded
        //    in one pass over the selected records.
        let mut out: Vec<GroupedResult> = vec![GroupedResult::new(); req.aggs.len()];
        for record in mask.ones() {
            let mut key = Vec::with_capacity(req.group_placements.len());
            for (name, _) in req.group_placements {
                key.push(table.read_attr(record, name)?);
            }
            if req.skip.contains(&key) {
                continue;
            }
            for (agg, grouped) in req.aggs.iter().zip(out.iter_mut()) {
                let v = match &agg.expr {
                    None => 1,
                    Some(expr) => table.eval_expr(record, expr)?,
                };
                grouped
                    .entry(key.clone())
                    .and_modify(|acc| *acc = agg.func.merge(*acc, v))
                    .or_insert(v);
            }
        }
        let per_record = cfg.host.host_agg_ns_per_record / cfg.host.threads as f64;
        self.log.push(Phase::host_compute(mask.count_ones() as f64 * per_record));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::modes::EngineMode;
    use crate::table::PimTable;
    use bbpim_db::builder::col;
    use bbpim_db::plan::{AggExpr, PhysFunc, Pred, Query, SelectItem};
    use bbpim_db::stats;
    use bbpim_sim::timeline::{PhaseKind, RunLog};

    fn table(mode: EngineMode) -> PimTable {
        let rows = (0..800).map(|i| vec![(3 * i) % 251, i % 50, i % 9, (i / 9) % 5]);
        fixture::table(mode, &[("lo_v", 8), ("lo_w", 6), ("d_g", 4), ("d_h", 3)], rows)
    }

    /// `SELECT SUM(expr) WHERE filter GROUP BY d_g, d_h`.
    fn query(t: &PimTable, filter: Pred, expr: AggExpr) -> Query {
        Query::select([SelectItem::sum("value", expr)])
            .filter(filter)
            .group_by(["d_g", "d_h"])
            .build(t.relation().schema())
            .unwrap()
    }

    /// Filter by `q`'s WHERE, then host-gb `aggs` by `q`'s keys; returns
    /// the groups and the host-gb phases alone.
    fn run(
        t: &mut PimTable,
        q: &Query,
        aggs: &[PhysAgg],
        skip: &HashSet<Vec<u64>>,
    ) -> (Vec<GroupedResult>, RunLog) {
        let mut scan = fixture::filtered(t, &q.filter);
        let layout = scan.table().layout();
        let gp: Vec<_> =
            q.group_by.iter().map(|g| (g.clone(), layout.placement(g).unwrap())).collect();
        scan.take_log();
        let req = HostGbRequest { group_placements: &gp, aggs, skip };
        (scan.host_gb(&req).unwrap(), scan.take_log())
    }

    fn oracle(t: &PimTable, q: &Query) -> GroupedResult {
        stats::column(&stats::run_oracle(q, t.relation()).unwrap(), 0)
    }

    #[test]
    fn host_gb_matches_oracle() {
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let mut t = table(mode);
            let q = query(&t, col("lo_v").lt(170u64), AggExpr::attr("lo_v"));
            let (got, log) = run(&mut t, &q, &q.physical_plan().unwrap().aggs, &HashSet::new());
            assert_eq!(got.len(), 1);
            assert_eq!(got[0], oracle(&t, &q), "{mode:?}");
            assert!(log.total_time_ns() > 0.0);
        }
    }

    #[test]
    fn multi_aggregate_host_gb_single_pass() {
        let mut t = table(EngineMode::OneXb);
        let q = query(&t, col("lo_v").lt(170u64), AggExpr::attr("lo_v"));
        let aggs = vec![
            PhysAgg { func: PhysFunc::Sum, expr: Some(AggExpr::attr("lo_v")) },
            PhysAgg { func: PhysFunc::Count, expr: None },
            PhysAgg { func: PhysFunc::Max, expr: Some(AggExpr::sub("lo_v", "lo_w")) },
        ];
        let (got, multi_log) = run(&mut t, &q, &aggs, &HashSet::new());
        assert_eq!(got.len(), 3);
        // reference per column
        let rel = t.relation();
        let mut sums = GroupedResult::new();
        let mut counts = GroupedResult::new();
        let mut maxs = GroupedResult::new();
        for row in 0..rel.len() {
            let v = rel.value(row, 0);
            if v >= 170 {
                continue;
            }
            let key = vec![rel.value(row, 2), rel.value(row, 3)];
            let d = v.wrapping_sub(rel.value(row, 1));
            *sums.entry(key.clone()).or_insert(0) += v;
            *counts.entry(key.clone()).or_insert(0) += 1;
            maxs.entry(key).and_modify(|m| *m = (*m).max(d)).or_insert(d);
        }
        assert_eq!(got[0], sums);
        assert_eq!(got[1], counts);
        assert_eq!(got[2], maxs);
        // one record-read pass: compare against a single-aggregate run
        // reading the same operand set — the multi run must not read per
        // aggregate.
        let (_, single_log) = run(&mut t, &q, &aggs[..1], &HashSet::new());
        let reads = |log: &RunLog| log.time_in(PhaseKind::HostRead);
        // the three-aggregate pass reads one extra operand (lo_w), never
        // three times the lines
        assert!(reads(&multi_log) < reads(&single_log) * 2.0);
    }

    #[test]
    fn skip_set_excludes_groups() {
        let mut t = table(EngineMode::OneXb);
        let q = query(&t, col("lo_v").lt(170u64), AggExpr::attr("lo_v"));
        let expected = oracle(&t, &q);
        let skipped_key = expected.keys().next().unwrap().clone();
        let skip = HashSet::from([skipped_key.clone()]);
        let (got, _) = run(&mut t, &q, &q.physical_plan().unwrap().aggs, &skip);
        assert!(!got[0].contains_key(&skipped_key));
        assert_eq!(got[0].len(), expected.len() - 1);
    }

    #[test]
    fn record_fetch_charges_the_unique_lines_of_the_selection() {
        // the reference: touch every selected record's chunks in a
        // deduplicating line set, record by record
        use bbpim_sim::hostmem::LineSet;
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let mut t = table(mode);
            let pred = col("lo_v").lt(40u64).or(col("d_h").eq(3u64));
            let q = query(&t, pred.clone(), AggExpr::sub("lo_v", "lo_w"));
            let (_, log) = run(&mut t, &q, &q.physical_plan().unwrap().aggs, &HashSet::new());
            let cfg = t.config();
            let chunk_map = t.layout().chunks_for(["d_g", "d_h", "lo_v", "lo_w"]).unwrap();
            let mut lines = LineSet::new();
            for (record, _) in fixture::oracle_mask(&t, &pred).iter().enumerate().filter(|m| *m.1) {
                let (pg, slot) = t.loaded().locate(record);
                for (&partition, chunks) in &chunk_map {
                    let page_id = t.loaded().pages(partition)[pg];
                    let row = t.module().page(page_id).record_slot(slot).unwrap().row;
                    for &chunk in chunks {
                        let (lo, width) = (chunk * cfg.read_width_bits, cfg.read_width_bits);
                        lines.touch_bit_range(cfg, page_id.0, row, lo, width);
                    }
                }
            }
            assert!(!lines.is_empty());
            let fetch = t.module().host_read_scattered_phase(lines.len());
            assert!(log.phases().contains(&fetch), "{mode:?}: {} lines", lines.len());
        }
    }

    #[test]
    fn denser_selection_reads_fewer_lines_per_record() {
        // r=1.0: every record selected; the read time is positive yet far
        // below selected × s × line time
        let mut t = table(EngineMode::OneXb);
        let q = query(&t, Pred::always(), AggExpr::attr("lo_v"));
        let (dense, dense_log) = run(&mut t, &q, &q.physical_plan().unwrap().aggs, &HashSet::new());
        assert_eq!(dense[0].len(), stats::run_oracle(&q, t.relation()).unwrap().len());
        assert!(dense_log.time_in(PhaseKind::HostRead) > 0.0);
    }

    #[test]
    fn expression_evaluated_host_side() {
        let mut t = table(EngineMode::OneXb);
        let q = query(&t, col("lo_v").gt(60u64), AggExpr::sub("lo_v", "lo_w"));
        let (got, _) = run(&mut t, &q, &q.physical_plan().unwrap().aggs, &HashSet::new());
        assert_eq!(got[0], oracle(&t, &q));
    }
}
