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
//! folded. It is the one host gather of both storage models: a star
//! join's dimension keys are read through [`DimProbe`]s, on each
//! dimension's own module and by the same reader, line rule and fold.

use std::collections::HashSet;

use bbpim_db::plan::PhysAgg;
use bbpim_db::ssb::star::DimMeta;
use bbpim_db::stats::GroupedResult;
use bbpim_sim::hostmem;
use bbpim_sim::timeline::Phase;

use crate::error::CoreError;
use crate::layout::MASK_COL;
use crate::record::{fold_record, ScatteredRead};
use crate::scan::Scan;
use crate::table::PimTable;

/// A dimension joined at gather time: the GROUP BY `keys` it serves are
/// read off its `table`, at the row [`DimMeta::row`] finds for the fact
/// record's foreign key `meta.fk`.
#[derive(Debug)]
pub struct DimProbe<'d> {
    pub table: &'d PimTable,
    pub meta: &'d DimMeta,
    /// In GROUP BY order.
    pub keys: Vec<&'d str>,
}

impl Scan<'_> {
    /// Execute host-gb: group the selected records by `group_by` (key
    /// order = plan order) and evaluate the physical aggregates `aggs`
    /// host-side, leaving out the keys in `skip` — already aggregated
    /// in PIM, read but not folded — and reading the keys a probe
    /// serves off its dimension. Charges mask-read, record-read and
    /// host-compute phases and returns the aggregated tail groups — one
    /// [`GroupedResult`] per requested physical aggregate, in request
    /// order.
    ///
    /// # Errors
    ///
    /// Placement/slot failures; [`bbpim_db::DbError::DanglingKey`] for a
    /// foreign key a probed dimension does not hold.
    pub fn host_gb(
        &mut self,
        group_by: &[String],
        aggs: &[PhysAgg],
        skip: &HashSet<Vec<u64>>,
        probes: &[DimProbe<'_>],
    ) -> Result<Vec<GroupedResult>, CoreError> {
        // 1. Filter-result bit-vector of the planned pages only (pruned
        //    pages hold no selected records and are not read).
        let mask = self.move_mask(0, MASK_COL, None)?;
        let table = &*self.table;

        // 2. What is read per record: on probe `p`'s dimension the keys
        //    it serves (read `1 + p`); on this table (read 0) the other
        //    group keys, each probe's FK and every aggregate's operands
        //    (the chunks they share are charged once). `sources` places
        //    each group key as (read, position).
        let fetched = |t: &PimTable| ScatteredRead::new(t.config(), t.records());
        let mut reads = Vec::with_capacity(1 + probes.len());
        for probe in probes {
            let projection = probe.table.layout.project(probe.keys.iter().copied())?;
            reads.push((projection, fetched(probe.table)));
        }
        let (mut attrs, mut sources) = (Vec::new(), Vec::with_capacity(group_by.len()));
        for g in group_by {
            let at = |probe: &DimProbe| probe.keys.iter().position(|k| k == g);
            let served = probes.iter().enumerate().find_map(|(p, probe)| Some((1 + p, at(probe)?)));
            sources.push(served.unwrap_or((0, attrs.len())));
            attrs.extend(served.is_none().then_some(g.as_str()));
        }
        let fks_at = attrs.len();
        attrs.extend(probes.iter().map(|probe| probe.meta.fk));
        let operands_at = attrs.len();
        let operands = aggs.iter().flat_map(PhysAgg::attrs);
        reads.insert(0, (table.layout.project(attrs.into_iter().chain(operands))?, fetched(table)));

        // 3. Hash aggregation at the host, all physical aggregates folded
        //    in one pass over the selected records.
        let mut per_agg = vec![GroupedResult::new(); aggs.len()];
        let (mut values, mut key) = (vec![Vec::new(); reads.len()], Vec::new());
        for record in mask.ones() {
            let (projection, fetched) = &mut reads[0];
            table.read(projection, record, &mut values[0])?;
            fetched.mark(record);
            for (p, probe) in probes.iter().enumerate() {
                let row = probe.meta.row(values[0][fks_at + p], probe.table.loaded.records())?;
                let (projection, fetched) = &mut reads[1 + p];
                probe.table.read(projection, row, &mut values[1 + p])?;
                fetched.mark(row);
            }
            key.clear();
            key.extend(sources.iter().map(|&(read, at)| values[read][at]));
            if !skip.contains(&key) {
                fold_record(aggs, &mut per_agg, &key, &values[0][operands_at..]);
            }
        }

        // 4. Record fetches are mask-directed (data-dependent addresses):
        //    latency-bound scattered reads, per the paper's host-gb
        //    behaviour, over the unique lines of the selection and of the
        //    probed rows, each on its own module's rows.
        let lines = reads.iter().map(|(projection, read)| read.lines(projection.chunks_per_row()));
        self.log.push(table.module.host_read_scattered_phase(lines.sum()));
        let fold_ns = hostmem::fold_time_ns(table.module.config(), mask.count_ones());
        self.log.push(Phase::host_compute(fold_ns));
        Ok(per_agg)
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
    use bbpim_db::{stats, Relation};
    use bbpim_sim::timeline::{PhaseKind, RunLog};

    fn table(mode: EngineMode) -> (PimTable, Relation) {
        let rows = (0..800).map(|i| vec![(3 * i) % 251, i % 50, i % 9, (i / 9) % 5]);
        fixture::table(mode, &[("lo_v", 8), ("lo_w", 6), ("d_g", 4), ("d_h", 3)], rows)
    }

    /// `SELECT SUM(expr) WHERE filter GROUP BY d_g, d_h`.
    fn query(t: &PimTable, filter: Pred, expr: AggExpr) -> Query {
        Query::select([SelectItem::sum("value", expr)])
            .filter(filter)
            .group_by(["d_g", "d_h"])
            .build(t.schema())
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
        scan.take_log();
        (scan.host_gb(&q.group_by, aggs, skip, &[]).unwrap(), scan.take_log())
    }

    fn oracle(rel: &Relation, q: &Query) -> GroupedResult {
        stats::column(&stats::run_oracle(q, rel).unwrap(), 0)
    }

    #[test]
    fn host_gb_matches_oracle() {
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let (mut t, rel) = table(mode);
            let q = query(&t, col("lo_v").lt(170u64), AggExpr::attr("lo_v"));
            let (got, log) = run(&mut t, &q, &q.physical_plan().unwrap().aggs, &HashSet::new());
            assert_eq!(got.len(), 1);
            assert_eq!(got[0], oracle(&rel, &q), "{mode:?}");
            assert!(log.total_time_ns() > 0.0);
        }
    }

    #[test]
    fn multi_aggregate_host_gb_single_pass() {
        let (mut t, rel) = table(EngineMode::OneXb);
        let q = query(&t, col("lo_v").lt(170u64), AggExpr::attr("lo_v"));
        let aggs = vec![
            PhysAgg { func: PhysFunc::Sum, expr: Some(AggExpr::attr("lo_v")) },
            PhysAgg { func: PhysFunc::Count, expr: None },
            PhysAgg { func: PhysFunc::Max, expr: Some(AggExpr::sub("lo_v", "lo_w")) },
        ];
        let (got, multi_log) = run(&mut t, &q, &aggs, &HashSet::new());
        assert_eq!(got.len(), 3);
        // reference per column
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
        let (mut t, rel) = table(EngineMode::OneXb);
        let q = query(&t, col("lo_v").lt(170u64), AggExpr::attr("lo_v"));
        let expected = oracle(&rel, &q);
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
            let (mut t, rel) = table(mode);
            let pred = col("lo_v").lt(40u64).or(col("d_h").eq(3u64));
            let q = query(&t, pred.clone(), AggExpr::sub("lo_v", "lo_w"));
            let (_, log) = run(&mut t, &q, &q.physical_plan().unwrap().aggs, &HashSet::new());
            let mut lines = LineSet::new();
            for (record, _) in fixture::oracle_mask(&rel, &pred).iter().enumerate().filter(|m| *m.1)
            {
                let (pg, slot) = t.loaded().locate(record);
                for attr in ["d_g", "d_h", "lo_v", "lo_w"] {
                    let p = t.layout().placement(attr).unwrap();
                    let page_id = t.loaded().pages(p.partition)[pg];
                    let row = t.module().page(page_id).record_slot(slot).unwrap().row;
                    lines.touch_bit_range(t.config(), page_id.0, row, p.range.lo, p.range.width);
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
        let (mut t, rel) = table(EngineMode::OneXb);
        let q = query(&t, Pred::always(), AggExpr::attr("lo_v"));
        let (dense, dense_log) = run(&mut t, &q, &q.physical_plan().unwrap().aggs, &HashSet::new());
        assert_eq!(dense[0].len(), stats::run_oracle(&q, &rel).unwrap().len());
        assert!(dense_log.time_in(PhaseKind::HostRead) > 0.0);
    }

    #[test]
    fn expression_evaluated_host_side() {
        let (mut t, rel) = table(EngineMode::OneXb);
        let q = query(&t, col("lo_v").gt(60u64), AggExpr::sub("lo_v", "lo_w"));
        let (got, _) = run(&mut t, &q, &q.physical_plan().unwrap().aggs, &HashSet::new());
        assert_eq!(got[0], oracle(&rel, &q));
    }
}
