//! The host's read path to stored records: one reader, one unique-line
//! rule, one fold — and the unpriced decoder the GROUP-BY domain index
//! and the star planner read the image through.
//!
//! The paper's host reads selected records back in two places — the
//! one-page sample and host-gb of Section IV, which on a star join also
//! probes dimension rows through their foreign keys — and each is
//! "which records, which [`Projection`], which charge" over the
//! primitives here: [`PimTable::read`] turns a record into the
//! projection's values, [`ScatteredRead`] prices the fetch, and
//! [`fold_record`] folds key and operand values into the per-aggregate
//! groups. (The write path — load and INSERT — is
//! [`crate::loader`].)

use std::sync::PoisonError;

use bbpim_db::domain::RecordSink;
use bbpim_db::plan::{AggExpr, PhysAgg, Query};
use bbpim_db::stats::GroupedResult;
use bbpim_sim::config::SimConfig;
use bbpim_sim::maskwire::PackedBits;
use bbpim_sim::SimError;

use crate::error::CoreError;
use crate::layout::Projection;
use crate::table::PimTable;

impl PimTable {
    /// The one reader: the projection's values of one record, straight
    /// from the stored bits, into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// [`SimError::RowOutOfRange`] for a record past the data — padding
    /// slots and unallocated pages are not records.
    pub fn read(
        &self,
        projection: &Projection,
        record: usize,
        out: &mut Vec<u64>,
    ) -> Result<(), CoreError> {
        let records = self.loaded.records();
        if record >= records {
            return Err(SimError::RowOutOfRange { row: record, rows: records }.into());
        }
        let (pg, slot) = self.loaded.locate(record);
        out.clear();
        for p in projection.placements() {
            let page = self.module.page(self.loaded.pages(p.partition)[pg]);
            out.push(page.read_record_bits(slot, p.range.lo, p.range.width)?);
        }
        Ok(())
    }

    /// The unpriced decoder: the projection's values of every record, in
    /// record order, straight from the stored bits, handed to `sink`
    /// until it breaks. The image is read a page and a column at a time;
    /// host metadata — what the domain index and the star planner read —
    /// so nothing is charged.
    ///
    /// # Errors
    ///
    /// Substrate failures reading a page.
    pub fn decode(
        &self,
        projection: &Projection,
        sink: &mut RecordSink<'_>,
    ) -> Result<(), CoreError> {
        let width = projection.placements().len();
        let (mut columns, mut values) = (vec![Vec::new(); width], vec![0; width]);
        for pg in 0..self.loaded.page_count() {
            let run = self.loaded.page_records(pg);
            for (column, p) in columns.iter_mut().zip(projection.placements()) {
                let page = self.module.page(self.loaded.pages(p.partition)[pg]);
                page.read_records(p.range.lo, p.range.width, run.len(), column)?;
            }
            for slot in 0..run.len() {
                values.iter_mut().zip(&columns).for_each(|(v, column)| *v = column[slot]);
                if sink(&values).is_break() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Per GROUP BY key of `query`, the values it can take under the
    /// query's same-prefix constraints, from the domain index
    /// ([`bbpim_db::domain::DomainIndex`]). Where the index reads the
    /// image, it reads it through [`PimTable::decode`].
    ///
    /// # Errors
    ///
    /// Resolution and placement failures.
    pub fn group_domains(&self, query: &Query) -> Result<Vec<Vec<u64>>, CoreError> {
        let decode = |attrs: &[usize], sink: &mut RecordSink<'_>| -> Result<(), CoreError> {
            let names = attrs.iter().map(|&a| self.schema.attrs()[a].name.as_str());
            self.decode(&self.layout.project(names)?, sink)
        };
        let mut index = self.domains.lock().unwrap_or_else(PoisonError::into_inner);
        index.domains(query, &self.schema, self.records(), decode)
    }
}

/// The one unique-line rule: the cache lines behind a scattered read of
/// the records [`ScatteredRead::mark`]ed. A line holds one chunk of one
/// crossbar row across the page's crossbars (Section V-B: reading one
/// record brings its 31 row siblings along), so reading `s` chunks of
/// each costs `distinct(record / crossbars_per_page) × s` — whatever the
/// order of the records and however often one repeats (an ascending
/// selection, one sampled page, the probed rows of a foreign key).
#[derive(Debug, Clone)]
pub struct ScatteredRead {
    per_row: usize,
    rows: PackedBits,
}

impl ScatteredRead {
    /// Nothing read yet, of a table of `records` records.
    pub fn new(cfg: &SimConfig, records: usize) -> Self {
        let per_row = cfg.crossbars_per_page();
        Self { per_row, rows: PackedBits::zeros(records.div_ceil(per_row)) }
    }

    /// Read one record.
    ///
    /// # Panics
    ///
    /// Panics on a record past the table.
    pub fn mark(&mut self, record: usize) {
        self.rows.set(record / self.per_row);
    }

    /// Lines fetched when `chunks_per_row` chunks of every marked
    /// record are read.
    pub fn lines(&self, chunks_per_row: usize) -> u64 {
        self.rows.count_ones() * chunks_per_row as u64
    }
}

/// The one fold of host-read records into groups: fold one record —
/// its group `key` and its `operands`, the values of every aggregate's
/// [`PhysAgg::attrs`] in plan order — into `per_agg`, one
/// [`GroupedResult`] per physical aggregate of the SELECT list (`Count`
/// contributes 1 per record). A caller projects its key attributes
/// followed by those operand attributes; an operand two aggregates
/// share is read twice but, sharing its chunks, charged once.
pub fn fold_record(aggs: &[PhysAgg], per_agg: &mut [GroupedResult], key: &[u64], operands: &[u64]) {
    let mut operands = operands.iter();
    let mut next = || *operands.next().expect("one value per operand");
    for (agg, grouped) in aggs.iter().zip(per_agg) {
        let v = match &agg.expr {
            None => 1,
            Some(AggExpr::Attr(_)) => next(),
            Some(AggExpr::Mul(..)) => next().wrapping_mul(next()),
            Some(AggExpr::Sub(..)) => next().wrapping_sub(next()),
        };
        match grouped.get_mut(key) {
            Some(acc) => *acc = agg.func.merge(*acc, v),
            None => drop(grouped.insert(key.to_vec(), v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::modes::EngineMode;
    use bbpim_sim::hostmem::{LineAddr, LineSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference: touch every chunk of every record's row in a
    /// deduplicating line set, record by record.
    fn line_set(cfg: &SimConfig, records: &[usize], chunks_per_row: usize) -> u64 {
        let mut lines = LineSet::new();
        for record in records {
            let (page, slot) = (record / cfg.records_per_page(), record % cfg.records_per_page());
            for chunk in 0..chunks_per_row {
                lines.touch(LineAddr { page, row: slot / cfg.crossbars_per_page(), chunk });
            }
        }
        lines.len()
    }

    #[test]
    fn line_rule_matches_the_line_set_on_seeded_selections() {
        for cfg in [SimConfig::small_for_tests(), SimConfig::default()] {
            let mut rng = StdRng::seed_from_u64(0x11E5);
            let records = 3 * cfg.records_per_page() + 17;
            let sparse: Vec<usize> =
                (0..records).filter(|_| rng.gen_range(0u32..97) == 0).collect();
            let one_page: Vec<usize> = (cfg.records_per_page()..2 * cfg.records_per_page())
                .filter(|_| rng.gen_range(0u32..5) == 0)
                .collect();
            // an FK probe: unordered, hot rows over and over
            let probe: Vec<usize> = (0..4000)
                .map(|_| match rng.gen_range(0u32..3) {
                    0 => rng.gen_range(0..records),
                    _ => rng.gen_range(0..40),
                })
                .collect();
            let selections =
                [vec![], (0..records).collect(), sparse, one_page, probe, vec![records - 1]];
            for (i, selection) in selections.iter().enumerate() {
                for s in [0, 1, 3, 8] {
                    let mut read = ScatteredRead::new(&cfg, records);
                    selection.iter().for_each(|&record| read.mark(record));
                    assert_eq!(
                        read.lines(s),
                        line_set(&cfg, selection, s),
                        "selection {i}, {s} chunks per row, {} rows per crossbar",
                        cfg.crossbar_rows
                    );
                }
            }
        }
    }

    #[test]
    fn reading_past_the_data_is_an_error() {
        let rows = (0..300).map(|i| vec![i % 251, i % 61]);
        let (t, _) = fixture::table(EngineMode::TwoXb, &[("lo_a", 8), ("d_b", 6)], rows);
        assert_eq!(t.read_attr(299, "lo_a").unwrap(), 299 % 251);
        assert_eq!(t.read_attr(299, "d_b").unwrap(), 299 % 61);
        // a padding slot of the last page, and a page that does not exist
        for record in [300, 400, 5000, usize::MAX] {
            for attr in ["lo_a", "d_b"] {
                let err = t.read_attr(record, attr).unwrap_err();
                let expected = SimError::RowOutOfRange { row: record, rows: 300 };
                assert_eq!(err, CoreError::Sim(expected), "record {record}");
            }
        }
    }

    #[test]
    fn fold_evaluates_every_aggregate_per_key() {
        use bbpim_db::plan::PhysFunc;
        let aggs = [
            PhysAgg { func: PhysFunc::Sum, expr: Some(AggExpr::mul("a", "b")) },
            PhysAgg { func: PhysFunc::Count, expr: None },
            PhysAgg { func: PhysFunc::Min, expr: Some(AggExpr::sub("b", "a")) },
            PhysAgg { func: PhysFunc::Max, expr: Some(AggExpr::attr("a")) },
        ];
        let mut per_agg = vec![GroupedResult::new(); aggs.len()];
        for (key, a, b) in [(1, 3, 5), (2, 7, 7), (1, 4, 2)] {
            fold_record(&aggs, &mut per_agg, &[key], &[a, b, b, a, a]);
        }
        let of = |pairs: &[(u64, u64)]| pairs.iter().map(|(k, v)| (vec![*k], *v)).collect();
        let expected: Vec<GroupedResult> = vec![
            of(&[(1, 15 + 8), (2, 49)]),
            of(&[(1, 2), (2, 1)]),
            of(&[(1, 2), (2, 0)]),
            of(&[(1, 4), (2, 7)]),
        ];
        assert_eq!(per_agg, expected);
    }
}
