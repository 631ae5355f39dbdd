//! pim-gb: aggregate one subgroup entirely in PIM.
//!
//! For each assigned subgroup key, a bulk-bitwise program ANDs the
//! group-key equality with the saved query mask into the group-mask
//! column **once**; every physical aggregate of the SELECT list then
//! reduces its value under that shared mask. The latency is independent
//! of the subgroup's record count — the property the hybrid GROUP-BY
//! exploits for large subgroups — and extra aggregates cost extra
//! reductions, not extra mask programs.
//!
//! Under `two-xb` the group keys live in the dimension partition while
//! the aggregated values live in the fact partition, so *every
//! subgroup* pays a mask transfer through the host — once per subgroup,
//! shared by all aggregates (the worst-case-partitioning overhead of
//! Section V-A).

use bbpim_db::plan::PhysFunc;
use bbpim_sim::compiler::ColRange;

use crate::agg_exec::AggInput;
use crate::error::CoreError;
use crate::filter_exec::{build_conjunction_program, RangeTerm};
use crate::layout::{Projection, GROUP_MASK_COL, MASK_COL, TRANSFER_COL, VALID_COL};
use crate::scan::Scan;

/// One physical aggregate prepared for in-PIM GROUP BY.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreparedAgg {
    /// `COUNT` — read off the shared group mask (count register /
    /// popcount), no value input.
    Count,
    /// A value reduction over a materialised input.
    Reduce {
        /// The mergeable component.
        func: PhysFunc,
        /// The (possibly materialised) value columns.
        input: AggInput,
    },
}

/// One PIM-aggregated subgroup: key, per-aggregate values, matching
/// records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PimGbEntry {
    /// Group key (plan order).
    pub key: Vec<u64>,
    /// One value per prepared aggregate, in request order.
    pub values: Vec<u64>,
    /// Records that matched — produced by the aggregation pass's count
    /// register (SQL needs to distinguish an empty subgroup from a zero
    /// sum), charged as part of the same PIM request.
    pub count: u64,
}

impl Scan<'_> {
    /// Aggregate each `key` in PIM; returns one entry per key with
    /// every prepared aggregate's value. The group mask is formed once
    /// per key and shared across aggregates.
    ///
    /// `mask_scratch` is the free scratch of the partition holding the
    /// query/group masks (past any materialised expression values).
    ///
    /// # Errors
    ///
    /// Propagates compiler/simulator failures;
    /// [`CoreError::Unsupported`] when group attributes or aggregate
    /// inputs span partitions.
    pub fn pim_gb(
        &mut self,
        group_by: &Projection,
        keys: &[Vec<u64>],
        aggs: &[PreparedAgg],
        mask_scratch: ColRange,
    ) -> Result<Vec<PimGbEntry>, CoreError> {
        // The partition holding the aggregated values (and the final group
        // mask). With no value reductions (pure COUNT) it is the fact
        // partition 0, where the query mask lives.
        let fact_partition = aggs
            .iter()
            .find_map(|a| match a {
                PreparedAgg::Reduce { input, .. } => Some(input.partition),
                PreparedAgg::Count => None,
            })
            .unwrap_or(0);
        if aggs.iter().any(
            |a| matches!(a, PreparedAgg::Reduce { input, .. } if input.partition != fact_partition),
        ) {
            return Err(CoreError::Unsupported("aggregate inputs spanning partitions".into()));
        }
        // The query mask only exists in partition 0 (the filter's contract);
        // aggregating a value stored in another partition would AND the
        // group key with a column that never saw the fact-side predicates.
        if fact_partition != 0 {
            return Err(CoreError::Unsupported(
                "aggregating dimension-partition attributes (the query mask lives in the fact \
                 partition)"
                    .into(),
            ));
        }
        let group_by = group_by.placements();
        let key_partition = group_by.first().map_or(fact_partition, |p| p.partition);
        if group_by.iter().any(|p| p.partition != key_partition) {
            return Err(CoreError::Unsupported("GROUP BY attributes spanning partitions".into()));
        }

        let fact_pages = self.pages.len();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let eq_terms: Vec<RangeTerm> = group_by
                .iter()
                .zip(key)
                .map(|(p, &v)| RangeTerm { range: p.range, runs: vec![(v, v)] })
                .collect();

            if key_partition == fact_partition {
                // Same crossbar: one program forms the group mask.
                let prog = build_conjunction_program(
                    mask_scratch,
                    &eq_terms,
                    &[MASK_COL],
                    GROUP_MASK_COL,
                    false,
                )?;
                self.exec(fact_partition, &prog)?;
            } else {
                // two-xb: key equality in the dimension partition…
                let prog = build_conjunction_program(
                    self.table.layout.scratch(key_partition),
                    &eq_terms,
                    &[VALID_COL],
                    GROUP_MASK_COL,
                    false,
                )?;
                self.exec(key_partition, &prog)?;
                // …travels through the host per subgroup (compressed wire
                // format when the policy allows)…
                self.move_mask(key_partition, GROUP_MASK_COL, Some(fact_partition))?;
                // …and combines with the query mask in the fact partition.
                let prog = build_conjunction_program(
                    mask_scratch,
                    &[],
                    &[MASK_COL, TRANSFER_COL],
                    GROUP_MASK_COL,
                    false,
                )?;
                self.exec(fact_partition, &prog)?;
            }

            // One reduction per physical aggregate under the shared mask;
            // the count rides the first reduction's count register (a
            // COUNT-only plan reads the mask popcount lines instead).
            let mut values = vec![0u64; aggs.len()];
            let mut count: Option<u64> = None;
            for (i, agg) in aggs.iter().enumerate() {
                if let PreparedAgg::Reduce { func, input } = agg {
                    let (value, c) = self.aggregate(input, GROUP_MASK_COL, *func, true)?;
                    values[i] = value;
                    count = count.or(c);
                }
            }
            let count = match count {
                Some(c) => c,
                None => {
                    // Pure COUNT: one count line per page, one partial
                    // each, at the module's result price; the host's
                    // popcount fold is not charged.
                    let module = &self.table.module;
                    for phase in module.result_phases(fact_pages, 1, fact_pages as u64, None) {
                        self.log.push(phase);
                    }
                    self.count(GROUP_MASK_COL)
                }
            };
            for (i, agg) in aggs.iter().enumerate() {
                if matches!(agg, PreparedAgg::Count) {
                    values[i] = count;
                }
            }
            out.push(PimGbEntry { key: key.clone(), values, count });
        }
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
    use bbpim_db::plan::{AggExpr, Query, SelectItem};
    use bbpim_db::stats::{self, GroupedResult};
    use bbpim_db::Relation;
    use bbpim_sim::timeline::{PhaseKind, RunLog};

    fn table(mode: EngineMode) -> (PimTable, Relation) {
        fixture::table(
            mode,
            &[("lo_v", 8), ("d_g", 4)],
            (0..700).map(|i| vec![(5 * i) % 241, i % 6]),
        )
    }

    /// The oracle's `SELECT item WHERE lo_v < 200 GROUP BY d_g`.
    fn oracle(rel: &Relation, item: SelectItem) -> GroupedResult {
        let q = Query::select([item])
            .filter(col("lo_v").lt(200u64))
            .group_by(["d_g"])
            .build(rel.schema())
            .unwrap();
        stats::column(&stats::run_oracle(&q, rel).unwrap(), 0)
    }

    fn lo_v() -> AggExpr {
        AggExpr::attr("lo_v")
    }

    /// Filter `lo_v < 200`, materialise `exprs`, then pim-gb `keys` of
    /// `d_g` under `aggs(inputs)`; returns the entries and the pim-gb
    /// phases alone.
    fn run(
        t: &mut PimTable,
        exprs: &[&AggExpr],
        aggs: impl Fn(&[AggInput]) -> Vec<PreparedAgg>,
        keys: &[u64],
    ) -> (Vec<PimGbEntry>, RunLog) {
        let mut scan = fixture::filtered(t, &col("lo_v").lt(200u64));
        let inputs = scan.materialize(exprs).unwrap();
        let gp = scan.table().layout().project(["d_g"]).unwrap();
        let scratch =
            inputs.last().map_or_else(|| scan.table().layout().scratch(0), |i| i.scratch_left);
        let keys: Vec<Vec<u64>> = keys.iter().map(|g| vec![*g]).collect();
        scan.take_log();
        let entries = scan.pim_gb(&gp, &keys, &aggs(&inputs), scratch).unwrap();
        (entries, scan.take_log())
    }

    fn sum(inputs: &[AggInput]) -> Vec<PreparedAgg> {
        vec![PreparedAgg::Reduce { func: PhysFunc::Sum, input: inputs[0] }]
    }

    const ALL_KEYS: [u64; 6] = [0, 1, 2, 3, 4, 5];

    #[test]
    fn per_group_aggregates_match_oracle() {
        for mode in [EngineMode::OneXb, EngineMode::TwoXb, EngineMode::PimDb] {
            let (mut t, rel) = table(mode);
            let (entries, _) = run(&mut t, &[&lo_v()], sum, &ALL_KEYS);
            let expected = oracle(&rel, SelectItem::sum("v", lo_v()));
            for e in &entries {
                assert_eq!(Some(&e.values[0]), expected.get(&e.key), "{mode:?} key {:?}", e.key);
                assert!(e.count > 0);
            }
            assert_eq!(entries.len(), 6);
        }
    }

    #[test]
    fn multiple_aggregates_share_one_mask_per_key() {
        // sum + max + count over the same shared group mask
        let (mut t, rel) = table(EngineMode::OneXb);
        let aggs = |i: &[AggInput]| {
            vec![
                PreparedAgg::Reduce { func: PhysFunc::Sum, input: i[0] },
                PreparedAgg::Reduce { func: PhysFunc::Max, input: i[0] },
                PreparedAgg::Count,
            ]
        };
        let (entries, log) = run(&mut t, &[&lo_v()], aggs, &ALL_KEYS);
        let sums = oracle(&rel, SelectItem::sum("v", lo_v()));
        let maxs = oracle(&rel, SelectItem::max("v", lo_v()));
        for e in &entries {
            assert_eq!(Some(&e.values[0]), sums.get(&e.key), "sum key {:?}", e.key);
            assert_eq!(Some(&e.values[1]), maxs.get(&e.key), "max key {:?}", e.key);
            assert_eq!(e.values[2], e.count, "count column key {:?}", e.key);
        }
        // the shared-mask contract: exactly one mask program (PimLogic)
        // and two reductions (PimAggCircuit) per key — three aggregates
        // never cost three masks.
        let of = |kind| log.phases().iter().filter(|p| p.kind == kind).count();
        assert_eq!(of(PhaseKind::PimLogic), ALL_KEYS.len());
        assert_eq!(of(PhaseKind::PimAggCircuit), ALL_KEYS.len() * 2);
    }

    #[test]
    fn count_only_group_by_reads_popcount() {
        let (mut t, rel) = table(EngineMode::OneXb);
        let (entries, _) = run(&mut t, &[], |_| vec![PreparedAgg::Count], &ALL_KEYS);
        let expected = oracle(&rel, SelectItem::count("n"));
        for e in &entries {
            assert_eq!(Some(&e.count), expected.get(&e.key), "key {:?}", e.key);
            assert_eq!(e.values, vec![e.count]);
        }
    }

    #[test]
    fn stacked_expressions_aggregate_together() {
        // materialize lo_v (in place) and lo_v*d_g (scratch) and reduce
        // both under shared masks
        let (mut t, rel) = table(EngineMode::OneXb);
        let (attr, prod) = (lo_v(), AggExpr::mul("lo_v", "d_g"));
        let aggs = |i: &[AggInput]| {
            vec![
                PreparedAgg::Reduce { func: PhysFunc::Sum, input: i[0] },
                PreparedAgg::Reduce { func: PhysFunc::Sum, input: i[1] },
            ]
        };
        let (entries, _) = run(&mut t, &[&attr, &prod], aggs, &ALL_KEYS);
        // oracle both columns
        let mut sum_v = std::collections::BTreeMap::new();
        let mut sum_p = std::collections::BTreeMap::new();
        for row in 0..rel.len() {
            let (v, g) = (rel.value(row, 0), rel.value(row, 1));
            if v < 200 {
                *sum_v.entry(vec![g]).or_insert(0u64) += v;
                *sum_p.entry(vec![g]).or_insert(0u64) += v * g;
            }
        }
        for e in &entries {
            assert_eq!(Some(&e.values[0]), sum_v.get(&e.key), "v key {:?}", e.key);
            assert_eq!(Some(&e.values[1]), sum_p.get(&e.key), "p key {:?}", e.key);
        }
    }

    #[test]
    fn empty_subgroup_reports_zero_count() {
        // group 15 never occurs (d_g < 6)
        let (mut t, _) = table(EngineMode::OneXb);
        let (entries, _) = run(&mut t, &[&lo_v()], sum, &[15]);
        assert_eq!(entries[0].count, 0);
        assert_eq!(entries[0].values, vec![0]);
    }

    #[test]
    fn two_xb_charges_transfer_per_subgroup() {
        let logs = [EngineMode::OneXb, EngineMode::TwoXb]
            .map(|mode| run(&mut table(mode).0, &[&lo_v()], sum, &ALL_KEYS[..4]).1);
        assert_eq!(logs[0].time_in(PhaseKind::HostWrite), 0.0);
        assert!(logs[1].time_in(PhaseKind::HostWrite) > 0.0);
        assert!(logs[1].total_time_ns() > logs[0].total_time_ns());
    }

    #[test]
    fn latency_independent_of_group_size() {
        // Two keys with the same bit pattern cost (equal popcount) but
        // wildly different group sizes: key 1 is populated (d_g ∈ 0..6),
        // key 8 is empty. The equality program's cycle count depends on
        // the key's set bits, so popcount must match for the comparison.
        let (mut t, _) = table(EngineMode::OneXb);
        let (a, log_a) = run(&mut t, &[&lo_v()], sum, &[1]);
        let (b, log_b) = run(&mut t, &[&lo_v()], sum, &[8]);
        assert!(a[0].count > 0);
        assert_eq!(b[0].count, 0);
        assert!((log_a.total_time_ns() - log_b.total_time_ns()).abs() < 1e-6);
    }
}
