//! Query execution results and per-query reports.

use bbpim_db::plan::PhysFunc;
use bbpim_db::stats::{self, GroupedResult, MultiGrouped};
use bbpim_sim::endurance;
use bbpim_sim::timeline::RunLog;

use crate::modes::EngineMode;

/// Everything the paper reports per query (Figs. 6–9, Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Query identifier.
    pub query_id: String,
    /// Engine mode that produced this report.
    pub mode: EngineMode,
    /// Execution latency, nanoseconds (Fig. 6).
    pub time_ns: f64,
    /// PIM-module energy, picojoules (Fig. 7).
    pub energy_pj: f64,
    /// Peak power of one PIM chip, watts (Fig. 8).
    pub peak_chip_power_w: f64,
    /// Worst per-row cell writes (input to Fig. 9).
    pub max_row_cell_writes: u64,
    /// Crossbar row width (for the endurance metric's wear-leveling).
    pub row_cells: usize,
    /// Records in the relation.
    pub records: usize,
    /// Pages per partition (`M`).
    pub pages: usize,
    /// Pages the physical planner actually dispatched (zone-map pruning
    /// skips the rest; equals `pages` under exhaustive execution).
    pub pages_scanned: usize,
    /// Records passing the filter.
    pub selected: u64,
    /// Measured selectivity (Table II).
    pub selectivity: f64,
    /// Potential subgroups (`k_MAX`, Table II; 0 when no GROUP BY).
    pub total_subgroups: u64,
    /// Subgroups seen in the one-page sample (Table II).
    pub subgroups_in_sample: u64,
    /// Subgroups aggregated in PIM (`k`, Table II; Q1.x report 1).
    pub pim_agg_subgroups: u64,
    /// Shared host-channel occupancy of this execution, nanoseconds:
    /// per-page dispatch plus the bandwidth term of every host↔module
    /// transfer (mask transfers, result-line reads, host-gb record
    /// fetches). This is the slice of `time_ns` a multi-module host
    /// must *serialise* across shards and concurrent queries; the rest
    /// (PIM phases, host compute, latency stalls) overlaps freely.
    pub host_bus_ns: f64,
    /// Full phase log.
    pub phases: RunLog,
}

impl QueryReport {
    /// Required cell endurance to run this query back-to-back for
    /// `years` (Fig. 9's metric).
    pub fn required_endurance(&self, years: f64) -> f64 {
        run_endurance(self.max_row_cell_writes, self.row_cells, self.time_ns, years)
    }
}

/// [`endurance::required_endurance`] of one run; a run that took no time wore nothing.
pub(crate) fn run_endurance(writes: u64, cells: usize, time_ns: f64, years: f64) -> f64 {
    if time_ns > 0.0 {
        endurance::required_endurance(writes, cells, time_ns, years)
    } else {
        0.0
    }
}

/// A query's answer plus its report.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryExecution {
    /// Finalised grouped answer: group key → one value per SELECT item,
    /// in SELECT order (single entry with an empty key when the query
    /// has no GROUP BY; empty map when nothing matched).
    pub groups: MultiGrouped,
    /// The *mergeable* per-physical-aggregate partials behind `groups`
    /// (one per [`bbpim_db::plan::PhysicalPlan::aggs`] entry, same
    /// order). The cluster layer merges these across shards and only
    /// then finalises, so derived aggregates (`AVG`) stay bit-exact
    /// under sharding.
    pub partials: Vec<PartialGroups>,
    /// The report.
    pub report: QueryReport,
}

/// A partial (per-shard or per-module) grouped aggregate component,
/// tagged with the physical function it carries so merging cannot mix
/// semantics.
///
/// Engines running over disjoint record slices each produce a
/// `PartialGroups` per physical aggregate; folding them with
/// [`PartialGroups::absorb_ref`] reproduces the whole-relation component
/// bit-exactly, because SUM (wrapping), MIN, MAX and COUNT (addition)
/// are commutative and associative. This is the gather half of the
/// cluster layer's scatter–gather; derived outputs (`AVG`) are computed
/// from fully merged components afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialGroups {
    /// The physical component the group values carry.
    pub func: PhysFunc,
    /// Group key values → partial component value.
    pub groups: GroupedResult,
}

impl PartialGroups {
    /// An empty partial for a component.
    pub fn new(func: PhysFunc) -> Self {
        PartialGroups { func, groups: GroupedResult::new() }
    }

    /// Merge another partial of the same component into this one
    /// (clones only keys new to the accumulator).
    ///
    /// # Panics
    ///
    /// Panics when the functions differ — merging a MIN partial into a
    /// SUM accumulator is always a caller bug.
    pub fn absorb_ref(&mut self, other: &PartialGroups) {
        assert_eq!(self.func, other.func, "cannot merge partials of different aggregates");
        stats::merge_grouped_ref_into(&mut self.groups, &other.groups, self.func);
    }

    /// The merged grouped result.
    pub fn into_groups(self) -> GroupedResult {
        self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(time_ns: f64, writes: u64) -> QueryReport {
        QueryReport {
            query_id: "t".into(),
            mode: EngineMode::OneXb,
            time_ns,
            energy_pj: 0.0,
            peak_chip_power_w: 0.0,
            max_row_cell_writes: writes,
            row_cells: 512,
            records: 0,
            pages: 0,
            pages_scanned: 0,
            selected: 0,
            selectivity: 0.0,
            total_subgroups: 0,
            subgroups_in_sample: 0,
            pim_agg_subgroups: 0,
            host_bus_ns: 0.0,
            phases: RunLog::new(),
        }
    }

    #[test]
    fn endurance_matches_sim_formula() {
        let r = report(1e6, 512);
        let direct = bbpim_sim::endurance::required_endurance(512, 512, 1e6, 10.0);
        assert!((r.required_endurance(10.0) - direct).abs() < 1e-6);
    }

    #[test]
    fn zero_writes_means_infinite_lifetime() {
        let r = report(1e6, 0);
        assert_eq!(r.required_endurance(10.0), 0.0);
    }

    #[test]
    fn partial_groups_fold_like_a_single_pass() {
        let mut acc = PartialGroups::new(PhysFunc::Sum);
        let mut a = GroupedResult::new();
        a.insert(vec![1], 4);
        let mut b = GroupedResult::new();
        b.insert(vec![1], 6);
        b.insert(vec![2], 1);
        acc.absorb_ref(&PartialGroups { func: PhysFunc::Sum, groups: a });
        acc.absorb_ref(&PartialGroups { func: PhysFunc::Sum, groups: b });
        let merged = acc.into_groups();
        assert_eq!(merged[&vec![1u64]], 10);
        assert_eq!(merged[&vec![2u64]], 1);
    }

    #[test]
    fn count_partials_add() {
        let mut acc = PartialGroups::new(PhysFunc::Count);
        let mut a = GroupedResult::new();
        a.insert(vec![7], 3);
        let mut b = GroupedResult::new();
        b.insert(vec![7], 5);
        acc.absorb_ref(&PartialGroups { func: PhysFunc::Count, groups: a });
        acc.absorb_ref(&PartialGroups { func: PhysFunc::Count, groups: b });
        assert_eq!(acc.into_groups()[&vec![7u64]], 8);
    }

    #[test]
    #[should_panic(expected = "different aggregates")]
    fn partial_groups_reject_mixed_functions() {
        let mut acc = PartialGroups::new(PhysFunc::Sum);
        acc.absorb_ref(&PartialGroups::new(PhysFunc::Min));
    }
}
