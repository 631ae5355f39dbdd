//! The report folds of the [`Cluster`]: per-shard partials fold into
//! one answer, and per-shard reports fold into one wall clock under the
//! one-host model — `Σ serialised host slices + max over shards of the
//! overlappable rest (+ host merge)`.

use bbpim_core::mutation::MutationReport;
use bbpim_core::result::{PartialGroups, QueryExecution};
use bbpim_db::plan::Query;
use bbpim_db::stats::GroupedResult;
use bbpim_sim::timeline::{PhaseKind, RunLog};

use crate::engine::{Cluster, ClusterExecution, ClusterMutationReport, ClusterReport, Storage};

/// The host-dispatch slice of one log.
fn dispatch_ns(log: &RunLog) -> f64 {
    log.time_in(PhaseKind::HostDispatch)
}

/// The slice of one shard's execution the host must serialise: the
/// whole channel occupancy (`host_bus_ns`) with contention on, only
/// per-page dispatch with it off. Single source of truth for queries,
/// batches and mutations so their wall clocks can never drift apart.
pub fn serial_slice_ns(contention: bool, host_bus_ns: f64, log: &RunLog) -> f64 {
    if contention {
        host_bus_ns
    } else {
        dispatch_ns(log)
    }
}

/// The one-host wall clock of shards run side by side, before any host
/// merge: `Σ serial slices + max over shards of the overlappable rest`.
/// Each shard is `(time_ns, host_bus_ns, log)`, summed in the order
/// given. Queries, mutations and the free-channel refold all call it.
pub fn one_host_ns<'a>(
    contention: bool,
    shards: impl Iterator<Item = (f64, f64, &'a RunLog)> + Clone,
) -> f64 {
    let serial = |&(_, bus, log): &(f64, f64, &RunLog)| serial_slice_ns(contention, bus, log);
    let serial_total: f64 = shards.clone().map(|s| serial(&s)).sum();
    let pim_max = shards.map(|s| s.0 - serial(&s)).fold(0.0, f64::max);
    serial_total + pim_max
}

impl<S: Storage> Cluster<S> {
    /// Gather: merge per-shard partial executions (in shard order, as
    /// produced by [`Cluster::run_on_shard`]) into one cluster
    /// execution — the gather half of [`Cluster::run`].
    /// `shards_pruned` is reporting-only and does not affect the
    /// answer. Each *physical* component (sum / min / max / count)
    /// merges per named output column; derived outputs (`AVG`) are
    /// computed only afterwards, so they stay bit-exact under sharding.
    /// Merging commutes with how the partials were obtained, so a
    /// scheduler that executed the shard slices out of order still gets
    /// the bit-identical merged result.
    ///
    /// # Panics
    ///
    /// Panics on a query whose SELECT list is invalid — impossible for
    /// executions the shards produced (they validate at run time).
    pub fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution {
        let plan = query.physical_plan().expect("executed queries have a valid SELECT list");
        let mut partials: Vec<PartialGroups> =
            plan.aggs.iter().map(|a| PartialGroups::new(a.func)).collect();
        let mut merged_entries = 0u64;
        for exec in executions {
            for (acc, part) in partials.iter_mut().zip(&exec.partials) {
                merged_entries += part.groups.len() as u64;
                acc.absorb_ref(part);
            }
        }
        // Host-side gather cost: the host folds every (shard, group)
        // partial into the final table, at its hash-aggregation rate.
        let host_agg_ns_per_entry =
            self.shards.first().map_or(0.0, |s| s.table.config().host.host_agg_ns_per_record);
        let merge_time_ns = merged_entries as f64 * host_agg_ns_per_entry;

        let shards =
            executions.iter().map(|e| (e.report.time_ns, e.report.host_bus_ns, &e.report.phases));
        let wall_ns = one_host_ns(self.contention(), shards);
        let selected: u64 = executions.iter().map(|e| e.report.selected).sum();
        let records = self.records();
        let report = ClusterReport {
            query_id: query.id.clone(),
            mode: self.mode(),
            shards: self.shard_count(),
            active_shards: self.shards.len(),
            shards_pruned,
            partitioner: self.partitioner().label(),
            time_ns: wall_ns + merge_time_ns,
            dispatch_time_ns: executions.iter().map(|e| dispatch_ns(&e.report.phases)).sum(),
            host_bus_time_ns: executions.iter().map(|e| e.report.host_bus_ns).sum(),
            merge_time_ns,
            total_shard_time_ns: executions.iter().map(|e| e.report.time_ns).sum(),
            energy_pj: executions.iter().map(|e| e.report.energy_pj).sum(),
            peak_chip_power_w: executions
                .iter()
                .map(|e| e.report.peak_chip_power_w)
                .fold(0.0, f64::max),
            records,
            pages_total: self.shards.iter().map(|s| s.table.page_count()).sum(),
            pages_scanned: executions.iter().map(|e| e.report.pages_scanned).sum(),
            selected,
            selectivity: if records == 0 { 0.0 } else { selected as f64 / records as f64 },
            max_shard_subgroups: executions
                .iter()
                .map(|e| e.report.total_subgroups)
                .max()
                .unwrap_or(0),
            per_shard: executions.iter().map(|e| e.report.clone()).collect(),
        };
        let per_agg: Vec<GroupedResult> =
            partials.into_iter().map(PartialGroups::into_groups).collect();
        ClusterExecution { groups: plan.finalize(&per_agg), report }
    }
}

/// Fold the per-lane reports of one fanned-out mutation (in lane order)
/// into one cluster report, under the same wall-clock model as
/// [`Cluster::merge_executions`] minus the merge — a mutation has no
/// partials.
pub fn fold_mutation(
    contention: bool,
    reports: Vec<MutationReport>,
    shards_pruned: usize,
) -> ClusterMutationReport {
    let lanes = reports.iter().map(|r| (r.time_ns, r.host_bus_ns, &r.phases));
    let time_ns = one_host_ns(contention, lanes);
    ClusterMutationReport {
        records_updated: reports.iter().map(|r| r.records_updated).sum(),
        records_inserted: reports.iter().map(|r| r.records_inserted).sum(),
        shards_pruned,
        time_ns,
        dispatch_time_ns: reports.iter().map(|r| dispatch_ns(&r.phases)).sum(),
        total_shard_time_ns: reports.iter().map(|r| r.time_ns).sum(),
        energy_pj: reports.iter().map(|r| r.energy_pj).sum(),
        per_shard: reports,
    }
}
