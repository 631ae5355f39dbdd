//! The report folds of the [`Cluster`](crate::Cluster): per-shard
//! reports fold into one wall clock under the one-host model —
//! `Σ host-channel occupancy + max over shards of the overlappable rest
//! (+ host merge)`. The gather
//! ([`StreamEngine::merge_executions`](crate::StreamEngine::merge_executions))
//! folds per-shard partials into one answer on that clock.

use bbpim_core::mutation::MutationReport;
use bbpim_sim::timeline::{PhaseKind, RunLog};

use crate::engine::ClusterMutationReport;

/// The host-dispatch slice of one log.
pub(crate) fn dispatch_ns(log: &RunLog) -> f64 {
    log.time_in(PhaseKind::HostDispatch)
}

/// The one-host wall clock of shards run side by side, before any host
/// merge: `Σ host-channel occupancy + max over shards of the
/// overlappable rest`. Each shard is `(time_ns, host_bus_ns)`, summed
/// in the order given. Queries and mutations both call it, so their
/// wall clocks can never drift apart.
pub(crate) fn one_host_ns(shards: impl Iterator<Item = (f64, f64)> + Clone) -> f64 {
    let serial_total: f64 = shards.clone().map(|(_, bus)| bus).sum();
    let pim_max = shards.map(|(time, bus)| time - bus).fold(0.0, f64::max);
    serial_total + pim_max
}

/// Fold the per-lane reports of one fanned-out mutation (in lane order)
/// into one cluster report, under the same wall-clock model as
/// [`StreamEngine::merge_executions`](crate::StreamEngine::merge_executions)
/// minus the merge — a mutation has no partials.
pub(crate) fn fold_mutation(
    reports: Vec<MutationReport>,
    shards_pruned: usize,
) -> ClusterMutationReport {
    let time_ns = one_host_ns(reports.iter().map(|r| (r.time_ns, r.host_bus_ns)));
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
