//! The report folds of the [`Cluster`](crate::Cluster): per-shard
//! reports fold into one wall clock under the one-host model —
//! `Σ serialised host slices + max over shards of the overlappable rest
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

/// Fold the per-lane reports of one fanned-out mutation (in lane order)
/// into one cluster report, under the same wall-clock model as
/// [`StreamEngine::merge_executions`](crate::StreamEngine::merge_executions)
/// minus the merge — a mutation has no partials.
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
