//! Service-demand compilation: from real per-shard executions to the
//! bus/local slice chains the [`kernel`](crate::kernel) plays out.
//!
//! The compilation step is the contract both admission front-ends
//! share: [`resolve_query_demand`] plans a query through the zone-map
//! planner, executes every candidate shard slice
//! ([`StreamEngine::run_on_shard`]), merges the partials exactly as
//! `run_batch` would, and compiles each shard execution's phase log
//! into a [`SliceChain`]. Whichever front-end admits the chains —
//! [`run_stream`](crate::run_stream) or the multi-tenant server — the
//! merged answer is already fixed, bit-identical to the batch oracle;
//! only *when* the slices run is up to the scheduler.

use bbpim_cluster::ClusterExecution;
use bbpim_core::mutation::MutationReport;
use bbpim_core::result::QueryExecution;
use bbpim_db::plan::Query;
use bbpim_sim::config::HostConfig;
use bbpim_sim::hostbus::phase_occupancy_ns;
use bbpim_sim::timeline::{PhaseKind, RunLog};

use crate::error::SchedError;
use crate::sched::{StreamEngine, ENDURANCE_YEARS};

/// One step of a shard chain: an optional host-channel slice followed
/// by an optional module-local slice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slice {
    /// Shared-channel occupancy (serialises against everything in
    /// flight).
    pub bus_ns: f64,
    /// Module-local time (PIM programs, host compute, latency stalls):
    /// queues only on this shard's own server.
    pub local_ns: f64,
    /// The phase kind whose channel occupancy the bus part is (`None`
    /// for a bus-free slice) — purely descriptive, for trace labels.
    pub bus_kind: Option<PhaseKind>,
    /// Channel bytes the bus part moved (descriptor bytes for
    /// dispatch) — purely descriptive, for trace args.
    pub bus_bytes: u64,
}

/// A compiled shard chain: the slices the event loop plays out, plus —
/// only when tracing — each slice's local-part composition by phase
/// kind (`detail[i]` decomposes `slices[i].local_ns`), so module
/// tracks can show *which* PIM phases filled each local window.
#[derive(Clone, Debug, PartialEq)]
pub struct SliceChain {
    /// The alternating bus/local steps, in execution order.
    pub slices: Vec<Slice>,
    /// Per-slice local-part phase composition (empty when compiled
    /// without detail).
    pub detail: Vec<Vec<(PhaseKind, f64)>>,
}

/// The service demand of one query on one shard: its execution's phase
/// log compiled to an alternating bus/local slice chain.
#[derive(Clone, Debug)]
pub struct ShardDemand {
    /// The active-shard index this chain runs on.
    pub shard: usize,
    /// Worst-row cell writes of the shard execution (endurance input).
    pub cell_writes: u64,
    /// Required cell endurance (write cycles) to sustain this query
    /// back-to-back on this shard for [`ENDURANCE_YEARS`].
    pub required_endurance: f64,
    /// The compiled slice chain.
    pub slices: Vec<Slice>,
    /// Per-slice local-part phase composition (empty when not tracing).
    pub detail: Vec<Vec<(PhaseKind, f64)>>,
}

/// One query's resolved service demand across its candidate shards.
#[derive(Clone, Debug)]
pub struct QueryDemand {
    /// The query's identifier (trace/report labels).
    pub query_id: String,
    /// Per-candidate-shard chains (empty when the planner answered the
    /// query outright — nothing to dispatch).
    pub shards: Vec<ShardDemand>,
    /// Active shards the zone-map planner pruned.
    pub shards_pruned: usize,
    /// Host-side merge occupancy once every shard chain finishes.
    pub merge_ns: f64,
}

impl QueryDemand {
    /// Total busy time this query occupies across the host channel and
    /// every module: the work-conserving cost a fair-share accountant
    /// charges the owning tenant, independent of queueing.
    pub fn total_busy_ns(&self) -> f64 {
        let slices: f64 =
            self.shards.iter().flat_map(|sd| sd.slices.iter()).map(|s| s.bus_ns + s.local_ns).sum();
        slices + self.merge_ns
    }
}

/// Compile one shard execution's phase log into the slice chain the
/// discrete-event simulation plays out.
///
/// Under contention every phase contributes its channel occupancy
/// ([`phase_occupancy_ns`]) as a bus slice and the remainder as local
/// time, preserving phase order — a transfer in the middle of a two-xb
/// filter really does re-queue on the bus between two PIM programs.
/// Without contention the whole log collapses to the optimistic shape:
/// one bus slice for the per-page dispatch, everything else local.
pub fn compile_slices(
    exec: &QueryExecution,
    host: &HostConfig,
    contention: bool,
    want_detail: bool,
) -> SliceChain {
    compile_log_slices(&exec.report.phases, exec.report.time_ns, host, contention, want_detail)
}

/// [`compile_slices`] generalised over any phase log: the same
/// compilation working straight off a [`RunLog`] and its total time, so
/// mutation reports ([`MutationReport`]) compile to slice chains with
/// the identical bus/local decomposition queries get — their
/// byte-tagged write phases ride the same shared channel.
pub fn compile_log_slices(
    log: &RunLog,
    total_time_ns: f64,
    host: &HostConfig,
    contention: bool,
    want_detail: bool,
) -> SliceChain {
    let empty_slice = Slice { bus_ns: 0.0, local_ns: 0.0, bus_kind: None, bus_bytes: 0 };
    if !contention {
        let dispatch = log.time_in(PhaseKind::HostDispatch);
        let slice = Slice {
            bus_ns: dispatch,
            local_ns: total_time_ns - dispatch,
            bus_kind: (dispatch > 0.0).then_some(PhaseKind::HostDispatch),
            bus_bytes: log.host_bytes_in(PhaseKind::HostDispatch),
        };
        let detail = if want_detail {
            vec![log
                .phases()
                .iter()
                .filter(|p| p.kind != PhaseKind::HostDispatch && p.time_ns > 0.0)
                .map(|p| (p.kind, p.time_ns))
                .collect()]
        } else {
            Vec::new()
        };
        return SliceChain { slices: vec![slice], detail };
    }
    let mut slices: Vec<Slice> = vec![empty_slice];
    let mut detail: Vec<Vec<(PhaseKind, f64)>> = vec![Vec::new()];
    for phase in log.phases() {
        let bus = phase_occupancy_ns(host, phase);
        let local = phase.time_ns - bus;
        if bus > 0.0 {
            slices.push(Slice {
                bus_ns: bus,
                local_ns: local,
                bus_kind: Some(phase.kind),
                bus_bytes: phase.host_bytes,
            });
            detail.push(if want_detail && local > 0.0 {
                vec![(phase.kind, local)]
            } else {
                Vec::new()
            });
        } else {
            slices.last_mut().expect("seeded with one slice").local_ns += local;
            if want_detail && local > 0.0 {
                detail.last_mut().expect("seeded with one slice").push((phase.kind, local));
            }
        }
    }
    // Drop empty slices, keeping the detail rows in lockstep.
    let keep: Vec<bool> = slices.iter().map(|s| s.bus_ns > 0.0 || s.local_ns > 0.0).collect();
    let mut it = keep.iter();
    slices.retain(|_| *it.next().expect("lockstep"));
    let mut it = keep.iter();
    detail.retain(|_| *it.next().expect("lockstep"));
    if slices.is_empty() {
        slices.push(empty_slice);
        detail.push(Vec::new());
    }
    if !want_detail {
        detail = Vec::new();
    }
    SliceChain { slices, detail }
}

/// Resolve one query's full service demand against `cluster`: zone-map
/// plan, execute every candidate shard slice, merge the partials in
/// shard order, and compile each shard execution into its slice chain.
///
/// The returned [`ClusterExecution`] **is** the query's answer — it is
/// fixed here, before any scheduling happens, which is what makes every
/// downstream event loop answer-bit-identical to the batch oracle by
/// construction. Resolution is deterministic and read-only, so repeated
/// arrivals of the same query may share one resolution.
///
/// # Errors
///
/// Planner attribute-resolution failures or shard execution failures,
/// as [`SchedError::Cluster`].
pub fn resolve_query_demand<E: StreamEngine>(
    cluster: &mut E,
    query: &Query,
    want_detail: bool,
) -> Result<(QueryDemand, ClusterExecution), SchedError> {
    let contention = cluster.contention();
    let mask = cluster.plan_shards(&query.filter)?;
    let candidates: Vec<usize> =
        mask.iter().enumerate().filter(|(_, &d)| d).map(|(s, _)| s).collect();
    let mut shard_execs = Vec::with_capacity(candidates.len());
    for &s in &candidates {
        shard_execs.push((s, cluster.run_on_shard(s, query)?));
    }
    let refs: Vec<&QueryExecution> = shard_execs.iter().map(|(_, e)| e).collect();
    let shards_pruned = mask.len() - candidates.len();
    let merged = cluster.merge_executions(query, &refs, shards_pruned);
    let host_cfg = cluster.host_config();
    let shards = shard_execs
        .iter()
        .map(|(s, e)| {
            let host = host_cfg.as_ref().expect("candidate shards imply an active shard");
            let chain = compile_slices(e, host, contention, want_detail);
            ShardDemand {
                shard: *s,
                cell_writes: e.report.max_row_cell_writes,
                required_endurance: e.report.required_endurance(ENDURANCE_YEARS),
                slices: chain.slices,
                detail: chain.detail,
            }
        })
        .collect();
    let demand = QueryDemand {
        query_id: query.id.clone(),
        shards,
        shards_pruned,
        merge_ns: merged.report.merge_time_ns,
    };
    Ok((demand, merged))
}

/// One admitted mutation's compiled service demand across its ingest
/// lanes: the write-phase chains the event loop plays out on the shared
/// host channel and the per-lane module servers. Unlike queries there
/// is no merge — a mutation completes when its last lane chain does.
#[derive(Clone, Debug)]
pub struct MutationDemand {
    /// The mutation's label (trace/report lines).
    pub label: String,
    /// Per-lane chains (the [`ShardDemand::shard`] field holds the
    /// *ingest lane* index — fact-shard lanes share indices with query
    /// shard slices; auxiliary lanes, e.g. star dimension modules, sit
    /// above [`crate::StreamEngine::active_shards`]).
    pub lanes: Vec<ShardDemand>,
    /// Records the mutation rewrote (UPDATE), summed over lanes.
    pub records_updated: u64,
    /// Records the mutation appended (INSERT), summed over lanes.
    pub records_inserted: u64,
}

/// Compile the per-lane reports an applied mutation produced
/// ([`crate::StreamEngine::apply_mutation`]) into a [`MutationDemand`]:
/// each lane's phase log becomes a bus/local slice chain exactly as
/// query shard executions do, so UPDATE mask writes and INSERT row
/// transfers queue on the shared channel alongside query traffic.
pub fn compile_mutation_demand(
    label: String,
    applied: &[(usize, MutationReport)],
    host: &HostConfig,
    contention: bool,
    want_detail: bool,
) -> MutationDemand {
    let lanes = applied
        .iter()
        .map(|(lane, rep)| {
            let chain = compile_log_slices(&rep.phases, rep.time_ns, host, contention, want_detail);
            ShardDemand {
                shard: *lane,
                cell_writes: rep.max_row_cell_writes,
                required_endurance: rep.required_endurance(ENDURANCE_YEARS),
                slices: chain.slices,
                detail: chain.detail,
            }
        })
        .collect();
    MutationDemand {
        label,
        lanes,
        records_updated: applied.iter().map(|(_, r)| r.records_updated).sum(),
        records_inserted: applied.iter().map(|(_, r)| r.records_inserted).sum(),
    }
}

#[cfg(test)]
mod slice_tests {
    use super::*;
    use bbpim_sim::timeline::{Phase, RunLog};

    fn phase(kind: PhaseKind, time_ns: f64, host_bytes: u64) -> Phase {
        Phase { kind, time_ns, energy_pj: 0.0, chip_power_w: 0.0, host_bytes }
    }

    fn exec_with(phases: Vec<Phase>) -> QueryExecution {
        let mut log = RunLog::new();
        for p in &phases {
            log.push(*p);
        }
        let host = HostConfig::default();
        let host_bus_ns = bbpim_sim::hostbus::log_occupancy_ns(&host, &log);
        QueryExecution {
            groups: Default::default(),
            partials: Vec::new(),
            report: bbpim_core::result::QueryReport {
                query_id: "t".into(),
                mode: bbpim_core::modes::EngineMode::OneXb,
                time_ns: log.total_time_ns(),
                energy_pj: 0.0,
                peak_chip_power_w: 0.0,
                max_row_cell_writes: 0,
                row_cells: 512,
                records: 0,
                pages: 0,
                pages_scanned: 0,
                selected: 0,
                selectivity: 0.0,
                total_subgroups: 0,
                subgroups_in_sample: 0,
                pim_agg_subgroups: 0,
                host_bus_ns,
                phases: log,
            },
        }
    }

    #[test]
    fn contention_compiles_per_phase_chains() {
        let host = HostConfig::default();
        let exec = exec_with(vec![
            Phase::host_dispatch(600.0),
            phase(PhaseKind::PimLogic, 3000.0, 0),
            phase(PhaseKind::HostRead, 500.0, 4096),
            phase(PhaseKind::HostWrite, 700.0, 4096),
            phase(PhaseKind::PimLogic, 1000.0, 0),
        ]);
        let slices = compile_slices(&exec, &host, true, false).slices;
        // dispatch opens the chain, then read and write each re-queue
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0].bus_kind, Some(PhaseKind::HostDispatch));
        assert_eq!(slices[1].bus_kind, Some(PhaseKind::HostRead));
        assert_eq!(slices[1].bus_bytes, 4096);
        assert_eq!(slices[0].bus_ns, 600.0);
        assert_eq!(slices[0].local_ns, 3000.0);
        let read_bus = bbpim_sim::hostbus::transfer_ns(&host, 4096);
        assert!((slices[1].bus_ns - read_bus).abs() < 1e-9);
        assert!((slices[1].local_ns - (500.0 - read_bus)).abs() < 1e-9);
        assert!((slices[2].local_ns - (700.0 - slices[2].bus_ns) - 1000.0).abs() < 1e-9);
        // total time is preserved exactly
        let total: f64 = slices.iter().map(|s| s.bus_ns + s.local_ns).sum();
        assert!((total - exec.report.time_ns).abs() < 1e-9);
        // and the bus share matches the report's occupancy
        let bus: f64 = slices.iter().map(|s| s.bus_ns).sum();
        assert!((bus - exec.report.host_bus_ns).abs() < 1e-9);
    }

    #[test]
    fn no_contention_collapses_to_dispatch_plus_local() {
        let host = HostConfig::default();
        let exec = exec_with(vec![
            Phase::host_dispatch(600.0),
            phase(PhaseKind::HostRead, 500.0, 64 * 1024),
            phase(PhaseKind::PimLogic, 1000.0, 0),
        ]);
        let slices = compile_slices(&exec, &host, false, false).slices;
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].bus_ns, 600.0);
        assert!((slices[0].local_ns - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn empty_log_still_yields_a_chain() {
        let host = HostConfig::default();
        let exec = exec_with(Vec::new());
        let slices = compile_slices(&exec, &host, true, false).slices;
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0], Slice { bus_ns: 0.0, local_ns: 0.0, bus_kind: None, bus_bytes: 0 });
    }

    #[test]
    fn detail_decomposes_each_local_window_exactly() {
        let host = HostConfig::default();
        let exec = exec_with(vec![
            Phase::host_dispatch(600.0),
            phase(PhaseKind::PimLogic, 3000.0, 0),
            phase(PhaseKind::PimAggCircuit, 200.0, 0),
            phase(PhaseKind::HostRead, 500.0, 4096),
            phase(PhaseKind::PimLogic, 1000.0, 0),
        ]);
        for contention in [true, false] {
            let chain = compile_slices(&exec, &host, contention, true);
            assert_eq!(chain.detail.len(), chain.slices.len());
            for (slice, d) in chain.slices.iter().zip(&chain.detail) {
                let sum: f64 = d.iter().map(|(_, t)| t).sum();
                assert!(
                    (sum - slice.local_ns).abs() < 1e-9,
                    "detail must decompose the local window: {sum} vs {}",
                    slice.local_ns
                );
            }
            // detail never changes the slice boundaries
            let bare = compile_slices(&exec, &host, contention, false);
            assert_eq!(bare.slices, chain.slices);
        }
    }

    #[test]
    fn total_busy_time_sums_chains_and_merge() {
        let d = QueryDemand {
            query_id: "t".into(),
            shards: vec![
                ShardDemand {
                    shard: 0,
                    cell_writes: 0,
                    required_endurance: 0.0,
                    slices: vec![
                        Slice { bus_ns: 10.0, local_ns: 90.0, bus_kind: None, bus_bytes: 0 },
                        Slice { bus_ns: 5.0, local_ns: 45.0, bus_kind: None, bus_bytes: 0 },
                    ],
                    detail: Vec::new(),
                },
                ShardDemand {
                    shard: 2,
                    cell_writes: 0,
                    required_endurance: 0.0,
                    slices: vec![Slice {
                        bus_ns: 10.0,
                        local_ns: 40.0,
                        bus_kind: None,
                        bus_bytes: 0,
                    }],
                    detail: Vec::new(),
                },
            ],
            shards_pruned: 1,
            merge_ns: 25.0,
        };
        assert_eq!(d.total_busy_ns(), 225.0);
    }
}
