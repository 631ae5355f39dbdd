//! Service-demand compilation: from real per-shard executions to the
//! bus/local slice chains the kernel plays out.
//!
//! A query is resolved at its admission by the one resolution cache: it
//! is planned through the zone-map planner, every candidate shard slice
//! is executed ([`StreamEngine::run_on_shard`]) — or reused while
//! nothing it read has changed — the partials are merged exactly as
//! `run_batch` would, and each shard execution's phase log is compiled
//! into a slice chain. Whichever front-end admits the query —
//! [`run_stream`](crate::run_stream) or
//! [`run_serve`](crate::serve::run_serve) — its answer is fixed at that
//! admission, bit-identical to a fresh engine that replayed the
//! mutations admitted before it; only *when* the slices run is up to
//! the scheduler.

use std::collections::HashMap;
use std::sync::Arc;

use bbpim_cluster::{ClusterError, ClusterExecution};
use bbpim_core::mutation::{Mutation, MutationReport};
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
    /// The compiled slice chain: the alternating bus/local steps the
    /// event loop plays out, in execution order.
    pub slices: Vec<Slice>,
    /// Per-slice local-part phase composition (empty when not tracing):
    /// `detail[i]` decomposes `slices[i].local_ns` by phase kind, so
    /// module tracks can show *which* PIM phases filled each local
    /// window.
    pub detail: Vec<Vec<(PhaseKind, f64)>>,
}

impl ShardDemand {
    /// The one per-lane compile, shared by a query's shard executions
    /// and a mutation's lanes ([`MutationReport`]): `log` (`time_ns`
    /// long) becomes the lane's slice chain the discrete-event
    /// simulation plays out, so byte-tagged write phases ride the same
    /// shared channel query transfers do, and the run's `(worst-row
    /// cell writes, required endurance)` travel with it.
    ///
    /// Under contention every phase contributes its channel occupancy
    /// ([`phase_occupancy_ns`]) as a bus slice and the remainder as
    /// local time, preserving phase order — a transfer in the middle of
    /// a two-xb filter really does re-queue on the bus between two PIM
    /// programs. Without contention the whole log collapses to the
    /// optimistic shape: one bus slice for the per-page dispatch,
    /// everything else local.
    fn compile(
        shard: usize,
        log: &RunLog,
        time_ns: f64,
        wear: (u64, f64),
        host: &HostConfig,
        contention: bool,
        want_detail: bool,
    ) -> ShardDemand {
        let (cell_writes, required_endurance) = wear;
        let demand =
            |slices, detail| ShardDemand { shard, cell_writes, required_endurance, slices, detail };
        if !contention {
            let dispatch = log.time_in(PhaseKind::HostDispatch);
            let slice = Slice {
                bus_ns: dispatch,
                local_ns: time_ns - dispatch,
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
            return demand(vec![slice], detail);
        }
        let mut slices = vec![Slice { bus_ns: 0.0, local_ns: 0.0, bus_kind: None, bus_bytes: 0 }];
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
        // Only the seed slice can be empty (every pushed one has bus time):
        // drop it unless it is the whole chain.
        let nonempty = |s: &Slice| s.bus_ns > 0.0 || s.local_ns > 0.0;
        if slices.len() > 1 && !nonempty(&slices[0]) {
            slices.remove(0);
            detail.remove(0);
        }
        if !want_detail {
            detail = Vec::new();
        }
        demand(slices, detail)
    }
}

/// One query's resolved service demand across its candidate shards.
#[derive(Clone, Debug)]
pub struct QueryDemand {
    /// The query's identifier (trace/report labels).
    pub query_id: String,
    /// Per-candidate-shard chains (empty when the planner answered the
    /// query outright — nothing to dispatch), each shared with the
    /// cached shard execution it was compiled from.
    pub shards: Vec<Arc<ShardDemand>>,
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
        busy_ns(&self.shards) + self.merge_ns
    }
}

/// Busy time `chains` occupy on the host channel and their lanes.
pub(crate) fn busy_ns(chains: &[Arc<ShardDemand>]) -> f64 {
    chains.iter().flat_map(|sd| sd.slices.iter()).map(|s| s.bus_ns + s.local_ns).sum()
}

/// A resolved query: its compiled service demand and its merged answer,
/// each behind an [`Arc`] so every admission, completion and outcome
/// holding them shares one copy.
pub type Resolution = (Arc<QueryDemand>, Arc<ClusterExecution>);

/// One query's execution on one shard, stamped with the shard state it
/// ran against.
struct ShardRun {
    stamp: u64,
    exec: QueryExecution,
    demand: Arc<ShardDemand>,
}

/// A query's last merged resolution, the shard mask it merged under, the
/// cluster-wide insert version it saw and the clock it was merged at.
struct Merged {
    mask: Vec<bool>,
    inserted: u64,
    clock: u64,
    resolution: Resolution,
}

/// One active shard's state versions (0: as loaded).
#[derive(Default)]
struct ShardVersions {
    /// The version of the shard's last INSERT — or of the last mutation
    /// anywhere, on an engine with auxiliary lanes.
    inserted: u64,
    /// Per attribute, the version of the last UPDATE that set it here.
    written: HashMap<String, u64>,
}

/// The one resolution path: stamped per-shard executions of keyed
/// queries, re-run only where a mutation touched what they read.
///
/// On the pre-joined model, [`StreamEngine::run_on_shard`]`(s, q)` is a
/// pure function of `q` and of shard `s`'s state — its record count and
/// the values and page zones of [`Query::referenced_attrs`]. So each
/// cached shard execution carries a **stamp**: the highest version, at
/// the time it ran, among the shard's insert version and its versions
/// of the attributes the query reads. Versions come from one clock that
/// only counts up, so a stamp that still equals the shard's current
/// stamp proves nothing the execution depends on has changed since it
/// ran — a fresh run would reproduce it bit-identically.
///
/// [`ResolutionCache::mutated`] bumps versions on the lanes a mutation
/// reports: an UPDATE its SET attributes, an INSERT the insert version.
/// One stated exception: on an engine with auxiliary ingest lanes (the
/// star model, `ingest_lanes() > active_shards()`) any mutation bumps
/// every shard: applying it drops the cluster's cached join plans, so
/// the next `run_on_shard` of each query, on whichever shard, compiles
/// the plan again and carries its prelude.
///
/// A merge also reads cluster-wide state the shard executions do not:
/// the record and page counts of every shard, pruned ones included
/// ([`StreamEngine::merge_executions`] reports them). Both move only
/// with an INSERT, so each merged resolution is stamped with the
/// version of the last INSERT anywhere (of the last mutation, on the
/// star model).
///
/// [`ResolutionCache::resolve`] returns the last merged resolution
/// outright while no mutation has been recorded since it was merged (the
/// clock has not moved: the zone maps, and so the plan, are unchanged
/// too). Otherwise it re-plans the query's shard mask, runs only the
/// candidate shards whose stamp changed, and merges again only when a
/// shard re-ran, the mask moved or an INSERT landed anywhere since the
/// last merge.
pub(crate) struct ResolutionCache {
    want_detail: bool,
    /// The last version handed out.
    clock: u64,
    /// The version of the last INSERT on any shard (or of the last
    /// mutation, on an engine with auxiliary lanes).
    inserted: u64,
    /// Per active shard (grown on first touch).
    versions: Vec<ShardVersions>,
    /// `(query key, shard)` → its stamped execution (behind an `Arc`,
    /// so the table's buckets stay pointer-sized).
    runs: HashMap<(usize, usize), Arc<ShardRun>>,
    /// Query key → its last merged resolution.
    merged: HashMap<usize, Merged>,
}

impl ResolutionCache {
    /// An empty cache compiling chains with (`want_detail`, when
    /// tracing) or without per-slice phase detail.
    pub(crate) fn new(want_detail: bool) -> ResolutionCache {
        ResolutionCache {
            want_detail,
            clock: 0,
            inserted: 0,
            versions: Vec::new(),
            runs: HashMap::new(),
            merged: HashMap::new(),
        }
    }

    /// Shard `s`'s current stamp for a query reading `attrs`.
    fn stamp(&self, s: usize, attrs: &[&str]) -> u64 {
        self.versions.get(s).map_or(0, |v| {
            let written = attrs.iter().filter_map(|&a| v.written.get(a));
            written.copied().fold(v.inserted, u64::max)
        })
    }

    fn versions_mut(&mut self, s: usize) -> &mut ShardVersions {
        if s >= self.versions.len() {
            self.versions.resize_with(s + 1, ShardVersions::default);
        }
        &mut self.versions[s]
    }

    /// Record that `mutation` was applied to `cluster`, where
    /// [`StreamEngine::apply_mutation`] returned `applied`: bump the
    /// versions it changed (see the type docs for the rule).
    pub(crate) fn mutated<E: StreamEngine>(
        &mut self,
        cluster: &E,
        mutation: &Mutation,
        applied: &[(usize, MutationReport)],
    ) {
        self.clock += 1;
        let version = self.clock;
        let shards = cluster.active_shards();
        let star = cluster.ingest_lanes() > shards;
        if star || matches!(mutation, Mutation::Insert { .. }) {
            self.inserted = version;
        }
        if star {
            for s in 0..shards {
                self.versions_mut(s).inserted = version;
            }
            return;
        }
        for &(lane, _) in applied {
            let v = self.versions_mut(lane);
            match mutation {
                Mutation::Update { set, .. } => {
                    for (attr, _) in set {
                        v.written.insert(attr.clone(), version);
                    }
                }
                Mutation::Insert { .. } => v.inserted = version,
            }
        }
    }

    /// Resolve `query` (cached under `key`) against `cluster`'s current
    /// state: unless no mutation was recorded since its last merge, plan
    /// its shard mask, run every candidate shard whose stamp changed,
    /// merge the partials in shard order, and compile each shard
    /// execution into its slice chain.
    ///
    /// # Errors
    ///
    /// An invalid SELECT list (before any shard runs, so also when
    /// every shard is pruned), planner attribute-resolution failures or
    /// shard execution failures, as [`SchedError::Cluster`].
    pub(crate) fn resolve<E: StreamEngine>(
        &mut self,
        cluster: &mut E,
        key: usize,
        query: &Query,
    ) -> Result<Resolution, SchedError> {
        if let Some(m) = self.merged.get(&key).filter(|m| m.clock == self.clock) {
            return Ok(m.resolution.clone());
        }
        query.physical_plan().map_err(ClusterError::Db)?;
        let mask = cluster.plan_shards(&query.filter)?;
        let candidates: Vec<usize> =
            mask.iter().enumerate().filter(|(_, &d)| d).map(|(s, _)| s).collect();
        let attrs = query.referenced_attrs();
        let mut fresh =
            self.merged.get(&key).is_some_and(|m| m.mask == mask && m.inserted == self.inserted);
        for &s in &candidates {
            let stamp = self.stamp(s, &attrs);
            if self.runs.get(&(key, s)).is_some_and(|r| r.stamp == stamp) {
                continue;
            }
            let exec = cluster.run_on_shard(s, query)?;
            let report = &exec.report;
            let demand = ShardDemand::compile(
                s,
                &report.phases,
                report.time_ns,
                (report.max_row_cell_writes, report.required_endurance(ENDURANCE_YEARS)),
                &cluster.host_config().expect("candidate shards imply an active shard"),
                cluster.contention(),
                self.want_detail,
            );
            let demand = Arc::new(demand);
            self.runs.insert((key, s), Arc::new(ShardRun { stamp, exec, demand }));
            fresh = false;
        }
        if let Some(m) = self.merged.get(&key).filter(|_| fresh) {
            return Ok(m.resolution.clone());
        }
        let runs: Vec<&ShardRun> = candidates.iter().map(|&s| &*self.runs[&(key, s)]).collect();
        let refs: Vec<&QueryExecution> = runs.iter().map(|r| &r.exec).collect();
        let shards_pruned = mask.len() - candidates.len();
        let merged = cluster.merge_executions(query, &refs, shards_pruned);
        let demand = QueryDemand {
            query_id: query.id.clone(),
            shards: runs.iter().map(|r| Arc::clone(&r.demand)).collect(),
            shards_pruned,
            merge_ns: merged.report.merge_time_ns,
        };
        let resolution = (Arc::new(demand), Arc::new(merged));
        let (inserted, clock) = (self.inserted, self.clock);
        self.merged.insert(key, Merged { mask, inserted, clock, resolution: resolution.clone() });
        Ok(resolution)
    }
}

/// Resolve one query's full service demand against `cluster` once: a
/// fresh resolution cache's one use — zone-map plan, execute every
/// candidate shard slice, merge the partials in shard order, and
/// compile each shard execution into its slice chain. The cache is
/// dropped before the result is unwrapped, so nothing is copied out.
///
/// The returned [`ClusterExecution`] is the query's answer against the
/// engine's current state, bit-identical to the batch oracle, and the
/// [`QueryDemand`] is what the query would occupy if admitted now (a
/// fair-share or calibration probe). Resolution is deterministic and
/// read-only.
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
    let (demand, exec) = ResolutionCache::new(want_detail).resolve(cluster, 0, query)?;
    Ok((Arc::unwrap_or_clone(demand), Arc::unwrap_or_clone(exec)))
}

/// One admitted mutation's compiled service demand across its ingest
/// lanes: the write-phase chains the event loop plays out on the shared
/// host channel and the per-lane module servers. Unlike queries there
/// is no merge — a mutation completes when its last lane chain does.
#[derive(Clone, Debug)]
pub(crate) struct MutationDemand {
    /// The mutation's label (trace/report lines).
    pub(crate) label: String,
    /// Per-lane chains (the [`ShardDemand::shard`] field holds the
    /// *ingest lane* index — fact-shard lanes share indices with query
    /// shard slices; auxiliary lanes, e.g. star dimension modules, sit
    /// above [`StreamEngine::active_shards`]). Held behind
    /// [`Arc`]s like a query's chains, so the kernel reads both as one
    /// slice type.
    pub(crate) lanes: Vec<Arc<ShardDemand>>,
    /// Records the mutation rewrote (UPDATE), summed over lanes.
    pub(crate) records_updated: u64,
    /// Records the mutation appended (INSERT), summed over lanes.
    pub(crate) records_inserted: u64,
}

/// Compile the per-lane reports an applied mutation produced
/// ([`StreamEngine::apply_mutation`]) into a [`MutationDemand`]:
/// each lane's phase log becomes a bus/local slice chain exactly as
/// query shard executions do, so UPDATE mask writes and INSERT row
/// transfers queue on the shared channel alongside query traffic.
pub(crate) fn compile_mutation_demand(
    label: String,
    applied: &[(usize, MutationReport)],
    host: &HostConfig,
    contention: bool,
    want_detail: bool,
) -> MutationDemand {
    let lanes = applied
        .iter()
        .map(|(lane, rep)| {
            let wear = (rep.max_row_cell_writes, rep.required_endurance(ENDURANCE_YEARS));
            Arc::new(ShardDemand::compile(
                *lane,
                &rep.phases,
                rep.time_ns,
                wear,
                host,
                contention,
                want_detail,
            ))
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
impl ResolutionCache {
    /// `(merged resolutions, per-shard executions)` held.
    pub(crate) fn entries(&self) -> (usize, usize) {
        (self.merged.len(), self.runs.len())
    }
}

#[cfg(test)]
mod slice_tests {
    use super::*;
    use bbpim_sim::timeline::{Phase, RunLog};

    fn phase(kind: PhaseKind, time_ns: f64, host_bytes: u64) -> Phase {
        Phase { kind, time_ns, energy_pj: 0.0, chip_power_w: 0.0, host_bytes }
    }

    fn compile_slices(
        exec: &QueryExecution,
        host: &HostConfig,
        contention: bool,
        want_detail: bool,
    ) -> ShardDemand {
        let (log, time_ns) = (&exec.report.phases, exec.report.time_ns);
        ShardDemand::compile(0, log, time_ns, (0, 0.0), host, contention, want_detail)
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
                Arc::new(ShardDemand {
                    shard: 0,
                    cell_writes: 0,
                    required_endurance: 0.0,
                    slices: vec![
                        Slice { bus_ns: 10.0, local_ns: 90.0, bus_kind: None, bus_bytes: 0 },
                        Slice { bus_ns: 5.0, local_ns: 45.0, bus_kind: None, bus_bytes: 0 },
                    ],
                    detail: Vec::new(),
                }),
                Arc::new(ShardDemand {
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
                }),
            ],
            shards_pruned: 1,
            merge_ns: 25.0,
        };
        assert_eq!(d.total_busy_ns(), 225.0);
    }
}
