//! The streaming scheduler: the admission front-end of
//! [`run_stream`] over the shared chain-execution
//! [`kernel`](crate::kernel).
//!
//! [`run_stream`] admits a [`Workload`]'s timestamped arrivals —
//! queries **and mutations**, interleaved on one clock — into a
//! [`StreamEngine`]. This module decides *what runs and when it may
//! start*; how an admitted job's slice chains then queue on the shared
//! host channel and the per-lane module servers is the kernel's
//! business, identical for queries, mutations and the serving layer
//! (`bbpim-serve`). To the kernel a query arrival and a mutation
//! arrival are the same kind of job; they differ only here:
//!
//! * **Admission control** — at most [`SchedConfig::max_in_flight`]
//!   queries hold execution state at once; excess arrivals wait in the
//!   admission queue (backpressure). When a slot frees, the next
//!   admitted query is picked by [`AdmissionPolicy`]: FIFO, or
//!   shortest-candidate-set-first (the zone-map planner's candidate
//!   shard count is a free size estimate, so heavily pruned — short —
//!   queries overtake broad ones).
//! * **Streaming ingest** — mutation arrivals queue in strict FIFO
//!   behind a bounded per-lane ingest buffer: the head admits only
//!   while every lane it plans to touch holds fewer than
//!   [`SchedConfig::ingest_buffer`] in-flight mutations; otherwise
//!   ingest **stalls deterministically** until a lane chain completes
//!   (nothing overtakes a stalled head). At admission the mutation is
//!   applied to the engine ([`StreamEngine::apply_mutation`]) — zone
//!   maps widen, insert cursors advance, cached star join plans fall —
//!   and its byte-tagged write phases are compiled into per-lane slice
//!   chains. A mutation is durable when its last lane chain finishes;
//!   it takes no host-side merge.
//! * **Snapshot consistency** — a query's answer is resolved *at its
//!   admission*, against exactly the mutations admitted before it (its
//!   [`QueryCompletion::epoch`]). Replaying the first `epoch` mutations
//!   into a fresh engine and running the query reproduces the streamed
//!   answer — the whole execution, phase logs included —
//!   bit-identically; the ingest-equivalence suites assert exactly this
//!   at every admission prefix. Resolutions are cached per (query,
//!   shard), each shard execution **stamped** with the versions of the
//!   shard state it read: the shard's insert version and its version
//!   of every attribute the query references. An admitted UPDATE bumps
//!   its SET attributes on the lanes it reports, an INSERT the insert
//!   version of the lane it lands on, so an admission re-plans the
//!   query's shards and re-runs only the candidates whose stamp moved
//!   — an UPDATE of an attribute no query reads re-runs nothing. The
//!   merge is redone when a shard re-ran, the mask changed or an
//!   INSERT landed anywhere since, pruned shards included: the merged
//!   report counts every shard's records and pages. *Stated
//!   exception:* on an engine with auxiliary ingest lanes (the star
//!   model) any mutation bumps every shard, since applying it drops
//!   the shared join plan and its prelude is then charged to whichever
//!   shard leads next.
//! * **Planning** — each admitted query is planned through the zone-map
//!   planner ([`StreamEngine::plan_shards`]); pruned shards receive no
//!   work, and a query whose candidate set is empty is answered by the
//!   planner alone, completing at admission. Once a query's last shard
//!   chain finishes, the host-side merge of its partials takes one
//!   more grant on the shared channel.
//! * **Lanes** — fact-shard lanes share indices (and module servers)
//!   between query shard slices and mutation chains; auxiliary ingest
//!   lanes — star dimension modules — sit above
//!   [`StreamEngine::active_shards`].
//! * **Contention model** — with [`StreamEngine::contention`] on (the
//!   default) every tagged host phase of every in-flight query and
//!   mutation is compiled to a bus slice
//!   ([`bbpim_sim::hostbus::phase_occupancy_ns`]); with it off only
//!   dispatch and merge serialise (the pre-contention optimistic
//!   model) — useful for A/B latency studies.
//!
//! Every query service demand is taken from real per-shard executions
//! ([`StreamEngine::run_on_shard`]) against the admitted-mutation
//! snapshot, and the merged answers are folded with
//! [`StreamEngine::merge_executions`] in shard order. For pure-query
//! workloads the streamed results are bit-identical to
//! [`Cluster::run_batch`] over the same queries; only timing and
//! completion order differ. The event timeline is a pure function of
//! `(cluster, workload, config)`.

use std::collections::VecDeque;
use std::sync::Arc;

use bbpim_cluster::{Cluster, ClusterError, ClusterExecution, Storage};
use bbpim_core::mutation::{Mutation, MutationReport};
use bbpim_core::result::QueryExecution;
use bbpim_db::plan::{Pred, Query};
use bbpim_sim::config::HostConfig;
pub use bbpim_sim::endurance::ENDURANCE_YEARS;
use bbpim_trace::{ArgValue, TraceRecorder, TrackId};

use crate::demand::{
    compile_mutation_demand, MutationDemand, QueryDemand, Resolution, ResolutionCache, ShardDemand,
};
use crate::error::SchedError;
use crate::kernel::{Jobs, Kernel, Moment, SpanArgs, SpanLabels};
use crate::report::{LatencySummary, RunRates};
use crate::workload::Workload;

/// The scatter/gather surface the streaming scheduler needs from a
/// sharded engine. [`Cluster`] implements it once for every storage
/// model — the scheduler interleaves shard slices identically on the
/// pre-joined and the star store, so streamed answers stay
/// bit-identical to batch runs whichever one is underneath.
pub trait StreamEngine {
    /// Is the shared-host-channel contention model on?
    fn contention(&self) -> bool;

    /// The host-channel parameters (`None` only for an empty cluster,
    /// which can never produce candidate shards).
    fn host_config(&self) -> Option<HostConfig>;

    /// Fact shards actually holding records.
    fn active_shards(&self) -> usize;

    /// Every lane a mutation may occupy: the fact shards plus any
    /// auxiliary ingest lanes (the star cluster adds one per dimension
    /// table). Lane indices in [`StreamEngine::apply_mutation`] reports
    /// are always below this; fact-shard lanes share indices — and
    /// per-module queues — with query shard slices.
    fn ingest_lanes(&self) -> usize {
        self.active_shards()
    }

    /// The lanes a mutation would occupy *right now* — the
    /// ingest-buffer admission check. Re-planned on every admission
    /// attempt: earlier admissions widen zone maps and advance insert
    /// cursors, so a stalled mutation's lane set may shrink or move by
    /// the time it clears the buffer.
    ///
    /// # Errors
    ///
    /// Attribute resolution / routing failures.
    fn plan_mutation_lanes(&self, mutation: &Mutation) -> Result<Vec<usize>, ClusterError>;

    /// Apply `mutation` to the engine state (zone maps widen, domain
    /// indexes follow, cached plans invalidate) and return the per-lane
    /// reports whose phase logs become the mutation's slice chains.
    ///
    /// Implementers must report **every lane they changed**, including
    /// lanes where zero records matched (an UPDATE may still rewrite
    /// page zones there): the scheduler re-runs cached shard executions
    /// only on the lanes this list names.
    ///
    /// # Errors
    ///
    /// Validation or substrate failures.
    fn apply_mutation(
        &mut self,
        mutation: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError>;

    /// Zone-map shard admission: one flag per active shard.
    ///
    /// # Errors
    ///
    /// Attribute resolution failures.
    fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError>;

    /// Execute one query on one active shard (the scatter half).
    ///
    /// # Errors
    ///
    /// Unknown shard index or substrate failures.
    fn run_on_shard(&mut self, shard: usize, query: &Query)
        -> Result<QueryExecution, ClusterError>;

    /// Fold per-shard partials into a cluster answer (the gather half).
    fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution;
}

/// Both storage models are the one [`Cluster`]: a star join's prelude
/// is ordinary phases in its lead shard's log, so dimension filters and
/// bitmap broadcasts queue on the shared channel like any transfer.
impl<S: Storage> StreamEngine for Cluster<S> {
    fn contention(&self) -> bool {
        Cluster::contention(self)
    }

    fn host_config(&self) -> Option<HostConfig> {
        self.shard_table(0).map(|t| t.config().host.clone())
    }

    fn active_shards(&self) -> usize {
        Cluster::active_shards(self)
    }

    fn ingest_lanes(&self) -> usize {
        Cluster::ingest_lanes(self)
    }

    fn plan_mutation_lanes(&self, mutation: &Mutation) -> Result<Vec<usize>, ClusterError> {
        Cluster::plan_mutation_lanes(self, mutation)
    }

    fn apply_mutation(
        &mut self,
        mutation: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        Cluster::mutate_on_lanes(self, mutation)
    }

    fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        Cluster::plan_shards(self, filter)
    }

    fn run_on_shard(
        &mut self,
        shard: usize,
        query: &Query,
    ) -> Result<QueryExecution, ClusterError> {
        Cluster::run_on_shard(self, shard, query)
    }

    fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution {
        Cluster::merge_executions(self, query, executions, shards_pruned)
    }
}

/// How the admission queue picks the next query when a slot frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Strict arrival order.
    #[default]
    Fifo,
    /// Fewest candidate shards first (ties broken by arrival order).
    /// The planner's candidate set size is a zero-cost service-demand
    /// estimate: a query pruned down to one shard is almost surely
    /// shorter than one touching every shard. The estimate is planned
    /// at *arrival* (a heuristic only); the real demand is planned at
    /// admission, against the admitted-mutation snapshot.
    ShortestCandidateFirst,
}

impl AdmissionPolicy {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Fifo => "fifo",
            AdmissionPolicy::ShortestCandidateFirst => "scsf",
        }
    }

    /// Both policies, for sweeps.
    pub fn all() -> [AdmissionPolicy; 2] {
        [AdmissionPolicy::Fifo, AdmissionPolicy::ShortestCandidateFirst]
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Bound on concurrently in-flight queries (admission control).
    pub max_in_flight: usize,
    /// Admission order under backpressure.
    pub policy: AdmissionPolicy,
    /// Per-lane bound on concurrently in-flight mutations (the bounded
    /// ingest buffer). The head of the mutation queue admits only while
    /// every lane it plans to touch holds fewer than this many
    /// in-flight mutations; otherwise ingest stalls — strict FIFO, so
    /// nothing overtakes a stalled head — until a lane chain completes.
    pub ingest_buffer: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig { max_in_flight: 8, policy: AdmissionPolicy::Fifo, ingest_buffer: 2 }
    }
}

/// What happened at one point of the simulated timeline (determinism
/// tests compare full traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The query arrived (entered the admission queue).
    Arrive,
    /// The query was admitted (left the admission queue).
    Admit,
    /// The host bus finished the query's *first* bus slice for a shard
    /// (the per-page dispatch that opens every shard chain).
    Dispatched,
    /// A shard finished the query's entire slice chain.
    ShardDone,
    /// The query's partials merged; the query is complete.
    Complete,
    /// A mutation arrived (entered the ingest queue). For mutation
    /// events the `arrival` field indexes
    /// [`Workload::mutation_arrivals`].
    MutationArrive,
    /// The head mutation could not admit — some planned lane's ingest
    /// buffer is full (`shard` names the first full lane). Recorded
    /// once per stall episode; strict FIFO holds everything behind it.
    MutationStall,
    /// The mutation was admitted: applied to the engine (later-admitted
    /// queries observe it) and its lane chains started.
    MutationAdmit,
    /// One ingest lane finished the mutation's slice chain, freeing its
    /// buffer slot.
    MutationLaneDone,
    /// Every lane chain finished; the mutation is durable and complete.
    MutationComplete,
}

/// One record of the simulated event timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEvent {
    /// Simulated time, nanoseconds.
    pub t_ns: f64,
    /// What happened.
    pub kind: EventKind,
    /// Which arrival: an index into the workload's query arrival trace,
    /// or — for `Mutation*` kinds — its mutation arrival trace.
    pub arrival: usize,
    /// The shard/lane involved, for [`EventKind::Dispatched`] /
    /// [`EventKind::ShardDone`] / [`EventKind::MutationStall`] /
    /// [`EventKind::MutationLaneDone`].
    pub shard: Option<usize>,
}

/// Latency accounting for one completed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCompletion {
    /// Index into the workload's arrival trace.
    pub arrival: usize,
    /// Query identifier.
    pub query_id: String,
    /// When the query arrived.
    pub arrive_ns: f64,
    /// When admission control let it in.
    pub admit_ns: f64,
    /// When its first bus slice started on the host channel (equals
    /// `admit_ns` for planner-only answers).
    pub first_service_ns: f64,
    /// When its merged answer was ready.
    pub complete_ns: f64,
    /// Candidate shards dispatched.
    pub shards_dispatched: usize,
    /// Active shards pruned by the zone-map planner.
    pub shards_pruned: usize,
    /// Mutations admitted before this query's admission — the snapshot
    /// its answer reflects. Replaying exactly the first `epoch` arrived
    /// mutations into a fresh engine reproduces the answer bit-exactly.
    pub epoch: usize,
}

impl QueryCompletion {
    /// End-to-end sojourn time (arrival → merged answer).
    pub fn latency_ns(&self) -> f64 {
        self.complete_ns - self.arrive_ns
    }

    /// Time spent waiting (admission queue + host-bus queue) before any
    /// service.
    pub fn wait_ns(&self) -> f64 {
        self.first_service_ns - self.arrive_ns
    }

    /// Time from first service to completion.
    pub fn service_ns(&self) -> f64 {
        self.complete_ns - self.first_service_ns
    }
}

/// Latency accounting for one completed (durable) mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationCompletion {
    /// Index into the workload's mutation arrival trace.
    pub arrival: usize,
    /// The mutation's label.
    pub label: String,
    /// When the mutation arrived (entered the ingest queue).
    pub arrive_ns: f64,
    /// When the ingest buffer admitted it (the point later queries
    /// start observing it).
    pub admit_ns: f64,
    /// When its last lane chain finished (durable).
    pub complete_ns: f64,
    /// Ingest lanes the mutation occupied.
    pub lanes: usize,
    /// Records rewritten (UPDATE), summed over lanes.
    pub records_updated: u64,
    /// Records appended (INSERT), summed over lanes.
    pub records_inserted: u64,
    /// This mutation's position in admission order, 1-based: queries
    /// with [`QueryCompletion::epoch`] `>= epoch` observe it.
    pub epoch: usize,
}

impl MutationCompletion {
    /// End-to-end sojourn time (arrival → durable).
    pub fn latency_ns(&self) -> f64 {
        self.complete_ns - self.arrive_ns
    }
}

/// Everything one streamed run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// The admission policy that ran.
    pub policy: AdmissionPolicy,
    /// Per-query latency records, in completion order (compare with
    /// arrival indices to observe out-of-order completion).
    pub completions: Vec<QueryCompletion>,
    /// Per-mutation latency records, in completion order (empty for
    /// pure-query workloads).
    pub mutation_completions: Vec<MutationCompletion>,
    /// Merged executions in query arrival order — each bit-identical to
    /// a fresh engine that replayed the first
    /// [`QueryCompletion::epoch`] mutations and ran the query. Arrivals
    /// answered by one resolution share it.
    pub executions: Vec<Arc<ClusterExecution>>,
    /// The full event timeline (deterministic per input).
    pub timeline: Vec<TimelineEvent>,
    /// When the last query or mutation completed.
    pub makespan_ns: f64,
    /// Host-channel busy time: dispatch, every tagged transfer slice
    /// (under contention), mutation write phases and merges.
    pub host_busy_ns: f64,
    /// Per-lane module-local busy time. For pure-query workloads one
    /// entry per active shard; with ingest, one per ingest lane
    /// (auxiliary lanes — star dimension modules — after the shards).
    pub shard_busy_ns: Vec<f64>,
    /// Per-lane accumulated worst-row cell writes over every query
    /// slice and mutation chain that ran there (the endurance model's
    /// input, surfaced per module: UPDATE-heavy streams wear modules
    /// unevenly).
    pub shard_cell_writes: Vec<u64>,
    /// Per-lane required cell endurance (write cycles) to sustain that
    /// module's worst query or mutation back-to-back for ten years —
    /// the paper's Fig. 9 metric, per module. Zero for modules whose
    /// work performs no PIM writes.
    pub shard_required_endurance: Vec<f64>,
    /// Backpressure stall episodes: times the head of the ingest queue
    /// found a planned lane's buffer full.
    pub ingest_stalls: usize,
    /// Total simulated time the head of the ingest queue spent stalled.
    pub ingest_stall_ns: f64,
}

impl StreamOutcome {
    /// Latency distribution over all query completions.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::of(&self.completions)
    }

    /// The run's makespan and host-busy time, as the one statement of
    /// the three rates below.
    fn rates(&self) -> RunRates {
        RunRates { makespan_ns: self.makespan_ns, host_busy_ns: self.host_busy_ns }
    }

    /// Completed queries per second of simulated time.
    pub fn throughput_qps(&self) -> f64 {
        self.rates().throughput_qps(self.completions.len())
    }

    /// Fraction of the makespan the host channel was busy, saturated to
    /// `[0, 1]` (eager FIFO grants can stretch past the last
    /// completion, so the raw ratio could drift above 1).
    pub fn host_utilisation(&self) -> f64 {
        self.rates().host_utilisation()
    }

    /// Raw host-channel demand ratio `offered_ns / makespan_ns`,
    /// **unclamped** — above 1.0 it measures how deeply the stream
    /// oversubscribes the channel, which the saturated
    /// [`StreamOutcome::host_utilisation`] deliberately hides
    /// ([`RunRates::host_demand`]).
    pub fn host_demand(&self) -> f64 {
        self.rates().host_demand()
    }

    /// Mean per-lane PIM utilisation over the makespan.
    pub fn mean_shard_utilisation(&self) -> f64 {
        if self.makespan_ns <= 0.0 || self.shard_busy_ns.is_empty() {
            return 0.0;
        }
        let mean_busy = self.shard_busy_ns.iter().sum::<f64>() / self.shard_busy_ns.len() as f64;
        (mean_busy / self.makespan_ns).clamp(0.0, 1.0)
    }

    /// The first completion that finished while an earlier arrival was
    /// still pending — the concrete out-of-order evidence, if any.
    pub fn first_overtaker(&self) -> Option<&QueryCompletion> {
        let slots = self.completions.iter().map(|c| c.arrival + 1).max().unwrap_or(0);
        let mut completed = vec![false; slots];
        self.completions.iter().find(|c| {
            completed[c.arrival] = true;
            (0..c.arrival).any(|i| !completed[i])
        })
    }

    /// Queries that finished *after* a later arrival did — i.e. they
    /// were overtaken. Nonzero means out-of-order completion happened.
    pub fn overtaken(&self) -> usize {
        let mut max_seen = None::<usize>;
        let mut n = 0;
        for c in &self.completions {
            if max_seen.is_some_and(|m| m > c.arrival) {
                n += 1;
            }
            max_seen = Some(max_seen.map_or(c.arrival, |m| m.max(c.arrival)));
        }
        n
    }
}

/// One workload arrival of either kind — the scheduler's only kernel
/// event, and (see [`Sim::job`]) the decoded form of a kernel job id.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Job {
    /// Index into [`Workload::arrivals`].
    Query(usize),
    /// Index into [`Workload::mutation_arrivals`].
    Mutation(usize),
}

/// Per-job admission record, held while the job is in flight.
#[derive(Clone, Copy)]
struct Progress {
    admit_ns: f64,
    first_service_ns: f64,
    epoch: usize,
}

/// The admission front-end over the chain kernel.
struct Sim<'a, E: StreamEngine> {
    cfg: &'a SchedConfig,
    workload: &'a Workload,
    cluster: &'a mut E,
    /// Mutations admitted so far — the snapshot counter.
    epoch: usize,
    /// Resolutions keyed by query index, stamped per shard: repeated
    /// arrivals share one resolution until an admitted mutation touches
    /// a shard state it read, and then only that shard re-runs (an
    /// INSERT anywhere re-merges, since the merged report counts every
    /// shard's records). Holds at most one merged resolution per
    /// distinct query and one execution per (query, active shard).
    by_query: ResolutionCache,
    /// Per query arrival, filled at admission: its resolved demand and
    /// merged answer, shared with every arrival the same resolution
    /// answered.
    admitted: Vec<Option<Resolution>>,
    /// SCSF candidate-count estimate, planned at arrival.
    cand_est: Vec<usize>,
    /// Per mutation arrival, filled at admission.
    mut_demands: Vec<Option<MutationDemand>>,
    waiting: Vec<usize>,
    mut_waiting: VecDeque<usize>,
    in_flight: usize,
    /// In-flight mutation count per ingest lane (the bounded buffer).
    lane_inflight: Vec<usize>,
    /// When the current head-of-queue stall began, if stalled.
    stalled_since: Option<f64>,
    ingest_stalls: usize,
    ingest_stall_ns: f64,
    /// Per kernel job id, while the job runs.
    progress: Vec<Option<Progress>>,
    completions: Vec<QueryCompletion>,
    mutation_completions: Vec<MutationCompletion>,
    timeline: Vec<TimelineEvent>,
    sched_track: TrackId,
}

impl<E: StreamEngine> Jobs for Sim<'_, E> {
    fn chains(&self, job: usize) -> &[Arc<ShardDemand>] {
        match self.job(job) {
            Job::Query(ai) => &self.qd(ai).shards,
            Job::Mutation(mi) => &self.md(mi).lanes,
        }
    }

    fn labels(&self, job: usize) -> SpanLabels {
        let job = self.job(job);
        let (lane_key, local) = match job {
            Job::Query(_) => ("shard", "local"),
            Job::Mutation(_) => ("lane", "ingest"),
        };
        SpanLabels { args: self.job_args(job), lane_key, local }
    }
}

impl<'a, E: StreamEngine> Sim<'a, E> {
    /// Kernel job ids: query arrivals keep their index, mutation
    /// arrivals follow them.
    fn job(&self, id: usize) -> Job {
        match id.checked_sub(self.workload.len()) {
            None => Job::Query(id),
            Some(mi) => Job::Mutation(mi),
        }
    }

    fn record(&mut self, t_ns: f64, kind: EventKind, arrival: usize, shard: Option<usize>) {
        self.timeline.push(TimelineEvent { t_ns, kind, arrival, shard });
    }

    /// The admitted demand of a query arrival.
    fn qd(&self, ai: usize) -> &QueryDemand {
        &self.admitted[ai].as_ref().expect("demand resolved at admission").0
    }

    /// The admitted demand of a mutation arrival.
    fn md(&self, mi: usize) -> &MutationDemand {
        self.mut_demands[mi].as_ref().expect("mutation compiled at admission")
    }

    /// The mutation a mutation arrival carries.
    fn mutation(&self, mi: usize) -> &'a Mutation {
        &self.workload.mutations()[self.workload.mutation_arrivals()[mi].mutation]
    }

    fn arrive_ns(&self, job: Job) -> f64 {
        match job {
            Job::Query(ai) => self.workload.arrivals()[ai].at_ns,
            Job::Mutation(mi) => self.workload.mutation_arrivals()[mi].at_ns,
        }
    }

    /// Standard event attributes: the arrival index and its query id
    /// or mutation label.
    fn job_args(&self, job: Job) -> SpanArgs {
        match job {
            Job::Query(ai) => {
                let id = self.workload.queries()[self.workload.arrivals()[ai].query].id.clone();
                vec![("arrival", ArgValue::U64(ai as u64)), ("query", ArgValue::Str(id))]
            }
            Job::Mutation(mi) => {
                let label = self.mutation(mi).label();
                vec![("ingest", ArgValue::U64(mi as u64)), ("mutation", ArgValue::Str(label))]
            }
        }
    }

    /// One scheduler-track instant about `job`: the standard attributes
    /// plus at most one more.
    fn trace_instant(
        &self,
        k: &mut Kernel<'_, Job>,
        name: &str,
        t_ns: f64,
        job: Job,
        extra: Option<(&'static str, ArgValue)>,
    ) {
        let Some(trace) = k.tracer() else { return };
        let mut args = self.job_args(job);
        args.extend(extra);
        trace.instant(self.sched_track, name, t_ns, args);
    }

    /// The `key` attribute holding how long `job` has been in the
    /// system at `t_ns`.
    fn age(&self, key: &'static str, t_ns: f64, job: Job) -> Option<(&'static str, ArgValue)> {
        Some((key, ArgValue::F64(t_ns - self.arrive_ns(job))))
    }

    /// Sample the scheduler counters (admission-queue depth, in-flight
    /// count, and — on HTAP workloads — ingest-queue depth) onto the
    /// scheduler track.
    fn trace_queue_counters(&self, k: &mut Kernel<'_, Job>, t_ns: f64) {
        let Some(trace) = k.tracer() else { return };
        trace.counter(self.sched_track, "admission-queue", t_ns, self.waiting.len() as f64);
        trace.counter(self.sched_track, "in-flight", t_ns, self.in_flight as f64);
        if self.workload.has_mutations() {
            trace.counter(self.sched_track, "ingest-queue", t_ns, self.mut_waiting.len() as f64);
        }
    }

    /// Pick the next admission per policy; `waiting` keeps arrival
    /// order, so FIFO is the front and SCSF is the min candidate count
    /// with arrival order as tiebreak.
    fn pick_next(&self) -> usize {
        match self.cfg.policy {
            AdmissionPolicy::Fifo => 0,
            AdmissionPolicy::ShortestCandidateFirst => self
                .waiting
                .iter()
                .enumerate()
                .min_by_key(|(_, &ai)| (self.cand_est[ai], ai))
                .map(|(pos, _)| pos)
                .expect("pick_next on an empty queue"),
        }
    }

    /// Strict-FIFO ingest admission behind the bounded per-lane buffer.
    fn try_admit_mutations(
        &mut self,
        k: &mut Kernel<'_, Job>,
        now_ns: f64,
    ) -> Result<(), SchedError> {
        while let Some(&mi) = self.mut_waiting.front() {
            let lanes = self.cluster.plan_mutation_lanes(self.mutation(mi))?;
            let full = lanes.iter().find(|&&l| self.lane_inflight[l] >= self.cfg.ingest_buffer);
            if let Some(&lane) = full {
                if self.stalled_since.is_none() {
                    // Head-of-line backpressure: record once per
                    // episode; everything behind the head waits too.
                    self.stalled_since = Some(now_ns);
                    self.ingest_stalls += 1;
                    self.record(now_ns, EventKind::MutationStall, mi, Some(lane));
                    let lane = ("lane", ArgValue::U64(lane as u64));
                    self.trace_instant(k, "ingest-stall", now_ns, Job::Mutation(mi), Some(lane));
                }
                return Ok(());
            }
            if let Some(since) = self.stalled_since.take() {
                self.ingest_stall_ns += now_ns - since;
            }
            self.mut_waiting.pop_front();
            self.admit_mutation(k, now_ns, mi)?;
        }
        Ok(())
    }

    /// Admit one mutation: bump the epoch, apply it to the engine (the
    /// snapshot point), bump the resolution stamps of what it touched,
    /// compile its lane chains and start them.
    fn admit_mutation(
        &mut self,
        k: &mut Kernel<'_, Job>,
        now_ns: f64,
        mi: usize,
    ) -> Result<(), SchedError> {
        self.record(now_ns, EventKind::MutationAdmit, mi, None);
        let queued = self.age("queued_ns", now_ns, Job::Mutation(mi));
        self.trace_instant(k, "ingest-admit", now_ns, Job::Mutation(mi), queued);
        self.epoch += 1;
        let m = self.mutation(mi);
        let applied = self.cluster.apply_mutation(m)?;
        self.by_query.mutated(&*self.cluster, m, &applied);
        let contention = self.cluster.contention();
        let demand = match self.cluster.host_config() {
            Some(host) => {
                let detail = k.tracer().is_some();
                compile_mutation_demand(m.label(), &applied, &host, contention, detail)
            }
            None => compile_mutation_demand(m.label(), &[], &HostConfig::default(), false, false),
        };
        for ld in &demand.lanes {
            self.lane_inflight[ld.shard] += 1;
        }
        let idle = demand.lanes.is_empty();
        self.mut_demands[mi] = Some(demand);
        let mut p = Progress { admit_ns: now_ns, first_service_ns: now_ns, epoch: self.epoch };
        if idle {
            // Zone maps admitted nothing (or the engine absorbed the
            // mutation without PIM work): durable at admission.
            self.complete_mutation(k, now_ns, mi, p);
            return Ok(());
        }
        let job = self.workload.len() + mi;
        p.first_service_ns = k.start(now_ns, &*self, job);
        self.progress[job] = Some(p);
        self.trace_queue_counters(k, now_ns);
        Ok(())
    }

    /// Admit queries from the queue while in-flight slots are free,
    /// resolving each one's demand against the current (admitted-
    /// mutation) engine state.
    fn try_admit_queries(
        &mut self,
        k: &mut Kernel<'_, Job>,
        now_ns: f64,
    ) -> Result<(), SchedError> {
        while self.in_flight < self.cfg.max_in_flight && !self.waiting.is_empty() {
            let ai = self.waiting.remove(self.pick_next());
            self.record(now_ns, EventKind::Admit, ai, None);
            let queued = self.age("queued_ns", now_ns, Job::Query(ai));
            self.trace_instant(k, "admit", now_ns, Job::Query(ai), queued);
            // Snapshot-consistent resolution: plan and execute against
            // exactly the mutations admitted so far, re-running only
            // the shards whose stamp an admitted mutation moved.
            let qi = self.workload.arrivals()[ai].query;
            let query = &self.workload.queries()[qi];
            self.admitted[ai] = Some(self.by_query.resolve(&mut *self.cluster, qi, query)?);
            let mut p = Progress { admit_ns: now_ns, first_service_ns: now_ns, epoch: self.epoch };
            if self.qd(ai).shards.is_empty() {
                // The planner answered the query: nothing to dispatch,
                // the (empty) merge is free, the slot never fills.
                debug_assert_eq!(self.qd(ai).merge_ns, 0.0, "empty merges cost nothing");
                self.complete(k, now_ns, ai, p);
            } else {
                self.in_flight += 1;
                // The host opens every candidate shard's chain; the
                // first slice of each (the per-page dispatch)
                // serialises on the bus against everything in flight.
                p.first_service_ns = k.start(now_ns, &*self, ai);
                self.progress[ai] = Some(p);
            }
            self.trace_queue_counters(k, now_ns);
        }
        Ok(())
    }

    fn complete(&mut self, k: &mut Kernel<'_, Job>, now_ns: f64, ai: usize, p: Progress) {
        self.record(now_ns, EventKind::Complete, ai, None);
        let latency = self.age("latency_ns", now_ns, Job::Query(ai));
        self.trace_instant(k, "complete", now_ns, Job::Query(ai), latency);
        let d = self.qd(ai);
        self.completions.push(QueryCompletion {
            arrival: ai,
            query_id: d.query_id.clone(),
            arrive_ns: self.arrive_ns(Job::Query(ai)),
            admit_ns: p.admit_ns,
            first_service_ns: p.first_service_ns,
            complete_ns: now_ns,
            shards_dispatched: d.shards.len(),
            shards_pruned: d.shards_pruned,
            epoch: p.epoch,
        });
    }

    fn complete_mutation(&mut self, k: &mut Kernel<'_, Job>, now_ns: f64, mi: usize, p: Progress) {
        self.record(now_ns, EventKind::MutationComplete, mi, None);
        let latency = self.age("latency_ns", now_ns, Job::Mutation(mi));
        self.trace_instant(k, "ingest-complete", now_ns, Job::Mutation(mi), latency);
        let d = self.md(mi);
        self.mutation_completions.push(MutationCompletion {
            arrival: mi,
            label: d.label.clone(),
            arrive_ns: self.arrive_ns(Job::Mutation(mi)),
            admit_ns: p.admit_ns,
            complete_ns: now_ns,
            lanes: d.lanes.len(),
            records_updated: d.records_updated,
            records_inserted: d.records_inserted,
            epoch: p.epoch,
        });
    }

    /// Play the kernel's events out until every job has completed.
    fn drive(&mut self, k: &mut Kernel<'_, Job>) -> Result<(), SchedError> {
        while let Some((t, moment)) = k.next(&*self) {
            match moment {
                Moment::Front(Job::Query(ai)) => {
                    self.record(t, EventKind::Arrive, ai, None);
                    self.trace_instant(k, "arrive", t, Job::Query(ai), None);
                    // SCSF's size estimate, planned against the zone
                    // maps as they stand at arrival (heuristic only —
                    // the real demand is planned at admission).
                    let qi = self.workload.arrivals()[ai].query;
                    let filter = &self.workload.queries()[qi].filter;
                    self.cand_est[ai] =
                        self.cluster.plan_shards(filter)?.iter().filter(|&&b| b).count();
                    self.waiting.push(ai);
                }
                Moment::Front(Job::Mutation(mi)) => {
                    self.record(t, EventKind::MutationArrive, mi, None);
                    self.trace_instant(k, "ingest-arrive", t, Job::Mutation(mi), None);
                    self.mut_waiting.push_back(mi);
                }
                // The timeline records dispatch for query chains only.
                Moment::Dispatched { job, lane } => {
                    if let Job::Query(ai) = self.job(job) {
                        self.record(t, EventKind::Dispatched, ai, Some(lane));
                    }
                    continue;
                }
                Moment::ChainDone { job, lane, last } => match self.job(job) {
                    Job::Query(ai) => {
                        self.record(t, EventKind::ShardDone, ai, Some(lane));
                        if last {
                            k.merge(t, &*self, job, self.qd(ai).merge_ns);
                        }
                        continue;
                    }
                    // A mutation's lane chain finished: free the lane's
                    // ingest-buffer slot (the stalled head may now
                    // clear); the mutation is durable at its last lane,
                    // with no host-side merge.
                    Job::Mutation(mi) => {
                        self.record(t, EventKind::MutationLaneDone, mi, Some(lane));
                        self.lane_inflight[lane] -= 1;
                        if last {
                            let p = self.progress[job].take().expect("in-flight mutation");
                            self.complete_mutation(k, t, mi, p);
                        }
                    }
                },
                Moment::MergeDone { job: ai } => {
                    let p = self.progress[ai].take().expect("merging query has progress");
                    self.complete(k, t, ai, p);
                    self.in_flight -= 1;
                }
            }
            // A queue grew or capacity freed: admit while capacity
            // allows. Mutations admit first so a query and a mutation
            // released by the same event see the mutation in the
            // query's snapshot — admission order, not event-processing
            // luck, defines the epoch.
            self.trace_queue_counters(k, t);
            self.try_admit_mutations(k, t)?;
            self.try_admit_queries(k, t)?;
        }
        Ok(())
    }

    fn run(mut self, mut k: Kernel<'_, Job>) -> Result<StreamOutcome, SchedError> {
        self.drive(&mut k)?;
        let makespan_ns = self
            .completions
            .iter()
            .map(|c| c.complete_ns)
            .chain(self.mutation_completions.iter().map(|c| c.complete_ns))
            .fold(0.0, f64::max);
        let executions = self
            .admitted
            .into_iter()
            .map(|e| e.expect("every arrival admits and completes").1)
            .collect();
        let lanes = k.into_tallies();
        Ok(StreamOutcome {
            policy: self.cfg.policy,
            completions: self.completions,
            mutation_completions: self.mutation_completions,
            executions,
            timeline: self.timeline,
            makespan_ns,
            host_busy_ns: lanes.host_busy_ns,
            shard_busy_ns: lanes.busy_ns,
            shard_cell_writes: lanes.cell_writes,
            shard_required_endurance: lanes.required_endurance,
            ingest_stalls: self.ingest_stalls,
            ingest_stall_ns: self.ingest_stall_ns,
        })
    }
}

/// Stream `workload` through `cluster` — any [`StreamEngine`]: the
/// pre-joined or the star [`Cluster`] —
/// under `cfg`.
///
/// Query service demands come from real per-shard executions resolved
/// *at admission* against exactly the mutations admitted before them,
/// so each merged answer in [`StreamOutcome::executions`] is
/// bit-identical to a fresh engine that replayed that admission prefix
/// and ran the query (for pure-query workloads: bit-identical to
/// [`Cluster::run_batch`] over the same arrived queries). The
/// admission rules in the module docs decide when each job may start;
/// the [`kernel`](crate::kernel) then plays its slice chains out.
///
/// # Errors
///
/// [`SchedError::InvalidConfig`] for a zero in-flight bound or a zero
/// ingest buffer; cluster/planner failures otherwise.
pub fn run_stream<E: StreamEngine>(
    cluster: &mut E,
    workload: &Workload,
    cfg: &SchedConfig,
) -> Result<StreamOutcome, SchedError> {
    let mut trace = TraceRecorder::disabled();
    run_stream_traced(cluster, workload, cfg, &mut trace)
}

/// [`run_stream`] with a [`TraceRecorder`]: when the recorder is
/// enabled, every arrival, admission, ingest stall and completion is
/// recorded on the `scheduler` track, next to the kernel's `host-bus`,
/// `module-<k>` and `ingest-lane-<d>` spans, on the simulated clock.
/// The recorder **never** changes the simulation: the event
/// timeline, completions and merged executions are identical with
/// tracing on, off, or disabled (the oracle-equivalence suites assert
/// exactly this).
///
/// # Errors
///
/// Same as [`run_stream`].
pub fn run_stream_traced<E: StreamEngine>(
    cluster: &mut E,
    workload: &Workload,
    cfg: &SchedConfig,
    trace: &mut TraceRecorder,
) -> Result<StreamOutcome, SchedError> {
    let (sim, kernel) = open(cluster, workload, cfg, trace)?;
    sim.run(kernel)
}

/// Check `cfg` and set a stream up: the admission front-end with
/// nothing admitted, and the kernel holding every arrival.
fn open<'a, E: StreamEngine>(
    cluster: &'a mut E,
    workload: &'a Workload,
    cfg: &'a SchedConfig,
    trace: &'a mut TraceRecorder,
) -> Result<(Sim<'a, E>, Kernel<'a, Job>), SchedError> {
    if cfg.max_in_flight == 0 {
        return Err(SchedError::InvalidConfig("max_in_flight must be at least 1".into()));
    }
    if cfg.ingest_buffer == 0 {
        return Err(SchedError::InvalidConfig("ingest_buffer must be at least 1".into()));
    }
    let active_shards = cluster.active_shards();
    // Pure-query runs keep the per-shard shape; ingest runs widen the
    // lane vectors to every ingest lane (star dimension modules after
    // the fact shards).
    let lanes = if workload.has_mutations() {
        cluster.ingest_lanes().max(active_shards)
    } else {
        active_shards
    };
    let (queries, mutations) = (workload.len(), workload.mutation_arrivals().len());
    let sched_track = trace.track("scheduler");
    let by_query = ResolutionCache::new(trace.is_enabled());
    let mut kernel = Kernel::new(trace, active_shards, lanes);
    for (ai, arrival) in workload.arrivals().iter().enumerate() {
        kernel.push(arrival.at_ns, Job::Query(ai));
    }
    for (mi, arrival) in workload.mutation_arrivals().iter().enumerate() {
        kernel.push(arrival.at_ns, Job::Mutation(mi));
    }
    let sim = Sim {
        cfg,
        workload,
        cluster,
        epoch: 0,
        by_query,
        admitted: vec![None; queries],
        cand_est: vec![0; queries],
        mut_demands: vec![None; mutations],
        waiting: Vec::new(),
        mut_waiting: VecDeque::new(),
        in_flight: 0,
        lane_inflight: vec![0; lanes],
        stalled_since: None,
        ingest_stalls: 0,
        ingest_stall_ns: 0.0,
        progress: vec![None; queries + mutations],
        completions: Vec::with_capacity(queries),
        mutation_completions: Vec::with_capacity(mutations),
        timeline: Vec::new(),
        sched_track,
    };
    Ok((sim, kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use bbpim_cluster::{ClusterEngine, Partitioner, StarCluster};
    use bbpim_core::modes::EngineMode;
    use bbpim_core::mutation::Mutation;
    use bbpim_db::builder::col;
    use bbpim_db::plan::{AggExpr, AggFunc, Atom, Query};
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_db::ssb::{queries, SsbDb, SsbParams};
    use bbpim_db::Relation;
    use bbpim_sim::config::SimConfig;

    use crate::workload::{Arrival, MutationArrival};

    fn relation() -> Relation {
        let schema = Schema::new(
            "t",
            vec![
                Attribute::numeric("lo_price", 8),
                Attribute::numeric("lo_tax", 4),
                Attribute::numeric("d_year", 3),
            ],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..600u64 {
            rel.push_row(&[(3 * i + 1) % 251, i % 9, i % 7]).unwrap();
        }
        rel
    }

    fn cluster(shards: usize) -> ClusterEngine {
        ClusterEngine::new(
            SimConfig::small_for_tests(),
            relation(),
            EngineMode::OneXb,
            shards,
            Partitioner::range_by_attr("d_year"),
        )
        .unwrap()
    }

    /// `SUM(lo_price) WHERE d_year = y`: reads `d_year` and `lo_price`.
    fn probe(y: u64) -> Query {
        Query::single(
            format!("y{y}"),
            vec![Atom::Eq { attr: "d_year".into(), value: y.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::Attr("lo_price".into()),
        )
    }

    fn update(set: &str, year: u64) -> Mutation {
        Mutation::update()
            .filter(col("d_year").eq(year))
            .set(set, 7u64)
            .build(relation().schema())
            .unwrap()
    }

    /// Forwards to an engine, logging each `run_on_shard` call as
    /// `(mutations applied so far, shard, query id)` and each applied
    /// mutation's lanes.
    struct Counting<E> {
        inner: E,
        lanes: Vec<Vec<usize>>,
        runs: Vec<(usize, usize, String)>,
    }

    impl<E: StreamEngine> StreamEngine for Counting<E> {
        fn contention(&self) -> bool {
            self.inner.contention()
        }

        fn host_config(&self) -> Option<HostConfig> {
            self.inner.host_config()
        }

        fn active_shards(&self) -> usize {
            self.inner.active_shards()
        }

        fn ingest_lanes(&self) -> usize {
            self.inner.ingest_lanes()
        }

        fn plan_mutation_lanes(&self, mutation: &Mutation) -> Result<Vec<usize>, ClusterError> {
            self.inner.plan_mutation_lanes(mutation)
        }

        fn apply_mutation(
            &mut self,
            mutation: &Mutation,
        ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
            let applied = self.inner.apply_mutation(mutation)?;
            self.lanes.push(applied.iter().map(|(lane, _)| *lane).collect());
            Ok(applied)
        }

        fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
            self.inner.plan_shards(filter)
        }

        fn run_on_shard(
            &mut self,
            shard: usize,
            query: &Query,
        ) -> Result<QueryExecution, ClusterError> {
            self.runs.push((self.lanes.len(), shard, query.id.clone()));
            self.inner.run_on_shard(shard, query)
        }

        fn merge_executions(
            &self,
            query: &Query,
            executions: &[&QueryExecution],
            shards_pruned: usize,
        ) -> ClusterExecution {
            self.inner.merge_executions(query, executions, shards_pruned)
        }
    }

    /// `(shard, query id)` pairs of `run_on_shard` calls.
    type Runs = BTreeSet<(usize, String)>;

    /// Stream every query at 0 s, `mutation` at 1 s and every query
    /// again at 2 s through an engine from `make` — each phase drains
    /// long before the next — and check every streamed execution, whole,
    /// against a fresh engine from `make` that replayed the mutations
    /// its arrival saw. Return the streamed engine, the mutation's
    /// lanes, and the `(shard, query id)` runs after it (each at most
    /// once).
    fn reruns<S: Storage>(
        make: impl Fn() -> Cluster<S>,
        queries: Vec<Query>,
        mutation: Mutation,
    ) -> (Counting<Cluster<S>>, Vec<usize>, Runs) {
        let n = queries.len();
        let at = |i: usize| if i < n { 0.0 } else { 2e9 };
        let arrivals = (0..2 * n).map(|i| Arrival { at_ns: at(i), query: i % n }).collect();
        let mutations = vec![MutationArrival { at_ns: 1e9, mutation: 0 }];
        let workload =
            Workload::with_mutations(queries.clone(), arrivals, vec![mutation.clone()], mutations);
        let mut engine = Counting { inner: make(), lanes: Vec::new(), runs: Vec::new() };
        let out = run_stream(&mut engine, &workload.unwrap(), &SchedConfig::default()).unwrap();
        assert_eq!(out.completions.len(), 2 * n);
        assert!(out.completions.iter().all(|c| c.epoch == usize::from(c.arrival >= n)));
        let mut fresh = make();
        for epoch in 0..2 {
            if epoch == 1 {
                fresh.mutate(&mutation).unwrap();
            }
            for c in out.completions.iter().filter(|c| c.epoch == epoch) {
                let oracle = fresh.run(&queries[c.arrival % n]).unwrap();
                assert_eq!(*out.executions[c.arrival], oracle, "{} at epoch {epoch}", c.query_id);
            }
        }
        let after: Vec<(usize, String)> =
            engine.runs.iter().filter(|r| r.0 == 1).map(|r| (r.1, r.2.clone())).collect();
        let set: BTreeSet<_> = after.iter().cloned().collect();
        assert_eq!(set.len(), after.len(), "a shard re-ran one query twice");
        let lanes = engine.lanes[0].clone();
        (engine, lanes, set)
    }

    /// Every `(shard, query id)` among `lanes` that `engine`'s planner
    /// now admits.
    fn candidates<E: StreamEngine>(engine: &E, queries: &[Query], lanes: &[usize]) -> Runs {
        let mut out = BTreeSet::new();
        for q in queries {
            let mask = engine.plan_shards(&q.filter).unwrap();
            out.extend(lanes.iter().filter(|&&s| mask[s]).map(|&s| (s, q.id.clone())));
        }
        out
    }

    #[test]
    fn an_update_of_an_unread_attribute_reruns_nothing() {
        let queries = vec![probe(1), probe(4)];
        let (engine, lanes, after) = reruns(|| cluster(3), queries, update("lo_tax", 1));
        assert!(!lanes.is_empty(), "the UPDATE reached a lane");
        assert!(after.is_empty(), "re-ran {after:?} after an UPDATE no query reads");
        assert!(!engine.runs.is_empty());
    }

    #[test]
    fn an_update_of_a_read_attribute_reruns_its_readers_on_its_lanes_only() {
        let queries = vec![probe(1), probe(4)];
        let (engine, lanes, after) = reruns(|| cluster(3), queries.clone(), update("lo_price", 1));
        assert!(!lanes.is_empty() && lanes.len() < engine.active_shards(), "lanes {lanes:?}");
        assert!(!after.is_empty());
        assert_eq!(after, candidates(&engine, &queries, &lanes));
    }

    /// `probe(6)` plans only a shard the INSERT misses, yet its merged
    /// report must count the new record: `reruns` checks it against a
    /// replay.
    #[test]
    fn an_insert_reruns_only_the_lane_it_lands_on() {
        let queries = vec![probe(1), probe(4), probe(6)];
        let insert = Mutation::insert().row([5u64, 2, 4]).build(relation().schema()).unwrap();
        let (engine, lanes, after) = reruns(|| cluster(3), queries.clone(), insert);
        assert_eq!(lanes.len(), 1, "a one-row INSERT lands on one lane");
        assert!(after.iter().all(|(s, _)| *s == lanes[0]), "re-ran {after:?}");
        assert_eq!(after, candidates(&engine, &queries, &lanes));
    }

    /// The stated exception: on the star model a mutation drops the
    /// shared join plans, so even one no probe reads re-runs every
    /// candidate shard.
    #[test]
    fn on_the_star_any_mutation_reruns_every_candidate_shard() {
        let db = SsbDb::generate(&SsbParams::tiny_for_tests());
        let star = || {
            let cfg = SimConfig::small_for_tests();
            StarCluster::new(cfg, &db, EngineMode::OneXb, 2, Partitioner::RoundRobin).unwrap()
        };
        let queries: Vec<Query> =
            ["Q2.1", "Q3.1"].iter().map(|id| queries::standard_query(id).unwrap()).collect();
        assert!(queries.iter().all(|q| !q.referenced_attrs().contains(&"lo_discount")));
        let update = Mutation::update()
            .filter(col("lo_discount").eq(3u64))
            .set("lo_discount", 4u64)
            .build(db.lineorder.schema())
            .unwrap();
        let (engine, _, after) = reruns(star, queries.clone(), update);
        let every: Vec<usize> = (0..engine.active_shards()).collect();
        let want = candidates(&engine, &queries, &every);
        assert!(!want.is_empty());
        assert_eq!(after, want);
    }

    /// The resolution cache never outgrows the query set: at most one
    /// merged resolution per distinct query and one shard execution per
    /// (query, active shard), however many epochs the stream crosses.
    #[test]
    fn resolution_cache_holds_one_entry_per_query_across_mutations() {
        let queries = vec![probe(1), probe(3), probe(5)];
        let workload = Workload::poisson_htap(
            queries.clone(),
            (0..6).map(|y| update("lo_price", y)).collect(),
            40,
            0.25,
            40_000.0,
            11,
        );
        let mutations = workload.mutation_arrivals().len();
        assert!(mutations >= 3, "the seed draws mutations between the queries");
        let mut cluster = cluster(3);
        let shards = cluster.active_shards();
        let cfg = SchedConfig::default();
        let mut trace = TraceRecorder::disabled();
        let (mut sim, mut kernel) = open(&mut cluster, &workload, &cfg, &mut trace).unwrap();
        sim.drive(&mut kernel).unwrap();
        assert_eq!(sim.epoch, mutations, "every mutation was admitted");
        assert_eq!(sim.completions.len(), workload.len());
        // What a cache keyed by (query, epoch) would still be holding.
        let resolved: BTreeSet<(usize, usize)> = sim
            .completions
            .iter()
            .map(|c| (workload.arrivals()[c.arrival].query, c.epoch))
            .collect();
        assert!(resolved.len() > queries.len(), "the stream re-resolves across epochs");
        let (merged, runs) = sim.by_query.entries();
        assert!(
            merged <= queries.len(),
            "{merged} merged resolutions for {} queries",
            queries.len()
        );
        assert!(runs <= queries.len() * shards, "{runs} shard executions for {shards} shards");
    }
}
