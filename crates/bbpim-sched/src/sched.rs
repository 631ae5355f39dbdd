//! The streaming scheduler: [`run_stream`], the stream front-end of the
//! one admission loop (the crate-private core). The loop drives any
//! [`StreamEngine`], the scatter/gather surface `bbpim-cluster` declares
//! and implements once for [`Cluster`](bbpim_cluster::Cluster); it is
//! re-exported here.
//!
//! [`run_stream`] admits a [`Workload`]'s timestamped queries **and
//! mutations**, interleaved on one clock. The core resolves and applies
//! them at admission and plays their chains out; this front-end keeps
//! only the stream's policy:
//!
//! * **Admission control** — at most [`SchedConfig::max_in_flight`]
//!   queries hold execution state at once; the next one is picked by
//!   [`AdmissionPolicy`]: FIFO, or shortest-candidate-set-first (the
//!   zone-map planner's candidate shard count is a free size estimate,
//!   so heavily pruned queries overtake broad ones).
//! * **Streaming ingest** — mutations queue in strict FIFO behind a
//!   bounded per-lane buffer: the head admits only while every lane it
//!   plans to touch holds fewer than [`SchedConfig::ingest_buffer`]
//!   in-flight mutations; otherwise ingest **stalls deterministically**
//!   until a lane chain completes. Mutations admit before queries
//!   released by the same event, so admission order defines the epoch.
//!
//! Fact-shard lanes share indices (and module servers) between query
//! shard slices and mutation chains; auxiliary ingest lanes (star
//! dimension modules) sit above [`StreamEngine::active_shards`]. Every
//! tagged host phase — dispatch, transfers, mutation writes — and every
//! merge rides the one host bus. Replaying the first
//! [`QueryCompletion::epoch`] mutations into a fresh engine reproduces a
//! streamed answer — phase logs included — bit-identically (for
//! pure-query workloads:
//! [`Cluster::run_batch`](bbpim_cluster::Cluster::run_batch)'s answer). The timeline
//! is a pure function of `(cluster, workload, config)`.

use std::collections::VecDeque;
use std::sync::Arc;

use bbpim_cluster::ClusterExecution;
pub use bbpim_cluster::StreamEngine;
use bbpim_core::mutation::Mutation;
pub use bbpim_sim::endurance::ENDURANCE_YEARS;
use bbpim_trace::{ArgValue, TraceRecorder, TrackId};

use crate::admission::{
    Core, Done, EventKind, Front, MutationCompletion, QueryCompletion, Ticket, TimelineEvent,
};
use crate::error::SchedError;
use crate::kernel::SpanArgs;
use crate::report::{LatencySummary, RunRates};
use crate::workload::Workload;

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
    /// Host-channel busy time: dispatch, every tagged transfer slice,
    /// mutation write phases and merges.
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

/// One workload arrival of either kind: the stream front-end's only
/// kernel event.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Job {
    /// Index into [`Workload::arrivals`].
    Query(usize),
    /// Index into [`Workload::mutation_arrivals`].
    Mutation(usize),
}

/// The stream's admission front-end over the core.
struct Stream<'a> {
    cfg: &'a SchedConfig,
    workload: &'a Workload,
    /// SCSF's candidate-count estimate, planned at arrival.
    cand_est: Vec<usize>,
    waiting: Vec<usize>,
    mut_waiting: VecDeque<usize>,
    in_flight: usize,
    /// When the current head-of-queue stall began, if stalled.
    stalled_since: Option<f64>,
    ingest_stalls: usize,
    ingest_stall_ns: f64,
    sched_track: TrackId,
}

type StreamCore<'c, E> = Core<'c, E, Job>;

impl Stream<'_> {
    /// The mutation a mutation arrival carries.
    fn mutation(&self, mi: usize) -> &Mutation {
        &self.workload.mutations()[self.workload.mutation_arrivals()[mi].mutation]
    }

    fn ticket(&self, job: Job) -> Ticket {
        match job {
            Job::Query(ai) => Ticket::arrival(ai, self.workload.arrivals()[ai].at_ns),
            Job::Mutation(mi) => Ticket::arrival(mi, self.workload.mutation_arrivals()[mi].at_ns),
        }
    }

    /// Trace attributes: the arrival index and its query id or mutation
    /// label, plus `extra`.
    fn args(&self, job: Job, extra: Option<(&'static str, ArgValue)>) -> SpanArgs {
        let mut args = match job {
            Job::Query(ai) => {
                let id = self.workload.queries()[self.workload.arrivals()[ai].query].id.clone();
                vec![("arrival", ArgValue::U64(ai as u64)), ("query", ArgValue::Str(id))]
            }
            Job::Mutation(mi) => {
                let label = self.mutation(mi).label();
                vec![("ingest", ArgValue::U64(mi as u64)), ("mutation", ArgValue::Str(label))]
            }
        };
        args.extend(extra);
        args
    }

    /// Sample the scheduler counters (admission-queue depth, in-flight
    /// count, and — on HTAP workloads — ingest-queue depth) onto the
    /// scheduler track.
    fn trace_queue_counters<E: StreamEngine>(&self, core: &mut StreamCore<'_, E>, t_ns: f64) {
        let Some(trace) = core.tracer() else { return };
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
                .map_or(0, |(pos, _)| pos),
        }
    }

    /// Strict-FIFO ingest admission behind the bounded per-lane buffer.
    fn try_admit_mutations<E: StreamEngine>(
        &mut self,
        core: &mut StreamCore<'_, E>,
        now_ns: f64,
    ) -> Result<(), SchedError> {
        while let Some(&mi) = self.mut_waiting.front() {
            let job = Job::Mutation(mi);
            let lanes = core.engine().plan_mutation_lanes(self.mutation(mi))?;
            let full = lanes.iter().find(|&&l| core.mutations_on(l) >= self.cfg.ingest_buffer);
            if let Some(&lane) = full {
                if self.stalled_since.is_none() {
                    // Head-of-line backpressure: record once per
                    // episode; everything behind the head waits too.
                    self.stalled_since = Some(now_ns);
                    self.ingest_stalls += 1;
                    let lane_arg = Some(("lane", ArgValue::U64(lane as u64)));
                    let event = (EventKind::MutationStall, mi, Some(lane));
                    core.note(now_ns, event, "ingest-stall", || self.args(job, lane_arg));
                }
                return Ok(());
            }
            if let Some(since) = self.stalled_since.take() {
                self.ingest_stall_ns += now_ns - since;
            }
            self.mut_waiting.pop_front();
            let args = || self.args(job, None);
            let admitted =
                core.admit_mutation(now_ns, self.ticket(job), self.mutation(mi), args)?;
            if admitted.done.is_none() {
                self.trace_queue_counters(core, now_ns);
            }
        }
        Ok(())
    }

    /// Admit queries from the queue while in-flight slots are free,
    /// each resolved against the current (admitted-mutation) engine
    /// state.
    fn try_admit_queries<E: StreamEngine>(
        &mut self,
        core: &mut StreamCore<'_, E>,
        now_ns: f64,
    ) -> Result<(), SchedError> {
        while self.in_flight < self.cfg.max_in_flight && !self.waiting.is_empty() {
            let ai = self.waiting.remove(self.pick_next());
            let job = Job::Query(ai);
            let qi = self.workload.arrivals()[ai].query;
            let resolution = core.resolve(qi, &self.workload.queries()[qi])?;
            let args = || self.args(job, None);
            if core.admit_query(now_ns, self.ticket(job), resolution, args).done.is_none() {
                self.in_flight += 1;
            }
            self.trace_queue_counters(core, now_ns);
        }
        Ok(())
    }
}

impl<E: StreamEngine> Front<E> for Stream<'_> {
    type Event = Job;

    fn on_event(
        &mut self,
        core: &mut StreamCore<'_, E>,
        t_ns: f64,
        ev: Job,
    ) -> Result<(), SchedError> {
        match ev {
            Job::Query(ai) => {
                core.note(t_ns, (EventKind::Arrive, ai, None), "arrive", || self.args(ev, None));
                if self.cfg.policy == AdmissionPolicy::ShortestCandidateFirst {
                    // SCSF's size estimate, planned against the zone
                    // maps as they stand at arrival (heuristic only —
                    // the real demand is planned at admission).
                    let qi = self.workload.arrivals()[ai].query;
                    let filter = &self.workload.queries()[qi].filter;
                    self.cand_est[ai] =
                        core.engine().plan_shards(filter)?.iter().filter(|&&b| b).count();
                }
                self.waiting.push(ai);
            }
            Job::Mutation(mi) => {
                let event = (EventKind::MutationArrive, mi, None);
                core.note(t_ns, event, "ingest-arrive", || self.args(ev, None));
                self.mut_waiting.push_back(mi);
            }
        }
        Ok(())
    }

    fn on_done(&mut self, _: &mut StreamCore<'_, E>, _: f64, done: Done) {
        if !done.mutation {
            self.in_flight -= 1;
        }
    }

    /// A queue grew or capacity freed: admit while capacity allows.
    /// Mutations admit first so a query and a mutation released by the
    /// same event see the mutation in the query's snapshot — admission
    /// order, not event-processing luck, defines the epoch.
    fn admit(&mut self, core: &mut StreamCore<'_, E>, t_ns: f64) -> Result<(), SchedError> {
        self.trace_queue_counters(core, t_ns);
        self.try_admit_mutations(core, t_ns)?;
        self.try_admit_queries(core, t_ns)
    }
}

/// Stream `workload` through `cluster` — any [`StreamEngine`]: the
/// pre-joined or the star [`Cluster`](bbpim_cluster::Cluster) — under
/// `cfg`.
///
/// Query service demands come from real per-shard executions resolved
/// *at admission* against exactly the mutations admitted before them,
/// so each merged answer in [`StreamOutcome::executions`] is
/// bit-identical to a fresh engine that replayed that admission prefix
/// and ran the query (for pure-query workloads: bit-identical to
/// [`Cluster::run_batch`](bbpim_cluster::Cluster::run_batch) over the
/// same arrived queries). The admission rules in the module docs
/// decide when each job may start; the core plays its slice chains out.
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
    let (mut core, mut front) = open(cluster, workload, cfg, trace)?;
    core.drive(&mut front)?;
    let run = core.finish();
    let makespan_ns = run.makespan_ns();
    let mut executions = vec![None; workload.len()];
    for (c, exec) in run.completions.iter().zip(run.executions) {
        executions[c.arrival] = Some(exec);
    }
    Ok(StreamOutcome {
        policy: cfg.policy,
        completions: run.completions,
        mutation_completions: run.mutation_completions,
        executions: executions
            .into_iter()
            .map(|e| e.expect("every arrival admits and completes"))
            .collect(),
        timeline: run.timeline,
        makespan_ns,
        host_busy_ns: run.host_busy_ns,
        shard_busy_ns: run.busy_ns,
        shard_cell_writes: run.cell_writes,
        shard_required_endurance: run.required_endurance,
        ingest_stalls: front.ingest_stalls,
        ingest_stall_ns: front.ingest_stall_ns,
    })
}

/// Check `cfg` and set a stream up: the core holding every arrival, and
/// the front-end with nothing admitted.
fn open<'a, E: StreamEngine>(
    cluster: &'a mut E,
    workload: &'a Workload,
    cfg: &'a SchedConfig,
    trace: &'a mut TraceRecorder,
) -> Result<(Core<'a, E, Job>, Stream<'a>), SchedError> {
    if cfg.max_in_flight == 0 {
        return Err(SchedError::InvalidConfig("max_in_flight must be at least 1".into()));
    }
    if cfg.ingest_buffer == 0 {
        return Err(SchedError::InvalidConfig("ingest_buffer must be at least 1".into()));
    }
    let sched_track = trace.track("scheduler");
    let mut core = Core::new(cluster, trace, sched_track, workload.has_mutations());
    for (ai, arrival) in workload.arrivals().iter().enumerate() {
        core.push(arrival.at_ns, Job::Query(ai));
    }
    for (mi, arrival) in workload.mutation_arrivals().iter().enumerate() {
        core.push(arrival.at_ns, Job::Mutation(mi));
    }
    let front = Stream {
        cfg,
        workload,
        cand_est: vec![0; workload.len()],
        waiting: Vec::new(),
        mut_waiting: VecDeque::new(),
        in_flight: 0,
        stalled_since: None,
        ingest_stalls: 0,
        ingest_stall_ns: 0.0,
        sched_track,
    };
    Ok((core, front))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;

    use bbpim_cluster::{Cluster, ClusterEngine, ClusterError, Partitioner, StarCluster, Storage};
    use bbpim_core::modes::EngineMode;
    use bbpim_core::mutation::{Mutation, MutationReport};
    use bbpim_core::result::QueryExecution;
    use bbpim_db::builder::col;
    use bbpim_db::plan::{AggExpr, AggFunc, Atom, Pred, Query};
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_db::ssb::{queries, SsbDb, SsbParams};
    use bbpim_db::Relation;
    use bbpim_sim::config::{HostConfig, SimConfig};

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
    /// mutation's lanes, and counting `plan_shards` calls.
    struct Counting<E> {
        inner: E,
        lanes: Vec<Vec<usize>>,
        runs: Vec<(usize, usize, String)>,
        plans: Cell<usize>,
    }

    impl<E> Counting<E> {
        fn new(inner: E) -> Self {
            Counting { inner, lanes: Vec::new(), runs: Vec::new(), plans: Cell::new(0) }
        }
    }

    impl<E: StreamEngine> StreamEngine for Counting<E> {
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
            self.plans.set(self.plans.get() + 1);
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
        let mut engine = Counting::new(make());
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
        let (mut core, mut front) = open(&mut cluster, &workload, &cfg, &mut trace).unwrap();
        core.drive(&mut front).unwrap();
        assert_eq!(core.epoch, mutations, "every mutation was admitted");
        assert_eq!(core.run.completions.len(), workload.len());
        // What a cache keyed by (query, epoch) would still be holding.
        let resolved: BTreeSet<(usize, usize)> = core
            .run
            .completions
            .iter()
            .map(|c| (workload.arrivals()[c.arrival].query, c.epoch))
            .collect();
        assert!(resolved.len() > queries.len(), "the stream re-resolves across epochs");
        let (merged, runs) = core.by_query.entries();
        assert!(
            merged <= queries.len(),
            "{merged} merged resolutions for {} queries",
            queries.len()
        );
        assert!(runs <= queries.len() * shards, "{runs} shard executions for {shards} shards");
    }

    /// While no mutation is admitted a resolution is reused without
    /// re-planning, and FIFO plans nothing at arrival: a query-only burst
    /// of N arrivals over k distinct queries plans exactly k times (SCSF
    /// adds one estimate per arrival).
    #[test]
    fn a_query_only_fifo_burst_plans_each_distinct_query_once() {
        let queries = vec![probe(1), probe(4), probe(6)];
        let arrivals = (0..12).map(|i| Arrival { at_ns: 0.0, query: i % 3 }).collect();
        let workload = Workload::new(queries.clone(), arrivals).unwrap();
        for (policy, plans) in
            [(AdmissionPolicy::Fifo, 3), (AdmissionPolicy::ShortestCandidateFirst, 15)]
        {
            let mut engine = Counting::new(cluster(3));
            let cfg = SchedConfig { policy, ..SchedConfig::default() };
            let out = run_stream(&mut engine, &workload, &cfg).unwrap();
            assert_eq!(engine.plans.get(), plans, "{}", policy.label());
            let batch = cluster(3).run_batch(&workload.arrived_queries()).unwrap();
            for (streamed, batched) in out.executions.iter().zip(&batch.executions) {
                assert_eq!(**streamed, *batched);
            }
        }
    }
}
