//! The one admission loop: the [`Core`] every front-end drives the
//! chain kernel through.
//!
//! The core owns the kernel, which plays admitted jobs' slice chains
//! out on the shared host channel and the per-lane module servers, and
//! everything an admission does to the engine and to the record:
//!
//! * **Query admission** resolves the query against exactly the
//!   mutations admitted before it (its [`QueryCompletion::epoch`]),
//!   through one cache of per-(query, shard) executions stamped with
//!   the shard state they read: a resolution re-runs only shards an
//!   admitted mutation touched, and re-plans nothing while none was
//!   admitted. A query the planner answered completes at once; any other
//!   takes one more grant on the channel for its merge.
//! * **Mutation admission** bumps the epoch, applies the mutation
//!   ([`StreamEngine::apply_mutation`]), moves the stamps of what it
//!   touched, and starts its per-lane write chains. It is durable at its
//!   last lane, with no merge grant.
//! * **The record**: the timeline, one [`QueryCompletion`] or
//!   [`MutationCompletion`] per job, the lanes' busy time and wear.
//!
//! A [`Front`] keeps only its policy — which arrivals exist, what is
//! admitted next and when, what a completion changes: `run_stream`'s
//! FIFO / SCSF, static bound and per-lane ingest buffer, or
//! [`run_serve`](crate::serve::run_serve)'s buckets, fair pick, shedding,
//! window and closed-loop clients.

use std::sync::Arc;

use bbpim_cluster::ClusterExecution;
use bbpim_core::mutation::Mutation;
use bbpim_db::plan::Query;
use bbpim_trace::{ArgValue, TraceRecorder, TrackId};

use crate::demand::{
    busy_ns, compile_mutation_demand, MutationDemand, Resolution, ResolutionCache, ShardDemand,
};
use crate::error::SchedError;
use crate::kernel::{Kernel, Moment, SpanArgs, SpanLabels};
use crate::sched::StreamEngine;

/// What happened at one point of the simulated timeline (determinism
/// tests compare full traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The query arrived (entered the admission queue).
    Arrive,
    /// The query was admitted (left the admission queue).
    Admit,
    /// The request was shed at admission (predicted deadline miss).
    Shed,
    /// The host bus finished the query's *first* bus slice for a shard
    /// (the per-page dispatch that opens every shard chain).
    Dispatched,
    /// A shard finished the query's entire slice chain.
    ShardDone,
    /// The query's partials merged; the query is complete.
    Complete,
    /// A mutation arrived (entered the ingest queue).
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
    /// Which job: on a stream an index into the workload's query arrival
    /// trace or — for `Mutation*` kinds — its mutation arrival trace; on
    /// a served session the request log.
    pub arrival: usize,
    /// The shard/lane involved, for [`EventKind::Dispatched`] /
    /// [`EventKind::ShardDone`] / [`EventKind::MutationStall`] /
    /// [`EventKind::MutationLaneDone`].
    pub shard: Option<usize>,
}

/// Latency accounting for one completed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCompletion {
    /// Which job ([`TimelineEvent::arrival`]).
    pub arrival: usize,
    /// Owning tenant (0 on a stream).
    pub tenant: usize,
    /// The closed-loop client that issued it, if any.
    pub client: Option<usize>,
    /// Query identifier.
    pub query_id: String,
    /// When the query arrived.
    pub arrive_ns: f64,
    /// When a token bucket made it admissible (`arrive_ns` unless
    /// throttled).
    pub eligible_ns: f64,
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
    /// Absolute deadline, if the tenant's SLO set one.
    pub deadline_ns: Option<f64>,
    /// Mutations admitted before this query's admission — the snapshot
    /// its answer reflects. Replaying exactly the first `epoch` admitted
    /// mutations into a fresh engine reproduces the answer bit-exactly.
    pub epoch: usize,
}

impl QueryCompletion {
    /// End-to-end sojourn time (arrival → merged answer).
    pub fn latency_ns(&self) -> f64 {
        self.complete_ns - self.arrive_ns
    }

    /// Time spent waiting (throttle + admission queue + host-bus queue)
    /// before any service.
    pub fn wait_ns(&self) -> f64 {
        self.first_service_ns - self.arrive_ns
    }

    /// Time from first service to completion.
    pub fn service_ns(&self) -> f64 {
        self.complete_ns - self.first_service_ns
    }

    /// Did the answer arrive in time to count toward goodput?
    /// (Trivially true without a deadline.)
    pub fn met_deadline(&self) -> bool {
        self.deadline_ns.is_none_or(|d| self.complete_ns <= d)
    }
}

/// Latency accounting for one completed (durable) mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationCompletion {
    /// Which job ([`TimelineEvent::arrival`]).
    pub arrival: usize,
    /// Owning tenant (0 on a stream).
    pub tenant: usize,
    /// The closed-loop client that issued it, if any.
    pub client: Option<usize>,
    /// The mutation's label.
    pub label: String,
    /// When the mutation arrived.
    pub arrive_ns: f64,
    /// When it was admitted (the point later queries start observing
    /// it).
    pub admit_ns: f64,
    /// When its first bus slice started (equals `admit_ns` when no lane
    /// took work).
    pub first_service_ns: f64,
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

    /// Time waiting (throttle + admission queue + bus queue) before any
    /// service.
    pub fn wait_ns(&self) -> f64 {
        self.first_service_ns - self.arrive_ns
    }

    /// Time from first service to durable.
    pub fn service_ns(&self) -> f64 {
        self.complete_ns - self.first_service_ns
    }
}

/// Who asked for a job and when: what a front-end hands the core with
/// each admission, and what the job's completion record carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Ticket {
    /// The front-end's index of the job (see [`TimelineEvent::arrival`]).
    pub index: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// The closed-loop client that issued it, if any.
    pub client: Option<usize>,
    /// When it arrived.
    pub arrive_ns: f64,
    /// When it became admissible.
    pub eligible_ns: f64,
    /// Absolute deadline, if any.
    pub deadline_ns: Option<f64>,
}

impl Ticket {
    /// A workload arrival: tenant 0, no client, admissible on arrival,
    /// no deadline.
    pub fn arrival(index: usize, arrive_ns: f64) -> Ticket {
        Ticket {
            index,
            tenant: 0,
            client: None,
            arrive_ns,
            eligible_ns: arrive_ns,
            deadline_ns: None,
        }
    }
}

/// What admitting one job did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Admitted {
    /// Busy time its chains (and a query's merge) occupy: the work a
    /// fair-share accountant charges, independent of queueing.
    pub busy_ns: f64,
    /// Its completion, when it needed no chains; `None` while they run.
    pub done: Option<Done>,
}

/// A job that just completed, as its front-end hears of it (the whole
/// record is in [`Finished`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Done {
    /// The job's [`Ticket::index`].
    pub index: usize,
    /// A durable mutation, not an answered query.
    pub mutation: bool,
    /// Arrival → completion.
    pub latency_ns: f64,
    /// First service → completion.
    pub service_ns: f64,
    /// Chains it ran: candidate shards, or ingest lanes.
    pub chains: usize,
}

/// An admission front-end: the policy half of a run. [`Core::drive`]
/// hands it every moment admission reacts to; the errors it returns end
/// the run.
pub(crate) trait Front<E: StreamEngine> {
    /// The front-end's own events on the simulated clock (arrivals,
    /// admission ticks), pushed with [`Core::push`].
    type Event;

    /// One of the front-end's events fired at `t_ns`.
    fn on_event(
        &mut self,
        core: &mut Core<'_, E, Self::Event>,
        t_ns: f64,
        ev: Self::Event,
    ) -> Result<(), SchedError>;

    /// A started job completed at `t_ns`. (A job that completes at its
    /// admission is reported there, in [`Admitted::done`].)
    fn on_done(&mut self, core: &mut Core<'_, E, Self::Event>, t_ns: f64, done: Done);

    /// Admit whatever the policy allows at `t_ns`. Called after every
    /// front-end event, completion and finished mutation lane chain.
    fn admit(&mut self, core: &mut Core<'_, E, Self::Event>, t_ns: f64) -> Result<(), SchedError>;
}

/// Everything the core recorded over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Finished {
    /// Query completions, in completion order.
    pub completions: Vec<QueryCompletion>,
    /// Merged answers parallel to `completions`; completions answered by
    /// one resolution share it.
    pub executions: Vec<Arc<ClusterExecution>>,
    /// Mutation completions, in completion order.
    pub mutation_completions: Vec<MutationCompletion>,
    /// The event timeline.
    pub timeline: Vec<TimelineEvent>,
    /// Host-channel busy time: every bus slice and merge.
    pub host_busy_ns: f64,
    /// Per-lane module-local busy time.
    pub busy_ns: Vec<f64>,
    /// Per-lane worst-row cell writes, summed over finished chains.
    pub cell_writes: Vec<u64>,
    /// Per-lane maximum required endurance over finished chains.
    pub required_endurance: Vec<f64>,
}

impl Finished {
    /// When the last query or mutation completed.
    pub fn makespan_ns(&self) -> f64 {
        let queries = self.completions.iter().map(|c| c.complete_ns);
        queries.chain(self.mutation_completions.iter().map(|c| c.complete_ns)).fold(0.0, f64::max)
    }
}

/// What an admitted job runs.
enum Work {
    Query(Resolution),
    Mutation(MutationDemand),
}

/// One admitted job, held while its chains run.
struct Job {
    ticket: Ticket,
    admit_ns: f64,
    first_service_ns: f64,
    epoch: usize,
    work: Work,
    /// Its trace attributes (empty unless tracing).
    args: SpanArgs,
}

impl Work {
    fn chains(&self) -> &[Arc<ShardDemand>] {
        match self {
            Work::Query((demand, _)) => &demand.shards,
            Work::Mutation(demand) => &demand.lanes,
        }
    }
}

/// Started jobs by kernel job id; a job leaves when it completes, and
/// its id is reused, so the table holds only what is in flight. It
/// answers what the kernel asks about a job.
pub(crate) struct Started(Vec<Option<Job>>);

impl Started {
    fn get(&self, id: usize) -> &Job {
        self.0[id].as_ref().expect("kernel moments name running jobs")
    }

    /// The job's slice chains, one per lane it occupies.
    pub(crate) fn chains(&self, job: usize) -> &[Arc<ShardDemand>] {
        self.get(job).work.chains()
    }

    /// The job's trace labels (asked only while tracing).
    pub(crate) fn labels(&self, job: usize) -> SpanLabels {
        let job = self.get(job);
        let (lane_key, local) = match job.work {
            Work::Query(_) => ("shard", "local"),
            Work::Mutation(_) => ("lane", "ingest"),
        };
        SpanLabels { args: job.args.clone(), lane_key, local }
    }
}

/// The kernel-driving core of every run (see the module docs). `F` is
/// its front-end's event type.
pub(crate) struct Core<'a, E, F> {
    cluster: &'a mut E,
    kernel: Kernel<'a, F>,
    started: Started,
    /// Resolutions keyed by the front-end's query key, stamped per
    /// shard: repeated arrivals share one resolution until an admitted
    /// mutation touches a shard state it read, and then only that shard
    /// re-runs.
    pub(crate) by_query: ResolutionCache,
    /// Mutations admitted so far — the snapshot counter.
    pub(crate) epoch: usize,
    /// In-flight mutation chains per lane.
    lane_mutations: Vec<usize>,
    /// The front-end's track, where admissions and completions are
    /// traced.
    track: TrackId,
    /// The record so far (its lane tallies are written at the end).
    pub(crate) run: Finished,
}

impl<'a, E: StreamEngine, F> Core<'a, E, F> {
    /// An idle core over `cluster`. A front-end registers its own tracks
    /// on `trace` first (their order is part of the export bytes);
    /// `track` is the one its admissions and completions land on.
    /// Query-only runs (`writes` false) keep one lane per active shard;
    /// ingest widens the lanes to every ingest lane (star dimension
    /// modules after the fact shards).
    pub fn new(
        cluster: &'a mut E,
        trace: &'a mut TraceRecorder,
        track: TrackId,
        writes: bool,
    ) -> Self {
        let active_shards = cluster.active_shards();
        let lanes = if writes { cluster.ingest_lanes().max(active_shards) } else { active_shards };
        let by_query = ResolutionCache::new(trace.is_enabled());
        Core {
            cluster,
            kernel: Kernel::new(trace, active_shards, lanes),
            started: Started(Vec::new()),
            by_query,
            epoch: 0,
            lane_mutations: vec![0; lanes],
            track,
            run: Finished::default(),
        }
    }

    /// The engine, as admitted mutations have left it.
    pub fn engine(&self) -> &E {
        self.cluster
    }

    /// The recorder, when it is collecting: build event attributes only
    /// inside `if let Some(..)`.
    pub fn tracer(&mut self) -> Option<&mut TraceRecorder> {
        self.kernel.tracer()
    }

    /// Schedule a front-end event.
    pub fn push(&mut self, t_ns: f64, ev: F) {
        self.kernel.push(t_ns, ev);
    }

    /// Append the timeline event `(kind, index, shard)` at `t_ns` and,
    /// while tracing, an instant `name` with the attributes `args` builds
    /// to the front-end's track.
    pub fn note(
        &mut self,
        t_ns: f64,
        (kind, index, shard): (EventKind, usize, Option<usize>),
        name: &str,
        args: impl FnOnce() -> SpanArgs,
    ) {
        self.record(t_ns, kind, index, shard);
        let track = self.track;
        if let Some(trace) = self.kernel.tracer() {
            trace.instant(track, name, t_ns, args());
        }
    }

    /// Mutation chains in flight on `lane`.
    pub fn mutations_on(&self, lane: usize) -> usize {
        self.lane_mutations[lane]
    }

    /// Resolve `query`, cached under the front-end's `key` for it,
    /// against exactly the mutations admitted so far.
    ///
    /// # Errors
    ///
    /// Planner or shard execution failures.
    pub fn resolve(&mut self, key: usize, query: &Query) -> Result<Resolution, SchedError> {
        self.by_query.resolve(&mut *self.cluster, key, query)
    }

    /// Admit a query resolved by [`Core::resolve`] at `now_ns`: start
    /// its shard chains, or — when the planner answered it — complete
    /// it at once. `args` are its trace attributes, asked for only while
    /// tracing.
    pub fn admit_query(
        &mut self,
        now_ns: f64,
        ticket: Ticket,
        resolution: Resolution,
        args: impl FnOnce() -> SpanArgs,
    ) -> Admitted {
        debug_assert!(!resolution.0.shards.is_empty() || resolution.0.merge_ns == 0.0);
        self.admit(now_ns, ticket, Work::Query(resolution), args)
    }

    /// Admit `mutation` at `now_ns`: bump the epoch, apply it to the
    /// engine (the snapshot point), move the resolution stamps of what
    /// it touched, and start its lane chains — or complete it at once
    /// when no lane took work.
    ///
    /// # Errors
    ///
    /// Validation or substrate failures applying the mutation.
    pub fn admit_mutation(
        &mut self,
        now_ns: f64,
        ticket: Ticket,
        mutation: &Mutation,
        args: impl FnOnce() -> SpanArgs,
    ) -> Result<Admitted, SchedError> {
        self.epoch += 1;
        let applied = self.cluster.apply_mutation(mutation)?;
        self.by_query.mutated(&*self.cluster, mutation, &applied);
        // a cluster without tables applies nothing
        let host = self.cluster.host_config().unwrap_or_default();
        let demand =
            compile_mutation_demand(mutation.label(), &applied, &host, self.kernel.tracing());
        for lane in &demand.lanes {
            self.lane_mutations[lane.shard] += 1;
        }
        Ok(self.admit(now_ns, ticket, Work::Mutation(demand), args))
    }

    /// Play the kernel's events out until every job has completed,
    /// handing `front` its events, the completions and the chance to
    /// admit after each.
    ///
    /// # Errors
    ///
    /// The first error `front` returns.
    pub fn drive<T: Front<E, Event = F>>(&mut self, front: &mut T) -> Result<(), SchedError> {
        while let Some((t, moment)) = self.kernel.next(&self.started) {
            match moment {
                Moment::Front(ev) => front.on_event(self, t, ev)?,
                // The timeline records dispatch for query chains only.
                Moment::Dispatched { job, lane } => {
                    let job = self.started.get(job);
                    if let Work::Query(_) = job.work {
                        self.record(t, EventKind::Dispatched, job.ticket.index, Some(lane));
                    }
                    continue;
                }
                Moment::ChainDone { job: id, lane, last } => {
                    let job = self.started.get(id);
                    let index = job.ticket.index;
                    if let Work::Query((demand, _)) = &job.work {
                        let merge_ns = demand.merge_ns;
                        self.record(t, EventKind::ShardDone, index, Some(lane));
                        if last {
                            self.kernel.merge(t, &self.started, id, merge_ns);
                        }
                        continue;
                    }
                    // A mutation's lane chain finished: its buffer slot
                    // frees; it is durable at its last lane, with no
                    // host-side merge.
                    self.record(t, EventKind::MutationLaneDone, index, Some(lane));
                    self.lane_mutations[lane] -= 1;
                    if last {
                        let done = self.finish_job(t, id);
                        front.on_done(self, t, done);
                    }
                }
                Moment::MergeDone { job } => {
                    let done = self.finish_job(t, job);
                    front.on_done(self, t, done);
                }
            }
            front.admit(self, t)?;
        }
        Ok(())
    }

    /// The run's record (call once [`Core::drive`] returned).
    pub fn finish(mut self) -> Finished {
        self.kernel.tally(&mut self.run);
        self.run
    }

    fn record(&mut self, t_ns: f64, kind: EventKind, index: usize, shard: Option<usize>) {
        self.run.timeline.push(TimelineEvent { t_ns, kind, arrival: index, shard });
    }

    /// Record and trace `work`'s admission at `now_ns`, then start its
    /// chains — or complete it there when it has none: the planner
    /// answered the query, or the engine absorbed the mutation without
    /// PIM work.
    fn admit(
        &mut self,
        now_ns: f64,
        ticket: Ticket,
        work: Work,
        args: impl FnOnce() -> SpanArgs,
    ) -> Admitted {
        let (kind, name, busy_ns) = match &work {
            Work::Query((demand, _)) => (EventKind::Admit, "admit", demand.total_busy_ns()),
            Work::Mutation(demand) => {
                (EventKind::MutationAdmit, "ingest-admit", busy_ns(&demand.lanes))
            }
        };
        let args = if self.kernel.tracing() { args() } else { Vec::new() };
        let queued = ("queued_ns", ArgValue::F64(now_ns - ticket.arrive_ns));
        self.note(now_ns, (kind, ticket.index, None), name, || with(&args, queued));
        let epoch = self.epoch;
        let job = Job { ticket, admit_ns: now_ns, first_service_ns: now_ns, epoch, work, args };
        if job.work.chains().is_empty() {
            return Admitted { busy_ns, done: Some(self.complete(now_ns, job)) };
        }
        let jobs = &mut self.started.0;
        let id = jobs.iter().position(Option::is_none).unwrap_or(jobs.len());
        if id == jobs.len() {
            jobs.push(None);
        }
        jobs[id] = Some(job);
        // The host opens every chain; the first slice of each (a query's
        // per-page dispatch) serialises on the bus against everything
        // in flight.
        let first = self.kernel.start(now_ns, &self.started, id);
        if let Some(Some(job)) = self.started.0.get_mut(id) {
            job.first_service_ns = first;
        }
        Admitted { busy_ns, done: None }
    }

    fn finish_job(&mut self, t_ns: f64, id: usize) -> Done {
        let job = self.started.0[id].take().expect("a job completes once");
        self.complete(t_ns, job)
    }

    /// Record `job`'s completion at `t_ns`: a query answered, a mutation
    /// durable.
    fn complete(&mut self, t_ns: f64, job: Job) -> Done {
        let Job { ticket, admit_ns, first_service_ns, epoch, work, args } = job;
        let mutation = matches!(work, Work::Mutation(_));
        let (kind, name) = match mutation {
            false => (EventKind::Complete, "complete"),
            true => (EventKind::MutationComplete, "ingest-complete"),
        };
        let latency_ns = t_ns - ticket.arrive_ns;
        let latency = ("latency_ns", ArgValue::F64(latency_ns));
        self.note(t_ns, (kind, ticket.index, None), name, || with(&args, latency));
        let Ticket { index, tenant, client, arrive_ns, .. } = ticket;
        let chains = match work {
            Work::Query((demand, exec)) => {
                self.run.completions.push(QueryCompletion {
                    arrival: index,
                    tenant,
                    client,
                    query_id: demand.query_id.clone(),
                    arrive_ns,
                    eligible_ns: ticket.eligible_ns,
                    admit_ns,
                    first_service_ns,
                    complete_ns: t_ns,
                    shards_dispatched: demand.shards.len(),
                    shards_pruned: demand.shards_pruned,
                    deadline_ns: ticket.deadline_ns,
                    epoch,
                });
                self.run.executions.push(exec);
                demand.shards.len()
            }
            Work::Mutation(demand) => {
                self.run.mutation_completions.push(MutationCompletion {
                    arrival: index,
                    tenant,
                    client,
                    label: demand.label,
                    arrive_ns,
                    admit_ns,
                    first_service_ns,
                    complete_ns: t_ns,
                    lanes: demand.lanes.len(),
                    records_updated: demand.records_updated,
                    records_inserted: demand.records_inserted,
                    epoch,
                });
                demand.lanes.len()
            }
        };
        Done { index, mutation, latency_ns, service_ns: t_ns - first_service_ns, chains }
    }
}

/// `args` plus `extra`.
fn with(args: &SpanArgs, extra: (&'static str, ArgValue)) -> SpanArgs {
    let mut args = args.clone();
    args.push(extra);
    args
}
