//! The multi-tenant server: the admission front-end of [`run_serve`]
//! over the chain-execution kernel it shares with the streaming
//! scheduler ([`bbpim_sched::kernel`]).
//!
//! [`run_serve`] multiplexes every tenant's arrival process — seeded
//! open Poisson/burst streams *and* closed-loop think-time clients —
//! into one deterministic timeline over a [`StreamEngine`] cluster.
//! The kernel plays admitted requests' slice chains out on the shared
//! host channel and the module servers; this module decides which
//! requests run and when:
//!
//! * **Rate limits** — each arrival passes its tenant's token bucket;
//!   over-rate requests are not rejected, their admission eligibility
//!   moves later (throttling, counted per tenant).
//! * **Weighted fair admission** — each tenant has its own FIFO
//!   admission queue; when an in-flight slot frees, the eligible
//!   tenant with the least weighted admitted work
//!   (`served_work / weight`) goes next, so a heavy tenant cannot
//!   starve a light one no matter how deep its backlog.
//! * **Deadline shedding** — at admission, a request whose predicted
//!   completion (now + candidate-shard count × an EWMA of observed
//!   per-shard service) blows its deadline is dropped instead of
//!   admitted: under overload it could only waste bus time on an
//!   answer nobody will count.
//! * **AIMD window** — the global in-flight bound is either the legacy
//!   static knob or a closed-loop [`AimdController`] fed every
//!   completion's SLO-normalised latency.
//!
//! Service demands come pre-resolved from real shard executions
//! ([`bbpim_sched::demand::resolve_query_demand`]), so every admitted
//! request's answer is fixed *before* any scheduling happens —
//! bit-identical to the batch oracle; policies only decide which
//! requests run and when. Closed-loop clients issue their next request
//! from their completion (or shed) instant plus a seeded think gap,
//! which is why serving is its own front-end rather than a precomputed
//! workload trace handed to `run_stream`. Reads and writes alike
//! complete through a merge grant on the host channel (zero-length for
//! a write, but still queued behind the bus).

use std::collections::VecDeque;
use std::sync::Arc;

use bbpim_cluster::ClusterExecution;
use bbpim_sched::demand::{
    compile_mutation_demand, resolve_query_demand, MutationDemand, QueryDemand, ShardDemand,
};
use bbpim_sched::kernel::{Jobs, Kernel, Moment, SpanArgs, SpanLabels};
use bbpim_sched::{RunRates, StreamEngine};
use bbpim_trace::{ArgValue, TraceRecorder, TrackId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::controller::{AimdController, WindowDecision, WindowPolicy};
use crate::error::ServeError;
use crate::tenant::{exp_gap_ns, ArrivalProcess, TenantSpec, TokenBucket, WriteMix};

/// Serve-session configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Seed for every tenant's arrival draws and client think times.
    pub seed: u64,
    /// The in-flight window policy.
    pub window: WindowPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { seed: 0, window: WindowPolicy::Aimd(Default::default()) }
    }
}

/// What happened at one point of the simulated serve timeline
/// (determinism tests compare full traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEventKind {
    /// The request arrived (entered its tenant's admission queue).
    Arrive,
    /// The request was admitted.
    Admit,
    /// The request was shed at admission (predicted deadline miss).
    Shed,
    /// The host bus finished the request's first bus slice for a shard.
    Dispatched,
    /// A shard finished the request's entire slice chain.
    ShardDone,
    /// The request's partials merged; the request is complete.
    Complete,
}

/// One record of the simulated serve timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeTimelineEvent {
    /// Simulated time, nanoseconds.
    pub t_ns: f64,
    /// What happened.
    pub kind: ServeEventKind,
    /// Which request (index into the session's request log).
    pub request: usize,
    /// The shard involved, for [`ServeEventKind::Dispatched`] /
    /// [`ServeEventKind::ShardDone`].
    pub shard: Option<usize>,
}

/// Latency accounting for one completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCompletion {
    /// Index into the session's request log.
    pub request: usize,
    /// Owning tenant (index into the tenant slice).
    pub tenant: usize,
    /// The closed-loop client that issued it, if any.
    pub client: Option<usize>,
    /// Query identifier.
    pub query_id: String,
    /// When the request arrived.
    pub arrive_ns: f64,
    /// When the token bucket made it admissible (equals `arrive_ns`
    /// unless throttled).
    pub eligible_ns: f64,
    /// When admission control let it in.
    pub admit_ns: f64,
    /// When its first bus slice started (equals `admit_ns` for
    /// planner-only answers).
    pub first_service_ns: f64,
    /// When its merged answer was ready.
    pub complete_ns: f64,
    /// Candidate shards dispatched.
    pub shards_dispatched: usize,
    /// Active shards pruned by the zone-map planner.
    pub shards_pruned: usize,
    /// Absolute deadline, if the tenant's SLO set one.
    pub deadline_ns: Option<f64>,
}

impl ServeCompletion {
    /// End-to-end sojourn time (arrival → merged answer).
    pub fn latency_ns(&self) -> f64 {
        self.complete_ns - self.arrive_ns
    }

    /// Time waiting (throttle + admission queue + bus queue) before
    /// any service.
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

/// Latency accounting for one completed write request (cf.
/// [`ServeCompletion`] — writes have no merge and no deadline, and
/// their answer is state, not groups).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeWriteCompletion {
    /// Index into the session's request log.
    pub request: usize,
    /// Owning tenant (index into the tenant slice).
    pub tenant: usize,
    /// The closed-loop client that issued it, if any.
    pub client: Option<usize>,
    /// The mutation's label.
    pub label: String,
    /// When the request arrived.
    pub arrive_ns: f64,
    /// When the token bucket made it admissible.
    pub eligible_ns: f64,
    /// When admission control let it in.
    pub admit_ns: f64,
    /// When its first bus slice started.
    pub first_service_ns: f64,
    /// When its last lane chain finished (durable).
    pub complete_ns: f64,
    /// Ingest lanes the write occupied.
    pub lanes: usize,
    /// Records the mutation rewrites in place (UPDATE).
    pub records_updated: u64,
    /// Records the mutation appends (INSERT).
    pub records_inserted: u64,
}

impl ServeWriteCompletion {
    /// End-to-end sojourn time (arrival → durable).
    pub fn latency_ns(&self) -> f64 {
        self.complete_ns - self.arrive_ns
    }

    /// Time waiting (throttle + admission queue + bus queue) before
    /// any service.
    pub fn wait_ns(&self) -> f64 {
        self.first_service_ns - self.arrive_ns
    }

    /// Time from first service to durable.
    pub fn service_ns(&self) -> f64 {
        self.complete_ns - self.first_service_ns
    }
}

/// One request shed at admission.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeDrop {
    /// Index into the session's request log.
    pub request: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// The closed-loop client that issued it, if any.
    pub client: Option<usize>,
    /// Query identifier.
    pub query_id: String,
    /// When the request arrived.
    pub arrive_ns: f64,
    /// When admission shed it.
    pub shed_ns: f64,
    /// The completion instant the shedder predicted.
    pub predicted_complete_ns: f64,
    /// The absolute deadline the prediction blew.
    pub deadline_ns: f64,
}

/// Everything one serve session produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per-request latency records, in completion order.
    pub completions: Vec<ServeCompletion>,
    /// Merged executions parallel to `completions` — each is
    /// bit-identical to the batch answer for its query, and shared by
    /// every completion of that query.
    pub executions: Vec<Arc<ClusterExecution>>,
    /// Per-write-request latency records, in completion order (empty
    /// for sessions without write traffic).
    pub write_completions: Vec<ServeWriteCompletion>,
    /// Requests shed at admission, in shed order.
    pub drops: Vec<ServeDrop>,
    /// The full event timeline (deterministic per seed).
    pub timeline: Vec<ServeTimelineEvent>,
    /// The in-flight window over time: the initial window at t = 0
    /// plus one entry per controller decision (static windows have
    /// only the initial entry).
    pub window_trajectory: Vec<(f64, usize)>,
    /// The AIMD decision log (empty under a static window).
    pub decisions: Vec<WindowDecision>,
    /// Per-tenant requests generated.
    pub submitted: Vec<usize>,
    /// Per-tenant requests delayed by the token bucket.
    pub throttled: Vec<usize>,
    /// When the last request completed or was shed.
    pub makespan_ns: f64,
    /// Host-channel busy time.
    pub host_busy_ns: f64,
    /// Per-lane module-local busy time. One entry per active shard for
    /// query-only sessions; with write traffic, one per ingest lane
    /// (auxiliary lanes — star dimension modules — after the shards).
    pub shard_busy_ns: Vec<f64>,
    /// Per-lane accumulated worst-row cell writes over every completed
    /// query slice and write chain (the endurance model's input).
    pub lane_cell_writes: Vec<u64>,
    /// Per-lane required cell endurance (write cycles) to sustain that
    /// lane's worst chain back-to-back for ten years; zero for lanes
    /// whose work performs no PIM writes.
    pub lane_required_endurance: Vec<f64>,
}

impl ServeOutcome {
    /// The session's makespan and host-busy time: the two rates below
    /// are [`RunRates`]', spelled once for streamed and served runs.
    fn rates(&self) -> RunRates {
        RunRates { makespan_ns: self.makespan_ns, host_busy_ns: self.host_busy_ns }
    }

    /// Saturated host-channel utilisation over the makespan.
    pub fn host_utilisation(&self) -> f64 {
        self.rates().host_utilisation()
    }

    /// Raw (unclamped) host-channel demand ratio
    /// ([`RunRates::host_demand`]).
    pub fn host_demand(&self) -> f64 {
        self.rates().host_demand()
    }

    /// The smallest and largest window the session ever ran under.
    pub fn window_bounds(&self) -> (usize, usize) {
        let lo = self.window_trajectory.iter().map(|(_, w)| *w).min().unwrap_or(0);
        let hi = self.window_trajectory.iter().map(|(_, w)| *w).max().unwrap_or(0);
        (lo, hi)
    }

    /// The window after the last decision.
    pub fn final_window(&self) -> usize {
        self.window_trajectory.last().map_or(0, |(_, w)| *w)
    }
}

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Work {
    /// Index into the owning tenant's query set.
    Query(usize),
    /// Index into the owning tenant's write-mix mutation set.
    Write(usize),
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
struct Request {
    tenant: usize,
    work: Work,
    client: Option<usize>,
    arrive_ns: f64,
    /// Set by the token bucket when the arrival fires.
    eligible_ns: f64,
    /// Always `None` for writes: durable work is never shed.
    deadline_ns: Option<f64>,
    /// Set at admission.
    admit_ns: f64,
    /// Set at admission: when the first bus slice started.
    first_service_ns: f64,
}

/// One closed-loop client: its private think/pick RNG and how many
/// requests it has left to issue.
struct ClientState {
    rng: StdRng,
    remaining: usize,
}

/// The server's own kernel events.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A request enters its tenant's admission queue.
    Arrive(usize),
    /// A deferred admission attempt (head-of-queue eligibility).
    AdmitTick,
}

/// The dynamic window state.
enum WindowState {
    Static(usize),
    Aimd(AimdController),
}

impl WindowState {
    fn window(&self) -> usize {
        match self {
            WindowState::Static(w) => *w,
            WindowState::Aimd(c) => c.window(),
        }
    }
}

/// Draw one request's work from a tenant's mix. Pure-query tenants
/// draw exactly the single uniform pick they always did (their arrival
/// streams stay byte-identical to pre-HTAP sessions); tenants with a
/// write mix flip the write coin first, then pick uniformly from the
/// chosen set.
fn pick_work(rng: &mut StdRng, n_queries: usize, writes: Option<&WriteMix>) -> Work {
    if let Some(w) = writes {
        if rng.gen::<f64>() < w.write_frac {
            return Work::Write(rng.gen_range(0..w.mutations.len()));
        }
    }
    Work::Query(rng.gen_range(0..n_queries))
}

/// Distinct per-(tenant, stream) RNG seeds: stream 0 is the tenant's
/// open-arrival draw stream, 1 + c is closed client c's think stream.
fn stream_seed(seed: u64, tenant: u64, stream: u64) -> u64 {
    seed ^ tenant.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ stream.wrapping_add(1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// The serving state machine.
struct Server<'a> {
    tenants: &'a [TenantSpec],
    /// `demands[t][q]`: tenant t's query q, resolved once; its answer
    /// is shared with every completion of it.
    demands: Vec<Vec<(QueryDemand, Arc<ClusterExecution>)>>,
    /// `write_demands[t][w]`: tenant t's mutation w, applied to the
    /// cluster once at session start and compiled to its lane chains.
    write_demands: Vec<Vec<MutationDemand>>,
    requests: Vec<Request>,
    /// Per-tenant FIFO admission queues of request indices.
    queues: Vec<VecDeque<usize>>,
    buckets: Vec<Option<TokenBucket>>,
    clients: Vec<Vec<ClientState>>,
    /// WFQ accounting: total busy time of work admitted per tenant.
    served_work: Vec<f64>,
    submitted: Vec<usize>,
    throttled: Vec<usize>,
    window: WindowState,
    in_flight: usize,
    /// EWMA of observed per-candidate-shard service time — the
    /// deadline shedder's completion predictor.
    est_per_shard_ns: Option<f64>,
    next_tick_ns: Option<f64>,
    completions: Vec<ServeCompletion>,
    executions: Vec<Arc<ClusterExecution>>,
    write_completions: Vec<ServeWriteCompletion>,
    drops: Vec<ServeDrop>,
    timeline: Vec<ServeTimelineEvent>,
    window_trajectory: Vec<(f64, usize)>,
    serve_track: TrackId,
    controller_track: TrackId,
}

/// EWMA weight for new per-shard service observations.
const EST_ALPHA: f64 = 0.3;

impl Jobs for Server<'_> {
    /// Candidate shard chains for a query, ingest lane chains for a
    /// write.
    fn chains(&self, ri: usize) -> &[Arc<ShardDemand>] {
        let r = &self.requests[ri];
        match r.work {
            Work::Query(q) => &self.demands[r.tenant][q].0.shards,
            Work::Write(w) => &self.write_demands[r.tenant][w].lanes,
        }
    }

    fn labels(&self, ri: usize) -> SpanLabels {
        SpanLabels { args: self.request_args(ri), lane_key: "shard", local: "local" }
    }
}

impl Server<'_> {
    fn record(&mut self, t_ns: f64, kind: ServeEventKind, request: usize, shard: Option<usize>) {
        self.timeline.push(ServeTimelineEvent { t_ns, kind, request, shard });
    }

    /// The request's host-side merge occupancy (writes have none — a
    /// write is durable when its last lane chain finishes).
    fn merge_ns(&self, ri: usize) -> f64 {
        let r = &self.requests[ri];
        match r.work {
            Work::Query(q) => self.demands[r.tenant][q].0.merge_ns,
            Work::Write(_) => 0.0,
        }
    }

    /// The request's report/trace label: query id or mutation label.
    fn label(&self, ri: usize) -> &str {
        let r = &self.requests[ri];
        match r.work {
            Work::Query(q) => &self.demands[r.tenant][q].0.query_id,
            Work::Write(w) => &self.write_demands[r.tenant][w].label,
        }
    }

    /// Standard event attributes: request index, tenant name, query id
    /// or mutation label.
    fn request_args(&self, ri: usize) -> SpanArgs {
        let r = &self.requests[ri];
        vec![
            ("request", ArgValue::U64(ri as u64)),
            ("tenant", ArgValue::Str(self.tenants[r.tenant].name.clone())),
            ("query", ArgValue::Str(self.label(ri).to_string())),
        ]
    }

    /// One serve-track instant about request `ri`: the standard
    /// attributes plus `(key, value)`.
    fn trace_instant(
        &self,
        k: &mut Kernel<'_, Ev>,
        name: &str,
        t_ns: f64,
        ri: usize,
        extra: &[(&'static str, f64)],
    ) {
        let Some(trace) = k.tracer() else { return };
        let mut args = self.request_args(ri);
        args.extend(extra.iter().map(|&(key, v)| (key, ArgValue::F64(v))));
        trace.instant(self.serve_track, name, t_ns, args);
    }

    /// Sample the scheduler counters (total queued, in-flight, window)
    /// onto the serve and controller tracks.
    fn trace_counters(&self, k: &mut Kernel<'_, Ev>, t_ns: f64) {
        let Some(trace) = k.tracer() else { return };
        let depth: usize = self.queues.iter().map(VecDeque::len).sum();
        trace.counter(self.serve_track, "admission-queue", t_ns, depth as f64);
        trace.counter(self.serve_track, "in-flight", t_ns, self.in_flight as f64);
        let window = self.window.window() as f64;
        trace.counter(self.controller_track, "in-flight-window", t_ns, window);
    }

    /// Create one request and schedule its arrival.
    fn create_request(
        &mut self,
        k: &mut Kernel<'_, Ev>,
        tenant: usize,
        work: Work,
        client: Option<usize>,
        at_ns: f64,
    ) {
        let deadline_ns = match work {
            Work::Query(_) => self.tenants[tenant].slo.deadline_ns.map(|d| at_ns + d),
            Work::Write(_) => None,
        };
        let ri = self.requests.len();
        self.requests.push(Request {
            tenant,
            work,
            client,
            arrive_ns: at_ns,
            eligible_ns: at_ns,
            deadline_ns,
            admit_ns: at_ns,
            first_service_ns: at_ns,
        });
        self.submitted[tenant] += 1;
        k.push(at_ns, Ev::Arrive(ri));
    }

    /// A closed-loop client learned its request's fate at `now_ns`:
    /// think, then issue the next request (if it has any left).
    fn client_next(&mut self, k: &mut Kernel<'_, Ev>, now_ns: f64, ri: usize) {
        let r = self.requests[ri];
        let Some(ci) = r.client else { return };
        let ArrivalProcess::Closed { mean_think_ns, .. } = self.tenants[r.tenant].process else {
            return;
        };
        let tenants: &[TenantSpec] = self.tenants;
        let spec = &tenants[r.tenant];
        let st = &mut self.clients[r.tenant][ci];
        if st.remaining == 0 {
            return;
        }
        st.remaining -= 1;
        let gap = exp_gap_ns(&mut st.rng, mean_think_ns);
        let work = pick_work(&mut st.rng, spec.queries.len(), spec.writes.as_ref());
        self.create_request(k, r.tenant, work, Some(ci), now_ns + gap);
    }

    /// The shedder's completion predictor: candidate shards × the
    /// observed per-shard service EWMA (zero until the first
    /// completion teaches it — cold starts admit optimistically).
    fn estimate_service_ns(&self, candidates: usize) -> f64 {
        self.est_per_shard_ns.map_or(0.0, |e| e * candidates as f64)
    }

    fn note_service(&mut self, service_ns: f64, shards: usize) {
        if shards == 0 {
            return;
        }
        let per = service_ns / shards as f64;
        self.est_per_shard_ns = Some(match self.est_per_shard_ns {
            None => per,
            Some(e) => (1.0 - EST_ALPHA) * e + EST_ALPHA * per,
        });
    }

    /// Schedule a deferred admission attempt at `at_ns` unless an
    /// earlier one is already pending.
    fn schedule_tick(&mut self, k: &mut Kernel<'_, Ev>, at_ns: f64) {
        if !self.next_tick_ns.is_some_and(|t| t <= at_ns) {
            self.next_tick_ns = Some(at_ns);
            k.push(at_ns, Ev::AdmitTick);
        }
    }

    /// Weighted-fair pick: among tenants whose queue head is eligible
    /// at `now_ns`, the least `served_work / weight` (ties to the
    /// lowest tenant index). Also returns the earliest future
    /// eligibility when nothing is admissible yet.
    fn pick_tenant(&self, now_ns: f64) -> (Option<usize>, f64) {
        let mut best: Option<(f64, usize)> = None;
        let mut next_eligible = f64::INFINITY;
        for (t, q) in self.queues.iter().enumerate() {
            let Some(&head) = q.front() else { continue };
            let e = self.requests[head].eligible_ns;
            if e <= now_ns {
                let key = self.served_work[t] / self.tenants[t].weight;
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, t));
                }
            } else {
                next_eligible = next_eligible.min(e);
            }
        }
        (best.map(|(_, t)| t), next_eligible)
    }

    /// Shed `ri` at admission: its predicted completion blows its
    /// deadline.
    fn shed(
        &mut self,
        k: &mut Kernel<'_, Ev>,
        now_ns: f64,
        ri: usize,
        predicted_ns: f64,
        deadline_ns: f64,
    ) {
        self.record(now_ns, ServeEventKind::Shed, ri, None);
        let extra = [("predicted_ns", predicted_ns), ("deadline_ns", deadline_ns)];
        self.trace_instant(k, "shed", now_ns, ri, &extra);
        let r = self.requests[ri];
        self.drops.push(ServeDrop {
            request: ri,
            tenant: r.tenant,
            client: r.client,
            query_id: self.label(ri).to_string(),
            arrive_ns: r.arrive_ns,
            shed_ns: now_ns,
            predicted_complete_ns: predicted_ns,
            deadline_ns,
        });
        // The rejection is the client's signal: it thinks, then retries
        // with its next request.
        self.client_next(k, now_ns, ri);
    }

    /// Admit from the tenant queues while in-flight slots are free.
    fn try_admit(&mut self, k: &mut Kernel<'_, Ev>, now_ns: f64) {
        while self.in_flight < self.window.window() {
            let (pick, next_eligible) = self.pick_tenant(now_ns);
            let Some(t) = pick else {
                if next_eligible.is_finite() {
                    self.schedule_tick(k, next_eligible);
                }
                break;
            };
            let ri = self.queues[t].pop_front().expect("picked tenant has a head");
            // Deadline shed before the slot is consumed (queries only —
            // write requests carry no deadline).
            if let Some(d) = self.requests[ri].deadline_ns {
                let predicted = now_ns + self.estimate_service_ns(self.chains(ri).len());
                if now_ns > d || predicted > d {
                    self.shed(k, now_ns, ri, predicted, d);
                    continue;
                }
            }
            self.record(now_ns, ServeEventKind::Admit, ri, None);
            let queued = now_ns - self.requests[ri].arrive_ns;
            self.trace_instant(k, "admit", now_ns, ri, &[("queued_ns", queued)]);
            let chains = self.chains(ri);
            let slices: f64 =
                chains.iter().flat_map(|c| c.slices.iter()).map(|s| s.bus_ns + s.local_ns).sum();
            let idle = chains.is_empty();
            self.served_work[t] += slices + self.merge_ns(ri);
            self.requests[ri].admit_ns = now_ns;
            if idle {
                // The planner answered the query: nothing to dispatch,
                // the (empty) merge is free, the slot never fills.
                self.requests[ri].first_service_ns = now_ns;
                self.complete(k, now_ns, ri);
            } else {
                self.in_flight += 1;
                self.requests[ri].first_service_ns = k.start(now_ns, &*self, ri);
            }
            self.trace_counters(k, now_ns);
        }
    }

    fn complete(&mut self, k: &mut Kernel<'_, Ev>, now_ns: f64, ri: usize) {
        self.record(now_ns, ServeEventKind::Complete, ri, None);
        let r = self.requests[ri];
        let latency_ns = now_ns - r.arrive_ns;
        self.trace_instant(k, "complete", now_ns, ri, &[("latency_ns", latency_ns)]);
        match r.work {
            Work::Query(q) => {
                let (demand, exec) = &self.demands[r.tenant][q];
                let completion = ServeCompletion {
                    request: ri,
                    tenant: r.tenant,
                    client: r.client,
                    query_id: demand.query_id.clone(),
                    arrive_ns: r.arrive_ns,
                    eligible_ns: r.eligible_ns,
                    admit_ns: r.admit_ns,
                    first_service_ns: r.first_service_ns,
                    complete_ns: now_ns,
                    shards_dispatched: demand.shards.len(),
                    shards_pruned: demand.shards_pruned,
                    deadline_ns: r.deadline_ns,
                };
                self.executions.push(Arc::clone(exec));
                self.note_service(completion.service_ns(), completion.shards_dispatched);
                self.completions.push(completion);
            }
            Work::Write(w) => {
                let d = &self.write_demands[r.tenant][w];
                self.write_completions.push(ServeWriteCompletion {
                    request: ri,
                    tenant: r.tenant,
                    client: r.client,
                    label: d.label.clone(),
                    arrive_ns: r.arrive_ns,
                    eligible_ns: r.eligible_ns,
                    admit_ns: r.admit_ns,
                    first_service_ns: r.first_service_ns,
                    complete_ns: now_ns,
                    lanes: d.lanes.len(),
                    records_updated: d.records_updated,
                    records_inserted: d.records_inserted,
                });
            }
        }
        // Feed the controller the SLO-normalised latency: write
        // completions count against the same promise, so a congested
        // ingest path cuts the window exactly as slow queries do.
        let ratio = latency_ns / self.tenants[r.tenant].slo.p95_target_ns;
        if let WindowState::Aimd(ctl) = &mut self.window {
            if let Some(w) = ctl.on_completion(now_ns, ratio) {
                self.window_trajectory.push((now_ns, w));
                if let Some(trace) = k.tracer() {
                    trace.counter(self.controller_track, "in-flight-window", now_ns, w as f64);
                }
            }
        }
        // The completion is the closed-loop client's signal.
        self.client_next(k, now_ns, ri);
    }

    fn run(mut self, mut k: Kernel<'_, Ev>) -> ServeOutcome {
        self.window_trajectory.push((0.0, self.window.window()));
        self.trace_counters(&mut k, 0.0);
        while let Some((t, moment)) = k.next(&self) {
            match moment {
                Moment::Front(Ev::Arrive(ri)) => {
                    let tenant = self.requests[ri].tenant;
                    let eligible = match &mut self.buckets[tenant] {
                        Some(b) => b.reserve(t),
                        None => t,
                    };
                    self.requests[ri].eligible_ns = eligible;
                    if eligible > t {
                        self.throttled[tenant] += 1;
                    }
                    self.record(t, ServeEventKind::Arrive, ri, None);
                    self.trace_instant(&mut k, "arrive", t, ri, &[("throttle_ns", eligible - t)]);
                    self.queues[tenant].push_back(ri);
                    self.trace_counters(&mut k, t);
                }
                Moment::Front(Ev::AdmitTick) => {
                    if self.next_tick_ns == Some(t) {
                        self.next_tick_ns = None;
                    }
                }
                Moment::Dispatched { job: ri, lane } => {
                    self.record(t, ServeEventKind::Dispatched, ri, Some(lane));
                    continue;
                }
                // Reads and writes alike end in a merge grant: a write's
                // is zero-length, yet still waits its turn on the bus.
                Moment::ChainDone { job: ri, lane, last } => {
                    self.record(t, ServeEventKind::ShardDone, ri, Some(lane));
                    if last {
                        k.merge(t, &self, ri, self.merge_ns(ri));
                    }
                    continue;
                }
                Moment::MergeDone { job: ri } => {
                    self.complete(&mut k, t, ri);
                    self.in_flight -= 1;
                    self.trace_counters(&mut k, t);
                }
            }
            self.try_admit(&mut k, t);
        }
        let makespan_ns = self
            .completions
            .iter()
            .map(|c| c.complete_ns)
            .chain(self.write_completions.iter().map(|c| c.complete_ns))
            .chain(self.drops.iter().map(|d| d.shed_ns))
            .fold(0.0, f64::max);
        let decisions = match self.window {
            WindowState::Aimd(ctl) => ctl.decisions().to_vec(),
            WindowState::Static(_) => Vec::new(),
        };
        let lanes = k.into_tallies();
        ServeOutcome {
            completions: self.completions,
            executions: self.executions,
            write_completions: self.write_completions,
            drops: self.drops,
            timeline: self.timeline,
            window_trajectory: self.window_trajectory,
            decisions,
            submitted: self.submitted,
            throttled: self.throttled,
            makespan_ns,
            host_busy_ns: lanes.host_busy_ns,
            shard_busy_ns: lanes.busy_ns,
            lane_cell_writes: lanes.cell_writes,
            lane_required_endurance: lanes.required_endurance,
        }
    }
}

/// Serve every tenant's traffic through `cluster` under `cfg`.
///
/// Arrival draws, token buckets, fair sharing, shedding and the window
/// controller are all pure functions of `(cluster, tenants, cfg)` on
/// the simulated clock, so the outcome is bit-deterministic per seed.
/// Every completion's execution in [`ServeOutcome::executions`] is the
/// pre-resolved batch answer for its query — admission policies decide
/// *which* requests run and *when*, never *what* they answer.
///
/// # Errors
///
/// [`ServeError::InvalidTenant`] / [`ServeError::InvalidConfig`] for
/// malformed specs, [`ServeError::Sched`] for planner or shard
/// execution failures.
pub fn run_serve<E: StreamEngine>(
    cluster: &mut E,
    tenants: &[TenantSpec],
    cfg: &ServeConfig,
) -> Result<ServeOutcome, ServeError> {
    let mut trace = TraceRecorder::disabled();
    run_serve_traced(cluster, tenants, cfg, &mut trace)
}

/// [`run_serve`] with a [`TraceRecorder`]: arrivals, admissions, sheds
/// and completions land on a `serve` track, bus grants on `host-bus`,
/// module-local windows on `module-<k>`, and the in-flight window on a
/// `controller` counter track. The recorder never changes the
/// simulation.
///
/// # Errors
///
/// Same as [`run_serve`].
pub fn run_serve_traced<E: StreamEngine>(
    cluster: &mut E,
    tenants: &[TenantSpec],
    cfg: &ServeConfig,
    trace: &mut TraceRecorder,
) -> Result<ServeOutcome, ServeError> {
    if tenants.is_empty() {
        return Err(ServeError::InvalidConfig("at least one tenant is required".into()));
    }
    for (i, t) in tenants.iter().enumerate() {
        t.validate()?;
        if tenants[..i].iter().any(|o| o.name == t.name) {
            return Err(ServeError::InvalidTenant(format!("duplicate tenant name {}", t.name)));
        }
    }
    let window = match &cfg.window {
        WindowPolicy::Static(w) => {
            if *w == 0 {
                return Err(ServeError::InvalidConfig("static window must be at least 1".into()));
            }
            WindowState::Static(*w)
        }
        WindowPolicy::Aimd(aimd) => WindowState::Aimd(AimdController::new(aimd.clone())?),
    };

    let want_detail = trace.is_enabled();

    // Apply every tenant's write mix to the cluster once, up front —
    // tenant order, then list order — compiling each mutation's lane
    // chains. Queries then resolve against the fully-ingested state:
    // the batch oracle for a write session is a batch run over that
    // same state, and write requests replay these chains' bus and lane
    // costs without re-mutating.
    let contention = cluster.contention();
    let mut write_demands = Vec::with_capacity(tenants.len());
    for t in tenants {
        let mut per_mutation = Vec::new();
        if let Some(w) = &t.writes {
            for m in &w.mutations {
                let applied = cluster.apply_mutation(m)?;
                let host = cluster.host_config().unwrap_or_default();
                per_mutation.push(compile_mutation_demand(
                    m.label(),
                    &applied,
                    &host,
                    contention,
                    want_detail,
                ));
            }
        }
        write_demands.push(per_mutation);
    }
    let has_writes = tenants.iter().any(|t| t.writes.is_some());

    // Resolve every tenant query's service demand once, up front —
    // fixing every possible answer before the first arrival.
    let mut demands = Vec::with_capacity(tenants.len());
    for t in tenants {
        let mut per_query = Vec::with_capacity(t.queries.len());
        for q in &t.queries {
            let (demand, exec) = resolve_query_demand(cluster, q, want_detail)?;
            per_query.push((demand, Arc::new(exec)));
        }
        demands.push(per_query);
    }

    let active_shards = cluster.active_shards();
    // Query-only sessions keep exactly one lane per active shard;
    // write traffic adds the cluster's auxiliary ingest lanes.
    let lanes = if has_writes { cluster.ingest_lanes().max(active_shards) } else { active_shards };
    // Registration order is part of the export bytes: `serve`,
    // `host-bus`, `controller`, then the kernel's lane tracks (its own
    // `host-bus` registration finds this one).
    let serve_track = trace.track("serve");
    trace.track("host-bus");
    let controller_track = trace.track("controller");
    let mut kernel = Kernel::new(trace, active_shards, lanes);
    let n = tenants.len();
    let mut server = Server {
        tenants,
        demands,
        write_demands,
        requests: Vec::new(),
        queues: vec![VecDeque::new(); n],
        buckets: tenants.iter().map(|t| t.rate_limit.as_ref().map(TokenBucket::new)).collect(),
        clients: Vec::with_capacity(n),
        served_work: vec![0.0; n],
        submitted: vec![0; n],
        throttled: vec![0; n],
        window,
        in_flight: 0,
        est_per_shard_ns: None,
        next_tick_ns: None,
        completions: Vec::new(),
        executions: Vec::new(),
        write_completions: Vec::new(),
        drops: Vec::new(),
        timeline: Vec::new(),
        window_trajectory: Vec::new(),
        serve_track,
        controller_track,
    };

    // Seed every tenant's arrival stream.
    for (t, spec) in tenants.iter().enumerate() {
        let n_queries = spec.queries.len();
        let writes = spec.writes.as_ref();
        let mut client_states = Vec::new();
        match spec.process {
            ArrivalProcess::OpenPoisson { arrivals, mean_interarrival_ns } => {
                let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, t as u64, 0));
                let mut at = 0.0;
                for _ in 0..arrivals {
                    at += exp_gap_ns(&mut rng, mean_interarrival_ns);
                    let work = pick_work(&mut rng, n_queries, writes);
                    server.create_request(&mut kernel, t, work, None, at);
                }
            }
            ArrivalProcess::Burst { arrivals, at_ns } => {
                let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, t as u64, 0));
                for _ in 0..arrivals {
                    let work = pick_work(&mut rng, n_queries, writes);
                    server.create_request(&mut kernel, t, work, None, at_ns);
                }
            }
            ArrivalProcess::Closed { clients, queries_per_client, mean_think_ns } => {
                for c in 0..clients {
                    let mut st = ClientState {
                        rng: StdRng::seed_from_u64(stream_seed(cfg.seed, t as u64, 1 + c as u64)),
                        remaining: queries_per_client,
                    };
                    if st.remaining > 0 {
                        st.remaining -= 1;
                        let gap = exp_gap_ns(&mut st.rng, mean_think_ns);
                        let work = pick_work(&mut st.rng, n_queries, writes);
                        client_states.push(st);
                        server.create_request(&mut kernel, t, work, Some(c), gap);
                    } else {
                        client_states.push(st);
                    }
                }
            }
        }
        server.clients.push(client_states);
    }

    Ok(server.run(kernel))
}
