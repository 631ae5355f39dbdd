//! SLO-aware multi-tenant serving: [`run_serve`], the tenant front-end
//! of the one admission loop it shares with [`run_stream`](crate::run_stream).
//!
//! The streaming scheduler answers "what happens when queries arrive
//! over time"; this module answers the production question on top of
//! it: what happens when *several tenants* share one PIM cluster, each
//! with its own traffic shape, rate limit, and latency promise — and
//! the operator must keep those promises under overload?
//!
//! * [`tenant::TenantSpec`] — a named workload: a query set, an
//!   arrival process (seeded open Poisson / burst, or closed-loop
//!   think-time clients whose offered load *reacts* to latency), an
//!   optional token-bucket [`tenant::RateLimit`], an [`tenant::SloSpec`]
//!   (p95 target, optional per-request deadline), an optional
//!   [`tenant::WriteMix`] (HTAP tenants issue Mutation API v2 writes as
//!   first-class requests), and a fair-share weight.
//! * [`controller::AimdController`] — the closed loop: every
//!   completion feeds its SLO-normalised latency; the windowed p95 of
//!   those ratios raises the window additively while promises hold and
//!   cuts it multiplicatively on violation, replacing the static
//!   `max_in_flight` guess.
//! * [`report::tenant_reports`] — per-tenant p50/p95/p99/p999, goodput,
//!   drop rate and SLO verdict.
//!
//! [`run_serve`] multiplexes every tenant's arrival process into one
//! deterministic timeline over a [`StreamEngine`] cluster. The core
//! resolves each admitted query and applies each admitted write at its
//! admission, exactly as it does for a stream, and plays their slice
//! chains out on the shared host channel and the module servers; this
//! module keeps only the serving policy, which requests run and when:
//!
//! * **Rate limits** — each arrival passes its tenant's token bucket;
//!   over-rate requests are not rejected, their admission eligibility
//!   moves later (throttling, counted per tenant).
//! * **Weighted fair admission** — each tenant has its own FIFO
//!   admission queue; when an in-flight slot frees, the eligible
//!   tenant with the least weighted admitted work
//!   (`served_work / weight`) goes next, so a heavy tenant cannot
//!   starve a light one no matter how deep its backlog.
//! * **Deadline shedding** — at admission, a query whose predicted
//!   completion (now + candidate-shard count × an EWMA of observed
//!   per-shard service) blows its deadline is dropped instead of
//!   admitted: under overload it could only waste bus time on an
//!   answer nobody will count.
//! * **The window** — the global in-flight bound over queries and
//!   writes is either the legacy static knob or a closed-loop
//!   [`AimdController`] fed every completion's SLO-normalised latency.
//! * **Closed-loop clients** issue their next request from their
//!   completion (or shed) instant plus a seeded think gap, which is why
//!   serving is a front-end of its own rather than a precomputed
//!   workload trace handed to `run_stream`.
//!
//! Every answer reflects exactly the writes admitted before it
//! ([`QueryCompletion::epoch`]): a fresh engine that replayed those
//! writes answers bit-identically. Without writes that is the batch
//! oracle's answer. A write request rides the shared channel and its
//! ingest lanes, and feeds the controller and the per-lane wear
//! accounting ([`ServeOutcome::lane_cell_writes`]).
//!
//! ```
//! use bbpim_cluster::{ClusterEngine, Partitioner};
//! use bbpim_core::modes::EngineMode;
//! use bbpim_db::ssb::{queries, SsbDb, SsbParams};
//! use bbpim_sched::serve::{
//!     run_serve, tenant_reports, ArrivalProcess, ServeConfig, SloSpec, TenantSpec,
//! };
//! use bbpim_sim::SimConfig;
//!
//! let wide = SsbDb::generate(&SsbParams::tiny_for_tests()).prejoin();
//! let mut cluster = ClusterEngine::new(
//!     SimConfig::default(), wide, EngineMode::OneXb, 4, Partitioner::range_by_attr("d_year"))?;
//! let tenants = vec![
//!     TenantSpec {
//!         name: "interactive".into(),
//!         queries: vec![queries::standard_query("Q1.1").unwrap()],
//!         process: ArrivalProcess::OpenPoisson { arrivals: 6, mean_interarrival_ns: 200_000.0 },
//!         writes: None,
//!         rate_limit: None,
//!         slo: SloSpec { p95_target_ns: 2_000_000.0, deadline_ns: None },
//!         weight: 4.0,
//!     },
//!     TenantSpec {
//!         name: "batch".into(),
//!         queries: vec![queries::standard_query("Q1.2").unwrap()],
//!         process: ArrivalProcess::Closed { clients: 2, queries_per_client: 2, mean_think_ns: 50_000.0 },
//!         writes: None,
//!         rate_limit: None,
//!         slo: SloSpec { p95_target_ns: 20_000_000.0, deadline_ns: None },
//!         weight: 1.0,
//!     },
//! ];
//! let out = run_serve(&mut cluster, &tenants, &ServeConfig::default())?;
//! assert_eq!(out.completions.len(), 10);
//! for r in tenant_reports(&tenants, &out) {
//!     println!("{:12} p95 {:8.3} ms  goodput {:6.0} q/s  slo_met {}",
//!         r.name, r.latency.p95_ns / 1e6, r.goodput_qps, r.slo_met);
//! }
//! # Ok::<(), bbpim_sched::SchedError>(())
//! ```

pub mod controller;
pub mod report;
pub mod tenant;

use std::collections::VecDeque;
use std::sync::Arc;

use bbpim_cluster::ClusterExecution;
use bbpim_core::mutation::Mutation;
use bbpim_trace::{ArgValue, TraceRecorder, TrackId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use controller::{AimdConfig, AimdController, WindowDecision, WindowPolicy};
pub use report::{tenant_reports, TenantReport};
pub use tenant::{ArrivalProcess, RateLimit, SloSpec, TenantSpec, TokenBucket, WriteMix};

use crate::admission::{
    Core, Done, EventKind, Front, MutationCompletion, QueryCompletion, Ticket, TimelineEvent,
};
use crate::error::SchedError;
use crate::report::RunRates;
use crate::sched::StreamEngine;
use tenant::exp_gap_ns;

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
    pub completions: Vec<QueryCompletion>,
    /// Merged executions parallel to `completions` — each is
    /// bit-identical to a fresh engine that replayed the writes its
    /// completion's `epoch` counts, and shared by every completion one
    /// resolution answered.
    pub executions: Vec<Arc<ClusterExecution>>,
    /// Per-write-request latency records, in completion order (empty
    /// for sessions without write traffic).
    pub write_completions: Vec<MutationCompletion>,
    /// Requests shed at admission, in shed order.
    pub drops: Vec<ServeDrop>,
    /// The full event timeline (deterministic per seed).
    pub timeline: Vec<TimelineEvent>,
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
#[derive(Debug, Clone, Copy)]
enum Work<'a> {
    /// Index into the owning tenant's query set.
    Query(usize),
    /// A mutation of the owning tenant's write mix.
    Write(&'a Mutation),
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
fn pick_work<'a>(rng: &mut StdRng, n_queries: usize, writes: Option<&'a WriteMix>) -> Work<'a> {
    if let Some(w) = writes {
        if rng.gen::<f64>() < w.write_frac {
            return Work::Write(&w.mutations[rng.gen_range(0..w.mutations.len())]);
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

/// The serving front-end.
struct Server<'a> {
    tenants: &'a [TenantSpec],
    /// Per tenant, the resolution-cache key of its first query (the
    /// tenant's queries follow it).
    keys: Vec<usize>,
    /// Every generated request: who sent it and when (the token bucket
    /// sets its eligibility when it arrives), and what it asks for.
    requests: Vec<(Ticket, Work<'a>)>,
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
    drops: Vec<ServeDrop>,
    window_trajectory: Vec<(f64, usize)>,
    serve_track: TrackId,
    controller_track: TrackId,
}

/// EWMA weight for new per-shard service observations.
const EST_ALPHA: f64 = 0.3;

type ServeCore<'c, E> = Core<'c, E, Ev>;

impl<'a> Server<'a> {
    /// The request's report/trace label: query id or mutation label.
    fn label(&self, ri: usize) -> String {
        match self.requests[ri] {
            (ticket, Work::Query(q)) => self.tenants[ticket.tenant].queries[q].id.clone(),
            (_, Work::Write(m)) => m.label(),
        }
    }

    /// Trace attributes: request index, tenant name, query id or
    /// mutation label, then `extra`.
    fn args(&self, ri: usize, extra: &[(&'static str, f64)]) -> Vec<(&'static str, ArgValue)> {
        let tenant = &self.tenants[self.requests[ri].0.tenant].name;
        let mut args = vec![
            ("request", ArgValue::U64(ri as u64)),
            ("tenant", ArgValue::Str(tenant.clone())),
            ("query", ArgValue::Str(self.label(ri))),
        ];
        args.extend(extra.iter().map(|&(key, v)| (key, ArgValue::F64(v))));
        args
    }

    /// Sample the scheduler counters (total queued, in-flight, window)
    /// onto the serve and controller tracks.
    fn trace_counters<E: StreamEngine>(&self, core: &mut ServeCore<'_, E>, t_ns: f64) {
        let Some(trace) = core.tracer() else { return };
        let depth: usize = self.queues.iter().map(VecDeque::len).sum();
        trace.counter(self.serve_track, "admission-queue", t_ns, depth as f64);
        trace.counter(self.serve_track, "in-flight", t_ns, self.in_flight as f64);
        let window = self.window.window() as f64;
        trace.counter(self.controller_track, "in-flight-window", t_ns, window);
    }

    /// Create one request and schedule its arrival.
    fn create_request<E: StreamEngine>(
        &mut self,
        core: &mut ServeCore<'_, E>,
        tenant: usize,
        work: Work<'a>,
        client: Option<usize>,
        at_ns: f64,
    ) {
        let deadline_ns = match work {
            Work::Query(_) => self.tenants[tenant].slo.deadline_ns.map(|d| at_ns + d),
            Work::Write(_) => None,
        };
        let index = self.requests.len();
        let ticket =
            Ticket { index, tenant, client, arrive_ns: at_ns, eligible_ns: at_ns, deadline_ns };
        self.requests.push((ticket, work));
        self.submitted[tenant] += 1;
        core.push(at_ns, Ev::Arrive(index));
    }

    /// Closed client `ci` of `tenant` learned its last request's fate
    /// at `now_ns` (or starts, at 0): think, then issue the next request
    /// if it has any left.
    fn issue<E: StreamEngine>(
        &mut self,
        core: &mut ServeCore<'_, E>,
        tenant: usize,
        ci: usize,
        now_ns: f64,
    ) {
        let spec = &self.tenants[tenant];
        let ArrivalProcess::Closed { mean_think_ns, .. } = spec.process else { return };
        let st = &mut self.clients[tenant][ci];
        if st.remaining == 0 {
            return;
        }
        st.remaining -= 1;
        let gap = exp_gap_ns(&mut st.rng, mean_think_ns);
        let work = pick_work(&mut st.rng, spec.queries.len(), spec.writes.as_ref());
        self.create_request(core, tenant, work, Some(ci), now_ns + gap);
    }

    /// The shedder's completion predictor: candidate shards × the
    /// observed per-shard service EWMA (zero until the first
    /// completion teaches it — cold starts admit optimistically).
    fn estimate_service_ns(&self, candidates: usize) -> f64 {
        self.est_per_shard_ns.map_or(0.0, |e| e * candidates as f64)
    }

    /// Schedule a deferred admission attempt at `at_ns` unless an
    /// earlier one is already pending.
    fn schedule_tick<E: StreamEngine>(&mut self, core: &mut ServeCore<'_, E>, at_ns: f64) {
        if !self.next_tick_ns.is_some_and(|t| t <= at_ns) {
            self.next_tick_ns = Some(at_ns);
            core.push(at_ns, Ev::AdmitTick);
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
            let e = self.requests[head].0.eligible_ns;
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

    /// Shed query `ri` at admission: its predicted completion blows its
    /// deadline. The rejection is a closed client's signal: it thinks,
    /// then retries with its next request.
    fn shed<E: StreamEngine>(
        &mut self,
        core: &mut ServeCore<'_, E>,
        now_ns: f64,
        ri: usize,
        predicted_ns: f64,
        deadline_ns: f64,
    ) {
        let extra = [("predicted_ns", predicted_ns), ("deadline_ns", deadline_ns)];
        core.note(now_ns, (EventKind::Shed, ri, None), "shed", || self.args(ri, &extra));
        let ticket = self.requests[ri].0;
        self.drops.push(ServeDrop {
            request: ri,
            tenant: ticket.tenant,
            client: ticket.client,
            query_id: self.label(ri),
            arrive_ns: ticket.arrive_ns,
            shed_ns: now_ns,
            predicted_complete_ns: predicted_ns,
            deadline_ns,
        });
        if let Some(ci) = ticket.client {
            self.issue(core, ticket.tenant, ci, now_ns);
        }
    }

    /// Admit from the tenant queues while in-flight slots are free:
    /// queries resolved against the writes admitted so far, writes
    /// applied at admission.
    fn try_admit<E: StreamEngine>(
        &mut self,
        core: &mut ServeCore<'_, E>,
        now_ns: f64,
    ) -> Result<(), SchedError> {
        while self.in_flight < self.window.window() {
            let (pick, next_eligible) = self.pick_tenant(now_ns);
            let Some(t) = pick else {
                if next_eligible.is_finite() {
                    self.schedule_tick(core, next_eligible);
                }
                break;
            };
            let Some(ri) = self.queues[t].pop_front() else { break };
            let (ticket, work) = self.requests[ri];
            let args = || self.args(ri, &[]);
            let admitted = match work {
                Work::Write(m) => core.admit_mutation(now_ns, ticket, m, args)?,
                Work::Query(q) => {
                    let resolution = core.resolve(self.keys[t] + q, &self.tenants[t].queries[q])?;
                    // Deadline shed before the slot is consumed (queries
                    // only — write requests carry no deadline).
                    if let Some(d) = ticket.deadline_ns {
                        let shards = resolution.0.shards.len();
                        let predicted = now_ns + self.estimate_service_ns(shards);
                        if now_ns > d || predicted > d {
                            self.shed(core, now_ns, ri, predicted, d);
                            continue;
                        }
                    }
                    core.admit_query(now_ns, ticket, resolution, args)
                }
            };
            self.served_work[t] += admitted.busy_ns;
            match admitted.done {
                Some(done) => self.finished(core, now_ns, done),
                None => self.in_flight += 1,
            }
            self.trace_counters(core, now_ns);
        }
        Ok(())
    }

    /// A request completed at `now_ns`: teach the shedder the observed
    /// per-shard service (queries), feed the controller, release the
    /// client.
    fn finished<E: StreamEngine>(&mut self, core: &mut ServeCore<'_, E>, now_ns: f64, done: Done) {
        if !done.mutation && done.chains > 0 {
            let per = done.service_ns / done.chains as f64;
            self.est_per_shard_ns = Some(match self.est_per_shard_ns {
                None => per,
                Some(e) => (1.0 - EST_ALPHA) * e + EST_ALPHA * per,
            });
        }
        // Feed the controller the SLO-normalised latency: write
        // completions count against the same promise, so a congested
        // ingest path cuts the window exactly as slow queries do. A
        // request with a deadline is held to the tighter of its
        // deadline and its tenant's promise: a late answer is no
        // goodput, however far inside the p95 promise it lands.
        let ticket = self.requests[done.index].0;
        let mut ratio = done.latency_ns / self.tenants[ticket.tenant].slo.p95_target_ns;
        if let Some(deadline) = ticket.deadline_ns {
            ratio = ratio.max(done.latency_ns / (deadline - ticket.arrive_ns));
        }
        if let WindowState::Aimd(ctl) = &mut self.window {
            if let Some(w) = ctl.on_completion(now_ns, ratio) {
                self.window_trajectory.push((now_ns, w));
                if let Some(trace) = core.tracer() {
                    trace.counter(self.controller_track, "in-flight-window", now_ns, w as f64);
                }
            }
        }
        if let Some(ci) = ticket.client {
            self.issue(core, ticket.tenant, ci, now_ns);
        }
    }
}

impl<E: StreamEngine> Front<E> for Server<'_> {
    type Event = Ev;

    fn on_event(
        &mut self,
        core: &mut ServeCore<'_, E>,
        t_ns: f64,
        ev: Ev,
    ) -> Result<(), SchedError> {
        let Ev::Arrive(ri) = ev else {
            if self.next_tick_ns == Some(t_ns) {
                self.next_tick_ns = None;
            }
            return Ok(());
        };
        let tenant = self.requests[ri].0.tenant;
        let eligible = match &mut self.buckets[tenant] {
            Some(b) => b.reserve(t_ns),
            None => t_ns,
        };
        self.requests[ri].0.eligible_ns = eligible;
        if eligible > t_ns {
            self.throttled[tenant] += 1;
        }
        let (kind, name) = match self.requests[ri].1 {
            Work::Query(_) => (EventKind::Arrive, "arrive"),
            Work::Write(_) => (EventKind::MutationArrive, "ingest-arrive"),
        };
        let throttle = [("throttle_ns", eligible - t_ns)];
        core.note(t_ns, (kind, ri, None), name, || self.args(ri, &throttle));
        self.queues[tenant].push_back(ri);
        self.trace_counters(core, t_ns);
        Ok(())
    }

    fn on_done(&mut self, core: &mut ServeCore<'_, E>, t_ns: f64, done: Done) {
        self.finished(core, t_ns, done);
        self.in_flight -= 1;
        self.trace_counters(core, t_ns);
    }

    fn admit(&mut self, core: &mut ServeCore<'_, E>, t_ns: f64) -> Result<(), SchedError> {
        self.try_admit(core, t_ns)
    }
}

/// Serve every tenant's traffic through `cluster` under `cfg`.
///
/// Arrival draws, token buckets, fair sharing, shedding and the window
/// controller are all pure functions of `(cluster, tenants, cfg)` on
/// the simulated clock, so the outcome is bit-deterministic per seed.
/// Admission policies decide *which* requests run and *when*; what a
/// query answers is fixed at its admission by the writes admitted
/// before it — without writes, the batch answer for its query.
///
/// # Errors
///
/// [`SchedError::InvalidTenant`] / [`SchedError::InvalidConfig`] for
/// malformed specs, [`SchedError::Cluster`] for planner, shard execution
/// or write failures.
pub fn run_serve<E: StreamEngine>(
    cluster: &mut E,
    tenants: &[TenantSpec],
    cfg: &ServeConfig,
) -> Result<ServeOutcome, SchedError> {
    let mut trace = TraceRecorder::disabled();
    run_serve_traced(cluster, tenants, cfg, &mut trace)
}

/// [`run_serve`] with a [`TraceRecorder`]: arrivals, admissions, sheds
/// and completions land on a `serve` track, bus grants on `host-bus`,
/// module-local windows on `module-<k>` (write chains on auxiliary
/// lanes on `ingest-lane-<d>`), and the in-flight window on a
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
) -> Result<ServeOutcome, SchedError> {
    if tenants.is_empty() {
        return Err(SchedError::InvalidConfig("at least one tenant is required".into()));
    }
    for (i, t) in tenants.iter().enumerate() {
        t.validate()?;
        if tenants[..i].iter().any(|o| o.name == t.name) {
            return Err(SchedError::InvalidTenant(format!("duplicate tenant name {}", t.name)));
        }
    }
    let window = match &cfg.window {
        WindowPolicy::Static(w) => {
            if *w == 0 {
                return Err(SchedError::InvalidConfig("static window must be at least 1".into()));
            }
            WindowState::Static(*w)
        }
        WindowPolicy::Aimd(aimd) => WindowState::Aimd(AimdController::new(aimd.clone())?),
    };

    // Registration order is part of the export bytes: `serve`,
    // `host-bus`, `controller`, then the kernel's lane tracks (its own
    // `host-bus` registration finds this one).
    let serve_track = trace.track("serve");
    trace.track("host-bus");
    let controller_track = trace.track("controller");
    let writes = tenants.iter().any(|t| t.writes.is_some());
    let mut core = Core::new(cluster, trace, serve_track, writes);
    let n = tenants.len();
    let keys =
        tenants.iter().scan(0, |next, t| Some(std::mem::replace(next, *next + t.queries.len())));
    let mut server = Server {
        tenants,
        keys: keys.collect(),
        requests: Vec::new(),
        queues: vec![VecDeque::new(); n],
        buckets: tenants.iter().map(|t| t.rate_limit.as_ref().map(TokenBucket::new)).collect(),
        clients: (0..n).map(|_| Vec::new()).collect(),
        served_work: vec![0.0; n],
        submitted: vec![0; n],
        throttled: vec![0; n],
        window,
        in_flight: 0,
        est_per_shard_ns: None,
        next_tick_ns: None,
        drops: Vec::new(),
        window_trajectory: Vec::new(),
        serve_track,
        controller_track,
    };

    // Seed every tenant's arrival stream.
    for (t, spec) in tenants.iter().enumerate() {
        let (n_queries, writes) = (spec.queries.len(), spec.writes.as_ref());
        match spec.process {
            ArrivalProcess::OpenPoisson { arrivals, mean_interarrival_ns } => {
                let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, t as u64, 0));
                let mut at = 0.0;
                for _ in 0..arrivals {
                    at += exp_gap_ns(&mut rng, mean_interarrival_ns);
                    let work = pick_work(&mut rng, n_queries, writes);
                    server.create_request(&mut core, t, work, None, at);
                }
            }
            ArrivalProcess::Burst { arrivals, at_ns } => {
                let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, t as u64, 0));
                for _ in 0..arrivals {
                    let work = pick_work(&mut rng, n_queries, writes);
                    server.create_request(&mut core, t, work, None, at_ns);
                }
            }
            ArrivalProcess::Closed { clients, queries_per_client, .. } => {
                server.clients[t] = (0..clients as u64)
                    .map(|c| ClientState {
                        rng: StdRng::seed_from_u64(stream_seed(cfg.seed, t as u64, 1 + c)),
                        remaining: queries_per_client,
                    })
                    .collect();
                for c in 0..clients {
                    server.issue(&mut core, t, c, 0.0);
                }
            }
        }
    }

    server.window_trajectory.push((0.0, server.window.window()));
    server.trace_counters(&mut core, 0.0);
    core.drive(&mut server)?;
    let run = core.finish();
    let shed_ns = server.drops.iter().map(|d| d.shed_ns);
    let decisions = match server.window {
        WindowState::Aimd(ctl) => ctl.decisions().to_vec(),
        WindowState::Static(_) => Vec::new(),
    };
    Ok(ServeOutcome {
        makespan_ns: shed_ns.fold(run.makespan_ns(), f64::max),
        completions: run.completions,
        executions: run.executions,
        write_completions: run.mutation_completions,
        drops: server.drops,
        timeline: run.timeline,
        window_trajectory: server.window_trajectory,
        decisions,
        submitted: server.submitted,
        throttled: server.throttled,
        host_busy_ns: run.host_busy_ns,
        shard_busy_ns: run.busy_ns,
        lane_cell_writes: run.cell_writes,
        lane_required_endurance: run.required_endurance,
    })
}
