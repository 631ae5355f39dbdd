//! The chain-execution kernel: the discrete-event machinery under the
//! one admission loop ([`Core`](crate::admission::Core)), which is the
//! only thing that drives it — for [`run_stream`](crate::run_stream) and
//! [`run_serve`](crate::serve::run_serve) alike.
//!
//! A *job* is anything whose service demand is a set of per-lane slice
//! chains ([`ShardDemand`]): a query's candidate-shard chains or a
//! mutation's ingest-lane chains. The kernel owns everything mechanical
//! about playing jobs out on the simulated clock —
//!
//! * the event heap, ordered by `(time, push sequence)` so simultaneous
//!   events fire in the order they were pushed;
//! * the one shared host [`SharedBus`] and one FIFO server per lane
//!   (fact-shard modules first, auxiliary ingest lanes after them);
//! * chain stepping: each slice's bus part queues on the host channel,
//!   then its local part queues on the lane's own server, then the next
//!   slice starts — until the chain is done;
//! * the merge grant on the host channel ([`Kernel::merge`]);
//! * the `host-bus` / `module-<k>` / `ingest-lane-<d>` trace spans;
//! * per-lane busy time, cell writes and required endurance.
//!
//! It knows nothing about *policy*. The core pushes the front-end's own
//! events (`F`: arrivals, admission ticks), starts jobs as they are
//! admitted ([`Kernel::start`]), and reads [`Kernel::next`] for the only
//! moments admission cares about ([`Moment`]). What a job *is* stays
//! with the core's [`Started`] table, which answers the kernel's two
//! questions: the job's chains, and — only while tracing — how its spans
//! are labelled.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bbpim_sim::hostbus::SharedBus;
use bbpim_trace::{ArgValue, TraceRecorder, TrackId};

use crate::admission::{Finished, Started};
use crate::demand::ShardDemand;

/// Trace event attributes, in export order.
pub type SpanArgs = Vec<(&'static str, ArgValue)>;

/// How one job's spans are labelled (part of the export bytes).
pub struct SpanLabels {
    /// The attributes every span of the job leads with.
    pub args: SpanArgs,
    /// The attribute naming a chain's lane on its bus spans.
    pub lane_key: &'static str,
    /// The module-span name of a local window compiled without
    /// per-phase detail.
    pub local: &'static str,
}

/// The moments a front-end reacts to, each about one `job` (and, for
/// chain moments, the chain's `lane`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Moment<F> {
    /// A front-end event pushed with [`Kernel::push`] fired.
    Front(F),
    /// The host bus finished the first slice of one of the job's chains.
    Dispatched { job: usize, lane: usize },
    /// One of the job's chains finished its last slice; `last` when no
    /// other chain of the job is still running.
    ChainDone { job: usize, lane: usize, last: bool },
    /// The merge granted by [`Kernel::merge`] ended.
    MergeDone { job: usize },
}

enum Ev<F> {
    Front(F),
    /// `(job, chain position, slice index)`: the slice's bus part ended.
    BusDone(usize, usize, usize),
    /// `(job, chain position, slice index)`: the slice's local part ended.
    LocalDone(usize, usize, usize),
    MergeDone(usize),
}

/// Heap entry ordered by (time, push sequence) — the sequence makes
/// simultaneous events deterministic.
struct HeapEntry<F> {
    t_ns: f64,
    seq: u64,
    ev: Ev<F>,
}

impl<F> PartialEq for HeapEntry<F> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<F> Eq for HeapEntry<F> {}

impl<F> PartialOrd for HeapEntry<F> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<F> Ord for HeapEntry<F> {
    /// Reversed so `BinaryHeap` pops the *earliest* event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.t_ns.total_cmp(&self.t_ns).then(other.seq.cmp(&self.seq))
    }
}

/// The kernel's trace tracks (present only on an enabled recorder).
struct Tracks {
    host: TrackId,
    modules: Vec<TrackId>,
}

/// The chain-execution state machine (see the module docs).
pub struct Kernel<'t, F> {
    events: BinaryHeap<HeapEntry<F>>,
    seq: u64,
    host: SharedBus,
    lanes: Vec<SharedBus>,
    /// Running chains per job, indexed by job id.
    running: Vec<usize>,
    cell_writes: Vec<u64>,
    required_endurance: Vec<f64>,
    trace: &'t mut TraceRecorder,
    tracks: Option<Tracks>,
}

impl<'t, F> Kernel<'t, F> {
    /// An idle kernel over `lanes` lane servers, the first
    /// `active_shards` of them fact-shard modules. Registers (or finds)
    /// the `host-bus` track, then one track per lane; a front-end whose
    /// exports list its own tracks earlier registers those first.
    pub fn new(trace: &'t mut TraceRecorder, active_shards: usize, lanes: usize) -> Self {
        let tracks = trace.is_enabled().then(|| Tracks {
            host: trace.track("host-bus"),
            modules: (0..lanes)
                .map(|k| match k.checked_sub(active_shards) {
                    None => trace.track(&format!("module-{k}")),
                    Some(d) => trace.track(&format!("ingest-lane-{d}")),
                })
                .collect(),
        });
        Kernel {
            events: BinaryHeap::new(),
            seq: 0,
            host: SharedBus::new(),
            lanes: vec![SharedBus::new(); lanes],
            running: Vec::new(),
            cell_writes: vec![0; lanes],
            required_endurance: vec![0.0; lanes],
            trace,
            tracks,
        }
    }

    /// The recorder, when it is collecting: event attributes are built
    /// only inside `if let Some(..)`.
    pub fn tracer(&mut self) -> Option<&mut TraceRecorder> {
        self.trace.is_enabled().then_some(&mut *self.trace)
    }

    /// Is the recorder collecting?
    pub fn tracing(&self) -> bool {
        self.tracks.is_some()
    }

    /// Schedule a front-end event.
    pub fn push(&mut self, t_ns: f64, ev: F) {
        self.push_ev(t_ns, Ev::Front(ev));
    }

    fn push_ev(&mut self, t_ns: f64, ev: Ev<F>) {
        self.events.push(HeapEntry { t_ns, seq: self.seq, ev });
        self.seq += 1;
    }

    /// Start every chain of `job` at `now_ns`, in chain-position order
    /// (the push order simultaneous first slices fire in). Returns the
    /// job's first service instant: the earliest bus grant start, or
    /// `now_ns` when no first slice touches the bus. The job must have
    /// at least one chain — a job without chains never runs.
    pub fn start(&mut self, now_ns: f64, jobs: &Started, job: usize) -> f64 {
        let chains = jobs.chains(job).len();
        if self.running.len() <= job {
            self.running.resize(job + 1, 0);
        }
        self.running[job] = chains;
        let first = (0..chains)
            .filter_map(|pos| self.start_slice(now_ns, jobs, job, pos, 0))
            .fold(f64::INFINITY, f64::min);
        if first.is_finite() {
            first
        } else {
            now_ns
        }
    }

    /// Start one slice: its bus part rides the shared channel first
    /// (free when zero-width), then its local part queues on the lane.
    /// Returns the bus grant start when the slice touched the bus.
    fn start_slice(
        &mut self,
        now_ns: f64,
        jobs: &Started,
        job: usize,
        pos: usize,
        idx: usize,
    ) -> Option<f64> {
        let chain = &jobs.chains(job)[pos];
        let slice = chain.slices[idx];
        if slice.bus_ns <= 0.0 {
            self.push_ev(now_ns, Ev::BusDone(job, pos, idx));
            return None;
        }
        let grant = self.host.acquire(now_ns, slice.bus_ns);
        self.push_ev(grant.end_ns, Ev::BusDone(job, pos, idx));
        if let Some(tracks) = &self.tracks {
            let SpanLabels { mut args, lane_key, .. } = jobs.labels(job);
            args.push((lane_key, ArgValue::U64(chain.shard as u64)));
            args.push(("wait_ns", ArgValue::F64(grant.start_ns - now_ns)));
            args.push(("bytes", ArgValue::U64(slice.bus_bytes)));
            let name = slice.bus_kind.map_or("bus", |k| k.label());
            self.trace.span(tracks.host, name, grant.start_ns, slice.bus_ns, args);
        }
        Some(grant.start_ns)
    }

    /// Queue `job`'s host-side merge of `merge_ns` on the shared
    /// channel; [`Moment::MergeDone`] fires when it ends. A zero-length
    /// merge is not free — it still waits behind everything already
    /// granted — so jobs that complete without the channel (mutations)
    /// must not call this at all.
    pub fn merge(&mut self, now_ns: f64, jobs: &Started, job: usize, merge_ns: f64) {
        let grant = self.host.acquire(now_ns, merge_ns);
        self.push_ev(grant.end_ns, Ev::MergeDone(job));
        if merge_ns > 0.0 {
            if let Some(tracks) = &self.tracks {
                let mut args = jobs.labels(job).args;
                args.push(("wait_ns", ArgValue::F64(grant.start_ns - now_ns)));
                self.trace.span(tracks.host, "merge", grant.start_ns, merge_ns, args);
            }
        }
    }

    /// Advance the simulation to the next [`Moment`] and return it with
    /// its simulated time; `None` once the heap has drained.
    pub fn next(&mut self, jobs: &Started) -> Option<(f64, Moment<F>)> {
        while let Some(HeapEntry { t_ns: t, ev, .. }) = self.events.pop() {
            match ev {
                Ev::Front(f) => return Some((t, Moment::Front(f))),
                Ev::MergeDone(job) => return Some((t, Moment::MergeDone { job })),
                Ev::BusDone(job, pos, idx) => {
                    let chain = &jobs.chains(job)[pos];
                    let (lane, local_ns) = (chain.shard, chain.slices[idx].local_ns);
                    if local_ns > 0.0 {
                        let grant = self.lanes[lane].acquire(t, local_ns);
                        self.push_ev(grant.end_ns, Ev::LocalDone(job, pos, idx));
                        if let Some(tracks) = &self.tracks {
                            let module = tracks.modules[lane];
                            let labels = jobs.labels(job);
                            trace_local(self.trace, module, labels, chain, idx, grant.start_ns);
                        }
                    } else {
                        self.push_ev(t, Ev::LocalDone(job, pos, idx));
                    }
                    if idx == 0 {
                        return Some((t, Moment::Dispatched { job, lane }));
                    }
                }
                Ev::LocalDone(job, pos, idx) => {
                    let chain = &jobs.chains(job)[pos];
                    if idx + 1 < chain.slices.len() {
                        self.start_slice(t, jobs, job, pos, idx + 1);
                        continue;
                    }
                    let lane = chain.shard;
                    self.cell_writes[lane] += chain.cell_writes;
                    // Every started chain finishes and `max` is
                    // order-independent, so taking the endurance
                    // maximum here equals taking it when the demand
                    // was resolved.
                    self.required_endurance[lane] =
                        self.required_endurance[lane].max(chain.required_endurance);
                    self.running[job] -= 1;
                    let last = self.running[job] == 0;
                    return Some((t, Moment::ChainDone { job, lane, last }));
                }
            }
        }
        None
    }

    /// Write the run's lane accounting into `run` (call once the heap
    /// has drained).
    pub fn tally(self, run: &mut Finished) {
        run.host_busy_ns = self.host.busy_ns();
        run.busy_ns = self.lanes.iter().map(SharedBus::busy_ns).collect();
        run.cell_writes = self.cell_writes;
        run.required_endurance = self.required_endurance;
    }
}

/// Module-track spans for one local window starting at `start_ns`: the
/// per-phase composition when the chain was compiled with detail, one
/// opaque span otherwise.
fn trace_local(
    trace: &mut TraceRecorder,
    module: TrackId,
    labels: SpanLabels,
    chain: &ShardDemand,
    idx: usize,
    start_ns: f64,
) {
    match chain.detail.get(idx) {
        Some(detail) if !detail.is_empty() => {
            let mut at = start_ns;
            for &(kind, dt) in detail {
                trace.span(module, kind.label(), at, dt, labels.args.clone());
                at += dt;
            }
        }
        _ => trace.span(module, labels.local, start_ns, chain.slices[idx].local_ns, labels.args),
    }
}
