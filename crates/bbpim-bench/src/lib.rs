//! # bbpim-bench — the experiment harness
//!
//! | binary | what it runs |
//! |--------|--------------|
//! | `paper --fig <list>` | the paper's tables and figures: `table1`, `table2`, `4`–`9`, the `sweep` and `ablation` studies, or `all` (Figs. 6–9 + Table II in one pass, `--csv <dir>` for the plotted numbers) |
//! | `scaling`, `pruning`, `join` | cluster studies: shard scaling, zone-map pruning, star join vs pre-join |
//! | `streaming`, `serve`, `htap` | scheduler studies: admission policies, multi-tenant SLOs, ingest beside queries |
//!
//! The per-query figures are described once as data
//! ([`reports::Figure`]) and rendered to the console table and the CSV
//! from that one description; every file any binary writes goes through
//! [`artifacts`]. The shared flags are `--sf <f64>` (default 0.1),
//! `--uniform` (default is the paper's skewed data), `--seed <u64>`,
//! `--threads <usize>`, `--shards`, `--arrivals`, `--load`, `--inflight`,
//! `--trace` and `--metrics`; a binary accepts the ones it reads and
//! rejects anything else with a usage line and exit code 2 ([`cli`]).
//!
//! Three studies carry a verdict of their own and exit 1 on it
//! ([`scaling_verdict`], [`ServeStudy::verdict`], [`HtapStudy::verdict`]).
//! The simulated numbers CI gates are not the studies': `bbpim-perf all`
//! is compared by `bbpim-perf check` against the rows in `bench/sim/`.

pub mod artifacts;
pub mod cli;
pub mod reports;

pub use cli::{Accepts, BenchConfig, BinFlags, CliError};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::process::ExitCode;
use std::time::Duration;

use bbpim_cluster::{
    BatchExecution, Cluster, ClusterEngine, ClusterExecution, Partitioner, PlanExplain, Storage,
};
use bbpim_core::engine::PimQueryEngine;
use bbpim_core::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim_core::groupby::cost_model::GroupByModel;
use bbpim_core::modes::EngineMode;
use bbpim_core::result::QueryExecution;
use bbpim_db::plan::Query;
use bbpim_db::relation::Relation;
use bbpim_db::ssb::{queries, SsbDb};
use bbpim_db::stats::MultiGrouped;
use bbpim_monet::MonetEngine;
use bbpim_sched::demand::resolve_query_demand;
use bbpim_sched::{
    record_stream_metrics, run_stream, run_stream_traced, AdmissionPolicy, MutationArrival,
    SchedConfig, StreamOutcome, Workload,
};
use bbpim_serve::{
    record_serve_metrics, run_serve, run_serve_traced, tenant_reports, AimdConfig, ArrivalProcess,
    RateLimit, ServeConfig, ServeOutcome, SloSpec, TenantReport, TenantSpec, WindowPolicy,
};
use bbpim_sim::SimConfig;
use bbpim_trace::{MetricsRegistry, TraceRecorder};

/// Generated data plus the (skew-adjusted) queries.
pub struct SsbSetup {
    /// Harness configuration.
    pub cfg: BenchConfig,
    /// The star-schema database.
    pub db: SsbDb,
    /// The pre-joined relation.
    pub wide: Relation,
    /// The 13 queries (constants re-picked on skewed data).
    pub queries: Vec<Query>,
}

/// Generate data and queries.
///
/// # Panics
///
/// Panics on generator/query-resolution bugs (deterministic inputs).
pub fn setup(cfg: BenchConfig) -> SsbSetup {
    let db = SsbDb::generate(&cfg.ssb_params());
    let wide = db.prejoin();
    let queries = if cfg.skewed {
        queries::adjusted_queries(&wide).expect("query adjustment")
    } else {
        queries::standard_queries()
    };
    SsbSetup { cfg, db, wide, queries }
}

/// A study binary's `main`: parse the command line against `accepts`
/// (exit 2 on a rejection), check every requested output path *before*
/// generating data, generate, run `study`, and turn a failed write or a
/// failed verdict of the study's own into `error: …` + exit 1.
pub fn study_main(
    accepts: &Accepts<'_>,
    study: impl FnOnce(SsbSetup, BinFlags) -> io::Result<()>,
) -> ExitCode {
    let (cfg, flags) = BenchConfig::from_args(accepts);
    artifacts::exit_code(artifacts::probe(&cfg).and_then(|()| study(setup(cfg), flags)))
}

/// All 13 per-query executions of one PIM mode.
pub struct PimModeRun {
    /// Which mode ran.
    pub mode: EngineMode,
    /// Executions in query order.
    pub executions: Vec<QueryExecution>,
}

/// Run every query through each PIM mode in turn (each engine is
/// constructed, calibrated and dropped before the next, keeping peak
/// memory to one engine).
///
/// # Panics
///
/// Panics on engine errors (the harness runs known-good inputs).
pub fn pim_runs(setup: &SsbSetup) -> Vec<PimModeRun> {
    let run_mode = |mode: EngineMode| {
        let mut engine = PimQueryEngine::new(SimConfig::default(), setup.wide.clone(), mode)
            .expect("engine construction");
        engine.calibrate(&CalibrationConfig::default()).expect("calibration");
        let run = |q| engine.run(q).unwrap_or_else(|e| panic!("{} on {}: {e}", mode.label(), q.id));
        PimModeRun { mode, executions: setup.queries.iter().map(run).collect() }
    };
    EngineMode::all().map(run_mode).into()
}

/// Fit the GROUP-BY cost model once for an engine mode at the default
/// `SimConfig`. The calibration is data-independent, so the returned model can
/// be installed on every cluster instance of a study
/// ([`ClusterEngine::set_model`]) instead of re-running the sweep per
/// shard count — the in-memory form of cross-instance calibration
/// reuse.
///
/// # Panics
///
/// Panics on calibration failures (the harness runs known-good
/// configurations).
pub fn fit_shared_model(mode: EngineMode) -> GroupByModel {
    let (_, model) = run_calibration(&SimConfig::default(), mode, &CalibrationConfig::default())
        .expect("calibration");
    model
}

/// A pre-joined cluster over the set-up's wide relation with an
/// already-fitted model installed ([`fit_shared_model`]).
///
/// # Panics
///
/// Panics on cluster-construction failures (known-good inputs).
pub fn modelled_cluster(
    setup: &SsbSetup,
    mode: EngineMode,
    shards: usize,
    partitioner: Partitioner,
    model: &GroupByModel,
) -> ClusterEngine {
    let mut cluster =
        ClusterEngine::new(SimConfig::default(), setup.wide.clone(), mode, shards, partitioner)
            .expect("cluster construction");
    cluster.set_model(model.clone());
    cluster
}

/// The row-at-a-time oracle's answer to every query (independent of
/// shard count and dispatch: computed once per study).
fn oracle_answers(setup: &SsbSetup) -> Vec<MultiGrouped> {
    let oracle = |q| bbpim_db::stats::run_oracle(q, &setup.wide).expect("oracle");
    setup.queries.iter().map(oracle).collect()
}

/// Run every query through `cluster`, asserting each merged answer
/// against its oracle.
fn run_checked<S: Storage>(
    cluster: &mut Cluster<S>,
    setup: &SsbSetup,
    oracles: &[MultiGrouped],
) -> Vec<ClusterExecution> {
    let shards = cluster.shard_count();
    let run = |(q, oracle): (&Query, &MultiGrouped)| {
        let out = cluster.run(q).unwrap_or_else(|e| panic!("{shards} shards on {}: {e}", q.id));
        assert_eq!(&out.groups, oracle, "cluster/oracle mismatch on {} at {shards} shards", q.id);
        out
    };
    setup.queries.iter().zip(oracles).map(run).collect()
}

/// One shard count's executions in the cluster scaling study.
pub struct ClusterScalePoint {
    /// Shard count.
    pub shards: usize,
    /// Partitioning strategy label.
    pub partitioner: &'static str,
    /// Per-query cluster executions, in query order.
    pub executions: Vec<ClusterExecution>,
}

/// A cluster execution's wall clock: on the contended model as
/// reported, or — `contended == false` — on the optimistic one with
/// free per-module channels, recomputed from the per-shard reports as
/// host-serial dispatch + max-of-shards remaining time + merge. Answers
/// and per-shard logs are accounting-independent, so one sweep yields
/// both clocks without re-running anything.
pub fn wall_ns(report: &bbpim_cluster::ClusterReport, contended: bool) -> f64 {
    use bbpim_sim::timeline::PhaseKind;
    if contended {
        return report.time_ns;
    }
    let dispatch = |r: &bbpim_core::result::QueryReport| r.phases.time_in(PhaseKind::HostDispatch);
    let d_total: f64 = report.per_shard.iter().map(dispatch).sum();
    let pim_max = report.per_shard.iter().map(|r| r.time_ns - dispatch(r)).fold(0.0, f64::max);
    d_total + pim_max + report.merge_time_ns
}

/// Run every query through a cluster at each shard count (full-capacity
/// module per shard; `new_cluster(shards)` constructs the
/// pre-joined [`ClusterEngine`] or the normalized
/// [`bbpim_cluster::StarCluster`], and
/// each is dropped after its point), cross-checking each merged answer
/// against the row-at-a-time oracle. Wall clocks use the default
/// shared-host-channel contention model; [`wall_ns`] recovers the
/// free-channel A/B timing from the same executions.
///
/// # Panics
///
/// Panics on engine errors or a cluster/oracle mismatch (the harness
/// runs known-good inputs).
pub fn run_cluster_scaling<S: Storage>(
    setup: &SsbSetup,
    shard_counts: &[usize],
    new_cluster: impl Fn(usize) -> Cluster<S>,
) -> Vec<ClusterScalePoint> {
    let oracles = oracle_answers(setup);
    let point = |&shards: &usize| {
        let mut cluster = new_cluster(shards);
        let executions = run_checked(&mut cluster, setup, &oracles);
        ClusterScalePoint { shards, partitioner: cluster.partitioner().label(), executions }
    };
    shard_counts.iter().map(point).collect()
}

/// The contended (`true`) or free-channel (`false`) geo-mean speedup of
/// scale point `p` over `base`, over the queries with a finite nonzero
/// ratio (zone-pruned zero-match queries cost ~0 at every shard count);
/// `None` when the planner answered every query alone. The `scaling`
/// report prints it and [`scaling_verdict`] floors it.
pub fn scaling_geomean(
    base: &ClusterScalePoint,
    p: &ClusterScalePoint,
    contended: bool,
) -> Option<f64> {
    let wall = |e: &ClusterExecution| wall_ns(&e.report, contended);
    let ratios: Vec<f64> =
        base.executions.iter().zip(&p.executions).map(|(b, e)| wall(b) / wall(e)).collect();
    geomean_filtered(&ratios).0
}

/// A study's failed verdict, on [`study_main`]'s exit-1 path.
fn failed(verdict: String) -> io::Result<()> {
    Err(io::Error::other(verdict))
}

/// The `scaling` study's verdict: the contended geo-mean speedup of the
/// largest shard count over the smallest may not drop below 1.0 — below
/// it the shared host channel eats all module parallelism again, the
/// regression the byte diet exists to prevent.
///
/// # Errors
///
/// The geo-mean is below 1.0.
pub fn scaling_verdict(points: &[ClusterScalePoint]) -> io::Result<()> {
    let by_shards = |p: &&ClusterScalePoint| p.shards;
    let (Some(base), Some(top)) =
        (points.iter().min_by_key(by_shards), points.iter().max_by_key(by_shards))
    else {
        return Ok(());
    };
    match scaling_geomean(base, top, true) {
        Some(speedup) if speedup < 1.0 => failed(format!(
            "contended geo-mean speedup at {} shards is {speedup:.2}x, below 1.0x",
            top.shards
        )),
        _ => Ok(()),
    }
}

/// Host-channel bytes one cluster execution put on the shared bus,
/// summed over the per-shard phase logs.
pub fn report_host_bytes(report: &bbpim_cluster::ClusterReport) -> u64 {
    report.per_shard.iter().map(|r| r.phases.host_bytes()).sum()
}

/// One shard count's pruned-vs-exhaustive comparison in the pruning
/// study.
pub struct PruningPoint {
    /// Shard count.
    pub shards: usize,
    /// Partitioning strategy label.
    pub partitioner: &'static str,
    /// Per-query executions with zone-map pruning on, in query order.
    pub pruned: Vec<ClusterExecution>,
    /// Per-query executions with exhaustive dispatch, in query order.
    pub exhaustive: Vec<ClusterExecution>,
}

/// Run every query through a range-partitioned `ClusterEngine` twice —
/// exhaustive dispatch vs zone-map pruning — at each shard count,
/// cross-checking both answers against the oracle.
///
/// `range_attr` is the range-partitioning attribute (SSB: `d_year`,
/// which Q1.x/Q3.x/Q4.x constrain).
///
/// # Panics
///
/// Panics on engine errors or an answer/oracle mismatch (the harness
/// runs known-good inputs).
pub fn run_pruning_study(
    setup: &SsbSetup,
    mode: EngineMode,
    shard_counts: &[usize],
    range_attr: &str,
) -> Vec<PruningPoint> {
    let partitioner = Partitioner::range_by_attr(range_attr);
    let oracles = oracle_answers(setup);
    // One calibration sweep serves every shard count.
    let model = fit_shared_model(mode);
    let point = |&shards: &usize| {
        let mut cluster = modelled_cluster(setup, mode, shards, partitioner.clone(), &model);
        cluster.set_pruning(false);
        let exhaustive = run_checked(&mut cluster, setup, &oracles);
        cluster.set_pruning(true);
        let pruned = run_checked(&mut cluster, setup, &oracles);
        PruningPoint { shards, partitioner: partitioner.label(), pruned, exhaustive }
    };
    shard_counts.iter().map(point).collect()
}

impl PruningPoint {
    /// Exhaustive-over-pruned ratios of `metric`, over the queries
    /// whose pruned execution has a positive one (a zero pruned time
    /// means the planner answered without touching a page).
    pub fn ratios(&self, metric: fn(&bbpim_cluster::ClusterReport) -> f64) -> Vec<f64> {
        let pairs = self.exhaustive.iter().zip(&self.pruned);
        let pairs = pairs.map(|(ex, pr)| (metric(&ex.report), metric(&pr.report)));
        pairs.filter(|(_, pr)| *pr > 0.0).map(|(ex, pr)| ex / pr).collect()
    }
}

/// One admission policy's streamed run.
pub struct StreamingPolicyRun {
    /// The policy that ran.
    pub policy: AdmissionPolicy,
    /// The full streamed outcome (completions, timeline, utilisation).
    pub outcome: StreamOutcome,
}

/// One shard count's streaming study: a seeded open-loop arrival trace
/// played through the scheduler under each admission policy, plus the
/// closed-batch reference and the planner's `EXPLAIN` dump.
pub struct StreamingStudy {
    /// Shard count.
    pub shards: usize,
    /// Partitioning strategy label.
    pub partitioner: &'static str,
    /// Admission-control bound that ran.
    pub inflight: usize,
    /// Mean interarrival time of the trace, nanoseconds.
    pub mean_interarrival_ns: f64,
    /// Mean per-query service estimate the load was derived from.
    pub mean_service_ns: f64,
    /// The arrival trace length.
    pub arrivals: usize,
    /// Per-distinct-query plan dumps (shards/pages candidate vs
    /// pruned), in query order.
    pub explains: Vec<PlanExplain>,
    /// Closed-batch reference over the same arrived queries.
    pub batch: BatchExecution,
    /// One streamed run per admission policy.
    pub policies: Vec<StreamingPolicyRun>,
}

/// The prelude the streamed studies (`streaming`, `serve`, `htap`)
/// share: a factory for `d_year`-range-partitioned clusters carrying one
/// once-fitted model, the first cluster it built, and the mean per-query
/// service time a closed batch of the 13 queries on that cluster
/// estimates — the capacity the studies express offered load against.
fn range_study_prelude(
    setup: &SsbSetup,
    mode: EngineMode,
    shards: usize,
) -> (impl Fn() -> ClusterEngine + '_, ClusterEngine, f64) {
    let model = fit_shared_model(mode);
    let fresh =
        move || modelled_cluster(setup, mode, shards, Partitioner::range_by_attr("d_year"), &model);
    let mut cluster = fresh();
    let probe = cluster.run_batch(&setup.queries).expect("capacity probe");
    (fresh, cluster, probe.serial_time_ns / setup.queries.len() as f64)
}

/// Stream a seeded Poisson trace of the 13 queries through a
/// range-partitioned cluster under every admission policy, checking
/// each streamed answer bit-identical against `run_batch` over the same
/// arrived queries. The offered load is `cfg.load` times the cluster's
/// (batch-estimated) capacity, so load > 1 forms queues.
///
/// The observability surface is threaded through: the FIFO run is
/// recorded into `trace` (host-bus grants, per-module phase windows,
/// scheduler instants — all on the simulated clock) when the recorder
/// is enabled, every policy's outcome is folded into `reg` as
/// `run=<prefix><policy>` series via [`record_stream_metrics`], and the
/// planner dumps come from `EXPLAIN ANALYZE` — each distinct query runs
/// once so recorded actuals sit next to the planned shards/pages/bytes
/// (byte totals recorded as `run=<prefix>explain` series). Tracing and
/// metrics never change the simulation.
///
/// # Panics
///
/// Panics on engine/scheduler errors or a streamed/batch answer
/// mismatch (the harness runs known-good inputs).
pub fn run_streaming_study_observed(
    setup: &SsbSetup,
    mode: EngineMode,
    shards: usize,
    trace: &mut TraceRecorder,
    reg: &mut MetricsRegistry,
    run_prefix: &str,
) -> StreamingStudy {
    let (_, mut cluster, mean_service_ns) = range_study_prelude(setup, mode, shards);
    let mean_interarrival_ns = mean_service_ns / setup.cfg.load;
    let workload = Workload::poisson(
        setup.queries.clone(),
        setup.cfg.arrivals,
        mean_interarrival_ns,
        setup.cfg.seed,
    );

    let explain_run = format!("{run_prefix}explain");
    let explains: Vec<PlanExplain> = setup
        .queries
        .iter()
        .map(|q| {
            let (plan, _) = cluster.explain_analyze(q).expect("explain analyze");
            bbpim_cluster::obs::record_explain_analyze(reg, &plan, &[("run", &explain_run)]);
            plan
        })
        .collect();
    let batch = cluster.run_batch(&workload.arrived_queries()).expect("batch reference");
    let policies = AdmissionPolicy::all()
        .iter()
        .map(|&policy| {
            let cfg =
                SchedConfig { max_in_flight: setup.cfg.inflight, policy, ..SchedConfig::default() };
            // One policy per trace: the FIFO run owns the recorder so
            // the exported timeline is a single coherent schedule.
            let outcome = if policy.label() == "fifo" {
                run_stream_traced(&mut cluster, &workload, &cfg, trace)
            } else {
                run_stream(&mut cluster, &workload, &cfg)
            }
            .expect("streamed run");
            assert_eq!(outcome.executions.len(), batch.executions.len());
            for (streamed, batched) in outcome.executions.iter().zip(&batch.executions) {
                assert_eq!(
                    streamed.groups,
                    batched.groups,
                    "streamed/batch mismatch on {} under {}",
                    streamed.report.query_id,
                    policy.label()
                );
            }
            let run = format!("{run_prefix}{}", policy.label());
            record_stream_metrics(reg, &outcome, &[("run", &run)]);
            StreamingPolicyRun { policy, outcome }
        })
        .collect();
    StreamingStudy {
        shards,
        partitioner: cluster.partitioner().label(),
        inflight: setup.cfg.inflight,
        mean_interarrival_ns,
        mean_service_ns,
        arrivals: workload.len(),
        explains,
        batch,
        policies,
    }
}

/// One HTAP study row: a streamed workload (pure-query baseline or
/// mixed query/mutation ingest) with its snapshot-consistency verdict.
pub struct HtapRow {
    /// Row label (`pure-query`, `htap`).
    pub label: &'static str,
    /// Mutation share of the arrival trace.
    pub mutation_frac: f64,
    /// The streamed outcome (query + mutation completions, wear).
    pub outcome: StreamOutcome,
    /// Did every streamed answer equal its prefix-replay oracle?
    pub snapshot_consistent: bool,
    /// Records landed by the row's admitted mutations.
    pub records_written: u64,
}

/// The HTAP streaming-ingest study: the same seeded query pressure with
/// and without a mutation stream riding the scheduler, plus the
/// per-workload endurance wear series the `htap` bin tabulates.
pub struct HtapStudy {
    /// Shard count.
    pub shards: usize,
    /// Partitioning strategy label.
    pub partitioner: &'static str,
    /// Mean interarrival of the baseline row, nanoseconds.
    pub mean_interarrival_ns: f64,
    /// Mean per-query service estimate the load was derived from.
    pub mean_service_ns: f64,
    /// Arrival-trace length per row.
    pub arrivals: usize,
    /// The ingest-buffer depth both rows ran under.
    pub ingest_buffer: usize,
    /// Baseline row first, ingest row second.
    pub rows: Vec<HtapRow>,
}

impl HtapStudy {
    /// The row labelled `label`.
    ///
    /// # Panics
    ///
    /// Panics when no such row ran.
    pub fn row(&self, label: &str) -> &HtapRow {
        self.rows.iter().find(|r| r.label == label).expect("study row")
    }

    /// The ingest-interference headline: baseline query p95 over
    /// under-ingest query p95 (1.0 = ingest is free; lower = queries
    /// pay more).
    pub fn query_p95_under_ingest(&self) -> f64 {
        let base = self.row("pure-query").outcome.latency_summary().p95_ns;
        let htap = self.row("htap").outcome.latency_summary().p95_ns;
        if htap > 0.0 {
            base / htap
        } else {
            1.0
        }
    }

    /// The study's verdict: every row answered every query from a
    /// consistent snapshot. A streamed answer that differs from its
    /// prefix-replay oracle is wrong, not slow — the `htap` bin exits 1.
    ///
    /// # Errors
    ///
    /// A row is not snapshot-consistent.
    pub fn verdict(&self) -> io::Result<()> {
        match self.rows.iter().find(|r| !r.snapshot_consistent) {
            Some(row) => failed(format!(
                "the {} row answered a query differently from its prefix-replay oracle",
                row.label
            )),
            None => Ok(()),
        }
    }

    /// The per-workload endurance wear series: one entry per (row,
    /// lane) with accumulated worst-row cell writes and the required
    /// cell endurance to sustain that lane's worst chain for ten years.
    /// This is the `htap` bin's wear table and the series the pinning
    /// unit test locks to the stream outcome.
    pub fn endurance_rows(&self) -> Vec<(&'static str, usize, u64, f64)> {
        self.rows
            .iter()
            .flat_map(|r| {
                r.outcome
                    .shard_cell_writes
                    .iter()
                    .zip(&r.outcome.shard_required_endurance)
                    .enumerate()
                    .map(move |(lane, (&writes, &endurance))| (r.label, lane, writes, endurance))
            })
            .collect()
    }
}

/// The mutation set the HTAP study streams against the pre-joined
/// relation: a point UPDATE, an OR-filtered (DNF) UPDATE that
/// exercises zone-map widening, and an INSERT replaying an existing
/// (already-encoded) row. The UPDATEs rewrite `lo_tax` — an attribute
/// no SSB query filters or aggregates — so their write phases load the
/// bus and wear cells without reshaping the value distributions the
/// zone-map planner prunes on: the p95 headline then measures ingest
/// *interference*, not a data-distribution shift. (Answer-changing
/// mutations are the ingest equivalence suite's job; the INSERT here
/// still moves every aggregate so prefix-replay stays a real check.)
///
/// # Panics
///
/// Panics if the wide schema stops carrying the SSB attribute names.
pub fn htap_mutations(wide: &Relation) -> Vec<bbpim_core::mutation::Mutation> {
    use bbpim_core::mutation::Mutation;
    use bbpim_db::builder::col;
    vec![
        Mutation::update()
            .filter(col("d_year").eq(1993u64))
            .set("lo_tax", 2u64)
            .build(wide.schema())
            .expect("point update"),
        Mutation::update()
            .filter(col("d_year").eq(1994u64).or(col("d_year").eq(1995u64)))
            .set("lo_tax", 3u64)
            .build(wide.schema())
            .expect("DNF update"),
        Mutation::insert().row(wide.row(0)).build(wide.schema()).expect("insert"),
    ]
}

/// Stream the HTAP study: a pure-query baseline row at the configured
/// load, then the *same* seeded query trace with a second Poisson
/// mutation stream overlaid at half the query rate (one in three
/// events is a mutation), both FIFO on a range-partitioned cluster.
/// Holding the query arrivals fixed makes the p95 comparison measure
/// ingest interference alone — the p95 headline is not polluted by a
/// re-drawn query mix. Every query answer in both rows is verified
/// bit-identical against a prefix-replay oracle (a fresh cluster that
/// applies exactly the first [`bbpim_sched::QueryCompletion::epoch`]
/// arrived mutations and then runs the query); the verdict rides the
/// row instead of panicking, so the report shows which row lost it
/// before [`HtapStudy::verdict`] fails the run. Both rows' outcomes
/// are folded into `reg` (`run=pure` / `run=htap`) and the ingest row
/// is recorded into `trace` when enabled.
///
/// # Panics
///
/// Panics on engine/scheduler errors (the harness runs known-good
/// inputs).
pub fn run_htap_study_observed(
    setup: &SsbSetup,
    mode: EngineMode,
    shards: usize,
    trace: &mut TraceRecorder,
    reg: &mut MetricsRegistry,
) -> HtapStudy {
    let (fresh, probed, mean_service_ns) = range_study_prelude(setup, mode, shards);
    let mean_interarrival_ns = mean_service_ns / setup.cfg.load;
    let mutations = htap_mutations(&setup.wide);
    let sched = SchedConfig { max_in_flight: setup.cfg.inflight, ..SchedConfig::default() };

    // One query trace shared by both rows; the ingest row overlays a
    // seeded Poisson mutation stream at half the query rate, clipped to
    // the query trace's horizon so both rows finish on the same work.
    let base = Workload::poisson(
        setup.queries.clone(),
        setup.cfg.arrivals,
        mean_interarrival_ns,
        setup.cfg.seed,
    );
    let horizon_ns = base.arrivals().last().map_or(0.0, |a| a.at_ns);
    let mutation_arrivals = {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(setup.cfg.seed ^ 0x117A9);
        let mean = mean_interarrival_ns * 2.0;
        let mut t = 0.0f64;
        let mut out = Vec::new();
        loop {
            let u: f64 = rng.gen();
            t += -mean * (1.0 - u).ln();
            if t > horizon_ns {
                break out;
            }
            out.push(MutationArrival { at_ns: t, mutation: rng.gen_range(0..mutations.len()) });
        }
    };

    let specs: [(&'static str, bool); 2] = [("pure-query", false), ("htap", true)];
    let rows = specs
        .iter()
        .map(|&(label, with_ingest)| {
            let workload = Workload::with_mutations(
                setup.queries.clone(),
                base.arrivals().to_vec(),
                mutations.clone(),
                if with_ingest { mutation_arrivals.clone() } else { Vec::new() },
            )
            .expect("workload");
            let mutation_frac = if with_ingest {
                mutation_arrivals.len() as f64
                    / (mutation_arrivals.len() + base.arrivals().len()) as f64
            } else {
                0.0
            };
            let mut c = fresh();
            let outcome = if label == "htap" {
                run_stream_traced(&mut c, &workload, &sched, trace)
            } else {
                run_stream(&mut c, &workload, &sched)
            }
            .expect("streamed run");
            // prefix-replay oracle, completions walked in epoch order so
            // one replay cluster serves the row
            let arrived = workload.arrived_mutations();
            let mut replay = fresh();
            let mut applied = 0usize;
            let mut by_epoch: Vec<_> = outcome.completions.iter().collect();
            by_epoch.sort_by_key(|c| c.epoch);
            let snapshot_consistent = by_epoch.iter().all(|qc| {
                while applied < qc.epoch {
                    replay.mutate(&arrived[applied]).expect("replay mutate");
                    applied += 1;
                }
                let q = &workload.queries()[workload.arrivals()[qc.arrival].query];
                replay.run(q).expect("replay query").groups == outcome.executions[qc.arrival].groups
            });
            let records_written = outcome
                .mutation_completions
                .iter()
                .map(|m| m.records_updated + m.records_inserted)
                .sum();
            record_stream_metrics(
                reg,
                &outcome,
                &[("run", if label == "htap" { "htap" } else { "pure" })],
            );
            HtapRow { label, mutation_frac, outcome, snapshot_consistent, records_written }
        })
        .collect();
    HtapStudy {
        shards,
        partitioner: probed.partitioner().label(),
        mean_interarrival_ns,
        mean_service_ns,
        arrivals: setup.cfg.arrivals,
        ingest_buffer: sched.ingest_buffer,
        rows,
    }
}

/// One serve-study row: the three-tenant mix at one overload under one
/// window policy.
pub struct ServeStudyRow {
    /// The heavy tenant's offered load as a multiple of capacity.
    pub overload: f64,
    /// `"aimd"` or `"static<w>"`.
    pub policy: String,
    /// The tenant mix that ran.
    pub tenants: Vec<TenantSpec>,
    /// The full serve outcome.
    pub outcome: ServeOutcome,
    /// Per-tenant summaries, in tenant order.
    pub reports: Vec<TenantReport>,
}

impl ServeStudyRow {
    /// The named tenant's report.
    ///
    /// # Panics
    ///
    /// Panics when no tenant carries `name` (a study wiring bug).
    pub fn report(&self, name: &str) -> &TenantReport {
        self.reports.iter().find(|r| r.name == name).expect("tenant report by name")
    }
}

/// The serve study: the three-tenant mix swept over overload multiples
/// under the AIMD window, plus a static-window sweep at the gate
/// overload for the adaptive-vs-fixed comparison.
pub struct ServeStudy {
    /// Shard count.
    pub shards: usize,
    /// Batch-estimated mean per-query service time, nanoseconds.
    pub mean_service_ns: f64,
    /// The overload at which the static sweep ran and the verdict reads.
    pub gate_overload: f64,
    /// All rows, AIMD first per overload.
    pub rows: Vec<ServeStudyRow>,
}

impl ServeStudy {
    /// The row for one `(overload, policy)` pair.
    pub fn row(&self, overload: f64, policy: &str) -> Option<&ServeStudyRow> {
        self.rows.iter().find(|r| (r.overload - overload).abs() < 1e-9 && r.policy == policy)
    }

    /// The AIMD row at the gate overload — where the summary line and
    /// the verdict read from.
    ///
    /// # Panics
    ///
    /// Panics when the study was run without the gate overload.
    pub fn gate_row(&self) -> &ServeStudyRow {
        self.row(self.gate_overload, "aimd").expect("aimd row at the gate overload")
    }

    /// The best heavy-tenant goodput any *SLO-respecting* static window
    /// achieved at the gate overload (windows that blow the light
    /// tenant's p95 promise are not an alternative an operator could
    /// ship). `None` when no static window qualifies.
    pub fn best_static_heavy_goodput(&self) -> Option<(String, f64)> {
        self.rows
            .iter()
            .filter(|r| {
                (r.overload - self.gate_overload).abs() < 1e-9
                    && r.policy.starts_with("static")
                    && r.report("light").slo_met
            })
            .map(|r| (r.policy.clone(), r.report("heavy").goodput_qps))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The study's verdict: the light tenant kept its p95 promise under
    /// the AIMD window at the gate overload. A promise either held or
    /// it did not — the `serve` bin exits 1 when it did not.
    ///
    /// # Errors
    ///
    /// The light tenant's observed p95 exceeds its promise on the gate
    /// row.
    pub fn verdict(&self) -> io::Result<()> {
        promise_verdict(self.gate_row().report("light"), self.gate_overload)
    }
}

/// [`ServeStudy::verdict`] on the gate row's light-tenant report.
fn promise_verdict(light: &TenantReport, overload: f64) -> io::Result<()> {
    if light.slo_met {
        return Ok(());
    }
    failed(format!(
        "the light tenant missed its p95 promise under aimd at {overload:.0}x: {} ms against {} ms",
        fmt_ms(light.latency.p95_ns),
        fmt_ms(light.p95_target_ns)
    ))
}

/// The serve study's AIMD parameters: start at the legacy `--inflight`
/// knob, float in [1, 32] on 8-completion windows.
pub fn serve_aimd_config(inflight: usize) -> AimdConfig {
    AimdConfig {
        initial_window: inflight.clamp(1, 32),
        min_window: 1,
        max_window: 32,
        sample_window: 8,
        ..Default::default()
    }
}

/// Index sets into `setup.queries` for the serve mix's tenants, chosen
/// by per-query demand at the default scale: `LIGHT` are the cheapest
/// zone-map-pruned probes (~10 µs busy), `HEAVY` the most expensive
/// scans (the two single-shard year-range scans plus the widest join
/// probe, ~75–145 µs busy), `BATCH` two mid-cost queries.
const LIGHT_QUERIES: &[usize] = &[2, 9, 11];
const HEAVY_QUERIES: &[usize] = &[0, 1, 6];
const BATCH_QUERIES: &[usize] = &[4, 8];

/// Mean resolved busy time over one tenant's query indices.
fn mean_busy_ns(per_query_busy_ns: &[f64], idx: &[usize]) -> f64 {
    idx.iter().map(|&i| per_query_busy_ns[i]).sum::<f64>() / idx.len() as f64
}

/// The three-tenant serve mix at one overload multiple, calibrated from
/// `per_query_busy_ns` (resolved demand per `setup.queries` entry):
///
/// * `light` — cheap selective probes at ~25% of their own serial
///   footprint, double weight, a tight p95 promise (the interactive
///   tenant the SLO protects);
/// * `heavy` — the most expensive scans offered at `overload`× their
///   serial footprint behind a 2.5×-footprint token bucket, each
///   request carrying a deadline (the bulk tenant goodput measures);
/// * `batch` — two closed-loop think-time clients with a loose promise
///   (offered load that reacts to latency).
pub fn serve_tenant_mix(
    setup: &SsbSetup,
    per_query_busy_ns: &[f64],
    overload: f64,
) -> Vec<TenantSpec> {
    let pick = |idx: &[usize]| idx.iter().map(|&i| setup.queries[i].clone()).collect::<Vec<_>>();
    let light_ns = mean_busy_ns(per_query_busy_ns, LIGHT_QUERIES);
    let heavy_ns = mean_busy_ns(per_query_busy_ns, HEAVY_QUERIES);
    let batch_ns = mean_busy_ns(per_query_busy_ns, BATCH_QUERIES);
    vec![
        TenantSpec {
            name: "light".into(),
            queries: pick(LIGHT_QUERIES),
            process: ArrivalProcess::OpenPoisson {
                arrivals: setup.cfg.arrivals,
                mean_interarrival_ns: 4.0 * light_ns,
            },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 35.0 * light_ns, deadline_ns: None },
            weight: 2.0,
        },
        TenantSpec {
            name: "heavy".into(),
            queries: pick(HEAVY_QUERIES),
            process: ArrivalProcess::OpenPoisson {
                arrivals: setup.cfg.arrivals,
                mean_interarrival_ns: heavy_ns / overload,
            },
            writes: None,
            rate_limit: Some(RateLimit { rate_per_s: 2.5e9 / heavy_ns, burst: 8.0 }),
            slo: SloSpec { p95_target_ns: 50.0 * heavy_ns, deadline_ns: Some(30.0 * heavy_ns) },
            weight: 1.0,
        },
        TenantSpec {
            name: "batch".into(),
            queries: pick(BATCH_QUERIES),
            process: ArrivalProcess::Closed {
                clients: 2,
                queries_per_client: 3,
                mean_think_ns: 2.0 * batch_ns,
            },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 100.0 * batch_ns, deadline_ns: None },
            weight: 1.0,
        },
    ]
}

/// Run the serve study: the three-tenant mix at each overload under the
/// AIMD window, plus every `static_windows` entry at `gate_overload`.
/// Every completion's answer is checked bit-identical against
/// `run_batch` over the tenant query set; the AIMD gate row is recorded
/// into `trace` when the recorder is enabled, and every row folds its
/// per-tenant series into `reg` as `run=x<overload>-<policy>`.
///
/// # Panics
///
/// Panics on engine/serve errors or a served/batch answer mismatch
/// (the harness runs known-good inputs).
#[allow(clippy::too_many_arguments)]
pub fn run_serve_study_observed(
    setup: &SsbSetup,
    mode: EngineMode,
    shards: usize,
    overloads: &[f64],
    gate_overload: f64,
    static_windows: &[usize],
    trace: &mut TraceRecorder,
    reg: &mut MetricsRegistry,
) -> ServeStudy {
    let (_, mut cluster, mean_service_ns) = range_study_prelude(setup, mode, shards);
    // Per-query resolved busy time calibrates each tenant's arrival
    // rate and promise against its own query set, not the global mean.
    let per_query_busy_ns: Vec<f64> = setup
        .queries
        .iter()
        .map(|q| {
            let (d, _) = resolve_query_demand(&mut cluster, q, false).expect("demand probe");
            d.total_busy_ns()
        })
        .collect();

    // The batch oracle over the tenant query set, once: the mix's
    // queries are overload-independent, only arrival shapes change.
    let distinct: Vec<Query> = serve_tenant_mix(setup, &per_query_busy_ns, 1.0)
        .iter()
        .flat_map(|t| t.queries.clone())
        .collect();
    let oracle = cluster.run_batch(&distinct).expect("serve oracle");
    let by_id: BTreeMap<&str, &ClusterExecution> =
        distinct.iter().map(|q| q.id.as_str()).zip(oracle.executions.iter()).collect();

    let mut rows = Vec::new();
    for &overload in overloads {
        let at_gate = (overload - gate_overload).abs() < 1e-9;
        let tenants = serve_tenant_mix(setup, &per_query_busy_ns, overload);
        let mut policies = vec![WindowPolicy::Aimd(serve_aimd_config(setup.cfg.inflight))];
        if at_gate {
            policies.extend(static_windows.iter().map(|&w| WindowPolicy::Static(w)));
        }
        for window in policies {
            let policy = match &window {
                WindowPolicy::Aimd(_) => "aimd".to_string(),
                WindowPolicy::Static(w) => format!("static{w}"),
            };
            let cfg = ServeConfig { seed: setup.cfg.seed, window };
            // The gate row owns the recorder: one coherent timeline.
            let outcome = if at_gate && policy == "aimd" {
                run_serve_traced(&mut cluster, &tenants, &cfg, trace)
            } else {
                run_serve(&mut cluster, &tenants, &cfg)
            }
            .expect("serve session");
            for (c, e) in outcome.completions.iter().zip(&outcome.executions) {
                let want = by_id[c.query_id.as_str()];
                assert_eq!(
                    e.groups, want.groups,
                    "served/batch mismatch on {} ({policy} at {overload}x)",
                    c.query_id
                );
            }
            let run = format!("x{overload:.0}-{policy}");
            record_serve_metrics(reg, &tenants, &outcome, &[("run", &run)]);
            let reports = tenant_reports(&tenants, &outcome);
            rows.push(ServeStudyRow {
                overload,
                policy,
                tenants: tenants.clone(),
                outcome,
                reports,
            });
        }
    }
    ServeStudy { shards, mean_service_ns, gate_overload, rows }
}

/// One baseline measurement.
pub struct MonetRun {
    /// `mnt_join` or `mnt_reg`.
    pub label: &'static str,
    /// Per-query wall time and groups, in query order.
    pub results: Vec<(Duration, MultiGrouped)>,
}

/// Run every query through one baseline configuration, `repeats` times,
/// keeping the fastest wall time (warm caches, as a DBMS benchmark
/// would).
///
/// # Panics
///
/// Panics on resolution errors.
pub fn run_monet(setup: &SsbSetup, prejoined: bool, repeats: usize) -> MonetRun {
    let engine = if prejoined {
        MonetEngine::prejoined(&setup.wide, setup.cfg.threads)
    } else {
        MonetEngine::star(&setup.db, setup.cfg.threads)
    };
    let results = setup
        .queries
        .iter()
        .map(|q| {
            let mut best: Option<(Duration, MultiGrouped)> = None;
            for _ in 0..repeats.max(1) {
                let r = engine.run(q).expect("baseline run");
                if best.as_ref().map(|(d, _)| r.wall < *d).unwrap_or(true) {
                    best = Some((r.wall, r.groups));
                }
            }
            best.expect("at least one repeat")
        })
        .collect();
    MonetRun { label: engine.label(), results }
}

/// What the per-query figures (Figs. 6–9, Table II) render from: one
/// set-up, one run of each PIM mode and — when Fig. 6 is among them —
/// one run of each baseline. `paper --fig` collects it at most once per
/// invocation, whatever the selection.
pub struct PaperRuns {
    /// The generated data and queries.
    pub setup: SsbSetup,
    /// One run per PIM mode, in [`EngineMode::all`] order.
    pub pim: Vec<PimModeRun>,
    /// `mnt_join` then `mnt_reg` (best of three), or empty.
    pub monet: Vec<MonetRun>,
}

impl PaperRuns {
    /// Generate the data and run every system once.
    ///
    /// # Panics
    ///
    /// Panics on engine errors (known-good inputs).
    pub fn collect(cfg: BenchConfig, with_baselines: bool) -> Self {
        let setup = setup(cfg);
        eprintln!("data generated: {} lineorders; running 3 PIM modes…", setup.wide.len());
        let pim = pim_runs(&setup);
        let prejoined = [true, false].into_iter().filter(|_| with_baselines);
        let monet = prejoined.map(|prejoined| run_monet(&setup, prejoined, 3)).collect();
        PaperRuns { setup, pim, monet }
    }

    /// Ids of the queries on which some system's answer differs from
    /// `one_xb`'s (empty = every system agrees).
    pub fn mismatches(&self) -> Vec<String> {
        let reference = &self.pim[0].executions;
        let agrees = |i: usize| {
            self.pim.iter().all(|r| r.executions[i].groups == reference[i].groups)
                && self.monet.iter().all(|r| r.results[i].1 == reference[i].groups)
        };
        let ids = self.setup.queries.iter().enumerate();
        ids.filter(|(i, _)| !agrees(*i)).map(|(_, q)| q.id.clone()).collect()
    }
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    assert!(values.iter().all(|v| *v > 0.0), "geomean needs positive values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Geometric mean over the finite, positive entries of `values`,
/// plus how many entries were skipped (zero, negative, NaN or
/// infinite — e.g. ratios of planner-answered queries whose simulated
/// time is 0). `None` when nothing survives. Reports print the skip
/// count as a footnote instead of silently rendering `NaN`.
pub fn geomean_filtered(values: &[f64]) -> (Option<f64>, usize) {
    let kept: Vec<f64> = values.iter().copied().filter(|v| v.is_finite() && *v > 0.0).collect();
    let skipped = values.len() - kept.len();
    if kept.is_empty() {
        (None, skipped)
    } else {
        (Some(geomean(&kept)), skipped)
    }
}

/// Render a [`geomean_filtered`] result: `"7.46x"`, `"7.46x*"` (rows
/// skipped — pair with a footnote), or `"n/a"`.
pub fn fmt_geomean(values: &[f64]) -> String {
    match geomean_filtered(values) {
        (None, _) => "n/a".into(),
        (Some(m), 0) => format!("{m:.2}x"),
        (Some(m), _) => format!("{m:.2}x*"),
    }
}

/// Render a fixed-width, right-aligned table, one line per row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = |cells: Vec<String>| {
        let joined: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        let _ = writeln!(out, "  {}", joined.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
    out
}

/// Print [`render_table`]'s output.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(headers, rows));
}

/// One column of a table described column by column: its header and
/// the cell it shows for a row.
pub type Col<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

/// Print a table of `rows` described by its `columns` — each header
/// next to the code that fills it, so the two cannot drift apart.
pub fn print_columns<R>(rows: &[R], columns: &[Col<'_, R>]) {
    let headers: Vec<&str> = columns.iter().map(|(header, _)| *header).collect();
    let cells = |row| columns.iter().map(|(_, cell)| cell(row)).collect();
    print_table(&headers, &rows.iter().map(cells).collect::<Vec<Vec<String>>>());
}

/// Pretty nanoseconds (ms with 3 decimals).
pub fn fmt_ms(ns: f64) -> String {
    format!("{:.3}", ns / 1e6)
}

/// Speedups of `base` over `other` per query, as positive ratios.
pub fn speedups(base_ns: &[f64], other_ns: &[f64]) -> Vec<f64> {
    base_ns.iter().zip(other_ns).map(|(b, o)| o / b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the htap bin's per-workload endurance wear table to the
    /// stream outcomes it projects: every (row, lane) entry must equal
    /// the scheduler's accumulated cell writes and 10-year required
    /// endurance for that lane, the ingest row must wear strictly more
    /// than the pure-query baseline, and both rows must answer from
    /// consistent snapshots — the series a dashboard reads is the
    /// series the wear model computed, not a re-derivation.
    #[test]
    fn htap_endurance_table_pins_the_wear_series() {
        let s = setup(BenchConfig {
            sf: 0.002,
            skewed: false,
            arrivals: 12,
            shards: vec![2],
            ..BenchConfig::default()
        });
        let mut trace = TraceRecorder::disabled();
        let mut reg = MetricsRegistry::new();
        let study = run_htap_study_observed(&s, EngineMode::OneXb, 2, &mut trace, &mut reg);
        assert_eq!(study.rows.len(), 2);
        let wear = study.endurance_rows();
        for r in &study.rows {
            assert!(r.snapshot_consistent, "{} row lost snapshot consistency", r.label);
            assert_eq!(r.outcome.shard_cell_writes.len(), study.shards);
            for (lane, (&writes, &endurance)) in r
                .outcome
                .shard_cell_writes
                .iter()
                .zip(&r.outcome.shard_required_endurance)
                .enumerate()
            {
                assert!(
                    wear.contains(&(r.label, lane, writes, endurance)),
                    "wear table dropped ({}, lane {lane})",
                    r.label
                );
            }
        }
        assert_eq!(wear.len(), 2 * study.shards, "one wear entry per (row, lane)");
        let total = |label: &str| study.row(label).outcome.shard_cell_writes.iter().sum::<u64>();
        assert!(study.row("htap").records_written > 0, "the ingest row must land records");
        assert!(
            total("htap") > total("pure-query"),
            "ingest must wear cells beyond the query-only baseline"
        );
        assert!(study.query_p95_under_ingest() > 0.0);
        // and the registry carries the ingest series for the htap run only
        assert!(reg
            .counter(bbpim_sched::obs::INGEST_COMPLETIONS, &[("run", "htap")])
            .is_some_and(|v| v > 0.0));
        assert!(reg.counter(bbpim_sched::obs::INGEST_COMPLETIONS, &[("run", "pure")]).is_none());
    }

    /// `htap` fails itself on a row that lost snapshot consistency and
    /// names the row; two consistent rows pass.
    #[test]
    fn an_inconsistent_htap_row_fails_the_study() {
        let row = |label, snapshot_consistent| HtapRow {
            label,
            mutation_frac: 0.0,
            outcome: StreamOutcome {
                policy: AdmissionPolicy::Fifo,
                completions: Vec::new(),
                mutation_completions: Vec::new(),
                executions: Vec::new(),
                timeline: Vec::new(),
                makespan_ns: 0.0,
                host_busy_ns: 0.0,
                shard_busy_ns: Vec::new(),
                shard_cell_writes: Vec::new(),
                shard_required_endurance: Vec::new(),
                ingest_stalls: 0,
                ingest_stall_ns: 0.0,
            },
            snapshot_consistent,
            records_written: 0,
        };
        let study = |htap_consistent| HtapStudy {
            shards: 1,
            partitioner: "range",
            mean_interarrival_ns: 1.0,
            mean_service_ns: 1.0,
            arrivals: 0,
            ingest_buffer: 1,
            rows: vec![row("pure-query", true), row("htap", htap_consistent)],
        };
        assert!(study(true).verdict().is_ok());
        let err = study(false).verdict().unwrap_err().to_string();
        assert!(err.contains("the htap row"), "{err}");
    }

    /// `scaling` fails itself when the largest shard count is slower
    /// than the smallest on the contended clock: a real one-query
    /// execution against a copy whose wall clock is doubled.
    #[test]
    fn a_contended_geomean_below_one_fails_the_scaling_study() {
        let s = setup(BenchConfig { sf: 0.001, skewed: false, ..BenchConfig::default() });
        let mut cluster = ClusterEngine::new(
            SimConfig::default(),
            s.wide.clone(),
            EngineMode::OneXb,
            1,
            Partitioner::RoundRobin,
        )
        .unwrap();
        let fast = cluster.run(&s.queries[0]).unwrap();
        let mut slow = fast.clone();
        slow.report.time_ns *= 2.0;
        let point = |shards, e: &ClusterExecution| ClusterScalePoint {
            shards,
            partitioner: "round-robin",
            executions: vec![e.clone()],
        };
        assert!(scaling_verdict(&[point(1, &slow), point(4, &fast)]).is_ok());
        assert!(scaling_verdict(&[point(1, &fast), point(4, &fast)]).is_ok(), "1.0x is the floor");
        assert!(scaling_verdict(&[point(1, &fast)]).is_ok() && scaling_verdict(&[]).is_ok());
        let err = scaling_verdict(&[point(4, &slow), point(1, &fast)]).unwrap_err().to_string();
        assert!(err.contains("at 4 shards is 0.50x"), "{err}");
    }

    /// `serve` fails itself when the light tenant's report on the gate
    /// row says the p95 promise was missed.
    #[test]
    fn a_missed_light_promise_fails_the_serve_study() {
        let light = |p95_ns: f64| TenantReport {
            name: "light".into(),
            weight: 2.0,
            submitted: 1,
            completed: 1,
            writes_completed: 0,
            dropped: 0,
            throttled: 0,
            latency: bbpim_sched::LatencySummary::from_parts(vec![p95_ns], &[0.0], &[p95_ns], 0),
            goodput_qps: 1.0,
            drop_rate: 0.0,
            p95_target_ns: 365_000.0,
            deadline_ns: None,
            slo_met: p95_ns <= 365_000.0,
        };
        assert!(promise_verdict(&light(353_000.0), 4.0).is_ok());
        let err = promise_verdict(&light(400_000.0), 4.0).unwrap_err().to_string();
        assert!(err.contains("at 4x: 0.400 ms against 0.365 ms"), "{err}");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[0.0, 1.0]);
    }

    #[test]
    fn config_defaults() {
        let c = BenchConfig::default();
        assert!(c.skewed);
        assert!((c.sf - 0.1).abs() < 1e-12);
        assert_eq!(c.threads, 4);
        assert_eq!(c.shards, vec![1, 2, 4, 8]);
    }

    #[test]
    fn speedup_orientation() {
        // base twice as fast as other → speedup 2
        let s = speedups(&[1.0], &[2.0]);
        assert!((s[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_end_to_end_smoke() {
        let cfg = BenchConfig { sf: 0.001, skewed: false, ..BenchConfig::default() };
        let s = setup(cfg);
        assert_eq!(s.queries.len(), 13);
        let mnt = run_monet(&s, true, 1);
        assert_eq!(mnt.results.len(), 13);
    }
}
