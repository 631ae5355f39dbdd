//! # bbpim-bench — the experiment harness
//!
//! One binary, `paper --fig <list>`, prints every result: the paper's
//! tables and figures (`table1`, `table2`, `4`–`9`, `all` for Figs. 6–9 +
//! Table II in one pass with `--csv <dir>` for the plotted numbers), the
//! `sweep` and `ablation` studies, and the cluster studies of the journal
//! follow-up — `scaling` (shard scaling with the byte-diet lever table)
//! and `pruning` (zone-map pruned vs exhaustive dispatch).
//!
//! The streaming, serving, HTAP and star-join scenarios are `bbpim-perf`
//! workloads (`bench/perf`), and their properties are integration tests
//! under `tests/`; this crate has no driver of its own for them.
//!
//! The per-query figures are described once as data
//! ([`reports::Figure`]) and rendered to the console table and the CSV
//! from that one description; every file the binary writes goes through
//! [`artifacts`]. The shared flags are `--sf <f64>` (default 0.1),
//! `--uniform` (default is the paper's skewed data), `--seed <u64>`,
//! `--threads <usize>` and `--shards`; a selection accepts the ones its
//! selectors read and rejects anything else with a usage line and exit
//! code 2 ([`cli`]).
//!
//! One study carries a verdict of its own and exits 1 on it
//! ([`scaling_verdict`]). The simulated numbers CI gates are not the
//! studies': `bbpim-perf all` is compared by `bbpim-perf check` against
//! the rows in `bench/sim/`.

pub mod artifacts;
pub mod cli;
pub mod reports;

pub use cli::{Accepts, BenchConfig, BinFlags, CliError};

use std::fmt::Write as _;
use std::io;
use std::time::Duration;

use bbpim_cluster::fold::serial_slice_ns;
use bbpim_cluster::{Cluster, ClusterEngine, ClusterExecution, Partitioner, Storage};
use bbpim_core::engine::PimQueryEngine;
use bbpim_core::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim_core::groupby::cost_model::GroupByModel;
use bbpim_core::modes::EngineMode;
use bbpim_core::result::{QueryExecution, QueryReport};
use bbpim_db::plan::Query;
use bbpim_db::relation::Relation;
use bbpim_db::ssb::{queries, SsbDb};
use bbpim_db::stats::MultiGrouped;
use bbpim_monet::MonetEngine;
use bbpim_sim::SimConfig;

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
/// free per-module channels, refolded from the per-shard reports with
/// the cluster's own serial-slice rule ([`serial_slice_ns`]): serial
/// slices + max-of-shards remaining time + merge. Answers and
/// per-shard logs are accounting-independent, so one sweep yields both
/// clocks without re-running anything.
pub fn wall_ns(report: &bbpim_cluster::ClusterReport, contended: bool) -> f64 {
    if contended {
        return report.time_ns;
    }
    let serial = |r: &QueryReport| serial_slice_ns(false, r.host_bus_ns, &r.phases);
    let serial_total: f64 = report.per_shard.iter().map(serial).sum();
    let pim_max = report.per_shard.iter().map(|r| r.time_ns - serial(r)).fold(0.0, f64::max);
    serial_total + pim_max + report.merge_time_ns
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
/// `None` when the planner answered every query alone. The scaling
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

/// The scaling study's verdict: the contended geo-mean speedup of the
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
        Some(speedup) if speedup < 1.0 => Err(io::Error::other(format!(
            "contended geo-mean speedup at {} shards is {speedup:.2}x, below 1.0x",
            top.shards
        ))),
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
