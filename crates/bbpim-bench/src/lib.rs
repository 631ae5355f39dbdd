//! # bbpim-bench — the experiment harness
//!
//! One binary, `paper --fig <list>`, prints every result: the paper's
//! tables and figures, the `sweep` and `ablation` studies, and the
//! cluster studies `scaling` and `pruning` (the selector table is in
//! `src/bin/paper.rs`). The streaming, serving, HTAP and star-join
//! scenarios are `bbpim-perf` workloads, not drivers here.
//!
//! The per-query figures are described once as data
//! ([`reports::Figure`]) and rendered to the console and the CSV from
//! that description; files are written through [`artifacts`] and the
//! command line is parsed strictly by [`cli`]. The headline ratios come
//! from [`bbpim_core::headline`], and every PIM engine decides with
//! [`fit_shared_model`], the calibration Fig. 4 prints. One study
//! exits 1 on its own verdict ([`ScalingVerdict`]); the simulated
//! numbers CI gates are `bbpim-perf`'s rows in `bench/sim/`.

pub mod artifacts;
pub mod cli;
pub mod reports;

pub use cli::{Accepts, BenchConfig, BinFlags, CliError};

use std::fmt::Write as _;
use std::io;
use std::time::Duration;

use bbpim_cluster::{
    Cluster, ClusterEngine, ClusterExecution, ClusterReport, Partitioner, Storage,
};
use bbpim_core::engine::PimQueryEngine;
use bbpim_core::groupby::calibration::{run_calibration, CalibrationConfig, CalibrationData};
use bbpim_core::groupby::cost_model::GroupByModel;
use bbpim_core::headline::{geomean, Headline};
use bbpim_core::modes::EngineMode;
use bbpim_core::result::{QueryExecution, QueryReport};
use bbpim_db::plan::Query;
use bbpim_db::relation::Relation;
use bbpim_db::ssb::{queries, SsbDb};
use bbpim_db::stats::MultiGrouped;
use bbpim_monet::MonetEngine;
use bbpim_sim::timeline::PhaseKind;
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

/// The one calibration of an engine mode at the default `SimConfig`:
/// the `CalibrationConfig::default()` sweep's measurements and the
/// GROUP-BY model fitted to them. Fig. 4 prints both; every engine and
/// cluster at the default `SimConfig` decides with the model (it is
/// data-independent, so one fit serves them all).
///
/// # Panics
///
/// Panics on calibration failures (known-good configurations).
pub fn fit_shared_model(mode: EngineMode) -> (CalibrationData, GroupByModel) {
    run_calibration(&SimConfig::default(), mode, &CalibrationConfig::default())
        .expect("calibration")
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

/// A cluster execution's wall clock: on the cluster's one host-channel
/// model as reported, or — `contended == false` — refolded as if every
/// module had a free channel of its own, so only per-page dispatch
/// serialises: `Σ dispatch + max over shards of (time − its dispatch) +
/// merge`, read straight from the report's per-shard logs in shard
/// order. Answers and per-shard logs do not depend on the clock, so one
/// sweep yields both without re-running anything.
pub fn wall_ns(report: &ClusterReport, contended: bool) -> f64 {
    if contended {
        return report.time_ns;
    }
    let dispatch = |r: &QueryReport| r.phases.time_in(PhaseKind::HostDispatch);
    let serial: f64 = report.per_shard.iter().map(dispatch).sum();
    let rest = report.per_shard.iter().map(|r| r.time_ns - dispatch(r)).fold(0.0, f64::max);
    serial + rest + report.merge_time_ns
}

/// Run every query through a cluster at each shard count (full-capacity
/// module per shard; `new_cluster(shards)` constructs the pre-joined
/// [`ClusterEngine`] or the normalized [`bbpim_cluster::StarCluster`],
/// dropped after its point), cross-checking each merged answer
/// against the row-at-a-time oracle. Wall clocks are the cluster's one
/// shared-host-channel model; [`wall_ns`] refolds the free-channel A/B
/// timing from the same executions.
///
/// # Panics
///
/// Panics on engine errors or a cluster/oracle mismatch (known-good inputs).
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
/// `None` when the planner answered every query alone.
pub fn scaling_geomean(
    base: &ClusterScalePoint,
    p: &ClusterScalePoint,
    contended: bool,
) -> Option<f64> {
    let wall = |e: &ClusterExecution| wall_ns(&e.report, contended);
    geomean(base.executions.iter().zip(&p.executions).map(|(b, e)| wall(b) / wall(e))).value
}

/// The scaling study's verdict: the contended geo-mean speedup of the
/// largest shard count over the smallest may not drop below 1.0 — below
/// it the shared host channel eats all module parallelism again, the
/// regression the byte diet exists to prevent. Computed once: the star
/// report prints it and `paper` exits on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingVerdict {
    /// The largest shard count.
    pub shards: usize,
    /// Its contended geo-mean speedup over the smallest.
    pub speedup: f64,
}

impl ScalingVerdict {
    /// `None` with one shard count, or if the planner answered every query.
    pub fn of(points: &[ClusterScalePoint]) -> Option<Self> {
        let base = points.iter().min_by_key(|p| p.shards)?;
        let top = points.iter().max_by_key(|p| p.shards).filter(|t| t.shards > base.shards)?;
        Some(ScalingVerdict { shards: top.shards, speedup: scaling_geomean(base, top, true)? })
    }

    /// `Err` below the 1.0x floor.
    pub fn check(&self) -> io::Result<()> {
        let (shards, speedup) = (self.shards, self.speedup);
        if speedup >= 1.0 {
            return Ok(());
        }
        let why = format!("contended geo-mean speedup at {shards} shards is {speedup:.2}x");
        Err(io::Error::other(format!("{why}, below 1.0x")))
    }

    /// The verdict as the star report prints it.
    pub fn shape_check(&self) -> String {
        let mark = if self.check().is_ok() { "PASS" } else { "FAIL" };
        let (shards, speedup) = (self.shards, self.speedup);
        let line = format!("contended geo-mean speedup at {shards} shards: {speedup:.2}x");
        format!("\nshape check:\n  [{mark}] {line} (byte-diet floor 1.0x)\n")
    }
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
/// Panics on engine errors or an answer/oracle mismatch (known-good inputs).
pub fn run_pruning_study(
    setup: &SsbSetup,
    mode: EngineMode,
    shard_counts: &[usize],
    range_attr: &str,
) -> Vec<PruningPoint> {
    let partitioner = Partitioner::range_by_attr(range_attr);
    let oracles = oracle_answers(setup);
    // One calibration sweep serves every shard count.
    let (_, model) = fit_shared_model(mode);
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

/// One baseline measurement.
pub struct MonetRun {
    /// `mnt_join` or `mnt_reg`.
    pub label: &'static str,
    /// Per-query wall time and groups, in query order.
    pub results: Vec<(Duration, MultiGrouped)>,
}

impl MonetRun {
    /// Per-query wall time, nanoseconds.
    pub fn wall_ns(&self) -> Vec<f64> {
        self.results.iter().map(|(wall, _)| wall.as_nanos() as f64).collect()
    }
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
    let best = |q| {
        let runs = (0..repeats.max(1)).map(|_| engine.run(q).expect("baseline run"));
        let best = runs.min_by_key(|r| r.wall).expect("at least one repeat");
        (best.wall, best.groups)
    };
    let results = setup.queries.iter().map(best).collect();
    MonetRun { label: engine.label(), results }
}

/// What the per-query figures (Figs. 6–9, Table II) and each point of
/// the sweep render from: one set-up, one run of each PIM mode — each
/// engine deciding with its mode's [`fit_shared_model`] — and, when
/// Fig. 6 or the sweep is among them, one run of each baseline, every
/// answer checked against the row oracle. `paper --fig` collects it at
/// most once per invocation, whatever the selection.
pub struct PaperRuns {
    /// The generated data and queries.
    pub setup: SsbSetup,
    /// One run per PIM mode, in [`EngineMode::all`] order.
    pub pim: Vec<PimModeRun>,
    /// `mnt_join` then `mnt_reg` (best of three), or empty.
    pub monet: Vec<MonetRun>,
}

impl PaperRuns {
    /// Generate the data, run every system once and check every answer
    /// ([`PaperRuns::check`]).
    ///
    /// # Errors
    ///
    /// A system's answer that differs from the row oracle's.
    ///
    /// # Panics
    ///
    /// Panics on engine errors (known-good inputs).
    pub fn collect(cfg: BenchConfig, with_baselines: bool) -> io::Result<Self> {
        let setup = setup(cfg);
        eprintln!("data generated: {} lineorders; running 3 PIM modes…", setup.wide.len());
        // each engine is dropped before the next: peak memory is one engine
        let run_mode = |mode: EngineMode| {
            let mut engine = PimQueryEngine::new(SimConfig::default(), setup.wide.clone(), mode)
                .expect("engine construction");
            engine.set_model(fit_shared_model(mode).1);
            let run =
                |q| engine.run(q).unwrap_or_else(|e| panic!("{} on {}: {e}", mode.label(), q.id));
            PimModeRun { mode, executions: setup.queries.iter().map(run).collect() }
        };
        let pim = EngineMode::all().map(run_mode).into();
        let prejoined = [true, false].into_iter().filter(|_| with_baselines);
        let monet = prejoined.map(|prejoined| run_monet(&setup, prejoined, 3)).collect();
        let runs = PaperRuns { setup, pim, monet };
        runs.check()?;
        Ok(runs)
    }

    /// Check every PIM mode's answers, and each baseline's when it ran,
    /// against the row oracle's (computed once per query).
    ///
    /// # Errors
    ///
    /// The first answer that differs, naming the system and the query.
    pub fn check(&self) -> io::Result<()> {
        let answers = self.setup.queries.iter().zip(oracle_answers(&self.setup));
        for (i, (q, oracle)) in answers.enumerate() {
            let pim = self.pim.iter().map(|r| (r.mode.label(), &r.executions[i].groups));
            let monet = self.monet.iter().map(|r| (r.label, &r.results[i].1));
            if let Some((label, _)) = pim.chain(monet).find(|(_, groups)| **groups != oracle) {
                let msg =
                    format!("cross-validation: {label} disagrees with the row oracle on {}", q.id);
                return Err(io::Error::other(msg));
            }
        }
        Ok(())
    }

    /// The [`Headline`] of the three PIM runs.
    pub fn headline(&self) -> Headline {
        let reports =
            |m: usize| self.pim[m].executions.iter().map(|e| &e.report).collect::<Vec<_>>();
        Headline::of(&reports(0), &reports(1), &reports(2))
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

/// A speedup cell: two decimals, or `-` for the 0/0 of a query whose
/// zone maps pruned every page on both sides.
pub fn fmt_ratio(ratio: f64) -> String {
    if ratio.is_finite() {
        format!("{ratio:.2}")
    } else {
        "-".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real one-query execution at 1 shard, and a copy whose wall
    /// clock is doubled.
    fn fast_and_slow() -> (ClusterExecution, ClusterExecution) {
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
        (fast, slow)
    }

    fn point(shards: usize, e: &ClusterExecution) -> ClusterScalePoint {
        ClusterScalePoint { shards, partitioner: "round-robin", executions: vec![e.clone()] }
    }

    fn verdict(points: &[ClusterScalePoint]) -> io::Result<()> {
        ScalingVerdict::of(points).map_or(Ok(()), |v| v.check())
    }

    /// `scaling` fails itself when the largest shard count is slower
    /// than the smallest on the contended clock.
    #[test]
    fn a_contended_geomean_below_one_fails_the_scaling_study() {
        let (fast, slow) = fast_and_slow();
        assert!(verdict(&[point(1, &slow), point(4, &fast)]).is_ok());
        assert!(verdict(&[point(1, &fast)]).is_ok() && verdict(&[]).is_ok());
        let err = verdict(&[point(4, &slow), point(1, &fast)]).unwrap_err().to_string();
        assert!(err.contains("at 4 shards is 0.50x"), "{err}");
        let failed = ScalingVerdict::of(&[point(4, &slow), point(1, &fast)]).unwrap();
        assert!(failed.shape_check().contains("[FAIL]"), "{}", failed.shape_check());
    }

    /// The printed check and the exit status read one value against one
    /// threshold: exactly 1.0x passes both (it used to print `[FAIL]`
    /// and exit 0).
    #[test]
    fn exactly_the_floor_passes_the_printed_check_and_the_exit_status() {
        let (fast, _) = fast_and_slow();
        let at_floor = ScalingVerdict::of(&[point(1, &fast), point(4, &fast)]).unwrap();
        assert_eq!(at_floor, ScalingVerdict { shards: 4, speedup: 1.0 });
        assert!(at_floor.check().is_ok());
        assert!(at_floor.shape_check().contains("[PASS]"), "{}", at_floor.shape_check());
    }

    /// The free-channel refold serialises only dispatch: it is the
    /// per-shard logs' dispatch sum plus the largest remainder plus the
    /// merge, never above the reported clock, and leaves energy alone.
    #[test]
    fn free_channel_refold_serialises_only_dispatch() {
        let s = setup(BenchConfig { sf: 0.001, skewed: false, ..BenchConfig::default() });
        let mut cluster = ClusterEngine::new(
            SimConfig::default(),
            s.wide.clone(),
            EngineMode::OneXb,
            3,
            Partitioner::RoundRobin,
        )
        .unwrap();
        cluster.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        let mut refolded_below = 0;
        for q in &s.queries {
            let report = cluster.run(q).unwrap().report;
            let dispatch: Vec<f64> = report
                .per_shard
                .iter()
                .map(|r| r.phases.time_in(PhaseKind::HostDispatch))
                .collect();
            let rest = report.per_shard.iter().zip(&dispatch).map(|(r, d)| r.time_ns - d);
            let expect =
                dispatch.iter().sum::<f64>() + rest.fold(0.0, f64::max) + report.merge_time_ns;
            let free = wall_ns(&report, false);
            assert!((free - expect).abs() < 1e-9, "{}: {free} vs {expect}", q.id);
            assert!(free <= report.time_ns + 1e-9, "{}: {free} > {}", q.id, report.time_ns);
            refolded_below += usize::from(free < report.time_ns);
            assert_eq!(wall_ns(&report, true), report.time_ns);
            let energy: f64 = report.per_shard.iter().map(|r| r.energy_pj).sum();
            assert!((report.energy_pj - energy).abs() < 1e-9, "{}", q.id);
        }
        assert!(refolded_below > 0, "result reads must put bytes beyond dispatch on the channel");
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
    fn tiny_end_to_end_smoke() {
        let cfg = BenchConfig { sf: 0.001, skewed: false, ..BenchConfig::default() };
        let s = setup(cfg);
        assert_eq!(s.queries.len(), 13);
        let mnt = run_monet(&s, true, 1);
        assert_eq!(mnt.results.len(), 13);
    }

    /// One wrong answer anywhere — a PIM mode's or a baseline's — fails
    /// the run's check, naming the system and the query.
    #[test]
    fn a_tampered_answer_fails_the_check_naming_system_and_query() {
        let cfg = BenchConfig { sf: 0.001, skewed: false, ..BenchConfig::default() };
        let mut runs = PaperRuns::collect(cfg, false).expect("every mode matches the oracle");
        // a baseline answering like the PIM modes passes
        let answers = runs.pim[0].executions.iter().map(|e| (Duration::ZERO, e.groups.clone()));
        runs.monet.push(MonetRun { label: "mnt_join", results: answers.collect() });
        runs.check().expect("every system matches the oracle");
        let id = runs.setup.queries[3].id.clone();
        let tampered = |groups: &mut MultiGrouped| groups.insert(vec![u64::MAX], vec![1]);
        tampered(&mut runs.monet[0].results[3].1);
        let err = runs.check().unwrap_err().to_string();
        assert!(err.contains("mnt_join") && err.ends_with(&id), "{err}");
        runs.monet.clear();
        tampered(&mut runs.pim[1].executions[3].groups);
        let err = runs.check().unwrap_err().to_string();
        assert!(err.contains(EngineMode::TwoXb.label()) && err.ends_with(&id), "{err}");
    }
}
