//! The paper's tables and figures: `paper --fig <selector>[,<selector>…]`.
//!
//! | selector | prints |
//! |----------|--------|
//! | `table1` | Table I — architecture and system configuration |
//! | `table2` | Table II — per-query selectivity / subgroup statistics |
//! | `4` | Fig. 4 — empirical latency modeling (a, b, c): the measurements and the fit every engine of Figs. 6–9 decides with (`fit_shared_model`, `CalibrationConfig::default()` grid); `--mode pimdb\|two_xb\|one_xb` picks the engine variant (default `one_xb`; the paper repeats the modeling per version) |
//! | `5` | Fig. 5 — PIM chip area breakdown |
//! | `6` | Fig. 6 — SSB execution latency, all five systems |
//! | `7` `8` `9` | Figs. 7–9 — PIM energy, peak chip power, required cell endurance |
//! | `all` | Figs. 6–9 and Table II behind a run banner |
//! | `sweep` | Fig. 6's five headline speedups and the one_xb k total over three scale factors |
//! | `ablation` | aggregation circuit vs bitwise reduction, two-xb placement, host scattered-read sensitivity (default SF 0.05) |
//! | `scaling` | the journal follow-up's shard-scaling study over `--shards`, with the byte-diet lever table; star cluster, or the pre-joined one with `--prejoined`; exits 1 on its verdict |
//! | `pruning` | zone-map pruned vs exhaustive dispatch on a `d_year` range-partitioned cluster over `--shards` |
//!
//! Sections print in the order selected. The per-query figures (6–9,
//! Table II) all render from one [`PaperRuns`] — one set-up, one run of
//! each PIM mode, one of each baseline if Fig. 6 is selected — and
//! `--csv <dir>` writes the selected ones' numbers for plotting. A
//! selection accepts exactly the shared flags its selectors read. A
//! section's failed verdict is `error: …` + exit 1 after every selected
//! section has printed.

use std::io;
use std::process::ExitCode;

use bbpim_bench::cli::ValueFlag;
use bbpim_bench::reports::{
    self, headline_speedups, Figure, FIG6, FIG7, FIG8, FIG9, SPEEDUPS, TABLE2, ZERO_TIME_NOTE,
};
use bbpim_bench::{
    artifacts, fit_shared_model, fmt_ms, fmt_ratio, modelled_cluster, print_columns, print_table,
    run_cluster_scaling, run_pruning_study, setup, Accepts, BenchConfig, BinFlags, CliError,
    ClusterScalePoint, PaperRuns, ScalingVerdict, SsbSetup,
};
use bbpim_cluster::{Cluster, ClusterEngine, ClusterExecution, Partitioner, StarCluster, Storage};
use bbpim_core::engine::PimQueryEngine;
use bbpim_core::groupby::calibration::{run_calibration, CalibrationConfig, HostPoint, PimPoint};
use bbpim_core::headline::geomean;
use bbpim_core::layout::RecordLayout;
use bbpim_core::modes::EngineMode;
use bbpim_core::result::QueryExecution;
use bbpim_db::plan::Query;
use bbpim_sim::aggcircuit::AggRequest;
use bbpim_sim::area::AreaModel;
use bbpim_sim::compiler::reduce::{reduce_cost, ReduceOp};
use bbpim_sim::compiler::ColRange;
use bbpim_sim::{SimConfig, XferPolicy};

/// What a selector prints.
#[derive(Clone, Copy)]
enum Section {
    /// A per-query figure, rendered from the shared [`PaperRuns`].
    Figure(&'static Figure),
    /// A section that gathers its own data; an `Err` is its verdict.
    Standalone(fn(&BenchConfig, &BinFlags) -> io::Result<()>),
}

/// One `--fig` selector: its name, what it prints, the shared flags it
/// reads, and the scale factor it runs at when `--sf` is not given.
struct Selector {
    name: &'static str,
    section: Section,
    reads: &'static str,
    default_sf: f64,
}

const DATA: &str = "--sf --uniform --skewed --seed";
const CLUSTER: &str = "--sf --uniform --skewed --seed --shards";
const MODES: &[&str] = &["pimdb", "two_xb", "one_xb"];

const fn selector(name: &'static str, section: Section, reads: &'static str) -> Selector {
    Selector { name, section, reads, default_sf: 0.1 }
}

static SELECTORS: [Selector; 12] = [
    selector("table1", Section::Standalone(table1), ""),
    selector("table2", Section::Figure(&TABLE2), DATA),
    selector("4", Section::Standalone(fig4), ""),
    selector("5", Section::Standalone(fig5), ""),
    selector("6", Section::Figure(&FIG6), "--sf --uniform --skewed --seed --threads"),
    selector("7", Section::Figure(&FIG7), DATA),
    selector("8", Section::Figure(&FIG8), DATA),
    selector("9", Section::Figure(&FIG9), DATA),
    // the sweep sets its own three scale factors
    selector("sweep", Section::Standalone(sweep), "--uniform --skewed --seed --threads"),
    // ablations need less data than the figures
    Selector { default_sf: 0.05, ..selector("ablation", Section::Standalone(ablation), DATA) },
    selector("scaling", Section::Standalone(scaling), CLUSTER),
    selector("pruning", Section::Standalone(pruning), CLUSTER),
];

/// What `all` stands for.
const ALL: [&str; 5] = ["6", "7", "8", "9", "table2"];

/// One command line, split into the selection and the rest.
struct Invocation {
    /// The selected sections, in order.
    selectors: Vec<&'static Selector>,
    /// `all` was selected: print the run banner.
    banner: bool,
    /// Everything but `--fig <list>`.
    rest: Vec<String>,
    /// The shared flags the selection reads: the union over selectors.
    shared: String,
    /// `--prejoined` with `scaling`.
    switches: Vec<&'static str>,
    /// `--mode` with Fig. 4, `--csv` with a per-query figure.
    values: Vec<ValueFlag<'static>>,
}

impl Invocation {
    /// Split `--fig <list>` off `args` and resolve the selectors.
    fn new(args: &[String]) -> Result<Self, CliError> {
        let at = args.iter().position(|a| a == "--fig");
        let at = at.ok_or_else(|| CliError::MissingValue("--fig".into()))?;
        let list = args.get(at + 1).ok_or_else(|| CliError::MissingValue("--fig".into()))?;
        let rest = [&args[..at], &args[at + 2..]].concat();
        let banner = list == "all";
        let names: Vec<&str> = if banner { ALL.to_vec() } else { list.split(',').collect() };
        let find = |name: &str| {
            SELECTORS.iter().find(|s| s.name == name).ok_or_else(|| {
                let known: Vec<&str> = SELECTORS.iter().map(|s| s.name).collect();
                let accepts = format!("all or a comma list of {}", known.join("|"));
                CliError::BadValue("--fig".into(), list.clone(), accepts)
            })
        };
        let selectors = names.into_iter().map(find).collect::<Result<Vec<_>, _>>()?;
        let shared = selectors.iter().map(|s| s.reads).collect::<Vec<_>>().join(" ");
        let selected = |name| selectors.iter().any(|s| s.name == name);
        let switches = if selected("scaling") { vec!["--prejoined"] } else { Vec::new() };
        let mut values: Vec<ValueFlag<'static>> = Vec::new();
        if selected("4") {
            values.push(("--mode", MODES));
        }
        if selectors.iter().any(|s| matches!(s.section, Section::Figure(_))) {
            values.push(("--csv", &[]));
        }
        Ok(Invocation { selectors, banner, rest, shared, switches, values })
    }

    /// What [`Invocation::rest`] may contain.
    fn accepts(&self) -> Accepts<'_> {
        Accepts { shared: &self.shared, switches: &self.switches, values: &self.values }
    }

    /// The configuration a selector running at `default_sf` sees: an
    /// explicit `--sf` always wins over the selector's default.
    fn config(&self, default_sf: f64) -> Result<(BenchConfig, BinFlags), CliError> {
        let base = BenchConfig { sf: default_sf, ..BenchConfig::default() };
        BenchConfig::parse(&self.rest, base, &self.accepts())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reject = |err: CliError, accepts: String| {
        let known: Vec<&str> = SELECTORS.iter().map(|s| s.name).collect();
        eprintln!("error: {err}");
        eprintln!("usage: paper --fig <all|{}>[,..] {accepts}", known.join("|"));
        ExitCode::from(2)
    };
    let inv = match Invocation::new(&args) {
        Ok(inv) => inv,
        Err(err) => return reject(err, String::new()),
    };
    match inv.config(0.1) {
        Ok((cfg, flags)) => artifacts::exit_code(run(&inv, cfg, &flags)),
        Err(err) => reject(err, inv.accepts().usage()),
    }
}

fn run(inv: &Invocation, cfg: BenchConfig, flags: &BinFlags) -> io::Result<()> {
    let figure = |s: &&Selector| match s.section {
        Section::Figure(figure) => Some(figure),
        Section::Standalone(_) => None,
    };
    let figures: Vec<&Figure> = inv.selectors.iter().filter_map(figure).collect();
    let csv_dir = flags.value("--csv");
    if let Some(dir) = csv_dir {
        artifacts::probe_dir(dir)?;
    }
    if inv.banner {
        println!("=== bbpim full experiment run ===");
        let BenchConfig { sf, skewed, seed, threads, .. } = cfg;
        println!("sf={sf} skewed={skewed} seed={seed:#x} threads={threads}\n");
    }
    // One pass serves every selected figure; it checked every answer.
    let runs = (!figures.is_empty())
        .then(|| PaperRuns::collect(cfg, figures.iter().any(|f| f.wants_baselines())))
        .transpose()?;
    if let Some(runs) = &runs {
        if !runs.monet.is_empty() {
            println!("cross-validation: all 5 systems agree on all 13 queries\n");
        }
        if let Some(dir) = csv_dir {
            let tables: Vec<_> = figures.iter().map(|f| (f.name, f.csv(runs))).collect();
            artifacts::write_csvs(dir, &tables)?;
        }
    }
    let mut verdict = Ok(());
    for (i, selector) in inv.selectors.iter().enumerate() {
        if i > 0 {
            rule();
        }
        match selector.section {
            Section::Figure(figure) => {
                let runs = runs.as_ref().expect("a selected figure collects the runs");
                print!("{}", figure.console(runs));
            }
            Section::Standalone(section) => {
                let (cfg, flags) = inv.config(selector.default_sf).expect("parsed once already");
                verdict = verdict.and(section(&cfg, &flags));
            }
        }
    }
    verdict
}

/// The line between two sections.
fn rule() {
    println!("\n{}\n", "=".repeat(72));
}

/// Two-column `parameter | value` table.
fn print_parameters(rows: &[(&str, String)]) {
    let rows: Vec<Vec<String>> = rows.iter().map(|(k, v)| vec![k.to_string(), v.clone()]).collect();
    print_table(&["parameter", "value"], &rows);
}

/// Table I: architecture and system configuration.
fn table1(_: &BenchConfig, _: &BinFlags) -> io::Result<()> {
    let cfg = SimConfig::default();
    println!("Table I — architecture and system configuration\n");
    println!("Single RRAM PIM module");
    let rw_energy =
        format!("{}\\{} pJ/bit", cfg.read_energy_pj_per_bit, cfg.write_energy_pj_per_bit);
    print_parameters(&[
        ("total capacity", format!("{} GiB", cfg.module_capacity_bytes >> 30)),
        ("huge page size", format!("{} MiB", cfg.page_bytes >> 20)),
        ("memory ranks", "1".into()),
        ("PIM chips", cfg.chips.to_string()),
        ("crossbar rows", cfg.crossbar_rows.to_string()),
        ("crossbar columns", cfg.crossbar_cols.to_string()),
        ("crossbar read", format!("{} bit", cfg.read_width_bits)),
        ("bulk-bitwise logic cycle", format!("{} ns", cfg.logic_cycle_ns)),
        ("crossbar read/write energy", rw_energy),
        ("bulk-bitwise logic energy", format!("{} fJ/bit", cfg.logic_energy_fj_per_bit)),
        ("single agg. circuit power", format!("{} uW", cfg.agg_circuit_power_uw)),
        ("single PIM controller power", format!("{} uW", cfg.controller_power_uw)),
    ]);
    println!("\nDerived geometry");
    print_parameters(&[
        ("crossbars per page", cfg.crossbars_per_page().to_string()),
        ("records per page", cfg.records_per_page().to_string()),
        ("pages per module", cfg.module_pages().to_string()),
        ("page crossbars per chip", cfg.page_crossbars_per_chip().to_string()),
    ]);
    println!("\nEvaluation system (host)");
    print_parameters(&[
        ("worker threads", cfg.host.threads.to_string()),
        ("cache line", format!("{} B", cfg.line_bytes())),
        ("DRAM latency", format!("{} ns", cfg.host.dram_latency_ns)),
        ("DRAM bandwidth", format!("{} GiB/s (DDR4-2400)", cfg.host.dram_bandwidth_gib_s)),
        ("memory-level parallelism", format!("{}", cfg.host.mlp)),
        // the paper's host; no model here prices clock cycles
        ("host clock", "3.6 GHz".into()),
    ]);
    Ok(())
}

/// Fig. 4: empirical latency modeling — the measurements and the fit
/// of [`fit_shared_model`], the one calibration every engine of Figs. 6–9
/// decides with, on its `CalibrationConfig::default()` grid.
///
/// * (a) `T_host-gb` vs page count M for representative (s, r) pairs
/// * (b) `∂T_host-gb/∂M` vs r per s, with the fitted `a(s)·√r + b(s)`
/// * (c) `T_pim-gb` (single subgroup) vs M per n, with the linear fits
fn fig4(_: &BenchConfig, flags: &BinFlags) -> io::Result<()> {
    let picked = EngineMode::all().into_iter().find(|m| Some(m.label()) == flags.value("--mode"));
    let mode = picked.unwrap_or(EngineMode::OneXb);
    let cal = CalibrationConfig::default();
    println!("Fig. 4 — empirical latency modeling ({}): the engines' fit", mode.label());
    println!("({cal:?})\n");
    let (data, model) = fit_shared_model(mode);

    // One row per page count M, one column per series: (a) and (c).
    let vs_m = |series: Vec<String>, time_ns: &dyn Fn(usize, usize) -> Option<f64>| {
        let headers: Vec<&str> =
            std::iter::once("M").chain(series.iter().map(String::as_str)).collect();
        let row = |m: &usize| {
            let cell = |k| format!("{:.4}", time_ns(*m, k).map_or(f64::NAN, |t| t / 1e6));
            std::iter::once(m.to_string()).chain((0..series.len()).map(cell)).collect()
        };
        print_table(&headers, &cal.ms.iter().map(row).collect::<Vec<Vec<String>>>());
    };

    println!("(a) T_host-gb [ms] vs page count M");
    let picks = [(2usize, 0.001f64), (2, 0.01), (2, 0.8), (4, 0.001), (4, 0.2), (4, 0.8)];
    vs_m(picks.iter().map(|(s, r)| format!("s={s},r={r}")).collect(), &|m, k| {
        let (s, r) = picks[k];
        let at = |p: &&HostPoint| p.m == m && p.s == s && (p.r - r).abs() < 1e-12;
        data.host_points.iter().find(at).map(|p| p.time_ns)
    });

    println!("\n(b) dT_host-gb/dM [ms/page] vs r, fitted a(s)*sqrt(r)+b(s)");
    let mut rows_b = Vec::new();
    for &s in &cal.s_values {
        let fit = model.host.fit_for(s).expect("fit");
        for &r in &cal.r_values {
            rows_b.push(vec![
                format!("s={s}"),
                format!("{r}"),
                format!("{:.5}", data.host_slope(s, r) / 1e6),
                format!("{:.5}", fit.eval(r) / 1e6),
            ]);
        }
        let (a, b, r2) = (fit.a / 1e6, fit.b / 1e6, fit.r2);
        println!("  fit s={s}: a = {a:.4} ms/page, b = {b:.4} ms/page, R² = {r2:.4}");
    }
    print_table(&["s", "r", "measured slope", "fitted"], &rows_b);

    println!("\n(c) T_pim-gb (single subgroup) [ms] vs M, per n");
    vs_m(cal.n_values.iter().map(|n| format!("n={n}")).collect(), &|m, k| {
        let at = |p: &&PimPoint| p.m == m && p.n == cal.n_values[k];
        data.pim_points.iter().find(at).map(|p| p.time_ns)
    });
    for &n in &cal.n_values {
        let fit = model.pim.fit_for(n).expect("fit");
        let (slope, t0, r2) = (fit.slope / 1e6, fit.intercept / 1e6, fit.r2);
        println!("  fit n={n}: dT/dM = {slope:.5} ms/page, T0 = {t0:.4} ms, R² = {r2:.4}");
    }
    println!("\npaper shape: T_host-gb linear in M; slope concave in r (a·sqrt(r)+b);");
    println!("             T_pim-gb linear in M with n-dependent coefficients.");
    Ok(())
}

/// Fig. 5: PIM chip area breakdown.
fn fig5(_: &BenchConfig, _: &BinFlags) -> io::Result<()> {
    let cfg = SimConfig::default();
    let model = AreaModel::default();
    let breakdown = model.breakdown();
    println!(
        "Fig. 5 — PIM chip area breakdown (chip = {:.0} mm², 8 chips/module)\n",
        breakdown.total_mm2
    );
    let row = |c: &bbpim_sim::area::AreaComponent| {
        let share = format!("{:.2}%", 100.0 * c.area_mm2 / breakdown.total_mm2);
        vec![c.name.to_string(), format!("{:.2}", c.area_mm2), share]
    };
    let rows: Vec<Vec<String>> = breakdown.components.iter().map(row).collect();
    print_table(&["component", "area [mm^2]", "share"], &rows);
    println!(
        "\nper-crossbar aggregation circuit: {:.0} µm² ({} crossbars per chip)",
        model.agg_circuit_um2(&cfg),
        model.crossbars_per_chip(&cfg)
    );
    println!(
        "first-principles crossbar-array check (4F², 28 nm): {:.1} mm² vs calibrated {:.1} mm²",
        model.crossbar_array_mm2_first_principles(&cfg, 28.0),
        breakdown.total_mm2 * model.crossbars_pct / 100.0
    );
    println!("\npaper: aggregation circuits 13.9%, crossbars 19.24%, crossbar peripherals 40.4%,");
    println!("       bank peripherals 18.83%, PIM controllers 6.84%, wires 0.76% (346 mm² chip)");
    Ok(())
}

/// Scale-factor sweep: how the paper's headline ratios and the hybrid
/// GROUP-BY decisions evolve with relation size (M).
///
/// The paper evaluates one point (SF = 10, M = 1832 pages). This sweep
/// shows the trend that leads there: host-gb cost grows with M while
/// pim-gb per subgroup stays nearly flat, so PIM-aggregated subgroup
/// counts and the one_xb advantage both grow with scale.
fn sweep(base: &BenchConfig, _: &BinFlags) -> io::Result<()> {
    println!("Scale sweep ({} data)\n", base.data_label());
    let sfs = [0.02f64, 0.05, 0.1];
    let row = |sf| Ok(sweep_row(&PaperRuns::collect(BenchConfig { sf, ..base.clone() }, true)?));
    let rows: Vec<Vec<String>> = sfs.into_iter().map(row).collect::<io::Result<_>>()?;
    let ratios = SPEEDUPS.map(|(label, _)| label);
    let headers: Vec<&str> =
        ["SF", "pages (M)"].into_iter().chain(ratios).chain(["sum of k (one_xb)"]).collect();
    print_table(&headers, &rows);
    if rows.iter().flatten().any(|cell| cell.ends_with('*')) {
        println!("{ZERO_TIME_NOTE}");
    }
    let paper: Vec<String> =
        SPEEDUPS.iter().map(|(label, value)| format!("{label} {value}")).collect();
    println!("\npaper at SF=10 (M=1832): {};", paper.join(", "));
    println!("k > 0 for Q1.x plus several GROUP BY queries (Table II).");
    Ok(())
}

/// One scale factor's sweep row; a ratio marked `*` skipped rows.
fn sweep_row(runs: &PaperRuns) -> Vec<String> {
    let one_xb = &runs.pim[0].executions;
    let total_k: u64 = one_xb.iter().map(|e| e.report.pim_agg_subgroups).sum();
    let ratios = headline_speedups(runs).map(|ratio| ratio.to_string());
    let lead = [runs.setup.cfg.sf.to_string(), one_xb[0].report.pages.to_string()];
    lead.into_iter().chain(ratios).chain([total_k.to_string()]).collect()
}

/// Ablations of three design choices:
///
/// 1. **Aggregation circuit vs pure bulk-bitwise reduction** at the
///    paper geometry (closed-form per-crossbar costs).
/// 2. **two-xb placement**: worst-case split (all dimension attributes
///    away from the fact) vs the Section V-A optimisation (hot subgroup
///    identifiers co-located with the fact attributes).
/// 3. **Host scattered-read sensitivity**: how the hybrid GROUP-BY's k
///    decision shifts with the host's effective memory-level
///    parallelism on data-dependent reads.
fn ablation(cfg: &BenchConfig, _: &BinFlags) -> io::Result<()> {
    ablation_agg_paths();
    rule();
    let s = setup(cfg.clone());
    let q23 = s.queries.iter().find(|q| q.id == "Q2.3").expect("Q2.3");
    ablation_placement(&s, q23);
    rule();
    ablation_scatter(&s, q23);
    Ok(())
}

/// 1. Circuit vs reduction tree, per crossbar, paper geometry.
fn ablation_agg_paths() {
    let cfg = SimConfig::default();
    println!("Ablation 1 — aggregation circuit vs pure bulk-bitwise reduction");
    println!("(per crossbar, 1024x512, paper energy/latency constants)\n");
    // (cost, energy pJ) of one aggregation through the circuit
    let circuit = |width: usize| {
        let (value, dst) = (ColRange::new(32, width), ColRange::new(448, (width + 10).min(64)));
        let cost = AggRequest { op: ReduceOp::Sum, value, mask_col: 1, dst_row: 0, dst }.cost(&cfg);
        let energy_pj = cost.bits_read as f64 * cfg.read_energy_pj_per_bit
            + cost.bits_written as f64 * cfg.write_energy_pj_per_bit
            + cfg.agg_circuit_power_uw * cost.time_ns * 1e-3;
        (cost, energy_pj)
    };
    // (cost, time ns, energy pJ) of the pure bulk-bitwise reduction tree
    let tree = |width: usize| {
        let cost = reduce_cost(cfg.crossbar_rows, cfg.crossbar_cols, width, ReduceOp::Sum);
        let cells =
            cost.col_ops * cfg.crossbar_rows as u64 + cost.row_ops * cfg.crossbar_cols as u64;
        let time_ns = cost.cycles as f64 * cfg.logic_cycle_ns;
        (cost, time_ns, cells as f64 * cfg.logic_energy_fj_per_bit * 1e-3)
    };
    print_columns(
        &[16usize, 32, 48],
        &[
            ("value bits", &|w| w.to_string()),
            ("circuit [us]", &|&w| format!("{:.1}", circuit(w).0.time_ns / 1e3)),
            ("bitwise [us]", &|&w| format!("{:.1}", tree(w).1 / 1e3)),
            ("slowdown", &|&w| format!("{:.1}x", tree(w).1 / circuit(w).0.time_ns)),
            ("circuit [nJ]", &|&w| format!("{:.2}", circuit(w).1 / 1e3)),
            ("bitwise [nJ]", &|&w| format!("{:.2}", tree(w).2 / 1e3)),
            ("energy x", &|&w| format!("{:.1}x", tree(w).2 / circuit(w).1)),
            ("circuit cell-writes", &|&w| circuit(w).0.bits_written.to_string()),
            ("bitwise row-writes", &|&w| tree(w).0.max_row_cell_writes.to_string()),
        ],
    );
    println!("\n(the cell-write column is why the circuit also buys endurance: the");
    println!(" reduction tree rewrites thousands of cells per row per aggregation)");
}

/// 2. two-xb worst-case vs optimised placement on a GROUP BY query.
fn ablation_placement(s: &SsbSetup, q: &Query) {
    println!("Ablation 2 — two-xb placement: worst-case vs hot-keys-with-fact");
    println!(
        "(SF={}, query Q2.3: GROUP BY d_year, p_brand1; host slowed to the\n paper's regime — scatter_mlp 0.5 — so the model assigns subgroups to PIM)\n",
        s.cfg.sf
    );
    let mut sim = SimConfig::default();
    sim.host.scatter_mlp = 0.5;

    // Worst case: by-prefix split (all dimension attrs in partition 1);
    // its pim-gb pays a mask transfer per subgroup, and its calibration
    // (run in TwoXb mode) knows it.
    let mut worst =
        PimQueryEngine::new(sim.clone(), s.wide.clone(), EngineMode::TwoXb).expect("engine");
    worst.calibrate(&CalibrationConfig::default()).expect("calibration");
    let m = worst.page_count();
    let worst_tpim = worst.model().unwrap().pim.time_ns(m, 1).expect("calibrated");
    let worst_out = worst.run(q).expect("query");
    drop(worst);

    // Optimised: this query's subgroup identifiers live with the fact,
    // so its pim-gb path is transfer-free — calibrate it as such (the
    // DBA calibrates for the actual placement).
    let hot = ["d_year", "p_brand1"];
    let partition = |name: &str| if name.starts_with("lo_") || hot.contains(&name) { 0 } else { 1 };
    let layout =
        RecordLayout::build_custom(s.wide.schema(), &sim, 2, partition, &[]).expect("layout");
    let mut opt =
        PimQueryEngine::with_layout(sim.clone(), s.wide.clone(), EngineMode::TwoXb, layout)
            .expect("engine");
    let (_, transfer_free_model) =
        run_calibration(&sim, EngineMode::OneXb, &CalibrationConfig::default())
            .expect("calibration");
    let opt_tpim = transfer_free_model.pim.time_ns(m, 1).expect("calibrated");
    opt.set_model(transfer_free_model);
    let opt_out = opt.run(q).expect("query");

    assert_eq!(worst_out.groups, opt_out.groups, "placement must not change answers");
    let row = |placement: &str, tpim: f64, out: &QueryExecution| {
        vec![
            placement.to_string(),
            format!("{:.4}", tpim / 1e6),
            out.report.pim_agg_subgroups.to_string(),
            format!("{:.3}", out.report.time_ns / 1e6),
            format!("{:.4}", out.report.energy_pj * 1e-9),
        ]
    };
    print_table(
        &["placement", "T_pim-gb/subgroup [ms]", "k->PIM", "latency [ms]", "energy [mJ]"],
        &[
            row("worst-case (paper two_xb)", worst_tpim, &worst_out),
            row("hot keys with fact", opt_tpim, &opt_out),
        ],
    );
    println!("\n(the optimised placement removes the per-subgroup mask transfer: its");
    println!(" pim-gb is as cheap as one-xb's, so the model can move subgroups into");
    println!(" PIM — the paper's Section V-A remark about prior knowledge of hot keys.");
    println!(" At this small M the host path is still competitive in total latency;");
    println!(" the per-subgroup column is the placement effect itself, and it is what");
    println!(" scales with M at the paper's SF=10.)");
}

/// 3. k-decision sensitivity to the scattered-read model.
fn ablation_scatter(s: &SsbSetup, q: &Query) {
    println!("Ablation 3 — hybrid decision vs host scattered-read parallelism");
    println!("(SF={}, query Q2.3; scatter_mlp = in-flight misses per thread)\n", s.cfg.sf);
    let mut rows = Vec::new();
    for scatter_mlp in [0.5f64, 1.0, 4.0, 16.0] {
        let mut sim = SimConfig::default();
        sim.host.scatter_mlp = scatter_mlp;
        let mut engine =
            PimQueryEngine::new(sim, s.wide.clone(), EngineMode::OneXb).expect("engine");
        engine.calibrate(&CalibrationConfig::default()).expect("calibration");
        let out = engine.run(q).expect("query");
        rows.push(vec![
            format!("{scatter_mlp}"),
            out.report.pim_agg_subgroups.to_string(),
            out.report.total_subgroups.to_string(),
            format!("{:.3}", out.report.time_ns / 1e6),
        ]);
    }
    print_table(&["scatter_mlp", "k->PIM", "k_MAX", "latency [ms]"], &rows);
    println!("\n(a slower host pushes subgroups into PIM — the regime the paper's");
    println!(" gem5 host sits in; a faster host keeps the tail on the CPU)");
}

/// The journal follow-up's cluster scaling study: the 13 SSB queries on
/// a sharded multi-module cluster at each `--shards` count, plus an A/B
/// table attributing the host-channel byte diet lever by lever at the
/// largest count. Every merged answer is checked against the
/// row-at-a-time oracle before it is reported.
///
/// The default path is the normalized **star** cluster (PIM-side
/// semijoin bitmaps, two-crossbar modules), the storage model the byte
/// diet was built for. `--prejoined` runs the legacy pre-joined
/// one-crossbar sweep instead, with its hash-by-group-key partitioner
/// comparison; one calibration sweep serves every cluster it builds.
///
/// # Errors
///
/// The study's verdict ([`ScalingVerdict`]) fails.
fn scaling(cfg: &BenchConfig, flags: &BinFlags) -> io::Result<()> {
    let s = setup(cfg.clone());
    if !flags.switch("--prejoined") {
        // dimension filters on their own modules, compressed semijoin
        // bitmaps over the bus
        let star = |shards| {
            StarCluster::new(
                SimConfig::default(),
                &s.db,
                EngineMode::TwoXb,
                shards,
                Partitioner::RoundRobin,
            )
            .expect("star cluster construction")
        };
        let points = run_cluster_scaling(&s, &s.cfg.shards, star);
        println!("scaling path: star (default)\n");
        reports::print_scaling(&s, &points, true);
        let verdict = ScalingVerdict::of(&points);
        if let Some(verdict) = &verdict {
            print!("{}", verdict.shape_check());
        }
        return scaling_tail(&s, &points, verdict, star);
    }
    let (_, model) = fit_shared_model(EngineMode::OneXb);
    let cluster =
        |shards, partitioner| modelled_cluster(&s, EngineMode::OneXb, shards, partitioner, &model);
    let round_robin = |shards| cluster(shards, Partitioner::RoundRobin);
    let points = run_cluster_scaling(&s, &s.cfg.shards, round_robin);
    println!("scaling path: pre-joined (legacy)\n");
    reports::print_scaling(&s, &points, false);
    hash_by_key(&s, &points, cluster);
    scaling_tail(&s, &points, ScalingVerdict::of(&points), round_robin)
}

/// Hash partitioning keeps every subgroup on one shard: the merge is a
/// disjoint union and each shard's GROUP BY sees k/n subgroups. One hash
/// cluster per GROUP BY query (the key set differs), each running only
/// its own query, at 4 shards (or the largest count when 4 was not run).
fn hash_by_key(
    s: &SsbSetup,
    points: &[ClusterScalePoint],
    cluster: impl Fn(usize, Partitioner) -> ClusterEngine,
) {
    let max_shards = points.iter().map(|p| p.shards).max().expect("at least one shard count");
    let shards = if s.cfg.shards.contains(&4) { 4 } else { max_shards };
    println!("\nhash-by-group-key vs round-robin at {shards} shards (GROUP BY queries):\n");
    let rr_point = points.iter().find(|p| p.shards == shards).expect("hash-comparison shard point");
    let mut rows = Vec::new();
    for (q, rr) in s.queries.iter().zip(&rr_point.executions) {
        if !q.has_group_by() {
            continue;
        }
        let mut hashed = cluster(shards, Partitioner::hash_by_group_keys(&q.group_by));
        let out = hashed.run(q).unwrap_or_else(|e| panic!("hash shards on {}: {e}", q.id));
        assert_eq!(out.groups, rr.groups, "hash/round-robin mismatch on {}", q.id);
        let (rr_ns, hash_ns) = (rr.report.time_ns, out.report.time_ns);
        let partitioner = out.report.partitioner.to_string();
        rows.push(vec![
            q.id.clone(),
            partitioner,
            fmt_ms(rr_ns),
            fmt_ms(hash_ns),
            fmt_ratio(rr_ns / hash_ns),
        ]);
    }
    print_table(&["query", "partitioner", "round-robin", "hash-by-key", "rr/hash"], &rows);
}

/// What both scaling paths print after their own tables: the byte-diet
/// lever table at the largest shard count, the PIM capacity of the wide
/// relation next to the normalized star catalog, and the verdict.
fn scaling_tail<S: Storage>(
    s: &SsbSetup,
    points: &[ClusterScalePoint],
    verdict: Option<ScalingVerdict>,
    new_cluster: impl Fn(usize) -> Cluster<S>,
) -> io::Result<()> {
    let max_shards = points.iter().map(|p| p.shards).max().expect("at least one shard count");
    lever_table(s, max_shards, new_cluster);
    println!();
    reports::print_star_footprint(
        &bbpim_db::ssb::star::footprints(&s.db),
        &bbpim_db::ssb::star::table_footprint(&s.wide, &[]),
    );
    verdict.map_or(Ok(()), |v| v.check())
}

/// The lever attribution table at `shards`: each byte-diet lever
/// switched off individually against the all-on default, bracketed by
/// the default and the legacy (all-off) policy — per configuration, mean
/// host bytes per query and the contended geo-mean speedup over legacy.
fn lever_table<S: Storage>(s: &SsbSetup, shards: usize, new_cluster: impl Fn(usize) -> Cluster<S>) {
    println!("\nhost-channel byte diet at {shards} shards, contended (per-lever attribution):\n");
    let on = XferPolicy::default();
    let levers = [
        ("all-on (default)", on),
        ("compress_masks off", XferPolicy { compress_masks: false, ..on }),
        ("batch_dispatch off", XferPolicy { batch_dispatch: false, ..on }),
        ("module_reduce off", XferPolicy { module_reduce: false, ..on }),
        ("legacy (all off)", XferPolicy::legacy()),
    ];
    let run_policy = |(label, policy): (&'static str, XferPolicy)| {
        let mut c = new_cluster(shards);
        c.set_xfer_policy(policy);
        let run = |q: &Query| c.run(q).unwrap_or_else(|e| panic!("{} under lever A/B: {e}", q.id));
        (label, s.queries.iter().map(run).collect::<Vec<ClusterExecution>>())
    };
    let runs: Vec<_> = levers.into_iter().map(run_policy).collect();
    let legacy = &runs.last().expect("legacy row").1;
    // answers are lever-independent; the equivalence suite enforces
    // this against the oracle, the cheap cross-check here is free
    for (label, execs) in &runs {
        for (e, l) in execs.iter().zip(legacy) {
            assert_eq!(e.groups, l.groups, "lever answer drift under {label}");
        }
    }
    // host-channel bytes on the shared bus, summed over the per-shard logs
    let bytes_per_query = |execs: &[ClusterExecution]| {
        let shards = execs.iter().flat_map(|e| &e.report.per_shard);
        shards.map(|r| r.phases.host_bytes()).sum::<u64>() as f64 / execs.len().max(1) as f64
    };
    let legacy_bytes = bytes_per_query(legacy);
    let row = |(label, execs): &(&str, Vec<ClusterExecution>)| {
        let bytes = bytes_per_query(execs);
        let ratios = execs.iter().zip(legacy).map(|(e, l)| l.report.time_ns / e.report.time_ns);
        let wall: f64 = execs.iter().map(|e| e.report.time_ns).sum();
        vec![
            label.to_string(),
            format!("{bytes:.0}"),
            format!("{:.2}x", legacy_bytes / bytes.max(1.0)),
            fmt_ms(wall),
            geomean(ratios).to_string(),
        ]
    };
    print_table(
        &["policy", "host B/query", "bytes vs legacy", "total ms", "speedup vs legacy"],
        &runs.iter().map(row).collect::<Vec<_>>(),
    );
}

/// The journal follow-up's zone-map pruning study: pruned vs exhaustive
/// dispatch over all 13 SSB queries on a cluster range-partitioned on
/// `d_year` at each `--shards` count. Range placement on the attribute
/// Q1.x/Q3.x/Q4.x constrain makes shard zone maps narrow, so the planner
/// skips most shards pre-scatter and most pages inside the survivors;
/// Q2.x (no date filter) shows the no-pruning baseline. Both executions
/// of every query are checked against the row-at-a-time oracle.
fn pruning(cfg: &BenchConfig, _: &BinFlags) -> io::Result<()> {
    let s = setup(cfg.clone());
    let points = run_pruning_study(&s, EngineMode::OneXb, &s.cfg.shards, "d_year");
    reports::print_pruning(&s, &points);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invocation(line: &str) -> Result<Invocation, CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Invocation::new(&args)
    }

    #[test]
    fn a_selection_accepts_exactly_the_flags_its_selectors_read() {
        let names = |inv: &Invocation| inv.selectors.iter().map(|s| s.name).collect::<Vec<_>>();
        let all = invocation("--sf 0.01 --fig all --csv out").unwrap();
        assert_eq!((names(&all), all.banner), (ALL.to_vec(), true));
        assert!(all.config(0.1).is_ok());
        let list = invocation("--fig table1,5").unwrap();
        assert_eq!((names(&list), list.banner), (vec!["table1", "5"], false));
        // table1 and Fig. 5 read no flag at all; Fig. 4 only --mode
        for (line, flag) in [
            ("--fig table1,5 --bogus", "--bogus"),
            ("--fig 5 --sf 0.01", "--sf"),
            ("--fig 4 --seed 7", "--seed"),
            ("--fig 7 --threads 2", "--threads"),
            ("--fig 7 --trace t.json", "--trace"),
            ("--fig 6 --mode one_xb", "--mode"),
            ("--fig sweep --sf 0.01", "--sf"),
            ("--fig table1 --csv out", "--csv"),
        ] {
            let err = invocation(line).unwrap().config(0.1).unwrap_err();
            assert_eq!(err, CliError::UnknownFlag(flag.into()), "{line}");
        }
        assert!(invocation("--fig 4 --mode two_xb").unwrap().config(0.1).is_ok());
        assert!(invocation("--fig 6,sweep --threads 2 --uniform").unwrap().config(0.1).is_ok());
        assert!(matches!(invocation("--fig 7,fig8"), Err(CliError::BadValue(..))));
        assert!(matches!(invocation("--sf 0.01"), Err(CliError::MissingValue(_))));
    }

    #[test]
    fn only_the_cluster_studies_read_shards_and_only_scaling_reads_prejoined() {
        let config = |line: &str| invocation(line).unwrap().config(0.1);
        let (cfg, flags) = config("--fig scaling --sf 0.01 --shards 1,4 --prejoined").unwrap();
        assert_eq!((cfg.shards, flags.switch("--prejoined")), (vec![1, 4], true));
        let (cfg, flags) = config("--fig pruning --uniform --shards 1,4").unwrap();
        assert_eq!((cfg.shards, flags.switch("--prejoined")), (vec![1, 4], false));
        assert!(config("--fig scaling,pruning --shards 2 --prejoined").is_ok());
        for (line, flag) in [
            ("--fig pruning --prejoined", "--prejoined"),
            ("--fig pruning --threads 2", "--threads"),
            ("--fig scaling --threads 2", "--threads"),
            ("--fig 7 --shards 4", "--shards"),
            ("--fig 7 --prejoined", "--prejoined"),
        ] {
            assert_eq!(config(line).unwrap_err(), CliError::UnknownFlag(flag.into()), "{line}");
        }
    }

    /// A query the planner answers alone costs zero in every system;
    /// the sweep skips its 0/0 ratios and marks the geo-means for the
    /// footnote instead of panicking.
    #[test]
    fn a_zero_time_row_is_skipped_in_the_sweep() {
        let cfg = BenchConfig { sf: 0.001, skewed: false, ..BenchConfig::default() };
        let mut runs = PaperRuns::collect(cfg, true).unwrap();
        let row = sweep_row(&runs);
        assert!(row.iter().all(|cell| !cell.ends_with('*')), "{row:?}");
        for run in &mut runs.pim {
            run.executions[1].report.time_ns = 0.0;
        }
        for run in &mut runs.monet {
            run.results[1].0 = std::time::Duration::ZERO;
        }
        let row = sweep_row(&runs);
        assert_eq!(row.len(), 8, "{row:?}");
        assert!(row[2..7].iter().all(|ratio| ratio.ends_with("x*")), "{row:?}");
    }

    #[test]
    fn ablation_defaults_to_sf_0_05_unless_sf_is_given() {
        let ablation = SELECTORS.iter().find(|s| s.name == "ablation").unwrap();
        let sf = |line: &str| invocation(line).unwrap().config(ablation.default_sf).unwrap().0.sf;
        assert_eq!(sf("--fig ablation"), 0.05);
        assert_eq!(sf("--fig ablation --sf 0.1"), 0.1, "an explicit --sf 0.1 used to run at 0.05");
        assert_eq!(sf("--fig ablation --sf 0.02"), 0.02);
    }
}
