//! `bbpim-perf` — the two-clock benchmark of the bbpim workspace.
//!
//! Four workloads, each measured from outside through the `bbpim`
//! facade: end-to-end metrics from an untraced run, per-layer metrics
//! from a traced run with benchmark-side spans. Every number names its
//! clock: *sim* (the modelled hardware's ns / pJ / bytes, exact per
//! seed) or *host* (wall seconds this machine burned, the fastest of
//! several passes). See `README.md` for the catalogue.

mod catalog;
mod check;
mod cli;
mod json;
mod report;
mod result;
mod run;
mod span;
mod stats;
mod tap;
mod trace_probe;
mod workloads;

use std::process::{Command, ExitCode};

use catalog::{Contract, WORKLOADS};
use cli::Common;
use result::RunResult;
use run::RunOpts;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        cli::Command::Help => {
            println!("{}", cli::USAGE);
            Ok(true)
        }
        cli::Command::Run { workload, traced, common } => run_one(&workload, traced, &common),
        cli::Command::All { traced, common } => run_all(traced, &common),
        cli::Command::Check { a, b } => check::run(&a, &b),
        cli::Command::Calibrate { seed } => {
            calibrate(seed);
            Ok(true)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn seconds_of(common: &Common, contract: &Contract) -> f64 {
    common.seconds.unwrap_or(contract.run_seconds as f64)
}

/// One workload in this process. The last stdout line is the driver's
/// JSON object: the end-to-end metrics of an untraced run, the
/// per-layer metrics of a traced one.
fn run_one(workload: &str, traced: bool, common: &Common) -> Result<bool, String> {
    let contract = Contract::embedded();
    let opts = RunOpts {
        workload: workload.into(),
        seed: common.seed,
        seconds: seconds_of(common, &contract),
        traced,
        smoke: common.smoke,
        out: common.out.clone(),
    };
    let result = run::run(&opts)?;
    report::print(&result);
    let wanted = if traced { &contract.per_layer } else { &contract.end_to_end };
    println!("{}", result.contract_line(wanted)?);
    Ok(true)
}

/// Every workload, each in a child process of its own so `peak_rss_mb`
/// is per workload; with `traced`, a second child per workload for the
/// per-layer metrics. The children print their own reports.
fn run_all(traced: bool, common: &Common) -> Result<bool, String> {
    let contract = Contract::embedded();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let mut child = Command::new(&exe);
            child
                .arg("run")
                .args(["--workload", w.name])
                .args(["--seed", &common.seed.to_string()])
                .args(["--seconds", &seconds_of(common, &contract).to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&common.out);
            if common.smoke {
                child.arg("--smoke");
            }
            let status =
                child.status().map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
            if !status.success() {
                return Err(format!(
                    "the {} child ({}) failed: {status}",
                    w.name,
                    if trace { "traced" } else { "untraced" }
                ));
            }
        }
        let load = |file: String| RunResult::load(&common.out.join(file));
        let plain = load(format!("{}.json", w.name))?;
        ok &= plain.correct();
        if traced {
            // the traced child measured the same seed: its deterministic
            // end-to-end metrics must equal the untraced child's exactly
            let spanned = load(format!("{}.traced.json", w.name))?;
            ok &= spanned.correct();
            for def in catalog::END_TO_END.iter().filter(|d| d.clock.deterministic()) {
                let (a, b) = (plain.value(def.name), spanned.value(def.name));
                if a != b {
                    return Err(format!(
                        "{}: {} differs between the untraced and the traced run ({a:?} vs {b:?})",
                        w.name, def.name
                    ));
                }
            }
        }
    }
    println!(
        "\nall {} workloads ran; results in {} ({})",
        WORKLOADS.len(),
        common.out.display(),
        if ok { "every answer matched the row oracle" } else { "SOME ANSWERS FAILED" }
    );
    Ok(ok)
}

/// Print the measurements the frozen load constants were taken from,
/// beside the constants, so a drift of the code under test is visible
/// without moving the goalposts.
fn calibrate(seed: u64) {
    use workloads::{serve_tenants as serve, stream_htap as stream};
    let service = stream::mean_service_ns(seed);
    println!("seed {seed}");
    println!(
        "stream_htap: mean serial service {service:.0} ns -> a quarter is {:.0} ns (frozen INTERARRIVAL_NS = {})",
        service / 4.0,
        stream::INTERARRIVAL_NS
    );
    let [light, heavy, batch] = serve::mean_busy_ns(seed);
    println!(
        "serve_tenants: mean busy light {light:.0} ns, heavy {heavy:.0} ns, batch {batch:.0} ns (frozen {} / {} / {})",
        serve::LIGHT_BUSY_NS,
        serve::HEAVY_BUSY_NS,
        serve::BATCH_BUSY_NS
    );
    println!("SLO limits are 2x the sim_lat_p95_ms an untraced run of each workload prints at this seed.");
}
