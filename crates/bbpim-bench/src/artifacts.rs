//! Every file the harness writes goes through this module: the
//! `--trace` Perfetto export with its `.jsonl` sidecar, the `--metrics`
//! registry snapshot with its `.prom` sidecar, and the `paper --csv`
//! figure tables. (The simulated numbers CI gates are not written here:
//! they are `bbpim-perf`'s result files, checked against `bench/sim/`.)
//!
//! Nothing here panics on a filesystem failure: every writer returns an
//! `io::Result` whose error names the path, and a binary's `main` hands
//! its result to [`exit_code`] (`error: cannot write <path>: <why>`,
//! exit 1). [`probe`] / [`probe_dir`] run *before* data generation, so
//! a long study cannot end in a lost trace.

use std::fs;
use std::io;
use std::path::Path;
use std::process::ExitCode;

use bbpim_trace::export::{jsonl, perfetto_json};
use bbpim_trace::{MetricsRegistry, TraceRecorder};

use crate::BenchConfig;

/// Name the path in a filesystem error (`io::Error` alone does not).
fn named(path: &str, result: io::Result<()>) -> io::Result<()> {
    result.map_err(|e| io::Error::new(e.kind(), format!("cannot write {path}: {e}")))
}

/// `path` with its extension replaced by `ext` (the sidecar naming).
fn sibling(path: &str, ext: &str) -> String {
    Path::new(path).with_extension(ext).to_string_lossy().into_owned()
}

/// Create the directory `path` will live in.
fn create_parent(path: &str) -> io::Result<()> {
    fs::create_dir_all(Path::new(path).parent().unwrap_or(Path::new("")))
}

/// Check that every output file `cfg` asks for (sidecars included) can
/// be written — parent directories created, the file itself creatable —
/// without touching the contents of one that already exists.
///
/// # Errors
///
/// The first path that cannot be created.
pub fn probe(cfg: &BenchConfig) -> io::Result<()> {
    let with_sidecar = |path: &Option<String>, ext| {
        path.iter().flat_map(|p| [p.clone(), sibling(p, ext)]).collect::<Vec<_>>()
    };
    let paths =
        with_sidecar(&cfg.trace, "jsonl").into_iter().chain(with_sidecar(&cfg.metrics, "prom"));
    for path in paths {
        let create = || fs::OpenOptions::new().append(true).create(true).open(&path).map(drop);
        named(&path, create_parent(&path).and_then(|()| create()))?;
    }
    Ok(())
}

/// Create the `--csv` output directory.
///
/// # Errors
///
/// The directory cannot be created.
pub fn probe_dir(dir: &str) -> io::Result<()> {
    named(dir, fs::create_dir_all(dir))
}

/// Write `body` to `path`, creating parent directories as needed.
fn write(path: &str, body: &str) -> io::Result<()> {
    named(path, create_parent(path).and_then(|()| fs::write(path, body)))
}

/// The recorder a study threads through its traced run: collecting
/// exactly when `--trace` will export it.
pub fn recorder(cfg: &BenchConfig) -> TraceRecorder {
    if cfg.trace.is_some() {
        TraceRecorder::enabled()
    } else {
        TraceRecorder::disabled()
    }
}

/// Write what `--trace` and `--metrics` asked for: the recorded run as
/// Chrome/Perfetto `trace_event` JSON plus its flat-JSONL sidecar, and
/// the registry snapshot as flat JSON plus its Prometheus-text sidecar.
///
/// # Errors
///
/// A requested path cannot be written.
pub fn write_observability(
    cfg: &BenchConfig,
    trace: &TraceRecorder,
    reg: &MetricsRegistry,
) -> io::Result<()> {
    if let Some(path) = &cfg.trace {
        let flat = sibling(path, "jsonl");
        write(path, &perfetto_json(trace))?;
        write(&flat, &jsonl(trace))?;
        println!("\nwrote Perfetto trace to {path} ({} events; flat JSONL: {flat})", trace.len());
    }
    if let Some(path) = &cfg.metrics {
        let prom = sibling(path, "prom");
        write(path, &reg.snapshot_json())?;
        write(&prom, &reg.prometheus_text())?;
        println!("\nwrote metrics snapshot to {path} (Prometheus text: {prom})");
    }
    Ok(())
}

/// Write `<dir>/<name>.csv` for each `(name, body)` table.
///
/// # Errors
///
/// A file cannot be written.
pub fn write_csvs(dir: &str, tables: &[(&str, String)]) -> io::Result<()> {
    for (name, body) in tables {
        write(&format!("{dir}/{name}.csv"), body)?;
    }
    eprintln!("CSVs written to {dir}");
    Ok(())
}

/// A binary's exit: success, or the error on stderr and exit code 1.
pub fn exit_code(result: io::Result<()>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
