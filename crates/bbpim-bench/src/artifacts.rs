//! Every file the harness writes goes through this module: the
//! `paper --csv` figure tables. (The simulated numbers CI gates are not
//! written here: they are `bbpim-perf`'s result files, checked against
//! `bench/sim/`.)
//!
//! Nothing here panics on a filesystem failure: every writer returns an
//! `io::Result` whose error names the path, and a binary's `main` hands
//! its result to [`exit_code`] (`error: cannot write <path>: <why>`,
//! exit 1). [`probe_dir`] runs *before* data generation, so a long run
//! cannot end in a lost table.

use std::fs;
use std::io;
use std::path::Path;
use std::process::ExitCode;

/// Name the path in a filesystem error (`io::Error` alone does not).
fn named(path: &str, result: io::Result<()>) -> io::Result<()> {
    result.map_err(|e| io::Error::new(e.kind(), format!("cannot write {path}: {e}")))
}

/// Create the directory `path` will live in.
fn create_parent(path: &str) -> io::Result<()> {
    fs::create_dir_all(Path::new(path).parent().unwrap_or(Path::new("")))
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
