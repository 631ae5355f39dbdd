//! The harness binary must reject a command line it does not understand
//! with exit code 2 and a usage line, and an output path it cannot
//! write with exit code 1 — both before generating any data.

use std::process::Command;

const PAPER: &str = env!("CARGO_BIN_EXE_paper");

/// Run `paper args`, expecting `code` and an untouched stdout; returns stderr.
fn fails(args: &[&str], code: i32) -> String {
    let out = Command::new(PAPER).args(args).output().expect("spawn the harness binary");
    assert_eq!(out.status.code(), Some(code), "paper {args:?} must exit {code}");
    assert!(out.stdout.is_empty(), "paper {args:?} must not start its report");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

fn rejected(args: &[&str]) -> String {
    let stderr = fails(args, 2);
    assert!(stderr.lines().any(|l| l.starts_with("usage: ")), "{stderr}");
    stderr
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    let scaling = |args: &[&str]| rejected(&[&["--fig", "scaling"], args].concat());
    assert!(scaling(&["--sf", "abc"]).contains("--sf \"abc\""));
    assert!(scaling(&["--shard", "4"]).contains("unknown flag \"--shard\""));
    assert!(scaling(&["--uniform", "--shards"]).contains("--shards needs a value"));
    assert!(scaling(&["--shards", "0"]).contains("a number > 0"));
    // a selector's own flag is unknown to every other selection
    assert!(scaling(&["--prejoined", "--x"]).contains("[--prejoined]"));
    assert!(rejected(&["--fig", "pruning", "--prejoined"]).contains("--prejoined"));
    assert!(rejected(&["--fig", "4", "--mode", "fast"]).contains("pimdb|two_xb"));
    let usage = rejected(&["--fig", "fig7"]);
    assert!(usage.contains("table1|table2|4|5|6|7|8|9") && usage.contains("scaling|pruning"));
    assert!(rejected(&[]).contains("--fig needs a value"));
}

#[test]
fn a_shared_flag_the_binary_would_ignore_exits_2() {
    // a flag the selection would not read is rejected, never accepted and
    // ignored: `pruning` runs no baseline threads, `table1` reads nothing
    let usage = rejected(&["--fig", "pruning", "--threads", "2"]);
    assert!(usage.contains("unknown flag \"--threads\"") && usage.contains("[--shards <n,n,..>]"));
    assert!(!usage.contains("[--threads"), "the usage line shows only what applies: {usage}");
    rejected(&["--fig", "scaling", "--threads", "2"]);
    rejected(&["--fig", "table1", "--bogus"]);
    rejected(&["--fig", "5", "--sf", "0.01"]);
    rejected(&["--fig", "6", "--shards", "4"]);
    rejected(&["--fig", "7", "--shards", "4"]);
    rejected(&["--fig", "sweep", "--sf", "0.01"]);
    rejected(&["--fig", "table1", "--csv", "out"]);
}

#[test]
fn the_retired_snapshot_flag_exits_2_on_every_study() {
    // `--json` fed the snapshot gate `bbpim-perf check` replaced, and
    // `--trace` / `--metrics` the exports of the retired streamed
    // studies; a flag that writes nothing is not accepted and ignored
    for study in ["scaling", "pruning"] {
        for flag in ["--json", "--trace", "--metrics"] {
            let usage = rejected(&["--fig", study, "--sf", "0.002", flag, "x.json"]);
            assert!(usage.contains(&format!("unknown flag \"{flag}\"")), "{study}: {usage}");
            let shown = |l: &str| l.starts_with("usage: ") && l.contains(&flag[2..]);
            assert!(!usage.lines().any(shown), "{usage}");
        }
    }
}

#[test]
fn an_unwritable_output_path_exits_1_before_the_study_runs() {
    // a path under a regular file can never be created
    let under_a_file = format!("{PAPER}/out");
    let args = ["--fig", "7", "--sf", "0.002", "--csv", &under_a_file];
    let stderr = fails(&args, 1);
    assert!(stderr.starts_with(&format!("error: cannot write {under_a_file}: ")), "{stderr}");
}
