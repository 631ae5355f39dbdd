//! The harness binaries must reject a command line they do not
//! understand with exit code 2 and a usage line, and an output path
//! they cannot write with exit code 1 — both before generating any data.

use std::process::Command;

/// Run `bin args`, expecting `code` and an untouched stdout; returns stderr.
fn fails(bin: &str, args: &[&str], code: i32) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn the harness binary");
    assert_eq!(out.status.code(), Some(code), "{bin} {args:?} must exit {code}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} must not start its report");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

fn rejected(bin: &str, args: &[&str]) -> String {
    let stderr = fails(bin, args, 2);
    assert!(stderr.lines().any(|l| l.starts_with("usage: ")), "{stderr}");
    stderr
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    let scaling = env!("CARGO_BIN_EXE_scaling");
    assert!(rejected(scaling, &["--sf", "abc"]).contains("--sf \"abc\""));
    assert!(rejected(scaling, &["--shard", "4"]).contains("unknown flag \"--shard\""));
    assert!(rejected(scaling, &["--uniform", "--shards"]).contains("--shards needs a value"));
    assert!(rejected(scaling, &["--shards", "0"]).contains("a number > 0"));
    // a binary's own flag is unknown to every other binary
    assert!(rejected(scaling, &["--prejoined", "--x"]).contains("[--prejoined]"));
    assert!(rejected(env!("CARGO_BIN_EXE_pruning"), &["--prejoined"]).contains("--prejoined"));
    let paper = env!("CARGO_BIN_EXE_paper");
    assert!(rejected(paper, &["--fig", "4", "--mode", "fast"]).contains("pimdb|two_xb"));
    assert!(rejected(paper, &["--fig", "fig7"]).contains("table1|table2|4|5|6|7|8|9"));
    assert!(rejected(paper, &[]).contains("--fig needs a value"));
}

#[test]
fn a_shared_flag_the_binary_would_ignore_exits_2() {
    // a flag the binary would not read is rejected, never accepted and
    // ignored: `pruning` runs no baseline threads, `table1` reads nothing
    let usage = rejected(env!("CARGO_BIN_EXE_pruning"), &["--threads", "2"]);
    assert!(usage.contains("unknown flag \"--threads\"") && usage.contains("[--shards <n,n,..>]"));
    assert!(!usage.contains("[--threads"), "the usage line shows only what applies: {usage}");
    rejected(env!("CARGO_BIN_EXE_scaling"), &["--threads", "2"]);
    let paper = env!("CARGO_BIN_EXE_paper");
    rejected(paper, &["--fig", "table1", "--bogus"]);
    rejected(paper, &["--fig", "5", "--sf", "0.01"]);
    rejected(paper, &["--fig", "6", "--shards", "4"]);
    rejected(paper, &["--fig", "sweep", "--sf", "0.01"]);
    rejected(paper, &["--fig", "table1", "--csv", "out"]);
}

#[test]
fn the_retired_snapshot_flag_exits_2_on_every_study() {
    // `--json` fed the snapshot gate `bbpim-perf check` replaced, and
    // `--trace` / `--metrics` the exports of the retired streamed
    // studies; a flag that writes nothing is not accepted and ignored
    let studies = [env!("CARGO_BIN_EXE_scaling"), env!("CARGO_BIN_EXE_pruning")];
    for bin in studies {
        for flag in ["--json", "--trace", "--metrics"] {
            let usage = rejected(bin, &["--sf", "0.002", flag, "x.json"]);
            assert!(usage.contains(&format!("unknown flag \"{flag}\"")), "{bin}: {usage}");
            let shown = |l: &str| l.starts_with("usage: ") && l.contains(&flag[2..]);
            assert!(!usage.lines().any(shown), "{usage}");
        }
    }
}

#[test]
fn an_unwritable_output_path_exits_1_before_the_study_runs() {
    // a path under a regular file can never be created
    let under_a_file = format!("{}/out", env!("CARGO_BIN_EXE_scaling"));
    let args = ["--fig", "7", "--sf", "0.002", "--csv", &under_a_file];
    let stderr = fails(env!("CARGO_BIN_EXE_paper"), &args, 1);
    assert!(stderr.starts_with(&format!("error: cannot write {under_a_file}: ")), "{stderr}");
}
