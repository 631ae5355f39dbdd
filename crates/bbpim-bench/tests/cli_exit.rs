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
    assert!(rejected(env!("CARGO_BIN_EXE_streaming"), &["--prejoined"]).contains("--prejoined"));
    let paper = env!("CARGO_BIN_EXE_paper");
    assert!(rejected(paper, &["--fig", "4", "--mode", "fast"]).contains("pimdb|two_xb"));
    assert!(rejected(paper, &["--fig", "fig7"]).contains("table1|table2|4|5|6|7|8|9"));
    assert!(rejected(paper, &[]).contains("--fig needs a value"));
}

#[test]
fn a_shared_flag_the_binary_would_ignore_exits_2() {
    // accepted-and-ignored used to be the rule: `pruning --trace t.json`
    // wrote nothing, `table1 --bogus` exited 0
    let usage = rejected(env!("CARGO_BIN_EXE_pruning"), &["--trace", "t.json"]);
    assert!(usage.contains("unknown flag \"--trace\"") && usage.contains("[--shards <n,n,..>]"));
    assert!(!usage.contains("--metrics"), "the usage line shows only what applies: {usage}");
    rejected(env!("CARGO_BIN_EXE_scaling"), &["--arrivals", "5"]);
    rejected(env!("CARGO_BIN_EXE_serve"), &["--load", "2"]);
    let paper = env!("CARGO_BIN_EXE_paper");
    rejected(paper, &["--fig", "table1", "--bogus"]);
    rejected(paper, &["--fig", "5", "--sf", "0.01"]);
    rejected(paper, &["--fig", "6", "--trace", "t.json"]);
    rejected(paper, &["--fig", "sweep", "--sf", "0.01"]);
    rejected(paper, &["--fig", "table1", "--csv", "out"]);
}

#[test]
fn the_retired_snapshot_flag_exits_2_on_every_study() {
    // `--json` fed the snapshot gate `bbpim-perf check` replaced; a
    // flag that writes nothing is not accepted and ignored
    let studies = [
        env!("CARGO_BIN_EXE_scaling"),
        env!("CARGO_BIN_EXE_pruning"),
        env!("CARGO_BIN_EXE_streaming"),
        env!("CARGO_BIN_EXE_join"),
        env!("CARGO_BIN_EXE_serve"),
        env!("CARGO_BIN_EXE_htap"),
    ];
    for bin in studies {
        let usage = rejected(bin, &["--sf", "0.002", "--json", "x.json"]);
        assert!(usage.contains("unknown flag \"--json\""), "{bin}: {usage}");
        assert!(!usage.lines().any(|l| l.starts_with("usage: ") && l.contains("json")), "{usage}");
    }
}

#[test]
fn an_unwritable_output_path_exits_1_before_the_study_runs() {
    // a path under a regular file can never be created
    let under_a_file = format!("{}/trace.json", env!("CARGO_BIN_EXE_scaling"));
    let cannot_write = format!("error: cannot write {under_a_file}: ");
    for flag in ["--metrics", "--trace"] {
        for bin in [env!("CARGO_BIN_EXE_streaming"), env!("CARGO_BIN_EXE_htap")] {
            let stderr = fails(bin, &["--sf", "0.002", flag, &under_a_file], 1);
            assert!(stderr.starts_with(&cannot_write), "{bin} {flag}: {stderr}");
        }
    }
    let args = ["--fig", "7", "--sf", "0.002", "--csv", &under_a_file];
    assert!(fails(env!("CARGO_BIN_EXE_paper"), &args, 1).contains("error: cannot write"));
}
