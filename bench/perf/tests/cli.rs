//! The binary from the outside: bad input is rejected with a usage
//! line, and a `--smoke` run of every workload emits the full metric
//! set in the driver's format.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

fn bbpim_perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bbpim-perf")).args(args).output().expect("the binary starts")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bbpim-perf-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `"name": "<x>"` values of one list of `BENCHMARK.json`.
fn contract_names(key: &str) -> BTreeSet<String> {
    let start = BENCHMARK_JSON.find(&format!("\"{key}\"")).expect("contract list");
    let list = &BENCHMARK_JSON[start..];
    let list = &list[..list.find(']').expect("list end")];
    list.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name end")].to_string())
        .collect()
}

/// The metric names in the last stdout line of a run.
fn emitted_names(out: &Output) -> BTreeSet<String> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "unexpected result line: {last}"
    );
    assert!(last.contains("\"failed\": 0, "), "ops failed: {last}");
    let metrics =
        &last[last.find("\"metrics\": {").expect("metrics object") + "\"metrics\": {".len()..];
    metrics
        .split("\": {\"value\": ")
        .map(|s| s[s.rfind('"').map_or(0, |i| i + 1)..].to_string())
        .filter(|s| !s.contains('}'))
        .collect()
}

#[test]
fn bad_invocations_exit_non_zero_with_a_usage_line() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["run"],
        &["run", "--workload", "tpch"],
        &["run", "--workload", "ssb_modes", "--sf", "0.1"],
        &["run", "--workload", "ssb_modes", "--seed", "many"],
        &["run", "--workload", "ssb_modes", "--seconds", "soon"],
        &["run", "--workload", "ssb_modes", "--trace", "yes"],
        &["all", "--workload", "ssb_modes"],
        &["check", "only-one-dir"],
    ] {
        let out = bbpim_perf(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: bbpim-perf"), "{args:?}: no usage line in {stderr:?}");
    }
}

#[test]
fn check_of_a_missing_result_set_fails_without_a_table() {
    let out = bbpim_perf(&["check", "/nonexistent/a", "/nonexistent/b"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn smoke_run_emits_the_full_metric_set_and_checks_against_itself() {
    let dir = scratch("smoke");
    let out_dir = dir.to_str().expect("utf-8 temp path");
    let end_to_end = contract_names("end_to_end");
    let per_layer = contract_names("per_layer");
    assert!(end_to_end.contains("setup_s") && per_layer.len() > 100);
    for workload in contract_names("workloads") {
        let plain = bbpim_perf(&["run", "--workload", &workload, "--smoke", "--out", out_dir]);
        assert!(plain.status.success(), "{workload}: {}", String::from_utf8_lossy(&plain.stderr));
        assert_eq!(emitted_names(&plain), end_to_end, "{workload} untraced");
        let traced = bbpim_perf(&[
            "run",
            "--workload",
            &workload,
            "--smoke",
            "--trace",
            "1",
            "--out",
            out_dir,
        ]);
        assert!(traced.status.success(), "{workload}: {}", String::from_utf8_lossy(&traced.stderr));
        assert_eq!(emitted_names(&traced), per_layer, "{workload} traced");
        let spans = std::fs::read_to_string(dir.join(format!("{workload}.spans.jsonl")))
            .expect("span file");
        assert!(
            spans.lines().count() > 10 && spans.contains("\"name\":\"setup\""),
            "{workload} spans"
        );
    }
    // a result set compared with itself: every sim row identical, no breach
    let check = bbpim_perf(&["check", out_dir, out_dir]);
    let table = String::from_utf8_lossy(&check.stdout);
    assert!(check.status.success(), "{table}");
    assert!(table.contains("0 breach, 0 differ"), "{table}");
    let _ = std::fs::remove_dir_all(&dir);
}
