//! The study binaries must reject a command line they do not understand
//! with exit code 2 and a usage line — before generating any data.

use std::process::Command;

fn rejected(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn the study binary");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2");
    assert!(out.stdout.is_empty(), "{bin} {args:?} must not start its report");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.lines().any(|l| l.starts_with("usage: ")), "{stderr}");
    stderr
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    let scaling = env!("CARGO_BIN_EXE_scaling");
    assert!(rejected(scaling, &["--sf", "abc"]).contains("--sf \"abc\""));
    assert!(rejected(scaling, &["--shard", "4"]).contains("unknown flag \"--shard\""));
    assert!(rejected(scaling, &["--uniform", "--arrivals"]).contains("--arrivals needs a value"));
    assert!(rejected(scaling, &["--shards", "0"]).contains("a number > 0"));
    // a binary's own flag is unknown to every other binary
    assert!(rejected(scaling, &["--prejoined", "--x"]).contains("[--prejoined]"));
    assert!(rejected(env!("CARGO_BIN_EXE_streaming"), &["--prejoined"]).contains("--prejoined"));
    assert!(rejected(env!("CARGO_BIN_EXE_fig4"), &["--mode", "fast"]).contains("pimdb|two_xb"));
}
