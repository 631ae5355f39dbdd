//! Strict command-line parsing: an unknown subcommand, flag or
//! workload, a missing or non-numeric value — each is an error with a
//! usage line, never a silent fallback to defaults.

use std::path::PathBuf;

use crate::catalog::WORKLOADS;

pub const USAGE: &str = "\
usage: bbpim-perf run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>]
       bbpim-perf all [--seed <n>] [--seconds <s>] [--traced] [--smoke] [--out <dir>]
       bbpim-perf check <dir-a> <dir-b>
       bbpim-perf calibrate [--seed <n>]
workloads: ssb_modes star_join stream_htap serve_tenants";

/// Default seed (the workspace's `0xB17B17`).
pub const DEFAULT_SEED: u64 = 0xB1_7B17;
/// Default output directory, relative to the working directory.
pub const DEFAULT_OUT: &str = "bench-out/perf";

/// Flags `run` and `all` share.
#[derive(Debug, Clone, PartialEq)]
pub struct Common {
    pub seed: u64,
    /// `None`: the contract's `run_seconds`.
    pub seconds: Option<f64>,
    pub smoke: bool,
    pub out: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// One workload in this process; the last stdout line is the
    /// driver's JSON object.
    Run {
        workload: String,
        traced: bool,
        common: Common,
    },
    /// Every workload, each in a child process.
    All {
        traced: bool,
        common: Common,
    },
    /// Compare two result sets.
    Check {
        a: PathBuf,
        b: PathBuf,
    },
    /// Print what the frozen load constants were derived from.
    Calibrate {
        seed: u64,
    },
    Help,
}

fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// Parse the arguments after the program name.
///
/// # Errors
///
/// A one-line description of the first offending argument.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "check" => match rest {
            [a, b] if !a.starts_with("--") && !b.starts_with("--") => {
                Ok(Command::Check { a: a.into(), b: b.into() })
            }
            _ => Err("check takes exactly two result directories".into()),
        },
        "calibrate" => match rest {
            [] => Ok(Command::Calibrate { seed: DEFAULT_SEED }),
            [flag, v] if flag == "--seed" => parse_seed(v)
                .map(|seed| Command::Calibrate { seed })
                .ok_or_else(|| format!("--seed: {v:?} is not a whole number")),
            _ => Err("calibrate takes only --seed <n>".into()),
        },
        "run" | "all" => {
            let is_run = sub == "run";
            let mut common =
                Common { seed: DEFAULT_SEED, seconds: None, smoke: false, out: DEFAULT_OUT.into() };
            let mut workload = None;
            let mut traced = false;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
                match flag.as_str() {
                    "--seed" => {
                        let v = value()?;
                        common.seed = parse_seed(v)
                            .ok_or_else(|| format!("--seed: {v:?} is not a whole number"))?;
                    }
                    "--seconds" => {
                        let v = value()?;
                        common.seconds = Some(
                            v.parse::<f64>()
                                .ok()
                                .filter(|s| s.is_finite() && *s > 0.0)
                                .ok_or_else(|| {
                                    format!("--seconds: {v:?} is not a positive number")
                                })?,
                        );
                    }
                    "--smoke" => common.smoke = true,
                    "--out" => common.out = value()?.into(),
                    "--workload" if is_run => {
                        let v = value()?;
                        if !WORKLOADS.iter().any(|w| w.name == v) {
                            return Err(format!("--workload: unknown workload {v:?}"));
                        }
                        workload = Some(v.clone());
                    }
                    "--trace" if is_run => {
                        let v = value()?;
                        traced = match v.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(format!("--trace: {v:?} is neither 0 nor 1")),
                        };
                    }
                    "--traced" if !is_run => traced = true,
                    other => return Err(format!("unknown flag {other:?} for {sub}")),
                }
            }
            if is_run {
                let workload = workload.ok_or("run needs --workload <name>")?;
                Ok(Command::Run { workload, traced, common })
            } else {
                Ok(Command::All { traced, common })
            }
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let c = parse(&args("run --workload star_join --seed 7 --seconds 12 --trace 1")).unwrap();
        let Command::Run { workload, traced, common } = c else { panic!("not a run") };
        assert_eq!(
            (workload.as_str(), traced, common.seed, common.seconds),
            ("star_join", true, 7, Some(12.0))
        );
        assert_eq!(common.out, PathBuf::from(DEFAULT_OUT));
    }

    #[test]
    fn parses_all_and_check_and_hex_seeds() {
        let c = parse(&args("all --seed 0xB17B17 --traced --smoke --out /tmp/x")).unwrap();
        assert_eq!(
            c,
            Command::All {
                traced: true,
                common: Common {
                    seed: DEFAULT_SEED,
                    seconds: None,
                    smoke: true,
                    out: "/tmp/x".into()
                }
            }
        );
        assert_eq!(
            parse(&args("check a b")).unwrap(),
            Command::Check { a: "a".into(), b: "b".into() }
        );
    }

    #[test]
    fn rejects_what_the_old_harness_ignored() {
        for bad in [
            "",
            "frobnicate",
            "run",
            "run --workload nope",
            "run --workload ssb_modes --sf 0.1",
            "run --workload ssb_modes --seed twelve",
            "run --workload ssb_modes --seed",
            "run --workload ssb_modes --seconds -3",
            "run --workload ssb_modes --seconds soon",
            "run --workload ssb_modes --trace 2",
            "run --workload ssb_modes --traced",
            "all --workload ssb_modes",
            "all --trace 1",
            "check onlyone",
            "calibrate --sf 1",
            "calibrate --seed x",
            "check a b c",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }
}
