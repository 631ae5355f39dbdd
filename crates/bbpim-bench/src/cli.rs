//! The command line every study binary shares.
//!
//! [`BenchConfig::parse_with`] reads an argument slice and **rejects
//! what it does not understand** — an unknown flag, a missing value, an
//! unparseable or out-of-range value — with a typed [`CliError`];
//! nothing falls back to a default silently. Binaries with flags of
//! their own (`scaling --prejoined`, `all --csv <dir>`, `fig4 --mode
//! <m>`) register them with the same parser and read them back from
//! [`BinFlags`]. [`BenchConfig::from_args`] is the `main()` entry: on a
//! rejection it prints the error and one usage line, then exits 2.

use std::fmt;

use bbpim_db::ssb::SsbParams;

/// Harness configuration (CLI-parsed).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    /// SSB scale factor.
    pub sf: f64,
    /// Skewed data (the paper's setting) vs uniform.
    pub skewed: bool,
    /// Generator seed.
    pub seed: u64,
    /// Host threads for the baseline engine.
    pub threads: usize,
    /// Shard counts for the cluster studies (`--shards 1,2,4,8`).
    pub shards: Vec<usize>,
    /// Arrivals in the streaming study (`--arrivals 52`).
    pub arrivals: usize,
    /// Offered load of the streaming study as a multiple of cluster
    /// capacity: mean interarrival = mean per-query service / load
    /// (`--load 2.0`; >1 means overload, so queues form).
    pub load: f64,
    /// Admission-control bound on in-flight queries (`--inflight 4`).
    pub inflight: usize,
    /// Write the binary's headline metrics as JSON to this path
    /// (`--json bench-scaling.json`) — the machine-readable snapshot CI
    /// merges into `BENCH_PR.json` and gates against
    /// `bench/baseline.json`.
    pub json: Option<String>,
    /// Write a Chrome/Perfetto `trace_event` JSON of the (FIFO)
    /// streamed run to this path, plus a flat-JSONL sidecar next to it
    /// (`--trace bench-out/stream-trace.json`).
    pub trace: Option<String>,
    /// Write the metrics-registry snapshot as flat JSON to this path,
    /// plus a Prometheus-text sidecar next to it
    /// (`--metrics bench-out/metrics.json`).
    pub metrics: Option<String>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            sf: 0.1,
            skewed: true,
            seed: 0xB1_7B17,
            threads: 4,
            shards: vec![1, 2, 4, 8],
            arrivals: 52,
            load: 2.0,
            inflight: 4,
            json: None,
            trace: None,
            metrics: None,
        }
    }
}

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag neither the shared parser nor the binary registered.
    UnknownFlag(String),
    /// A value-taking flag at the end of the line.
    MissingValue(String),
    /// A value that does not parse, or parses outside the flag's range.
    BadValue {
        /// The flag.
        flag: String,
        /// What followed it.
        value: String,
        /// What the flag accepts.
        expected: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue { flag, value, expected } => {
                write!(f, "{flag} {value:?}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The binary-specific flags one command line carried.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BinFlags(Vec<(String, Option<String>)>);

impl BinFlags {
    /// Was the registered switch `flag` given?
    pub fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    /// The value of the registered value flag `flag`, if given (the
    /// last one wins).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }
}

/// A binary-specific value flag: its name and the values it accepts
/// (empty: any value).
pub type ValueFlag<'a> = (&'a str, &'a [&'a str]);

/// The shared flags, as the usage line shows them.
const SHARED_USAGE: &str = "[--sf <f64>] [--uniform|--skewed] [--seed <u64>] [--threads <n>] \
     [--shards <n,n,..>] [--arrivals <n>] [--load <f64>] [--inflight <n>] [--json <path>] \
     [--trace <path>] [--metrics <path>]";

/// Parse one number and check its range.
fn number<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    expected: &str,
    in_range: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    value.trim().parse().ok().filter(in_range).ok_or_else(|| CliError::BadValue {
        flag: flag.into(),
        value: value.into(),
        expected: expected.into(),
    })
}

impl BenchConfig {
    /// Parse the shared flags from `args` (the command line without the
    /// program name).
    ///
    /// # Errors
    ///
    /// Any flag or value the parser does not understand.
    pub fn parse(args: &[String]) -> Result<BenchConfig, CliError> {
        Self::parse_with(args, &[], &[]).map(|(cfg, _)| cfg)
    }

    /// [`BenchConfig::parse`] for a binary with flags of its own:
    /// `switches` take no value, `values` take one.
    ///
    /// # Errors
    ///
    /// Any flag or value neither the shared parser nor the binary's
    /// registrations understand.
    pub fn parse_with(
        args: &[String],
        switches: &[&str],
        values: &[ValueFlag<'_>],
    ) -> Result<(BenchConfig, BinFlags), CliError> {
        let mut cfg = BenchConfig::default();
        let mut bin = BinFlags::default();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let flag = flag.as_str();
            let mut value = || rest.next().ok_or_else(|| CliError::MissingValue(flag.into()));
            match flag {
                "--uniform" => cfg.skewed = false,
                "--skewed" => cfg.skewed = true,
                "--sf" => {
                    cfg.sf = number(flag, value()?, "a positive number", |v: &f64| {
                        v.is_finite() && *v > 0.0
                    })?;
                }
                "--seed" => cfg.seed = number(flag, value()?, "an unsigned integer", |_| true)?,
                "--threads" => {
                    cfg.threads = number(flag, value()?, "a positive integer", |v| *v > 0)?;
                }
                "--shards" => {
                    let expected = "a comma list of positive integers";
                    cfg.shards = value()?
                        .split(',')
                        .map(|count| number(flag, count, expected, |v| *v > 0))
                        .collect::<Result<_, _>>()?;
                }
                "--arrivals" => {
                    cfg.arrivals = number(flag, value()?, "an unsigned integer", |_| true)?;
                }
                "--load" => {
                    cfg.load = number(flag, value()?, "a positive number", |v: &f64| {
                        v.is_finite() && *v > 0.0
                    })?;
                }
                "--inflight" => {
                    cfg.inflight = number(flag, value()?, "a positive integer", |v| *v > 0)?;
                }
                "--json" => cfg.json = Some(value()?.clone()),
                "--trace" => cfg.trace = Some(value()?.clone()),
                "--metrics" => cfg.metrics = Some(value()?.clone()),
                _ if switches.contains(&flag) => bin.0.push((flag.into(), None)),
                _ => {
                    let Some((_, accepted)) = values.iter().find(|(name, _)| *name == flag) else {
                        return Err(CliError::UnknownFlag(flag.into()));
                    };
                    let value = value()?;
                    if !accepted.is_empty() && !accepted.contains(&value.as_str()) {
                        return Err(CliError::BadValue {
                            flag: flag.into(),
                            value: value.clone(),
                            expected: format!("one of {}", accepted.join("|")),
                        });
                    }
                    bin.0.push((flag.into(), Some(value.clone())));
                }
            }
        }
        Ok((cfg, bin))
    }

    /// Parse the process's own command line; on a rejection print the
    /// error and one usage line to stderr and exit with code 2.
    pub fn from_args() -> Self {
        Self::from_args_with(&[], &[]).0
    }

    /// [`BenchConfig::from_args`] for a binary with flags of its own
    /// (see [`BenchConfig::parse_with`]).
    pub fn from_args_with(switches: &[&str], values: &[ValueFlag<'_>]) -> (Self, BinFlags) {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_else(|| "bbpim-bench".into());
        let args: Vec<String> = argv.collect();
        Self::parse_with(&args, switches, values).unwrap_or_else(|err| {
            let mut own = String::new();
            for switch in switches {
                own.push_str(&format!(" [{switch}]"));
            }
            for (name, accepted) in values {
                let shown = if accepted.is_empty() { "<value>".into() } else { accepted.join("|") };
                own.push_str(&format!(" [{name} {shown}]"));
            }
            eprintln!("error: {err}");
            eprintln!("usage: {program} {SHARED_USAGE}{own}");
            std::process::exit(2)
        })
    }

    /// The SSB generator parameters for this configuration.
    pub fn ssb_params(&self) -> SsbParams {
        let mut p =
            if self.skewed { SsbParams::skewed(self.sf) } else { SsbParams::uniform(self.sf) };
        p.seed = self.seed;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn an_empty_line_is_the_defaults() {
        assert_eq!(BenchConfig::parse(&[]), Ok(BenchConfig::default()));
    }

    #[test]
    fn every_shared_flag_is_accepted() {
        let line = "--sf 0.01 --uniform --seed 7 --threads 2 --shards 1,4 --arrivals 26 \
                    --load 1.5 --inflight 3 --json a.json --trace b.json --metrics c.json";
        let cfg = BenchConfig::parse(&argv(line)).unwrap();
        assert_eq!(
            cfg,
            BenchConfig {
                sf: 0.01,
                skewed: false,
                seed: 7,
                threads: 2,
                shards: vec![1, 4],
                arrivals: 26,
                load: 1.5,
                inflight: 3,
                json: Some("a.json".into()),
                trace: Some("b.json".into()),
                metrics: Some("c.json".into()),
            }
        );
        assert!(BenchConfig::parse(&argv("--uniform --skewed")).unwrap().skewed, "last one wins");
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        // `--shard` is one letter short of `--shards`; `--prejoined`
        // is only known to the binary that registers it
        for (line, flag) in
            [("--shard 4", "--shard"), ("--sf 0.01 --prejoined", "--prejoined"), ("stray", "stray")]
        {
            assert_eq!(
                BenchConfig::parse(&argv(line)),
                Err(CliError::UnknownFlag(flag.into())),
                "{line}"
            );
        }
    }

    #[test]
    fn a_missing_value_is_rejected() {
        for flag in [
            "--sf",
            "--seed",
            "--threads",
            "--shards",
            "--arrivals",
            "--load",
            "--inflight",
            "--json",
            "--trace",
            "--metrics",
        ] {
            let line = format!("--uniform {flag}");
            assert_eq!(
                BenchConfig::parse(&argv(&line)),
                Err(CliError::MissingValue(flag.into())),
                "{line}"
            );
        }
    }

    #[test]
    fn a_non_numeric_or_out_of_range_value_is_rejected() {
        for (flag, value) in [
            ("--sf", "abc"),
            ("--sf", "0"),
            ("--sf", "nan"),
            ("--seed", "-1"),
            ("--threads", "0"),
            ("--arrivals", "many"),
            ("--load", "-2"),
            ("--inflight", "0"),
            ("--shards", "0"),
            ("--shards", "1,0,4"),
            ("--shards", "1,,4"),
            ("--shards", "two"),
        ] {
            match BenchConfig::parse(&argv(&format!("--uniform {flag} {value}"))) {
                Err(CliError::BadValue { flag: f, value: v, .. }) => {
                    assert_eq!(f, flag);
                    assert!(value.contains(&v), "{flag} {value}: blamed {v:?}");
                }
                other => panic!("{flag} {value}: expected a BadValue rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn binary_flags_register_with_the_same_parser() {
        let modes: ValueFlag = ("--mode", &["pimdb", "two_xb", "one_xb"]);
        let (cfg, bin) = BenchConfig::parse_with(
            &argv("--prejoined --sf 0.02 --mode two_xb --csv out"),
            &["--prejoined"],
            &[modes, ("--csv", &[])],
        )
        .unwrap();
        assert_eq!(cfg.sf, 0.02);
        assert!(bin.switch("--prejoined"));
        assert_eq!(bin.value("--mode"), Some("two_xb"));
        assert_eq!(bin.value("--csv"), Some("out"));

        let (_, none) = BenchConfig::parse_with(&[], &["--prejoined"], &[modes]).unwrap();
        assert!(!none.switch("--prejoined"));
        assert_eq!(none.value("--mode"), None);

        assert_eq!(
            BenchConfig::parse_with(&argv("--mode fast"), &[], &[modes]),
            Err(CliError::BadValue {
                flag: "--mode".into(),
                value: "fast".into(),
                expected: "one of pimdb|two_xb|one_xb".into(),
            })
        );
        assert_eq!(
            BenchConfig::parse_with(&argv("--csv"), &[], &[("--csv", &[])]),
            Err(CliError::MissingValue("--csv".into()))
        );
    }
}
