//! The harness command line.
//!
//! [`BenchConfig::parse`] reads an argument slice and **rejects
//! what it does not understand** — an unknown flag, a missing value, an
//! unparseable or out-of-range value — with a typed [`CliError`];
//! nothing falls back to a default silently. Each `paper --fig`
//! selection declares what it [`Accepts`]: the shared flags its
//! selectors actually read (a shared flag they would ignore is as
//! unknown as a typo) plus flags of their own (`--prejoined` with
//! `scaling`, `--mode <m>` with Fig. 4, `--csv <dir>` with a per-query
//! figure), read back from [`BinFlags`]. On a rejection `paper` prints
//! the error and one usage line showing only the flags that apply
//! ([`Accepts::usage`]), then exits 2.

use std::fmt;
use std::ops::RangeInclusive;
use std::str::FromStr;

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
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig { sf: 0.1, skewed: true, seed: 0xB1_7B17, threads: 4, shards: vec![1, 2, 4, 8] }
    }
}

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag neither the shared parser nor the selection registered.
    UnknownFlag(String),
    /// A value-taking flag at the end of the line.
    MissingValue(String),
    /// `(flag, value, what the flag accepts)`: the value does not parse
    /// or parses outside the flag's range.
    BadValue(String, String, String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue(flag, value, accepts) => {
                write!(f, "{flag} {value:?}: expected {accepts}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// A selector-specific value flag: its name and the values it accepts
/// (empty: any value).
pub type ValueFlag<'a> = (&'a str, &'a [&'a str]);

/// The selector-specific flags one command line carried.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BinFlags(Vec<(String, Option<String>)>);

impl BinFlags {
    /// Was the registered switch `flag` given?
    pub fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    /// The value of the registered value flag `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }
}

/// Every shared flag and the value the usage line shows for it.
const SHARED: &[(&str, &str)] = &[
    ("--sf", " <f64>"),
    ("--uniform", ""),
    ("--skewed", ""),
    ("--seed", " <u64>"),
    ("--threads", " <n>"),
    ("--shards", " <n,n,..>"),
];

/// The flags one `paper --fig` selection accepts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accepts<'a> {
    /// The shared flags it reads, space-separated (`"--sf --uniform"`);
    /// every other shared flag is rejected.
    pub shared: &'a str,
    /// Its own flags that take no value.
    pub switches: &'a [&'a str],
    /// Its own flags that take one value.
    pub values: &'a [ValueFlag<'a>],
}

impl Accepts<'_> {
    /// Is `flag` among the shared flags this selection reads?
    fn reads(&self, flag: &str) -> bool {
        self.shared.split(' ').any(|read| read == flag)
    }

    /// The usage line's flag list: only what this selection accepts.
    pub fn usage(&self) -> String {
        let shared = SHARED.iter().filter(|(flag, _)| self.reads(flag));
        let mut usage: Vec<String> =
            shared.map(|(flag, value)| format!("[{flag}{value}]")).collect();
        usage.extend(self.switches.iter().map(|s| format!("[{s}]")));
        for (name, accepted) in self.values {
            let shown = if accepted.is_empty() { "value".into() } else { accepted.join("|") };
            usage.push(format!("[{name} <{shown}>]"));
        }
        usage.join(" ")
    }
}

const POSITIVE: RangeInclusive<usize> = 1..=usize::MAX;
const POSITIVE_F64: RangeInclusive<f64> = f64::MIN_POSITIVE..=f64::MAX;

/// Parse one number and check its range.
fn number<T: FromStr + PartialOrd + Default>(
    flag: &str,
    value: &str,
    range: RangeInclusive<T>,
) -> Result<T, CliError> {
    let accepts = if range.contains(&T::default()) { "a number >= 0" } else { "a number > 0" };
    let parsed = value.trim().parse().ok().filter(|v| range.contains(v));
    parsed.ok_or_else(|| CliError::BadValue(flag.into(), value.into(), accepts.into()))
}

impl BenchConfig {
    /// Parse `args` (the command line without the program name) on top
    /// of `base` — the defaults of whoever is parsing, so a flag that
    /// was not given keeps the caller's value and one that was given
    /// always wins.
    ///
    /// # Errors
    ///
    /// Any flag or value `accepts` does not cover.
    pub fn parse(
        args: &[String],
        base: BenchConfig,
        accepts: &Accepts<'_>,
    ) -> Result<(BenchConfig, BinFlags), CliError> {
        let Accepts { switches, values, .. } = accepts;
        let mut cfg = base;
        let mut bin = BinFlags::default();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let flag = flag.as_str();
            if SHARED.iter().any(|(known, _)| *known == flag) && !accepts.reads(flag) {
                return Err(CliError::UnknownFlag(flag.into()));
            }
            let mut value = || rest.next().ok_or_else(|| CliError::MissingValue(flag.into()));
            match flag {
                "--uniform" => cfg.skewed = false,
                "--skewed" => cfg.skewed = true,
                "--sf" => cfg.sf = number(flag, value()?, POSITIVE_F64)?,
                "--seed" => cfg.seed = number(flag, value()?, 0..=u64::MAX)?,
                "--threads" => cfg.threads = number(flag, value()?, POSITIVE)?,
                "--shards" => {
                    let counts = value()?.split(',').map(|n| number(flag, n, POSITIVE));
                    cfg.shards = counts.collect::<Result<_, _>>()?;
                }
                _ if switches.contains(&flag) => bin.0.push((flag.into(), None)),
                _ => {
                    let Some((_, accepted)) = values.iter().find(|(name, _)| *name == flag) else {
                        return Err(CliError::UnknownFlag(flag.into()));
                    };
                    let value = value()?;
                    if !accepted.is_empty() && !accepted.contains(&value.as_str()) {
                        let accepts = format!("one of {}", accepted.join("|"));
                        return Err(CliError::BadValue(flag.into(), value.clone(), accepts));
                    }
                    bin.0.push((flag.into(), Some(value.clone())));
                }
            }
        }
        Ok((cfg, bin))
    }

    /// `"skewed"` or `"uniform"`, as the report headers name the data.
    pub fn data_label(&self) -> &'static str {
        if self.skewed {
            "skewed"
        } else {
            "uniform"
        }
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

    const MODES: ValueFlag<'static> = ("--mode", &["pimdb", "two_xb", "one_xb"]);
    const ALL: Accepts<'static> = Accepts {
        shared: "--sf --uniform --skewed --seed --threads --shards",
        switches: &["--prejoined"],
        values: &[MODES, ("--csv", &[])],
    };

    fn parse_as(line: &str, accepts: &Accepts<'_>) -> Result<(BenchConfig, BinFlags), CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        BenchConfig::parse(&args, BenchConfig::default(), accepts)
    }

    /// Parse `line` as a selection reading every shared flag plus the
    /// `scaling`, Fig. 4 and per-query-figure flags would.
    fn parse(line: &str) -> Result<(BenchConfig, BinFlags), CliError> {
        parse_as(line, &ALL)
    }

    #[test]
    fn every_flag_is_accepted() {
        assert_eq!(parse("").unwrap().0, BenchConfig::default());
        let (cfg, bin) = parse(
            "--sf 0.01 --uniform --seed 7 --threads 2 --shards 1,4 --prejoined --mode two_xb \
             --csv out",
        )
        .unwrap();
        let want = BenchConfig { sf: 0.01, skewed: false, seed: 7, threads: 2, shards: vec![1, 4] };
        assert_eq!(cfg, want);
        assert!(bin.switch("--prejoined"));
        assert_eq!((bin.value("--mode"), bin.value("--csv")), (Some("two_xb"), Some("out")));
        let (cfg, bin) = parse("--uniform --skewed").unwrap();
        assert!(cfg.skewed, "the last one wins");
        assert!(!bin.switch("--prejoined") && bin.value("--mode").is_none());
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        // `--shard` is one letter short of `--shards`; `--json` fed the
        // retired snapshot gate and `--trace` the retired streamed-study
        // export: neither is a flag of any selection now
        let lines = [
            ("--shard 4", "--shard"),
            ("--sf 0.01 -v", "-v"),
            ("stray", "stray"),
            ("--json x.json", "--json"),
            ("--trace t.json", "--trace"),
        ];
        for (line, flag) in lines {
            assert_eq!(parse(line), Err(CliError::UnknownFlag(flag.into())), "{line}");
        }
        // a selector's own flag is unknown where it is not registered
        let err = parse_as("--prejoined", &Accepts::default()).unwrap_err();
        assert_eq!(err, CliError::UnknownFlag("--prejoined".into()));
    }

    #[test]
    fn a_shared_flag_the_binary_does_not_read_is_rejected() {
        // `--fig pruning` reads the data flags and `--shards`
        let pruning =
            Accepts { shared: "--sf --uniform --skewed --seed --shards", ..Accepts::default() };
        assert!(parse_as("--sf 0.01 --uniform --shards 1,4", &pruning).is_ok());
        let err = parse_as("--uniform --threads 1", &pruning).unwrap_err();
        assert_eq!(err, CliError::UnknownFlag("--threads".into()));
        assert!(!pruning.usage().contains("--threads"), "usage shows only what applies");
        assert_eq!(
            pruning.usage(),
            "[--sf <f64>] [--uniform] [--skewed] [--seed <u64>] [--shards <n,n,..>]"
        );
        // a selection that reads no command line at all accepts none
        let err = parse_as("--sf 0.01", &Accepts::default()).unwrap_err();
        assert_eq!(err, CliError::UnknownFlag("--sf".into()));
    }

    #[test]
    fn a_given_flag_beats_the_callers_default_even_at_the_global_default_value() {
        // `paper --fig ablation` defaults to SF 0.05; `--sf 0.1` (the
        // global default) used to be mistaken for "not given"
        let base = BenchConfig { sf: 0.05, ..BenchConfig::default() };
        let on_base = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            BenchConfig::parse(&args, base.clone(), &ALL).unwrap().0.sf
        };
        assert_eq!(on_base("--uniform"), 0.05);
        assert_eq!(on_base("--sf 0.1"), 0.1);
    }

    #[test]
    fn a_missing_value_is_rejected() {
        let flags = "--sf --seed --threads --shards --mode --csv";
        for flag in flags.split_whitespace() {
            let line = format!("--uniform {flag}");
            assert_eq!(parse(&line), Err(CliError::MissingValue(flag.into())), "{line}");
        }
    }

    #[test]
    fn a_non_numeric_or_out_of_range_value_is_rejected() {
        let lines = "--sf abc|--sf 0|--sf nan|--sf inf|--seed -1|--threads 0|--shards 0|\
                     --shards 1,0,4|--shards 1,,4|--shards two|--mode fast";
        for line in lines.split('|') {
            let flag = line.split(' ').next().unwrap();
            match parse(line) {
                Err(CliError::BadValue(blamed, ..)) => assert_eq!(blamed, flag, "{line}"),
                other => panic!("{line}: expected a BadValue rejection, got {other:?}"),
            }
        }
        let err = parse("--mode fast").unwrap_err();
        assert_eq!(err.to_string(), "--mode \"fast\": expected one of pimdb|two_xb|one_xb");
    }
}
