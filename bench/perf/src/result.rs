//! One workload run's result: header, verdict and measured metrics,
//! with its JSON file form and the driver's one-line form.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::catalog::{self, ContractMetric};
use crate::json::{self, quote, Value};

/// What every result header records, so a number can be traced to the
/// code, machine and inputs that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    pub git: String,
    pub nproc: usize,
    pub rustc: String,
    pub seed: u64,
    pub seconds: f64,
    pub passes: usize,
    pub setup_repeats: usize,
    /// Latency samples behind the percentiles of one pass.
    pub lat_samples: usize,
    pub traced: bool,
    pub smoke: bool,
}

/// First line of a command's stdout, or `"unknown"` (the driver's
/// checkout is not a git repository and may lack a toolchain on PATH).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

impl Header {
    pub fn probe(seed: u64, seconds: f64, traced: bool, smoke: bool) -> Header {
        Header {
            git: first_line_of("git", &["rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: first_line_of("rustc", &["-V"]),
            seed,
            seconds,
            passes: 0,
            setup_repeats: 0,
            lat_samples: 0,
            traced,
            smoke,
        }
    }
}

/// One measured metric. `samples` holds the per-pass (or per-set-up)
/// values behind a host-clock number and `spread` how far they
/// disagree, measured the way that fits how `value` was picked from
/// them (inter-quartile share for a median, the runner-up's gap for a
/// fastest pass); empty and 0 for everything else.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub samples: Vec<f64>,
    pub spread: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub header: Header,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).map(|m| m.value)
    }

    pub fn push(&mut self, name: &str, value: f64) {
        self.metrics.push(Measured { name: name.into(), value, samples: Vec::new(), spread: 0.0 });
    }

    /// The result file.
    pub fn to_json(&self) -> String {
        let h = &self.header;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"workload\": {},", quote(&self.workload));
        let _ = writeln!(
            out,
            "  \"header\": {{\"git\": {}, \"nproc\": {}, \"rustc\": {}, \"seed\": {}, \"seconds\": {}, \"passes\": {}, \"setup_repeats\": {}, \"lat_samples\": {}, \"traced\": {}, \"smoke\": {}, \"generator_lateness_ns\": 0}},",
            quote(&h.git), h.nproc, quote(&h.rustc), h.seed, h.seconds, h.passes, h.setup_repeats, h.lat_samples, h.traced, h.smoke
        );
        let _ = writeln!(
            out,
            "  \"correct\": {}, \"attempted\": {}, \"failed\": {},",
            self.correct(),
            self.attempted,
            self.failed
        );
        let _ = writeln!(out, "  \"metrics\": {{");
        for (i, m) in self.metrics.iter().enumerate() {
            let (unit, clock) =
                catalog::find(&m.name).map_or(("", ""), |d| (d.unit, d.clock.label()));
            let _ = write!(
                out,
                "    {}: {{\"value\": {}, \"unit\": {}, \"clock\": {}",
                quote(&m.name),
                m.value,
                quote(unit),
                quote(clock)
            );
            if !m.samples.is_empty() {
                let s: Vec<String> = m.samples.iter().map(f64::to_string).collect();
                let _ = write!(out, ", \"spread\": {}, \"samples\": [{}]", m.spread, s.join(", "));
            }
            let _ = writeln!(out, "}}{}", if i + 1 < self.metrics.len() { "," } else { "" });
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }

    /// Read a result file back.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped key.
    pub fn from_json(text: &str) -> Result<RunResult, String> {
        let root = json::parse(text)?;
        let need =
            |v: &Value, k: &str| v.get(k).cloned().ok_or_else(|| format!("result file: no {k}"));
        let num = |v: &Value, k: &str| {
            need(v, k)?.as_f64().ok_or_else(|| format!("result file: {k} is not a number"))
        };
        let text_of = |v: &Value, k: &str| {
            need(v, k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("result file: {k} is not a string"))
        };
        let flag = |v: &Value, k: &str| {
            need(v, k)?.as_bool().ok_or_else(|| format!("result file: {k} is not a boolean"))
        };
        let h = need(&root, "header")?;
        let header = Header {
            git: text_of(&h, "git")?,
            nproc: num(&h, "nproc")? as usize,
            rustc: text_of(&h, "rustc")?,
            seed: num(&h, "seed")? as u64,
            seconds: num(&h, "seconds")?,
            passes: num(&h, "passes")? as usize,
            setup_repeats: num(&h, "setup_repeats")? as usize,
            lat_samples: num(&h, "lat_samples")? as usize,
            traced: flag(&h, "traced")?,
            smoke: flag(&h, "smoke")?,
        };
        let metrics = need(&root, "metrics")?
            .as_obj()
            .ok_or("result file: metrics is not an object")?
            .iter()
            .map(|(name, v)| {
                Ok(Measured {
                    name: name.clone(),
                    value: num(v, "value")?,
                    samples: v
                        .get("samples")
                        .and_then(Value::as_arr)
                        .map(|a| a.iter().filter_map(Value::as_f64).collect())
                        .unwrap_or_default(),
                    spread: v.get("spread").and_then(Value::as_f64).unwrap_or(0.0),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            workload: text_of(&root, "workload")?,
            header,
            attempted: num(&root, "attempted")? as u64,
            failed: num(&root, "failed")? as u64,
            metrics,
        })
    }

    /// Read a result file from disk.
    ///
    /// # Errors
    ///
    /// An unreadable or malformed file, named.
    pub fn load(path: &Path) -> Result<RunResult, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        RunResult::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The driver's last stdout line: exactly `wanted`, each with its
    /// contract unit.
    ///
    /// # Errors
    ///
    /// Names the first wanted metric that was not emitted, is not
    /// finite, or is illegally named — the emitted-set self-check.
    pub fn contract_line(&self, wanted: &[ContractMetric]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(wanted.len());
        for w in wanted {
            if !catalog::legal_name(&w.name) {
                return Err(format!("metric name {:?} breaks [A-Za-z0-9_.-]+", w.name));
            }
            let m =
                self.get(&w.name).ok_or_else(|| format!("metric {} was not emitted", w.name))?;
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", w.name, m.value));
            }
            parts.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&w.name),
                m.value,
                quote(&w.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "ssb_modes".into(),
            header: Header {
                git: "abc".into(),
                nproc: 2,
                rustc: "rustc 1.95.0".into(),
                seed: 7,
                seconds: 1.5,
                passes: 3,
                setup_repeats: 3,
                lat_samples: 13,
                traced: false,
                smoke: true,
            },
            attempted: 39,
            failed: 0,
            metrics: vec![
                Measured {
                    name: "host_s".into(),
                    value: 0.123456789,
                    samples: vec![0.1, 0.123456789, 0.2],
                    spread: 0.25,
                },
                Measured {
                    name: "sim_lat_p50_ms".into(),
                    value: 4.0,
                    samples: Vec::new(),
                    spread: 0.0,
                },
            ],
        }
    }

    #[test]
    fn result_files_round_trip() {
        let r = sample();
        assert_eq!(RunResult::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn contract_line_is_exactly_the_wanted_set() {
        let r = sample();
        let want =
            |n: &str, u: &str| ContractMetric { name: n.into(), unit: u.into(), bound: None };
        let line = r.contract_line(&[want("host_s", "s")]).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(39.0));
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics["host_s"].get("value").unwrap().as_f64(), Some(0.123456789));
        assert_eq!(metrics["host_s"].get("unit").unwrap().as_str(), Some("s"));
        // a missing or non-finite metric fails loudly
        assert!(r.contract_line(&[want("peak_rss_mb", "MB")]).unwrap_err().contains("not emitted"));
        let mut bad = sample();
        bad.metrics[0].value = f64::NAN;
        assert!(bad.contract_line(&[want("host_s", "s")]).unwrap_err().contains("not finite"));
    }
}
