//! `bbpim-perf check A B`: compare two result sets row by row
//! (workload × end-to-end metric) against the bounds in
//! `BENCHMARK.json`.
//!
//! The two clocks are judged differently. A host metric may be worse by
//! its bound; when the samples behind either side disagree by more than
//! that bound (`Measured::spread`: inter-quartile share behind a
//! median, the runner-up's gap behind a fastest pass) the row is
//! *unresolved* — not unchanged. A
//! sim metric of one seed must repeat to 1e-6 relative: any difference
//! is a model change and fails the check, whichever way it points.
//! (Across different seeds the inputs differ, so sim metrics fall back
//! to their cross-seed bound.)

use std::path::Path;

use crate::catalog::{self, Better, Contract, WORKLOADS};
use crate::result::RunResult;
use crate::workloads::rel_diff;

/// Relative tolerance within which a deterministic metric "repeats".
pub const SIM_TOLERANCE: f64 = 1e-6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (host) or identical (sim).
    Pass,
    /// Worse than the base by more than the bound, or an op failed.
    Breach,
    /// Host metric whose spread exceeds its bound: cannot tell.
    Unresolved,
    /// Deterministic metric that did not repeat for one seed.
    Differs,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Breach => "BREACH",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Breach | Verdict::Differs)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub clock: &'static str,
    pub base: f64,
    pub new: f64,
    /// new / base.
    pub ratio: f64,
    pub verdict: Verdict,
}

/// By what share of the base `new` is worse (negative: better).
fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => new / base - 1.0,
        Better::Higher => base / new - 1.0,
    }
}

/// Compare one workload's pair of results.
pub fn compare(a: &RunResult, b: &RunResult, contract: &Contract) -> Vec<Row> {
    let same_seed = a.header.seed == b.header.seed;
    let mut rows = Vec::new();
    for cm in &contract.end_to_end {
        let (Some(def), Some(bound)) = (catalog::find(&cm.name), cm.bound) else { continue };
        let (Some(ma), Some(mb)) = (a.get(&cm.name), b.get(&cm.name)) else { continue };
        let verdict = if def.clock.deterministic() && same_seed {
            if rel_diff(ma.value, mb.value) > SIM_TOLERANCE {
                Verdict::Differs
            } else {
                Verdict::Pass
            }
        } else if ma.spread.max(mb.spread) > bound {
            Verdict::Unresolved
        } else if worse_by(def.better, ma.value, mb.value) > bound {
            Verdict::Breach
        } else {
            Verdict::Pass
        };
        rows.push(Row {
            workload: a.workload.clone(),
            metric: cm.name.clone(),
            clock: def.clock.label(),
            base: ma.value,
            new: mb.value,
            ratio: mb.value / ma.value,
            verdict,
        });
    }
    // failed_share must be 0 on both sides
    let share = |r: &RunResult| r.failed as f64 / r.attempted.max(1) as f64;
    rows.push(Row {
        workload: a.workload.clone(),
        metric: "failed_share".into(),
        clock: "count",
        base: share(a),
        new: share(b),
        ratio: if share(a) == share(b) { 1.0 } else { f64::INFINITY },
        verdict: if a.failed == 0 && b.failed == 0 { Verdict::Pass } else { Verdict::Breach },
    });
    rows
}

/// Compare every workload of two result directories and print the
/// table. `Ok(true)` when nothing breached or differed.
///
/// # Errors
///
/// A missing or malformed result file.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let contract = Contract::embedded();
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let file = format!("{}.json", w.name);
        let (ra, rb) = (RunResult::load(&a.join(&file))?, RunResult::load(&b.join(&file))?);
        if ra.header.seed != rb.header.seed {
            println!(
                "note: {} ran with seed {} vs {} - inputs differ, sim metrics are judged by their cross-seed bound",
                w.name, ra.header.seed, rb.header.seed
            );
        }
        rows.extend(compare(&ra, &rb, &contract));
    }
    println!(
        "{:<14} {:<24} {:<5} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "clock", "base", "new", "new/base"
    );
    for r in &rows {
        println!(
            "{:<14} {:<24} {:<5} {:>16.6} {:>16.6} {:>9.4}  {}",
            r.workload,
            r.metric,
            r.clock,
            r.base,
            r.new,
            r.ratio,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "\n{} rows: {} pass, {} breach, {} differ, {} unresolved (host spread above the bound: not \"unchanged\")",
        rows.len(),
        count(Verdict::Pass),
        count(Verdict::Breach),
        count(Verdict::Differs),
        count(Verdict::Unresolved)
    );
    Ok(!rows.iter().any(|r| r.verdict.fails()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ContractMetric;
    use crate::result::{Header, Measured};
    use crate::stats;

    fn contract() -> Contract {
        let m = |name: &str, bound: f64| ContractMetric {
            name: name.into(),
            unit: "x".into(),
            bound: Some(bound),
        };
        Contract {
            run_seconds: 1,
            workloads: vec!["w".into()],
            end_to_end: vec![
                m("host_s", 0.10),
                m("host_mrows_per_s", 0.10),
                m("sim_energy_uj", 0.05),
            ],
            per_layer: Vec::new(),
        }
    }

    fn result(seed: u64, host: &[f64], energy: f64, failed: u64) -> RunResult {
        let med = stats::median(host).unwrap();
        RunResult {
            workload: "w".into(),
            header: Header {
                git: "g".into(),
                nproc: 2,
                rustc: "r".into(),
                seed,
                seconds: 1.0,
                passes: host.len(),
                setup_repeats: 1,
                lat_samples: 10,
                traced: false,
                smoke: false,
            },
            attempted: 10,
            failed,
            metrics: vec![
                Measured {
                    name: "host_s".into(),
                    value: med,
                    samples: host.to_vec(),
                    spread: stats::iqr_share(host),
                },
                Measured {
                    name: "host_mrows_per_s".into(),
                    value: 1.0 / med,
                    samples: host.iter().map(|h| 1.0 / h).collect(),
                    spread: stats::iqr_share(host),
                },
                Measured {
                    name: "sim_energy_uj".into(),
                    value: energy,
                    samples: Vec::new(),
                    spread: 0.0,
                },
            ],
        }
    }

    fn verdicts(a: &RunResult, b: &RunResult) -> Vec<(String, Verdict)> {
        compare(a, b, &contract()).into_iter().map(|r| (r.metric, r.verdict)).collect()
    }

    #[test]
    fn steady_runs_within_the_bound_pass() {
        let a = result(1, &[1.00, 1.01, 1.02], 5.0, 0);
        let b = result(1, &[1.05, 1.06, 1.07], 5.0, 0);
        assert!(verdicts(&a, &b).iter().all(|(_, v)| *v == Verdict::Pass));
    }

    #[test]
    fn a_slowdown_beyond_the_bound_breaches_in_both_directions_of_better() {
        let a = result(1, &[1.00, 1.01, 1.02], 5.0, 0);
        let b = result(1, &[1.20, 1.21, 1.22], 5.0, 0);
        let v = verdicts(&a, &b);
        assert_eq!(v[0], ("host_s".into(), Verdict::Breach)); // lower is better, got higher
        assert_eq!(v[1], ("host_mrows_per_s".into(), Verdict::Breach)); // higher is better, got lower
                                                                        // a speed-up is never a breach
        assert!(verdicts(&b, &a).iter().all(|(_, v)| *v == Verdict::Pass));
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = result(1, &[1.0, 1.3, 1.6], 5.0, 0);
        let b = result(1, &[1.0, 1.3, 1.6], 5.0, 0);
        let v = verdicts(&a, &b);
        assert_eq!(v[0].1, Verdict::Unresolved);
        assert!(!v[0].1.fails());
    }

    #[test]
    fn sim_metrics_must_repeat_for_one_seed_but_not_across_seeds() {
        let a = result(1, &[1.0, 1.0, 1.0], 5.0, 0);
        let b = result(1, &[1.0, 1.0, 1.0], 5.0 * (1.0 + 1e-5), 0);
        assert_eq!(verdicts(&a, &b)[2], ("sim_energy_uj".into(), Verdict::Differs));
        // an improvement differs too: the model changed
        assert_eq!(verdicts(&b, &a)[2].1, Verdict::Differs);
        let within = result(1, &[1.0, 1.0, 1.0], 5.0 * (1.0 + 1e-8), 0);
        assert_eq!(verdicts(&a, &within)[2].1, Verdict::Pass);
        // another seed: judged by the cross-seed bound (5 %)
        let other = result(2, &[1.0, 1.0, 1.0], 5.1, 0);
        assert_eq!(verdicts(&a, &other)[2].1, Verdict::Pass);
        let far = result(2, &[1.0, 1.0, 1.0], 5.5, 0);
        assert_eq!(verdicts(&a, &far)[2].1, Verdict::Breach);
    }

    #[test]
    fn a_failed_op_breaches() {
        let a = result(1, &[1.0, 1.0, 1.0], 5.0, 0);
        let b = result(1, &[1.0, 1.0, 1.0], 5.0, 1);
        let v = verdicts(&a, &b);
        assert_eq!(v.last().unwrap(), &("failed_share".to_string(), Verdict::Breach));
    }
}
