//! The human-readable report of one run: every metric by name with its
//! value, unit and clock, the sample counts behind medians and
//! percentiles, and the paper's printed ratio beside each reproduced
//! one.

use crate::catalog;
use crate::result::RunResult;
use crate::stats;

/// Ratios the paper prints, the only reference the model is validated
/// against. `monet.*` divides real wall-clock by simulated time, so its
/// error is informational.
pub const PAPER_RATIOS: &[(&str, f64)] = &[
    ("core.speedup_vs_pimdb", 1.83),
    ("core.energy_vs_pimdb", 4.31),
    ("core.lifetime_vs_pimdb", 3.21),
    ("monet.speedup_one_xb_vs_join", 4.65),
];

pub fn print(r: &RunResult) {
    let h = &r.header;
    println!(
        "== {} ({}{}) ==",
        r.workload,
        if h.traced { "traced" } else { "untraced" },
        if h.smoke { ", smoke scale" } else { "" }
    );
    if let Some(w) = catalog::WORKLOADS.iter().find(|w| w.name == r.workload) {
        println!("why: {}", w.why);
    }
    println!(
        "git {} | nproc {} | {} | seed {} | {} pass(es) in a {} s budget | {} set-up(s)",
        h.git, h.nproc, h.rustc, h.seed, h.passes, h.seconds, h.setup_repeats
    );
    println!(
        "load generator: arrivals live on the simulated clock, so generator lateness is 0 by construction"
    );
    println!(
        "ops: {} attempted, {} failed against the row oracle ({})",
        r.attempted,
        r.failed,
        if r.correct() { "correct" } else { "INCORRECT" }
    );
    for m in &r.metrics {
        let Some(def) = catalog::find(&m.name) else { continue };
        let mut note = String::new();
        if !m.samples.is_empty() {
            note = format!(
                "{} of {}, median {:.6}, IQR {:.1} % of it, spread {:.1} %",
                if m.name == "setup_s" { "median" } else { "best" },
                m.samples.len(),
                stats::median(&m.samples).unwrap_or(0.0),
                100.0 * stats::iqr_share(&m.samples),
                100.0 * m.spread
            );
        } else if m.name.starts_with("sim_lat_p") {
            let p = if m.name.contains("_p95") { 95.0 } else { 50.0 };
            note = format!(
                "nearest rank over {} samples, {} beyond",
                h.lat_samples,
                stats::samples_beyond(h.lat_samples, p)
            );
        }
        if let Some((_, paper)) = PAPER_RATIOS.iter().find(|(n, _)| *n == m.name) {
            if m.value > 0.0 {
                note = format!("paper {paper}, error {:+.1} %", 100.0 * (m.value / paper - 1.0));
            }
        }
        println!(
            "  {:<34} {:>18.6} {:<10} [{:<5} {}]{}",
            m.name,
            m.value,
            def.unit,
            def.clock.label(),
            if def.better == catalog::Better::Lower { "v" } else { "^" },
            if note.is_empty() { String::new() } else { format!("  ({note})") }
        );
    }
}
