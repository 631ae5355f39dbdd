//! The hybrid GROUP-BY in action: calibrate the Eq. (1)–(3) cost model,
//! run a GROUP BY query on skewed data, and show how the engine splits
//! subgroups between pim-gb and host-gb.
//!
//! ```sh
//! cargo run --release --example ssb_groupby
//! ```

use bbpim::db::ssb::{queries, SsbDb, SsbParams};
use bbpim::db::stats;
use bbpim::engine::engine::PimQueryEngine;
use bbpim::engine::groupby::calibration::CalibrationConfig;
use bbpim::engine::modes::EngineMode;
use bbpim::sim::SimConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Skewed SSB (Rabl et al.), as in the paper's evaluation: subgroup
    // sizes are non-uniform, which is exactly what the hybrid exploits.
    let db = SsbDb::generate(&SsbParams::skewed(0.02));
    let wide = db.prejoin();
    let query_set = queries::adjusted_queries(&wide)?;

    let mut engine = PimQueryEngine::new(SimConfig::default(), wide.clone(), EngineMode::OneXb)?;

    // Calibration: synthetic host-gb / pim-gb measurements fitted to
    // T_host-gb = M(a(s)√r + b(s)) and T_pim-gb = M·slope(n) + T0(n).
    println!("calibrating the GROUP-BY latency model (Fig. 4 procedure)…");
    engine.calibrate(&CalibrationConfig::default())?;
    let model = engine.model().expect("calibrated");
    for s in model.host.s_values().collect::<Vec<_>>() {
        let fit = model.host.fit_for(s).unwrap();
        println!(
            "  host-gb s={s}: dT/dM = {:.4}·sqrt(r) + {:.4} ms/page  (R² = {:.3})",
            fit.a / 1e6,
            fit.b / 1e6,
            fit.r2
        );
    }
    for n in model.pim.n_values().collect::<Vec<_>>() {
        let fit = model.pim.fit_for(n).unwrap();
        println!(
            "  pim-gb  n={n}: T = {:.5}·M + {:.4} ms  (R² = {:.3})",
            fit.slope / 1e6,
            fit.intercept / 1e6,
            fit.r2
        );
    }

    // Run the GROUP BY queries and show the split decision.
    println!("\nquery        k_MAX  sampled  k->PIM   groups   latency");
    for id in ["Q2.1", "Q2.3", "Q3.1", "Q3.4", "Q4.1"] {
        let q = query_set.iter().find(|q| q.id == id).expect("known query");
        let out = engine.run(q)?;
        // cross-check against the row-at-a-time oracle
        let oracle = stats::run_oracle(q, &wide)?;
        assert_eq!(out.groups, oracle, "{id} must match the oracle");
        let r = &out.report;
        println!(
            "{:<12} {:>5} {:>8} {:>7} {:>8} {:>8.3} ms",
            id,
            r.total_subgroups,
            r.subgroups_in_sample,
            r.pim_agg_subgroups,
            out.groups.len(),
            r.time_ns / 1e6
        );
    }
    println!("\n(k->PIM = subgroups aggregated in-memory; the rest are hash-aggregated");
    println!(" at the host from the filter bit-vector — the paper's Section IV hybrid.)");
    Ok(())
}
