//! Fig. 4: empirical latency modeling.
//!
//! * (a) `T_host-gb` vs page count M for representative (s, r) pairs
//! * (b) `∂T_host-gb/∂M` vs r per s, with the fitted `a(s)·√r + b(s)`
//! * (c) `T_pim-gb` (single subgroup) vs M per n, with the linear fits
//!
//! `--mode pimdb|two_xb|one_xb` selects the engine variant (default
//! one_xb; the paper repeats the modeling per version).

use bbpim_core::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim_core::modes::EngineMode;

use bbpim_bench::{print_table, BenchConfig};
use bbpim_sim::SimConfig;

fn main() {
    let modes = ("--mode", ["pimdb", "two_xb", "one_xb"].as_slice());
    let (_, flags) = BenchConfig::from_args_with(&[], &[modes]);
    let mode = match flags.value("--mode") {
        Some("pimdb") => EngineMode::PimDb,
        Some("two_xb") => EngineMode::TwoXb,
        _ => EngineMode::OneXb,
    };
    let cfg = SimConfig::default();
    let cal = CalibrationConfig {
        ms: vec![1, 2, 4, 8, 16],
        s_values: vec![2, 4, 6, 8],
        r_values: vec![0.01, 0.05, 0.1, 0.2, 0.4, 0.8],
        n_values: vec![1, 2, 3, 4],
        seed: 0xF14,
    };
    println!("Fig. 4 — empirical latency modeling ({})\n", mode.label());
    let (data, model) = run_calibration(&cfg, mode, &cal).expect("calibration");

    // ---- (a) T_host-gb vs M ------------------------------------------
    println!("(a) T_host-gb [ms] vs page count M");
    let picks: Vec<(usize, f64)> =
        vec![(2, 0.01), (2, 0.4), (2, 0.8), (4, 0.01), (4, 0.2), (4, 0.8)];
    let mut headers = vec!["M".to_string()];
    headers.extend(picks.iter().map(|(s, r)| format!("s={s},r={:.0}%", r * 100.0)));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = cal
        .ms
        .iter()
        .map(|m| {
            let mut row = vec![m.to_string()];
            for (s, r) in &picks {
                let t = data
                    .host_points
                    .iter()
                    .find(|p| p.m == *m && p.s == *s && (p.r - r).abs() < 1e-12)
                    .map(|p| p.time_ns / 1e6)
                    .unwrap_or(f64::NAN);
                row.push(format!("{t:.4}"));
            }
            row
        })
        .collect();
    print_table(&header_refs, &rows);

    // ---- (b) slope vs r with fits -------------------------------------
    println!("\n(b) dT_host-gb/dM [ms/page] vs r, fitted a(s)*sqrt(r)+b(s)");
    let mut rows_b = Vec::new();
    for &s in &cal.s_values {
        let fit = model.host.fit_for(s).expect("fit");
        for &r in &cal.r_values {
            // recompute the measured slope for this (s, r)
            let pts: Vec<(f64, f64)> = data
                .host_points
                .iter()
                .filter(|p| p.s == s && (p.r - r).abs() < 1e-12)
                .map(|p| (p.m as f64, p.time_ns))
                .collect();
            let slope = bbpim_core::groupby::fitting::fit_linear(&pts).slope;
            rows_b.push(vec![
                format!("s={s}"),
                format!("{:.0}%", r * 100.0),
                format!("{:.5}", slope / 1e6),
                format!("{:.5}", fit.eval(r) / 1e6),
            ]);
        }
        println!(
            "  fit s={s}: a = {:.4} ms/page, b = {:.4} ms/page, R² = {:.4}",
            fit.a / 1e6,
            fit.b / 1e6,
            fit.r2
        );
    }
    print_table(&["s", "r", "measured slope", "fitted"], &rows_b);

    // ---- (c) T_pim-gb vs M --------------------------------------------
    println!("\n(c) T_pim-gb (single subgroup) [ms] vs M, per n");
    let mut headers_c = vec!["M".to_string()];
    headers_c.extend(cal.n_values.iter().map(|n| format!("n={n}")));
    let hc: Vec<&str> = headers_c.iter().map(String::as_str).collect();
    let rows_c: Vec<Vec<String>> = cal
        .ms
        .iter()
        .map(|m| {
            let mut row = vec![m.to_string()];
            for n in &cal.n_values {
                let t = data
                    .pim_points
                    .iter()
                    .find(|p| p.m == *m && p.n == *n)
                    .map(|p| p.time_ns / 1e6)
                    .unwrap_or(f64::NAN);
                row.push(format!("{t:.4}"));
            }
            row
        })
        .collect();
    print_table(&hc, &rows_c);
    for &n in &cal.n_values {
        let fit = model.pim.fit_for(n).expect("fit");
        println!(
            "  fit n={n}: dT/dM = {:.5} ms/page, T0 = {:.4} ms, R² = {:.4}",
            fit.slope / 1e6,
            fit.intercept / 1e6,
            fit.r2
        );
    }
    println!("\npaper shape: T_host-gb linear in M; slope concave in r (a·sqrt(r)+b);");
    println!("             T_pim-gb linear in M with n-dependent coefficients.");
}
