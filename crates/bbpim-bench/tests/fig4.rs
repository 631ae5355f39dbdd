//! `paper --fig 4` prints the fit the engines decide with: for every
//! engine mode, each fitted line of the figure is the one
//! `fit_shared_model` returns, on the `CalibrationConfig::default()` grid.

use std::process::Command;

use bbpim_bench::fit_shared_model;
use bbpim_core::groupby::calibration::CalibrationConfig;
use bbpim_core::modes::EngineMode;

const PAPER: &str = env!("CARGO_BIN_EXE_paper");

#[test]
fn fig4_prints_the_shared_fit_of_every_mode() {
    let cal = CalibrationConfig::default();
    for mode in EngineMode::all() {
        let out =
            Command::new(PAPER).args(["--fig", "4", "--mode", mode.label()]).output().unwrap();
        assert!(out.status.success(), "paper --fig 4 --mode {}", mode.label());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let printed: Vec<&str> = stdout.lines().filter(|l| l.starts_with("  fit ")).collect();

        let (data, model) = fit_shared_model(mode);
        let host = cal.s_values.iter().map(|&s| {
            let fit = model.host.fit_for(s).unwrap();
            let (a, b) = (fit.a / 1e6, fit.b / 1e6);
            format!("  fit s={s}: a = {a:.4} ms/page, b = {b:.4} ms/page, R² = {:.4}", fit.r2)
        });
        let pim = cal.n_values.iter().map(|&n| {
            let fit = model.pim.fit_for(n).unwrap();
            let (slope, t0) = (fit.slope / 1e6, fit.intercept / 1e6);
            format!("  fit n={n}: dT/dM = {slope:.5} ms/page, T0 = {t0:.4} ms, R² = {:.4}", fit.r2)
        });
        assert_eq!(printed, host.chain(pim).collect::<Vec<_>>(), "{}", mode.label());

        // the measurements behind it span the default grid
        let max_m = data.pim_points.iter().map(|p| p.m).max();
        assert_eq!(max_m, cal.ms.last().copied(), "{}", mode.label());
        let min_r = data.host_points.iter().map(|p| p.r).fold(f64::INFINITY, f64::min);
        assert_eq!(min_r, cal.r_values[0], "{}", mode.label());
    }
}
