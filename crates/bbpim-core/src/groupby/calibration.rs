//! Empirical latency calibration — the measurements behind Fig. 4 and
//! the lookup tables of Eqs. (1)–(2).
//!
//! The paper measures host-gb and pim-gb latencies on synthetic
//! databases, then fits `∂T_host-gb/∂M` to `a(s)·√r + b(s)` and
//! `T_pim-gb` to a line in `M` per `n`. [`run_calibration`] reproduces
//! that procedure against the simulator: host-gb points are produced by
//! the same line-counting/timing model the real host-gb path uses;
//! pim-gb points run the real pim-gb pipeline (group-mask program,
//! aggregation, result read) on a synthetic relation.

use std::collections::BTreeMap;
use std::ops::Range;

use bbpim_db::plan::{AggExpr, PhysFunc};
use bbpim_db::schema::{Attribute, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::CoreError;
use crate::groupby::cost_model::{GroupByModel, HostGbModel, PimGbModel};
use crate::groupby::fitting::{fit_linear, fit_sqrt};
use crate::groupby::pim_gb::PreparedAgg;
use crate::layout::RecordLayout;
use crate::modes::EngineMode;
use crate::planner::PageSet;
use crate::record::ScatteredRead;
use crate::table::PimTable;
use bbpim_sim::config::SimConfig;
use bbpim_sim::hostmem;

/// Calibration sweep parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationConfig {
    /// Page counts to sweep (the paper sweeps to ~500; a handful
    /// suffices because the response is linear in M by construction).
    pub ms: Vec<usize>,
    /// Reads-per-record values for host-gb (`s`).
    pub s_values: Vec<usize>,
    /// Selection densities for host-gb (`r`).
    pub r_values: Vec<f64>,
    /// Reads-per-value for pim-gb (`n`).
    pub n_values: Vec<usize>,
    /// Seed for synthetic masks/data.
    pub seed: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            ms: vec![1, 2, 4, 8],
            s_values: vec![2, 4, 6, 8],
            // The small-r tail matters: low-selectivity queries (SSB Q2.3,
            // Q3.3…) live at r ≈ 1e-4..1e-2, and the k decision hinges on
            // the fitted b(s) there.
            r_values: vec![0.001, 0.005, 0.01, 0.05, 0.2, 0.4, 0.8],
            n_values: vec![1, 2, 3, 4],
            seed: 0xCA11B,
        }
    }
}

impl CalibrationConfig {
    /// A minimal sweep for unit tests.
    pub fn tiny_for_tests() -> Self {
        CalibrationConfig {
            ms: vec![1, 2],
            s_values: vec![2, 4],
            r_values: vec![0.05, 0.4],
            n_values: vec![1, 2],
            seed: 3,
        }
    }
}

/// One host-gb measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostPoint {
    /// Pages.
    pub m: usize,
    /// Reads per record.
    pub s: usize,
    /// Target selection density.
    pub r: f64,
    /// Measured (simulated) latency, nanoseconds.
    pub time_ns: f64,
}

/// One pim-gb measurement (single subgroup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimPoint {
    /// Pages.
    pub m: usize,
    /// Reads per value.
    pub n: usize,
    /// Measured (simulated) latency, nanoseconds.
    pub time_ns: f64,
}

/// All measurements of one calibration run (the data behind Fig. 4).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationData {
    /// Host-gb sweep.
    pub host_points: Vec<HostPoint>,
    /// Pim-gb sweep.
    pub pim_points: Vec<PimPoint>,
}

impl CalibrationData {
    /// The measured host-gb slope dT/dM at one `(s, r)`: a point of
    /// Fig. 4b, through which Eq. (1)'s `a(s)·√r + b(s)` is fitted.
    pub fn host_slope(&self, s: usize, r: f64) -> f64 {
        let at_sr = self.host_points.iter().filter(|p| p.s == s && (p.r - r).abs() < 1e-12);
        fit_linear(&at_sr.map(|p| (p.m as f64, p.time_ns)).collect::<Vec<_>>()).slope
    }
}

/// Simulated host-gb latency for a synthetic selection — `selected`,
/// the indices of the chosen records of `m` pages: the same
/// streaming mask read + scattered unique-line record read +
/// host-aggregation model the real host-gb path charges. Each record
/// is marked as `selected` yields it, so a sweep that draws its
/// selection lazily builds no mask.
///
/// # Panics
///
/// Panics on a record past the `m` pages.
pub fn host_gb_time_ns(
    cfg: &SimConfig,
    m: usize,
    s: usize,
    selected: impl IntoIterator<Item = usize>,
) -> f64 {
    let mask_lines = (m * cfg.crossbar_rows) as u64;
    let mut fetched = ScatteredRead::new(cfg, m * cfg.records_per_page());
    let mut count = 0u64;
    for record in selected {
        fetched.mark(record);
        count += 1;
    }
    hostmem::read_time_ns(cfg, mask_lines)
        + hostmem::scattered_read_time_ns(cfg, fetched.lines(s))
        + hostmem::fold_time_ns(cfg, count)
}

/// Does a grid hold two distinct values — what a line fit over it needs?
fn spans<T: PartialEq>(grid: &[T]) -> bool {
    grid.first().is_some_and(|first| grid.iter().any(|v| v != first))
}

/// Run the full calibration for a mode; returns the raw measurements
/// and the fitted [`GroupByModel`].
///
/// # Errors
///
/// [`CoreError::Unsupported`], before anything is built, for a sweep
/// the fits cannot use: fewer than two distinct page counts or `r`
/// values, an empty `s` or `n` grid, `n = 0` (a zero-bit value), or an
/// `r` that is negative or not finite (the fit is in `√r`). Simulator
/// and loader failures otherwise.
pub fn run_calibration(
    cfg: &SimConfig,
    mode: EngineMode,
    cal: &CalibrationConfig,
) -> Result<(CalibrationData, GroupByModel), CoreError> {
    let checks = [
        (spans(&cal.ms) && spans(&cal.r_values), "two distinct page counts and two distinct r"),
        (!cal.s_values.is_empty() && !cal.n_values.is_empty(), "non-empty s and n grids"),
        (!cal.n_values.contains(&0), "every n to be at least one read per value"),
        (
            cal.r_values.iter().all(|r| r.is_finite() && *r >= 0.0),
            "every r finite and not negative",
        ),
    ];
    if let Some((_, need)) = checks.iter().find(|(ok, _)| !ok) {
        return Err(CoreError::Unsupported(format!("calibration needs {need}")));
    }
    let mut rng = StdRng::seed_from_u64(cal.seed);
    let mut data = CalibrationData::default();

    // ---- host-gb sweep (Fig. 4a) --------------------------------------
    let records_per_page = cfg.records_per_page();
    for &s in &cal.s_values {
        for &r in &cal.r_values {
            for &m in &cal.ms {
                let selected = (0..m * records_per_page).filter(|_| rng.gen::<f64>() < r);
                let time_ns = host_gb_time_ns(cfg, m, s, selected);
                data.host_points.push(HostPoint { m, s, r, time_ns });
            }
        }
    }

    // ---- pim-gb sweep (Fig. 4c): real pipeline on synthetic data ------
    for &n in &cal.n_values {
        let value_bits = (16 * n).min(64);
        for &m in &cal.ms {
            let time_ns = measure_pim_point(cfg, mode, m, value_bits, &mut rng)?;
            data.pim_points.push(PimPoint { m, n, time_ns });
        }
    }

    // ---- fits (Fig. 4b / Eq. 1, Eq. 2) ---------------------------------
    let mut per_s = BTreeMap::new();
    for &s in &cal.s_values {
        // slope dT/dM per r, then a(s)√r + b(s)
        let slopes: Vec<(f64, f64)> =
            cal.r_values.iter().map(|&r| (r, data.host_slope(s, r))).collect();
        per_s.insert(s, fit_sqrt(&slopes));
    }
    let mut per_n = BTreeMap::new();
    for &n in &cal.n_values {
        let pts: Vec<(f64, f64)> =
            data.pim_points.iter().filter(|p| p.n == n).map(|p| (p.m as f64, p.time_ns)).collect();
        per_n.insert(n, fit_linear(&pts));
    }

    let model = GroupByModel { host: HostGbModel::new(per_s), pim: PimGbModel::new(per_n) };
    Ok((data, model))
}

/// Measure one pim-gb point: build a synthetic relation of `m` pages,
/// run filter + one-subgroup pim-gb, return the simulated time.
fn measure_pim_point(
    cfg: &SimConfig,
    mode: EngineMode,
    m: usize,
    value_bits: usize,
    rng: &mut StdRng,
) -> Result<f64, CoreError> {
    let schema = Schema::new(
        "cal",
        vec![Attribute::numeric("lo_value", value_bits), Attribute::numeric("d_key", 10)],
    )?;
    let records = m * cfg.records_per_page();
    // drawn a record at a time, stored a column at a time; values of at
    // most 16 bits fit every `value_bits` (≥ 16), keys below 1000 fit 10
    let mut columns: [Vec<u16>; 2] = [Vec::with_capacity(records), Vec::with_capacity(records)];
    for _ in 0..records {
        columns[0].push(rng.gen::<u64>() as u16);
        columns[1].push(rng.gen_range(0..1000u32) as u16);
    }
    let layout = RecordLayout::build(&schema, cfg, mode, &[])?;
    let column = |attr: usize, run: Range<usize>, values: &mut Vec<u64>| {
        values.clear();
        values.extend(columns[attr][run].iter().map(|&v| u64::from(v)));
    };
    let mut table = PimTable::from_columns(cfg.clone(), schema, mode, layout, records, column)?;

    // Calibration is always exhaustive — the fitted tables describe
    // per-page costs, which the planner then applies to candidate pages.
    let mut scan = table.begin(PageSet::all(table.page_count()), None);
    // Query mask: everything — one empty conjunction is the TRUE filter.
    scan.filter(&[Vec::new()])?;
    let input = scan.materialize(&[&AggExpr::Attr("lo_value".into())])?[0];
    let gp = scan.table().layout().project(["d_key"])?;
    // Dispatch and filter cost are not part of T_pim-gb.
    scan.take_log();
    let aggs = [PreparedAgg::Reduce { func: PhysFunc::Sum, input }];
    scan.pim_gb(&gp, &[vec![42u64]], &aggs, input.scratch_left)?;
    Ok(scan.take_log().total_time_ns())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::small_for_tests()
    }

    /// The selected records of a mask.
    fn ones(mask: &[bool]) -> Vec<usize> {
        mask.iter().enumerate().filter(|(_, b)| **b).map(|(record, _)| record).collect()
    }

    #[test]
    fn calibration_produces_full_grids() {
        let cal = CalibrationConfig::tiny_for_tests();
        let (data, model) = run_calibration(&cfg(), EngineMode::OneXb, &cal).unwrap();
        assert_eq!(data.host_points.len(), cal.ms.len() * cal.s_values.len() * cal.r_values.len());
        assert_eq!(data.pim_points.len(), cal.ms.len() * cal.n_values.len());
        assert_eq!(model.host.s_values().count(), cal.s_values.len());
        assert_eq!(model.pim.n_values().count(), cal.n_values.len());
    }

    #[test]
    fn unusable_grids_are_rejected_before_anything_is_built() {
        let tiny = CalibrationConfig::tiny_for_tests;
        let bad = [
            CalibrationConfig { n_values: vec![0, 1], ..tiny() },
            CalibrationConfig { ms: vec![2, 2], ..tiny() },
            CalibrationConfig { r_values: vec![0.2, 0.2], ..tiny() },
            CalibrationConfig { r_values: vec![f64::NAN, 0.5], ..tiny() },
            CalibrationConfig { r_values: vec![-0.5, 0.5], ..tiny() },
            CalibrationConfig { r_values: vec![0.5, f64::INFINITY], ..tiny() },
            CalibrationConfig { s_values: vec![], ..tiny() },
        ];
        for cal in bad {
            let got = run_calibration(&SimConfig::default(), EngineMode::OneXb, &cal);
            assert!(matches!(got, Err(CoreError::Unsupported(_))), "{cal:?}: {got:?}");
        }
        // a repeated value beside two distinct ones is still a usable grid
        let repeated =
            CalibrationConfig { ms: vec![1, 1, 2], r_values: vec![0.05, 0.4, 0.4], ..tiny() };
        assert!(run_calibration(&cfg(), EngineMode::OneXb, &repeated).is_ok());
    }

    #[test]
    fn host_time_increases_with_m_s_r() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let mk_mask = |m: usize, r: f64, rng: &mut StdRng| -> Vec<bool> {
            (0..m * c.records_per_page()).map(|_| rng.gen::<f64>() < r).collect()
        };
        let base = host_gb_time_ns(&c, 2, 2, ones(&mk_mask(2, 0.2, &mut rng)));
        let more_m = host_gb_time_ns(&c, 4, 2, ones(&mk_mask(4, 0.2, &mut rng)));
        let more_s = host_gb_time_ns(&c, 2, 6, ones(&mk_mask(2, 0.2, &mut rng)));
        let more_r = host_gb_time_ns(&c, 2, 2, ones(&mk_mask(2, 0.9, &mut rng)));
        assert!(more_m > base);
        assert!(more_s > base);
        assert!(more_r > base);
    }

    #[test]
    fn host_time_counts_the_lines_its_old_statement_did() {
        // the statement the line rule replaced: a row-group of `per_row`
        // records shares each of its `s` chunk lines
        for c in [cfg(), SimConfig::default()] {
            let mut rng = StdRng::seed_from_u64(0x01D);
            for (m, s, r) in [(1, 2, 0.0), (2, 4, 0.003), (3, 6, 0.3), (1, 8, 1.0)] {
                let mask: Vec<bool> =
                    (0..m * c.records_per_page()).map(|_| rng.gen::<f64>() < r).collect();
                let groups = mask.chunks(c.crossbars_per_page()).filter(|g| g.contains(&true));
                let data_lines = groups.count() as u64 * s as u64;
                let selected = mask.iter().filter(|b| **b).count() as f64;
                let expected = hostmem::read_time_ns(&c, (m * c.crossbar_rows) as u64)
                    + hostmem::scattered_read_time_ns(&c, data_lines)
                    + selected * c.host.host_agg_ns_per_record / c.host.threads as f64;
                assert_eq!(host_gb_time_ns(&c, m, s, ones(&mask)), expected, "m={m} s={s} r={r}");
            }
        }
    }

    #[test]
    fn pim_fit_is_tightly_linear_in_m() {
        let cal = CalibrationConfig {
            ms: vec![1, 2, 3],
            s_values: vec![2],
            r_values: vec![0.1, 0.4],
            n_values: vec![1],
            seed: 5,
        };
        let (_, model) = run_calibration(&cfg(), EngineMode::OneXb, &cal).unwrap();
        let fit = model.pim.fit_for(1).unwrap();
        assert!(fit.r2 > 0.99, "R² {}", fit.r2);
        assert!(fit.slope >= 0.0);
    }

    #[test]
    fn pimdb_pim_gb_slower_than_one_xb() {
        let cal = CalibrationConfig::tiny_for_tests();
        let (_, one) = run_calibration(&cfg(), EngineMode::OneXb, &cal).unwrap();
        let (_, pimdb) = run_calibration(&cfg(), EngineMode::PimDb, &cal).unwrap();
        let m = 2;
        assert!(
            pimdb.pim.time_ns(m, 1).unwrap() > one.pim.time_ns(m, 1).unwrap(),
            "bitwise reduction must dominate the circuit"
        );
    }

    #[test]
    fn host_model_fits_sqrt_shape_reasonably() {
        let cal = CalibrationConfig {
            ms: vec![1, 2, 4],
            s_values: vec![2],
            r_values: vec![0.01, 0.05, 0.1, 0.3, 0.6, 0.9],
            n_values: vec![1],
            seed: 7,
        };
        let (_, model) = run_calibration(&cfg(), EngineMode::OneXb, &cal).unwrap();
        let fit = model.host.fit_for(2).unwrap();
        // the shape is concave-increasing; the √r fit should capture most
        // of the variance even though our line-count law is not exactly √r
        assert!(fit.r2 > 0.6, "R² {}", fit.r2);
        assert!(model.host.time_ns(4, 2, 0.4).unwrap() > model.host.time_ns(4, 2, 0.01).unwrap());
    }
}
