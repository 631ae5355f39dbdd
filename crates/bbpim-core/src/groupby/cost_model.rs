//! The empirical GROUP-BY latency model — Eqs. (1)–(3) of the paper.
//!
//! * Eq. (1): `T_host-gb(M, s, r) = M · (a(s)·√r + b(s))` — host-side
//!   aggregation time, with `a`/`b` lookup tables over the discrete
//!   reads-per-record values `s`.
//! * Eq. (2): `T_pim-gb(M, n) = M · ∂T/∂M(n) + T₀(n)` — single-subgroup
//!   PIM aggregation time, lookup tables over the discrete
//!   reads-per-value `n`.
//! * Eq. (3): `T_gb = k · T_pim-gb + (1 − δ_{k,kmax}) · T_host-gb(M, s,
//!   r(k))` — the total; the engine picks the `k` minimising it.

use std::collections::BTreeMap;

use crate::error::CoreError;
use crate::groupby::fitting::{LinFit, SqrtFit};

/// Eq. (1): host-gb latency model with `a(s)`, `b(s)` lookup tables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HostGbModel {
    per_s: BTreeMap<usize, SqrtFit>,
}

impl HostGbModel {
    /// Build from per-`s` fits of `∂T/∂M` against √r.
    pub fn new(per_s: BTreeMap<usize, SqrtFit>) -> Self {
        HostGbModel { per_s }
    }

    /// The fitted `s` values.
    pub fn s_values(&self) -> impl Iterator<Item = usize> + '_ {
        self.per_s.keys().copied()
    }

    /// The fit for an `s` (nearest fitted value — `s` is discrete but a
    /// query may need an `s` outside the calibration grid).
    pub fn fit_for(&self, s: usize) -> Option<&SqrtFit> {
        self.per_s.iter().min_by_key(|(k, _)| k.abs_diff(s)).map(|(_, f)| f)
    }

    /// Eq. (1), nanoseconds.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotCalibrated`] when the model has no fits
    /// (construct via calibration).
    pub fn time_ns(&self, m: usize, s: usize, r: f64) -> Result<f64, CoreError> {
        let fit = self.fit_for(s).ok_or(CoreError::NotCalibrated)?;
        Ok((m as f64 * fit.eval(r)).max(0.0))
    }
}

/// Eq. (2): pim-gb single-subgroup latency model with `n` lookup tables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PimGbModel {
    per_n: BTreeMap<usize, LinFit>,
}

impl PimGbModel {
    /// Build from per-`n` linear fits in `M`.
    pub fn new(per_n: BTreeMap<usize, LinFit>) -> Self {
        PimGbModel { per_n }
    }

    /// The fitted `n` values.
    pub fn n_values(&self) -> impl Iterator<Item = usize> + '_ {
        self.per_n.keys().copied()
    }

    /// The fit for an `n` (nearest fitted value).
    pub fn fit_for(&self, n: usize) -> Option<&LinFit> {
        self.per_n.iter().min_by_key(|(k, _)| k.abs_diff(n)).map(|(_, f)| f)
    }

    /// Eq. (2), nanoseconds.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotCalibrated`] when the model has no fits.
    pub fn time_ns(&self, m: usize, n: usize) -> Result<f64, CoreError> {
        let fit = self.fit_for(n).ok_or(CoreError::NotCalibrated)?;
        Ok(fit.eval(m as f64).max(0.0))
    }
}

/// The combined model used by the hybrid GROUP-BY decision.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupByModel {
    /// Eq. (1) tables.
    pub host: HostGbModel,
    /// Eq. (2) tables.
    pub pim: PimGbModel,
}

/// Inputs of one Eq. (3) evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbParams {
    /// Relation size in pages (`M`).
    pub m: usize,
    /// Aggregated-value reads per crossbar (`n`).
    pub n: usize,
    /// Reads per record for host-gb (`s`).
    pub s: usize,
    /// Total potential subgroups (`k_MAX`).
    pub kmax: usize,
}

impl GroupByModel {
    /// Does each table hold at least one fit? A model without (e.g.
    /// `GroupByModel::default()`) cannot evaluate Eq. (3), so the engines
    /// treat it as no model at all.
    pub fn is_fitted(&self) -> bool {
        !self.host.per_s.is_empty() && !self.pim.per_n.is_empty()
    }

    /// Eq. (3): total GROUP-BY time for a given `k`, where `r_k` is the
    /// estimated ratio of *relation* records left to host-gb after the
    /// `k` largest subgroups go to PIM.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotCalibrated`] when either table has no fits.
    pub fn total_time_ns(&self, p: &GbParams, k: usize, r_k: f64) -> Result<f64, CoreError> {
        let pim = k as f64 * self.pim.time_ns(p.m, p.n)?;
        let host = if k >= p.kmax { 0.0 } else { self.host.time_ns(p.m, p.s, r_k)? };
        Ok(pim + host)
    }

    /// Choose the `k` (0..=kmax) minimising Eq. (3). `r_of_k(k)` comes
    /// from the sampling estimate. Deterministic tie-break: smaller `k`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotCalibrated`] when either table has no fits.
    pub fn choose_k(
        &self,
        p: &GbParams,
        r_of_k: &dyn Fn(usize) -> f64,
    ) -> Result<usize, CoreError> {
        let mut best_k = 0;
        let mut best_t = f64::INFINITY;
        for k in 0..=p.kmax {
            let t = self.total_time_ns(p, k, r_of_k(k))?;
            if t < best_t {
                best_t = t;
                best_k = k;
            }
        }
        Ok(best_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(pim_cost: f64, host_a: f64, host_b: f64) -> GroupByModel {
        let mut per_s = BTreeMap::new();
        per_s.insert(2, SqrtFit { a: host_a, b: host_b, r2: 1.0 });
        per_s.insert(4, SqrtFit { a: host_a * 2.0, b: host_b * 2.0, r2: 1.0 });
        let mut per_n = BTreeMap::new();
        per_n.insert(1, LinFit { slope: 0.0, intercept: pim_cost, r2: 1.0 });
        GroupByModel { host: HostGbModel::new(per_s), pim: PimGbModel::new(per_n) }
    }

    #[test]
    fn host_time_scales_with_m_and_sqrt_r() {
        let m = model(0.0, 100.0, 10.0);
        let t1 = m.host.time_ns(10, 2, 0.25).unwrap();
        assert!((t1 - 10.0 * (100.0 * 0.5 + 10.0)).abs() < 1e-9);
        let t2 = m.host.time_ns(20, 2, 0.25).unwrap();
        assert!((t2 - 2.0 * t1).abs() < 1e-9);
    }

    #[test]
    fn nearest_s_lookup() {
        let m = model(0.0, 100.0, 10.0);
        // s=3 → nearest fitted is 2 or 4; BTreeMap order makes 2 the min
        let t3 = m.host.time_ns(1, 3, 0.0).unwrap();
        let t2 = m.host.time_ns(1, 2, 0.0).unwrap();
        assert!((t3 - t2).abs() < 1e-9);
        // s=6 → nearest fitted is 4
        let t6 = m.host.time_ns(1, 6, 0.0).unwrap();
        assert!((t6 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn all_pim_when_few_subgroups_and_cheap_pim() {
        let m = model(1.0, 1000.0, 100.0);
        let p = GbParams { m: 10, n: 1, s: 2, kmax: 3 };
        // three equal subgroups; sending them all to PIM costs 3 vs host ≥ 1000
        let r = |k: usize| 1.0 - k as f64 / 3.0;
        assert_eq!(m.choose_k(&p, &r).unwrap(), 3);
    }

    #[test]
    fn all_host_when_pim_expensive() {
        let m = model(1e9, 100.0, 10.0);
        let p = GbParams { m: 10, n: 1, s: 2, kmax: 500 };
        let r = |k: usize| 1.0 - k as f64 / 500.0;
        assert_eq!(m.choose_k(&p, &r).unwrap(), 0);
    }

    #[test]
    fn skewed_sizes_favor_partial_k() {
        // One huge subgroup (90 % of records), many tiny ones: taking the
        // head into PIM slashes host time; the tail is cheaper on the
        // host than 100 more PIM rounds (pim per-subgroup cost high
        // enough that k = kmax does not pay).
        let m = model(50_000.0, 100_000.0, 1_000.0);
        let p = GbParams { m: 100, n: 1, s: 2, kmax: 100 };
        let r = |k: usize| {
            if k == 0 {
                1.0
            } else {
                0.1 * (1.0 - (k as f64 - 1.0) / 99.0)
            }
        };
        let k = m.choose_k(&p, &r).unwrap();
        assert!(k >= 1, "head must go to PIM");
        assert!(k < 100, "tail should stay on the host, got k={k}");
    }

    #[test]
    fn eq3_drops_host_term_at_kmax() {
        let m = model(1.0, 100.0, 10.0);
        let p = GbParams { m: 10, n: 1, s: 2, kmax: 5 };
        // even with r(kmax) > 0 (sample missed records), δ kills the term
        let t = m.total_time_ns(&p, 5, 0.5).unwrap();
        assert!((t - 5.0).abs() < 1e-9);
    }

    #[test]
    fn a_model_without_fits_is_not_calibrated() {
        let unfitted = GroupByModel::default();
        let p = GbParams { m: 10, n: 1, s: 2, kmax: 3 };
        let not_calibrated = |r: Result<f64, CoreError>| matches!(r, Err(CoreError::NotCalibrated));
        assert!(not_calibrated(unfitted.host.time_ns(10, 2, 0.5)));
        assert!(not_calibrated(unfitted.pim.time_ns(10, 1)));
        assert!(not_calibrated(unfitted.total_time_ns(&p, 0, 1.0)));
        assert!(matches!(unfitted.choose_k(&p, &|_| 1.0), Err(CoreError::NotCalibrated)));
        // one table fitted is not enough either: k = kmax still prices pim-gb
        let host_only = GroupByModel { pim: PimGbModel::default(), ..model(1.0, 100.0, 10.0) };
        assert!(not_calibrated(host_only.total_time_ns(&p, 3, 0.0)));
        assert!(matches!(host_only.choose_k(&p, &|_| 1.0), Err(CoreError::NotCalibrated)));
    }
}
