//! Least-squares fits for the empirical latency models (Section IV).
//!
//! The paper fits `∂T_host-gb/∂M` to `a·√r + b` per value of `s`
//! (Fig. 4b) and `T_pim-gb` to a line in `M` per value of `n`
//! (Fig. 4c). Both are ordinary least squares in one transformed
//! regressor; fit quality is reported as R².

/// A fit `y = a·√r + b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqrtFit {
    /// Coefficient of √r.
    pub a: f64,
    /// Intercept.
    pub b: f64,
    /// Coefficient of determination on the fitted points.
    pub r2: f64,
}

impl SqrtFit {
    /// Evaluate at `r`.
    pub fn eval(&self, r: f64) -> f64 {
        self.a * r.max(0.0).sqrt() + self.b
    }
}

/// A fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination on the fitted points.
    pub r2: f64,
}

impl LinFit {
    /// Evaluate at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Ordinary least squares of `y` on a single regressor `x`.
///
/// Returns `(slope, intercept, r2)`.
///
/// # Panics
///
/// Panics on fewer than 2 points or a degenerate (constant-x) input.
pub fn least_squares(points: &[(f64, f64)]) -> (f64, f64, f64) {
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "degenerate regressor (all x equal)");
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|(x, y)| (y - (slope * x + intercept)).powi(2)).sum();
    let r2 = if ss_tot <= 1e-12 { 1.0 } else { 1.0 - ss_res / ss_tot };
    (slope, intercept, r2)
}

/// Fit `y = a·√r + b` to `(r, y)` points.
///
/// # Panics
///
/// Same conditions as [`least_squares`].
pub fn fit_sqrt(points: &[(f64, f64)]) -> SqrtFit {
    let transformed: Vec<(f64, f64)> =
        points.iter().map(|(r, y)| (r.max(0.0).sqrt(), *y)).collect();
    let (a, b, r2) = least_squares(&transformed);
    SqrtFit { a, b, r2 }
}

/// Fit `y = slope·x + intercept` to `(x, y)` points.
///
/// # Panics
///
/// Same conditions as [`least_squares`].
pub fn fit_linear(points: &[(f64, f64)]) -> LinFit {
    let (slope, intercept, r2) = least_squares(points);
    LinFit { slope, intercept, r2 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 * i as f64 + 2.0)).collect();
        let f = fit_linear(&pts);
        assert!((f.slope - 3.0).abs() < 1e-9);
        assert!((f.intercept - 2.0).abs() < 1e-9);
        assert!(f.r2 > 0.999999);
    }

    #[test]
    fn exact_sqrt_recovered() {
        let pts: Vec<(f64, f64)> =
            [0.01f64, 0.05, 0.1, 0.4, 0.8].iter().map(|&r| (r, 5.0 * r.sqrt() + 1.0)).collect();
        let f = fit_sqrt(&pts);
        assert!((f.a - 5.0).abs() < 1e-9);
        assert!((f.b - 1.0).abs() < 1e-9);
        assert!((f.eval(0.25) - (5.0 * 0.5 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn r2_degrades_with_noise() {
        let clean: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, 2.0 * i as f64)).collect();
        let noisy: Vec<(f64, f64)> = clean
            .iter()
            .enumerate()
            .map(|(i, (x, y))| (*x, y + if i % 2 == 0 { 10.0 } else { -10.0 }))
            .collect();
        assert!(fit_linear(&clean).r2 > fit_linear(&noisy).r2);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_point_rejected() {
        let _ = fit_linear(&[(1.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn constant_x_rejected() {
        let _ = fit_linear(&[(1.0, 2.0), (1.0, 3.0)]);
    }
}
