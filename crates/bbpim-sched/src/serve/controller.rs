//! The AIMD in-flight-window controller.
//!
//! The streaming scheduler bounds load with a static `max_in_flight`
//! knob; picking it is guesswork — too wide and every in-flight query
//! time-slices the shared host channel (tail latency inflates with the
//! window), too narrow and modules idle. The controller closes the
//! loop instead: each completion contributes its **SLO-normalised**
//! latency (observed latency over the owning tenant's p95 target, or
//! over the request's own deadline where that is tighter), and
//! every `sample_window` completions the controller compares the
//! windowed p95 of those ratios against [`AimdConfig::target`]:
//!
//! * at or below half the target it raises. As in TCP's slow start,
//!   each raise doubles the last until the p95 first leaves that band
//!   (a window that starts small would otherwise spend most of a short
//!   session climbing one step per sample); from then on every raise is
//!   [`AimdConfig::additive_increase`];
//! * between half the target and the target it holds — the hold band
//!   that keeps a window near its knee from overshooting;
//! * above the target it cuts multiplicatively — at most once per
//!   window of completions: the requests in flight when it cut report
//!   the window it cut, so their samples hold instead of cutting again
//!   (as TCP cuts at most once per round trip).
//!
//! Normalising by the per-tenant target makes one global window serve
//! mixed SLOs: a light tenant's tight promise and a heavy tenant's
//! loose one pull the same signal in commensurable units.
//!
//! Everything is a pure function of the completion sequence, so serve
//! sessions stay bit-deterministic per seed.

use crate::error::SchedError;
use crate::report::percentile;

/// How the global in-flight window is set.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowPolicy {
    /// The legacy fixed bound (what `--inflight` used to pin).
    Static(usize),
    /// Closed-loop AIMD on the windowed SLO-normalised p95.
    Aimd(AimdConfig),
}

/// AIMD controller parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AimdConfig {
    /// Threshold on the windowed SLO-normalised p95 (observed p95
    /// latency / tenant p95 target): cut above, hold down to half of
    /// it, raise at or below half.
    /// 1.0 means "track the SLO exactly"; below 1.0 leaves headroom.
    pub target: f64,
    /// Window at session start.
    pub initial_window: usize,
    /// Hard floor (≥ 1: the scheduler must always admit something).
    pub min_window: usize,
    /// Hard ceiling.
    pub max_window: usize,
    /// Additive raise per raising decision (once the p95 has left the
    /// raise band; until then, the raise doubles from this value).
    pub additive_increase: usize,
    /// Multiplicative cut factor per violation, in (0, 1).
    pub multiplicative_decrease: f64,
    /// Completions per decision (the p95 sample window).
    pub sample_window: usize,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            target: 1.0,
            initial_window: 4,
            min_window: 1,
            max_window: 64,
            additive_increase: 1,
            multiplicative_decrease: 0.5,
            sample_window: 8,
        }
    }
}

impl AimdConfig {
    /// Validate the parameters.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] for an empty window range, a
    /// decrease factor outside (0, 1), a non-positive target, a zero
    /// increase, or a zero sample window.
    pub fn validate(&self) -> Result<(), SchedError> {
        let fail = |m: String| Err(SchedError::InvalidConfig(m));
        if self.min_window == 0 {
            return fail("min_window must be at least 1".into());
        }
        if self.max_window < self.min_window {
            return fail(format!(
                "max_window {} below min_window {}",
                self.max_window, self.min_window
            ));
        }
        if self.initial_window < self.min_window || self.initial_window > self.max_window {
            return fail(format!(
                "initial_window {} outside [{}, {}]",
                self.initial_window, self.min_window, self.max_window
            ));
        }
        if !(self.target.is_finite() && self.target > 0.0) {
            return fail(format!("target must be positive, got {}", self.target));
        }
        if self.additive_increase == 0 {
            return fail("additive_increase must be at least 1".into());
        }
        if !(self.multiplicative_decrease > 0.0 && self.multiplicative_decrease < 1.0) {
            return fail(format!(
                "multiplicative_decrease must be in (0, 1), got {}",
                self.multiplicative_decrease
            ));
        }
        if self.sample_window == 0 {
            return fail("sample_window must be at least 1".into());
        }
        Ok(())
    }
}

/// One controller decision, for trajectory reports and traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowDecision {
    /// Simulated instant of the deciding completion.
    pub t_ns: f64,
    /// The windowed p95 of SLO-normalised latencies that decided.
    pub p95_ratio: f64,
    /// The window after the decision.
    pub window: usize,
}

/// The AIMD state machine: feed it SLO-normalised completion
/// latencies, read the window.
#[derive(Debug, Clone)]
pub struct AimdController {
    cfg: AimdConfig,
    window: usize,
    /// The next under-target raise: `additive_increase`, doubled after
    /// each raise until the first violation (slow start), then fixed.
    raise: usize,
    slow_start: bool,
    /// Completions still owed by requests admitted before the last cut:
    /// they report the window that was cut, so they cannot cut again.
    stale: usize,
    samples: Vec<f64>,
    decisions: Vec<WindowDecision>,
}

/// The hold band's floor, as a share of [`AimdConfig::target`]: a
/// windowed p95 above it but within the target keeps the window (and
/// ends slow start); only a p95 at or below it raises.
const HOLD_FLOOR: f64 = 0.5;

impl AimdController {
    /// Start at [`AimdConfig::initial_window`].
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] per [`AimdConfig::validate`].
    pub fn new(cfg: AimdConfig) -> Result<AimdController, SchedError> {
        cfg.validate()?;
        let (window, raise) = (cfg.initial_window, cfg.additive_increase);
        Ok(AimdController {
            cfg,
            window,
            raise,
            slow_start: true,
            stale: 0,
            samples: Vec::new(),
            decisions: Vec::new(),
        })
    }

    /// The current in-flight window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The decision log so far.
    pub fn decisions(&self) -> &[WindowDecision] {
        &self.decisions
    }

    /// Feed one completion's SLO-normalised latency (latency over the
    /// owning tenant's p95 target) observed at `t_ns`. Returns the new
    /// window when this completion closed a sample window and forced a
    /// decision, `None` otherwise.
    pub fn on_completion(&mut self, t_ns: f64, latency_ratio: f64) -> Option<usize> {
        self.samples.push(latency_ratio);
        self.stale = self.stale.saturating_sub(1);
        if self.samples.len() < self.cfg.sample_window {
            return None;
        }
        let mut sorted = std::mem::take(&mut self.samples);
        sorted.sort_by(f64::total_cmp);
        let p95_ratio = percentile(&sorted, 95.0);
        self.window = if p95_ratio > self.cfg.target {
            if self.stale > 0 {
                // The requests admitted under the window already cut
                // are still reporting: hold.
                self.window
            } else {
                // Violation: multiplicative cut, floored; slow start is over.
                self.slow_start = false;
                self.raise = self.cfg.additive_increase;
                self.stale = self.window;
                let cut = (self.window as f64 * self.cfg.multiplicative_decrease).floor() as usize;
                cut.max(self.cfg.min_window)
            }
        } else if p95_ratio > HOLD_FLOOR * self.cfg.target {
            // Close to the target: hold, and climb no faster from here.
            self.slow_start = false;
            self.raise = self.cfg.additive_increase;
            self.window
        } else {
            // Under target: raise, capped. Until the first violation each
            // raise is twice the last, so a window that starts too small
            // climbs to its level in log steps rather than linear ones.
            let raised = (self.window + self.raise).min(self.cfg.max_window);
            if self.slow_start {
                self.raise = (2 * self.raise).min(self.cfg.max_window);
            }
            raised
        };
        self.decisions.push(WindowDecision { t_ns, p95_ratio, window: self.window });
        Some(self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(cfg: AimdConfig) -> AimdController {
        AimdController::new(cfg).unwrap()
    }

    #[test]
    fn config_validation_catches_each_knob() {
        assert!(AimdConfig::default().validate().is_ok());
        let bad = [
            AimdConfig { min_window: 0, ..Default::default() },
            AimdConfig { max_window: 2, initial_window: 4, ..Default::default() },
            AimdConfig { initial_window: 0, ..Default::default() },
            AimdConfig { target: 0.0, ..Default::default() },
            AimdConfig { target: f64::NAN, ..Default::default() },
            AimdConfig { additive_increase: 0, ..Default::default() },
            AimdConfig { multiplicative_decrease: 1.0, ..Default::default() },
            AimdConfig { multiplicative_decrease: 0.0, ..Default::default() },
            AimdConfig { sample_window: 0, ..Default::default() },
        ];
        for cfg in bad {
            assert!(
                matches!(cfg.validate(), Err(SchedError::InvalidConfig(_))),
                "should reject {cfg:?}"
            );
        }
    }

    #[test]
    fn raises_additively_under_target_and_cuts_multiplicatively_over() {
        let mut c = ctl(AimdConfig { sample_window: 2, initial_window: 8, ..Default::default() });
        // Two good samples: one decision, +1.
        assert_eq!(c.on_completion(1.0, 0.5), None);
        assert_eq!(c.on_completion(2.0, 0.5), Some(9));
        // Violation: 9 → floor(4.5) = 4.
        c.on_completion(3.0, 2.0);
        assert_eq!(c.on_completion(4.0, 2.0), Some(4));
        assert_eq!(c.decisions().len(), 2);
        assert_eq!(c.decisions()[1].window, 4);
        assert!(c.decisions()[1].p95_ratio > 1.0);
    }

    #[test]
    fn raises_double_until_the_first_violation_then_stay_additive() {
        let mut c = ctl(AimdConfig {
            sample_window: 1,
            initial_window: 2,
            max_window: 64,
            ..Default::default()
        });
        let windows: Vec<usize> = [0.5, 0.5, 0.5, 2.0, 0.5, 0.5]
            .iter()
            .map(|&r| c.on_completion(0.0, r).unwrap())
            .collect();
        // +1, +2, +4; the cut halves 9; then +1 each
        assert_eq!(windows, [3, 5, 9, 4, 5, 6]);
    }

    #[test]
    fn window_never_leaves_configured_bounds() {
        let cfg = AimdConfig {
            sample_window: 1,
            initial_window: 3,
            min_window: 1,
            max_window: 6,
            ..Default::default()
        };
        // Hammer violations far past the floor…
        let mut c = ctl(cfg.clone());
        for i in 0..20 {
            c.on_completion(i as f64, 100.0);
            assert!(c.window() >= 1, "window fell below 1 at step {i}");
        }
        assert_eq!(c.window(), 1);
        // …and successes far past the ceiling.
        let mut c = ctl(cfg);
        for i in 0..20 {
            c.on_completion(i as f64, 0.01);
            assert!(c.window() <= 6, "window rose above max at step {i}");
        }
        assert_eq!(c.window(), 6);
    }

    #[test]
    fn decision_uses_windowed_p95_not_mean() {
        // 19 fast + 1 slow in a 20-sample window: p95 (nearest rank
        // 19) is still fast → raise. Two slow: rank 19 is slow → cut.
        let cfg = AimdConfig { sample_window: 20, initial_window: 10, ..Default::default() };
        let mut c = ctl(cfg.clone());
        for i in 0..19 {
            c.on_completion(i as f64, 0.1);
        }
        assert_eq!(c.on_completion(19.0, 50.0), Some(11), "one outlier must not cut");
        let mut c = ctl(cfg);
        for i in 0..18 {
            c.on_completion(i as f64, 0.1);
        }
        c.on_completion(18.0, 50.0);
        assert_eq!(c.on_completion(19.0, 50.0), Some(5), "p95 violation cuts");
    }

    #[test]
    fn identical_sample_streams_yield_identical_trajectories() {
        let cfg = AimdConfig { sample_window: 3, ..Default::default() };
        let feed = |c: &mut AimdController| {
            let samples = [0.2, 0.9, 1.4, 2.0, 0.3, 0.1, 0.5, 1.8, 1.1, 0.6, 0.4, 0.2];
            for (i, s) in samples.iter().enumerate() {
                c.on_completion(i as f64 * 10.0, *s);
            }
        };
        let mut a = ctl(cfg.clone());
        let mut b = ctl(cfg);
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(a.window(), b.window());
    }

    #[test]
    fn the_hold_band_keeps_the_window_and_ends_slow_start() {
        let mut c = ctl(AimdConfig { sample_window: 1, initial_window: 4, ..Default::default() });
        assert_eq!(c.on_completion(0.0, 0.2), Some(5), "raise band");
        assert_eq!(c.on_completion(1.0, 0.7), Some(5), "hold band");
        assert_eq!(c.on_completion(2.0, 1.0), Some(5), "the target itself holds");
        assert_eq!(c.on_completion(3.0, 0.5), Some(6), "half the target raises, additively");
        assert_eq!(c.on_completion(4.0, 0.1), Some(7));
    }

    #[test]
    fn one_cut_per_window_of_completions() {
        let mut c = ctl(AimdConfig { sample_window: 1, initial_window: 8, ..Default::default() });
        assert_eq!(c.on_completion(0.0, 3.0), Some(4), "the first violation cuts");
        // the eight requests in flight at the cut report it: seven
        // more violations hold, the eighth completion may cut again
        for i in 1..8 {
            assert_eq!(c.on_completion(i as f64, 3.0), Some(4), "stale sample {i}");
        }
        assert_eq!(c.on_completion(8.0, 3.0), Some(2));
    }
}
