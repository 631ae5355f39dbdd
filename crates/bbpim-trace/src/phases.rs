//! Fold simulator phase logs into the metrics registry.
//!
//! One call per [`RunLog`] turns the per-phase accounting the
//! simulator already keeps into the three per-kind series the paper's
//! breakdown figures need: time (Fig. 6), energy (Fig. 7) and
//! host-channel bytes (the journal extension's byte diet).

use bbpim_sim::timeline::{PhaseKind, RunLog};

use crate::metrics::MetricsRegistry;

/// Per-phase-kind time counter, nanoseconds.
pub const PHASE_TIME_NS: &str = "bbpim_phase_time_ns_total";
/// Per-phase-kind PIM energy counter, picojoules.
pub const PHASE_ENERGY_PJ: &str = "bbpim_phase_energy_pj_total";
/// Per-phase-kind host-channel byte counter.
pub const HOST_BYTES: &str = "bbpim_host_bytes_total";
/// Accumulated worst-row cell writes, counter (the endurance model's
/// input — defined here so the scheduler's and the serving layer's
/// per-module wear land in the same series family).
pub const CELL_WRITES: &str = "bbpim_cell_writes_total";
/// Required cell endurance (write cycles over the paper's ten-year
/// horizon), gauge.
pub const REQUIRED_ENDURANCE: &str = "bbpim_required_endurance_cycles";

/// Accumulate a phase log's per-kind time / energy / host bytes into
/// `reg`, labelled `kind=<phase label>` plus the caller's `labels`.
/// Kinds the log never entered contribute nothing (no zero-valued
/// series clutter).
pub fn record_run_log(reg: &mut MetricsRegistry, log: &RunLog, labels: &[(&str, &str)]) {
    for kind in PhaseKind::ALL {
        let time = log.time_in(kind);
        let energy = log.energy_in(kind);
        let bytes = log.host_bytes_in(kind);
        if time == 0.0 && energy == 0.0 && bytes == 0 {
            continue;
        }
        let mut with_kind: Vec<(&str, &str)> = labels.to_vec();
        with_kind.push(("kind", kind.label()));
        if time != 0.0 {
            reg.counter_add(PHASE_TIME_NS, &with_kind, time);
        }
        if energy != 0.0 {
            reg.counter_add(PHASE_ENERGY_PJ, &with_kind, energy);
        }
        if bytes != 0 {
            reg.counter_add(HOST_BYTES, &with_kind, bytes as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_sim::timeline::Phase;

    #[test]
    fn run_log_folds_into_per_kind_counters() {
        let mut log = RunLog::new();
        log.push(Phase {
            kind: PhaseKind::PimLogic,
            time_ns: 100.0,
            energy_pj: 7.0,
            chip_power_w: 0.0,
            host_bytes: 0,
        });
        log.push(Phase {
            kind: PhaseKind::HostRead,
            time_ns: 50.0,
            energy_pj: 0.0,
            chip_power_w: 0.0,
            host_bytes: 4096,
        });
        log.push(Phase::host_dispatch(10.0));
        let mut reg = MetricsRegistry::new();
        record_run_log(&mut reg, &log, &[("run", "t")]);
        let labels = |k: &'static str| [("run", "t"), ("kind", k)];
        assert_eq!(reg.counter(PHASE_TIME_NS, &labels("pim-logic")), Some(100.0));
        assert_eq!(reg.counter(PHASE_ENERGY_PJ, &labels("pim-logic")), Some(7.0));
        assert_eq!(reg.counter(HOST_BYTES, &labels("host-read")), Some(4096.0));
        assert_eq!(reg.counter(PHASE_TIME_NS, &labels("host-dispatch")), Some(10.0));
        // untouched kinds create no series
        assert_eq!(reg.counter(PHASE_TIME_NS, &labels("pim-reduce")), None);
        // a second log accumulates into the same counters
        record_run_log(&mut reg, &log, &[("run", "t")]);
        assert_eq!(reg.counter(PHASE_TIME_NS, &labels("pim-logic")), Some(200.0));
    }
}
