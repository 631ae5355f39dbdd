//! Phase-based time / energy / power accounting.
//!
//! Query execution decomposes into sequential *phases* (issue + PIM
//! logic, aggregation-circuit runs, host line reads, host compute…).
//! Each [`Phase`] carries its simulated duration, the PIM-module energy
//! it consumed, and the instantaneous power one PIM chip draws while the
//! phase runs. A [`RunLog`] accumulates phases and yields the three
//! quantities the paper reports per query: execution latency (Fig. 6),
//! PIM energy (Fig. 7) and peak per-chip power (Fig. 8).

/// What a phase was doing (used for reporting breakdowns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Bulk-bitwise logic executing a microprogram (incl. request issue).
    PimLogic,
    /// The peripheral aggregation circuits are running.
    PimAggCircuit,
    /// Pure bulk-bitwise reduction (PIMDB-style aggregation).
    PimReduce,
    /// Page controllers expanding a compressed mask transfer into
    /// crossbar mask columns (module-local: the wire bytes already
    /// crossed the channel in the preceding host read/write phases).
    PimUnpack,
    /// Page controllers streaming a crossbar mask column into its wire
    /// encoding before a compressed host read — the module-local mirror
    /// of [`PhaseKind::PimUnpack`] for the read direction.
    PimPack,
    /// Page controllers folding per-crossbar aggregation partials into
    /// one finalised partial per physical aggregate, so only that
    /// partial crosses the channel instead of per-page result lines.
    PimCombine,
    /// Host reading cache lines from the PIM rank.
    HostRead,
    /// Host writing cache lines into the PIM rank.
    HostWrite,
    /// Host-only computation (hash aggregation, model evaluation…).
    HostCompute,
    /// Host-side query orchestration: planning the page set and posting
    /// one PIM request descriptor per huge page to be touched. The
    /// journal extension of the paper measures this host work dominating
    /// end-to-end time for selective queries, which is what zone-map
    /// pruning removes for pages proven irrelevant.
    HostDispatch,
}

impl PhaseKind {
    /// Every phase kind, in declaration order — for exhaustive
    /// per-kind breakdowns (metrics, reports).
    pub const ALL: [PhaseKind; 10] = [
        PhaseKind::PimLogic,
        PhaseKind::PimAggCircuit,
        PhaseKind::PimReduce,
        PhaseKind::PimUnpack,
        PhaseKind::PimPack,
        PhaseKind::PimCombine,
        PhaseKind::HostRead,
        PhaseKind::HostWrite,
        PhaseKind::HostCompute,
        PhaseKind::HostDispatch,
    ];

    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PhaseKind::PimLogic => "pim-logic",
            PhaseKind::PimAggCircuit => "pim-agg-circuit",
            PhaseKind::PimReduce => "pim-reduce",
            PhaseKind::PimUnpack => "pim-unpack",
            PhaseKind::PimPack => "pim-pack",
            PhaseKind::PimCombine => "pim-combine",
            PhaseKind::HostRead => "host-read",
            PhaseKind::HostWrite => "host-write",
            PhaseKind::HostCompute => "host-compute",
            PhaseKind::HostDispatch => "host-dispatch",
        }
    }
}

/// One sequential slice of a query's execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// What was running.
    pub kind: PhaseKind,
    /// Simulated duration in nanoseconds.
    pub time_ns: f64,
    /// PIM-module energy consumed, picojoules (host-only phases: 0).
    pub energy_pj: f64,
    /// Power drawn by a single PIM chip during the phase, watts.
    pub chip_power_w: f64,
    /// Bytes this phase moved over the host↔module channel (cache-line
    /// transfers: reads, writes). Zero for phases that never touch the
    /// channel (PIM logic, host compute). Host-dispatch phases carry
    /// their descriptor bytes for the ledger, but their channel
    /// occupancy stays their duration, not a data volume. The shared
    /// host bus ([`crate::hostbus`]) turns these byte tags into
    /// contention grants.
    pub host_bytes: u64,
}

impl Phase {
    /// A host-compute phase: time passes, the PIM module idles.
    pub fn host_compute(time_ns: f64) -> Self {
        Phase {
            kind: PhaseKind::HostCompute,
            time_ns,
            energy_pj: 0.0,
            chip_power_w: 0.0,
            host_bytes: 0,
        }
    }

    /// A host-dispatch phase (query orchestration): the host works, the
    /// PIM module idles, so no module energy is drawn. Batched run-list
    /// descriptors tag their bytes on top
    /// ([`crate::module::PimModule::dispatch_phase`]); the channel
    /// occupancy remains the phase duration.
    pub fn host_dispatch(time_ns: f64) -> Self {
        Phase {
            kind: PhaseKind::HostDispatch,
            time_ns,
            energy_pj: 0.0,
            chip_power_w: 0.0,
            host_bytes: 0,
        }
    }
}

/// Accumulated phases of one query (or one calibration run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLog {
    phases: Vec<Phase>,
}

impl RunLog {
    /// Empty log.
    pub fn new() -> Self {
        RunLog::default()
    }

    /// Append a phase.
    pub fn push(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    /// Append every phase of `other`.
    pub fn extend(&mut self, other: &RunLog) {
        self.phases.extend_from_slice(&other.phases);
    }

    /// The recorded phases, in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total simulated time (phases are sequential), nanoseconds.
    pub fn total_time_ns(&self) -> f64 {
        self.phases.iter().map(|p| p.time_ns).sum()
    }

    /// Total PIM-module energy, picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.phases.iter().map(|p| p.energy_pj).sum()
    }

    /// Peak instantaneous power of one PIM chip, watts (Fig. 8).
    pub fn peak_chip_power_w(&self) -> f64 {
        self.phases.iter().map(|p| p.chip_power_w).fold(0.0, f64::max)
    }

    /// Time spent in a given phase kind, nanoseconds.
    pub fn time_in(&self, kind: PhaseKind) -> f64 {
        self.phases.iter().filter(|p| p.kind == kind).map(|p| p.time_ns).sum()
    }

    /// Energy spent in a given phase kind, picojoules.
    pub fn energy_in(&self, kind: PhaseKind) -> f64 {
        self.phases.iter().filter(|p| p.kind == kind).map(|p| p.energy_pj).sum()
    }

    /// Bytes moved over the host↔module channel in a given phase kind.
    pub fn host_bytes_in(&self, kind: PhaseKind) -> u64 {
        self.phases.iter().filter(|p| p.kind == kind).map(|p| p.host_bytes).sum()
    }

    /// Total bytes moved over the host↔module channel.
    pub fn host_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.host_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(kind: PhaseKind, t: f64, e: f64, p: f64) -> Phase {
        Phase { kind, time_ns: t, energy_pj: e, chip_power_w: p, host_bytes: 0 }
    }

    #[test]
    fn totals_accumulate() {
        let mut log = RunLog::new();
        log.push(phase(PhaseKind::PimLogic, 100.0, 10.0, 2.0));
        log.push(phase(PhaseKind::HostRead, 50.0, 5.0, 0.5));
        assert!((log.total_time_ns() - 150.0).abs() < 1e-12);
        assert!((log.total_energy_pj() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn peak_power_is_max_over_phases() {
        let mut log = RunLog::new();
        log.push(phase(PhaseKind::PimLogic, 1.0, 0.0, 2.0));
        log.push(phase(PhaseKind::PimAggCircuit, 1.0, 0.0, 7.5));
        log.push(phase(PhaseKind::HostRead, 1.0, 0.0, 1.0));
        assert!((log.peak_chip_power_w() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn per_kind_breakdown() {
        let mut log = RunLog::new();
        log.push(phase(PhaseKind::PimLogic, 10.0, 1.0, 0.0));
        log.push(phase(PhaseKind::PimLogic, 20.0, 2.0, 0.0));
        log.push(phase(PhaseKind::HostRead, 5.0, 0.5, 0.0));
        assert!((log.time_in(PhaseKind::PimLogic) - 30.0).abs() < 1e-12);
        assert!((log.energy_in(PhaseKind::HostRead) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn host_compute_has_no_pim_energy() {
        let p = Phase::host_compute(42.0);
        assert_eq!(p.energy_pj, 0.0);
        assert_eq!(p.kind, PhaseKind::HostCompute);
    }

    #[test]
    fn empty_log_is_all_zero() {
        let log = RunLog::new();
        assert_eq!(log.total_time_ns(), 0.0);
        assert_eq!(log.peak_chip_power_w(), 0.0);
    }
}
