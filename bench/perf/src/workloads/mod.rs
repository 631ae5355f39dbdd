//! The four workloads and what they share: the per-pass simulated-clock
//! view every end-to-end sim metric is computed from, and the
//! decompositions of phase logs and cluster reports the traced run
//! turns into per-layer metrics.

use std::collections::BTreeMap;

use bbpim::cluster::ClusterReport;
use bbpim::db::ssb::{SsbDb, SsbParams};
use bbpim::engine::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim::engine::groupby::cost_model::GroupByModel;
use bbpim::engine::modes::EngineMode;
use bbpim::sim::timeline::{PhaseKind, RunLog};
use bbpim::sim::SimConfig;

use crate::catalog;
use crate::span::Recorder;
use crate::stats;

pub mod serve_tenants;
pub mod ssb_modes;
pub mod star_join;
pub mod stream_htap;

/// Years of back-to-back execution the endurance metric assumes
/// (Fig. 9).
pub const ENDURANCE_YEARS: f64 = 10.0;

/// The simulated-clock outcome of one pass — everything the end-to-end
/// sim metrics need. Two passes over one seed must produce equal views.
#[derive(Debug, Clone, PartialEq)]
pub struct SimView {
    /// Latency of every completed op, ns: `report.time_ns` for batch
    /// ops, completion − arrival for streamed ops.
    pub lat_ns: Vec<f64>,
    /// Ops offered (completions plus drops).
    pub ops: usize,
    /// Batch: Σ latency; streamed: last completion.
    pub makespan_ns: f64,
    pub energy_pj: f64,
    pub peak_chip_w: f64,
    /// Worst module's required endurance over [`ENDURANCE_YEARS`].
    pub required_endurance: f64,
    /// Bytes that crossed the host↔module channel.
    pub chan_bytes: u64,
    /// Ops dropped, shed, or later than the workload's frozen limit.
    pub slo_missed: usize,
}

impl SimView {
    /// The end-to-end sim metrics, by catalogue name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let ms = |ns: Option<f64>| ns.unwrap_or(0.0) / 1e6;
        let missed = self.slo_missed as f64 / self.ops.max(1) as f64;
        vec![
            ("sim_lat_p50_ms", ms(stats::percentile(&self.lat_ns, 50.0))),
            ("sim_lat_p95_ms", ms(stats::percentile(&self.lat_ns, 95.0))),
            ("sim_lat_geomean_ms", ms(stats::geomean_positive(&self.lat_ns).0)),
            ("sim_makespan_ms", self.makespan_ns / 1e6),
            ("sim_energy_uj", self.energy_pj / 1e6),
            ("sim_peak_chip_w", self.peak_chip_w),
            ("sim_required_endurance", self.required_endurance),
            ("sim_chan_kb_per_op", self.chan_bytes as f64 / 1024.0 / self.ops.max(1) as f64),
            ("slo_met_share", 1.0 - missed),
            ("slo_miss_share", missed),
        ]
    }
}

/// One measured pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Wall seconds inside the workload's top-level entry point(s).
    pub host_s: f64,
    pub sim: SimView,
}

/// Per-layer metric values by catalogue name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set a catalogued per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not carry — a benchmark bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = catalog::PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a catalogued per-layer metric"));
        self.0.insert(def.name, value + 0.0); // an empty f64 sum is -0.0
    }

    /// Copy `rec`'s self-time sums into the `*_s` metrics named after
    /// its spans (`core.run` → `core.run_s`), leaving alone what the
    /// workload already set itself (inclusive times such as
    /// `sched.run_stream_s`).
    pub fn fill_span_seconds(&mut self, rec: &Recorder) {
        for (span, seconds) in rec.self_seconds() {
            let name = format!("{span}_s");
            if !self.0.contains_key(name.as_str())
                && catalog::PER_LAYER.iter().any(|d| d.name == name)
            {
                self.set(&name, seconds);
            }
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A workload the generic measuring loop can drive.
pub trait Workload: Sized {
    /// Generate inputs from `seed` and construct the system under test
    /// — the region `setup_s` times. Spans: `db.generate`,
    /// `db.prejoin`, then the layer constructors.
    fn build(seed: u64, smoke: bool, rec: &Recorder) -> Self;

    fn fact_rows(&self) -> usize;

    /// Query ops one pass executes (the numerator of
    /// `host_mrows_per_s`).
    fn query_ops(&self) -> usize;

    /// One untraced pass through the top-level entry point(s). The
    /// pass's answers are kept for [`Workload::verify`].
    fn pass(&mut self) -> Pass;

    /// Check the latest pass's answers against the row oracle (computed
    /// on first use, under a `db.oracle` span — outside `setup_s` and
    /// `host_s`: the oracle is the benchmark's, not the system's).
    /// Returns ops attempted and ops that errored or disagreed.
    fn verify(&mut self, rec: &Recorder) -> (u64, u64);

    /// The traced pass: the same work through the public building
    /// blocks with a span per layer call, plus this workload's layer
    /// probes. Returns the traced pass's own view (must equal the
    /// untraced one) and its host seconds.
    fn traced(&mut self, rec: &Recorder, baseline: &Pass, layers: &mut Layers) -> (SimView, f64);
}

/// Seed of every input `--seed` does not re-draw: the four dimension
/// tables and the arrival traces (the workspace's default `0xB17B17`).
pub const FROZEN_SEED: u64 = 0xB1_7B17;

/// The SSB instance of one run: the fact table drawn from `seed`, the
/// four dimension tables from [`FROZEN_SEED`].
///
/// At the scale factors a run can afford, SUPPLIER holds 20–100 rows;
/// re-drawing it flips whole query predicates between empty and
/// non-empty, and every simulated metric then swings by tens of
/// percent from seed to seed. The fact table (60 k–300 k rows) is where
/// a seed can vary the input while aggregates stay comparable. With
/// `seed == FROZEN_SEED` this is exactly `SsbDb::generate`.
pub fn generate_db(sf: f64, skewed: bool, seed: u64) -> SsbDb {
    let mut params = if skewed { SsbParams::skewed(sf) } else { SsbParams::uniform(sf) };
    params.seed = FROZEN_SEED;
    let mut db = SsbDb::generate(&params);
    params.seed = seed;
    db.lineorder = SsbDb::generate(&params).lineorder;
    db.params = params;
    db
}

/// SSB flight (0-based) of a query id such as `Q3.2`.
pub fn flight_of(query_id: &str) -> Option<usize> {
    match query_id.as_bytes() {
        [b'Q', d @ b'1'..=b'4', b'.', ..] => Some((d - b'1') as usize),
        _ => None,
    }
}

/// Fit the (data-independent) GROUP-BY cost model once; clusters
/// install it with `set_model` instead of sweeping per shard.
pub fn fit_model(mode: EngineMode) -> GroupByModel {
    run_calibration(&SimConfig::default(), mode, &CalibrationConfig::default())
        .expect("calibration sweep on the default configuration")
        .1
}

/// Relative difference, 0 when both are 0.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Decompose phase logs by kind into the `sim.phase_ms.*`,
/// `sim.energy_uj.*` and `sim.chan_bytes.*` metrics. Returns the
/// conservation error: Σ over kinds of `time_in` against Σ
/// `total_time_ns` (relative).
pub fn phase_layers<'a>(
    logs: impl Iterator<Item = &'a RunLog> + Clone,
    layers: &mut Layers,
) -> f64 {
    let mut by_kind_ns = 0.0;
    for kind in PhaseKind::ALL {
        let ns: f64 = logs.clone().map(|l| l.time_in(kind)).sum();
        let pj: f64 = logs.clone().map(|l| l.energy_in(kind)).sum();
        layers.set(&format!("sim.phase_ms.{}", kind.label()), ns / 1e6);
        layers.set(&format!("sim.energy_uj.{}", kind.label()), pj / 1e6);
        by_kind_ns += ns;
    }
    let bytes = |kind| logs.clone().map(|l| l.host_bytes_in(kind)).sum::<u64>() as f64;
    layers.set("sim.chan_bytes.read", bytes(PhaseKind::HostRead));
    layers.set("sim.chan_bytes.write", bytes(PhaseKind::HostWrite));
    layers.set("sim.chan_bytes.dispatch", bytes(PhaseKind::HostDispatch));
    rel_diff(by_kind_ns, logs.map(RunLog::total_time_ns).sum())
}

/// The `cluster.*` simulated-clock metrics and the `core.*` counts of a
/// set of cluster reports. Returns the conservation error: per report,
/// Σ per-shard `time_ns` against `total_shard_time_ns` and against the
/// per-shard phase logs (worst relative difference).
pub fn cluster_layers(reports: &[&ClusterReport], layers: &mut Layers) -> f64 {
    let sum = |f: &dyn Fn(&ClusterReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    layers.set("cluster.dispatch_ms", sum(&|r| r.dispatch_time_ns) / 1e6);
    layers.set("cluster.bus_ms", sum(&|r| r.host_bus_time_ns) / 1e6);
    layers.set("cluster.merge_ms", sum(&|r| r.merge_time_ns) / 1e6);
    layers.set("cluster.shard_busy_ms", sum(&|r| r.total_shard_time_ns) / 1e6);
    // max/mean shard busy, averaged over the ops that dispatched work:
    // what the slowest shard costs a result that waits for all of them
    let stragglers: Vec<f64> = reports
        .iter()
        .filter(|r| r.total_shard_time_ns > 0.0)
        .map(|r| {
            let max = r.per_shard.iter().map(|s| s.time_ns).fold(0.0, f64::max);
            max / (r.total_shard_time_ns / r.per_shard.len() as f64)
        })
        .collect();
    if !stragglers.is_empty() {
        layers.set(
            "cluster.straggler_ratio",
            stragglers.iter().sum::<f64>() / stragglers.len() as f64,
        );
    }
    let dispatched = sum(&|r| r.per_shard.len() as f64);
    let pruned = sum(&|r| r.shards_pruned as f64);
    layers.set("cluster.shards_dispatched", dispatched);
    layers.set("cluster.shards_pruned", pruned);
    if dispatched + pruned > 0.0 {
        layers.set("cluster.shard_prune_ratio", pruned / (dispatched + pruned));
    }
    let scanned = sum(&|r| r.pages_scanned as f64);
    let total = sum(&|r| r.pages_total as f64);
    layers.set("core.pages_scanned", scanned);
    layers.set("core.pages_total", total);
    if total > 0.0 {
        layers.set("core.page_prune_ratio", 1.0 - scanned / total);
    }
    layers.set("core.selected_rows", sum(&|r| r.selected as f64));
    layers.set(
        "core.pim_agg_subgroups",
        sum(&|r| r.per_shard.iter().map(|s| s.pim_agg_subgroups as f64).sum()),
    );
    layers.set(
        "sim.cell_writes_max_row",
        reports
            .iter()
            .flat_map(|r| r.per_shard.iter().map(|s| s.max_row_cell_writes))
            .max()
            .unwrap_or(0) as f64,
    );
    reports
        .iter()
        .map(|r| {
            let shard_sum: f64 = r.per_shard.iter().map(|s| s.time_ns).sum();
            let log_sum: f64 = r.per_shard.iter().map(|s| s.phases.total_time_ns()).sum();
            rel_diff(shard_sum, r.total_shard_time_ns).max(rel_diff(log_sum, r.total_shard_time_ns))
        })
        .fold(0.0, f64::max)
}

/// Bus metrics of a batch (nothing overlaps across ops): busy time is
/// the summed channel occupancy, the horizon the summed latency.
pub fn batch_bus_layers(bus_busy_ns: f64, makespan_ns: f64, layers: &mut Layers) {
    layers.set("sim.bus_busy_ms", bus_busy_ns / 1e6);
    let demand = if makespan_ns > 0.0 { bus_busy_ns / makespan_ns } else { 0.0 };
    layers.set("sim.bus_util", demand.clamp(0.0, 1.0));
    layers.set("sim.bus_demand", demand);
}

/// Float-reassociation noise below this is reported as exactly 0.
pub const CONSERVATION_NOISE: f64 = 1e-12;

/// Record `bench.conservation_err` from the workload's own checks.
pub fn set_conservation(errs: &[f64], layers: &mut Layers) {
    let worst = errs.iter().copied().fold(0.0, f64::max);
    layers.set("bench.conservation_err", if worst < CONSERVATION_NOISE { 0.0 } else { worst });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flights_parse() {
        assert_eq!(flight_of("Q1.1"), Some(0));
        assert_eq!(flight_of("Q4.3"), Some(3));
        assert_eq!(flight_of("q1-3agg"), None);
        assert_eq!(flight_of("Q5.1"), None);
    }

    #[test]
    fn sim_view_metrics_cover_the_sim_catalogue() {
        let view = SimView {
            lat_ns: vec![1e6, 2e6, 0.0, 4e6],
            ops: 5,
            makespan_ns: 7e6,
            energy_pj: 3e6,
            peak_chip_w: 1.5,
            required_endurance: 1e9,
            chan_bytes: 10 * 1024,
            slo_missed: 1,
        };
        let got: BTreeMap<_, _> = view.metrics().into_iter().collect();
        for d in catalog::END_TO_END.iter().filter(|d| d.clock == catalog::Clock::Sim) {
            assert!(got.contains_key(d.name), "{}", d.name);
        }
        assert_eq!(got["sim_lat_p50_ms"], 1.0);
        assert_eq!(got["sim_lat_p95_ms"], 4.0);
        assert!((got["sim_lat_geomean_ms"] - 2.0).abs() < 1e-12); // zero skipped
        assert_eq!(got["sim_chan_kb_per_op"], 2.0);
        assert_eq!(got["slo_met_share"], 0.8);
    }
}
