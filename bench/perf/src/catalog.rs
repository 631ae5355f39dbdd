//! The metric and workload catalogue.
//!
//! Names, units, clocks and directions live here; the regression
//! bounds live in the repo-root `BENCHMARK.json`, embedded at compile
//! time so `check` and the emitted-set self-check read the same file
//! the driver does. `README.md` carries the prose: which layer metric
//! should move which end-to-end metric on which workload.

use crate::json::{self, Value};

/// Which clock a number was read from — named on every number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall seconds this machine burned; noisy, fastest of several passes.
    Host,
    /// The modelled hardware's ns / pJ / bytes; deterministic per seed.
    Sim,
    /// A count or a ratio of counts; deterministic per seed.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }

    /// Must the value repeat exactly for one seed?
    pub fn deterministic(self) -> bool {
        !matches!(self, Clock::Host)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> MetricDef {
    MetricDef { name, unit, clock, better }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Sim};

/// End-to-end metrics, every one emitted for every workload.
/// `failed_share` and `slo_miss_share` are 0 on a healthy run, which
/// the driver's contract forbids for a bounded metric, so
/// `BENCHMARK.json` carries `slo_met_share` (= 1 − miss share) and the
/// contract's own `failed` / `attempted` fields instead; both are still
/// printed and written to the result files.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Host, Lower),
    m("host_s", "s", Host, Lower),
    m("host_mrows_per_s", "Mrow/s", Host, Higher),
    m("peak_rss_mb", "MB", Host, Lower),
    m("sim_lat_p50_ms", "sim_ms", Sim, Lower),
    m("sim_lat_p95_ms", "sim_ms", Sim, Lower),
    m("sim_lat_geomean_ms", "sim_ms", Sim, Lower),
    m("sim_makespan_ms", "sim_ms", Sim, Lower),
    m("sim_energy_uj", "sim_uJ", Sim, Lower),
    m("sim_peak_chip_w", "sim_W", Sim, Lower),
    m("sim_required_endurance", "sim_cycles", Sim, Lower),
    m("sim_chan_kb_per_op", "sim_KB", Sim, Lower),
    m("slo_met_share", "share", Sim, Higher),
    m("slo_miss_share", "share", Sim, Lower),
    m("failed_share", "share", Count, Lower),
];

/// Per-layer metrics (prefix = crate). A layer a workload bypasses
/// reports 0: it did no work there.
pub const PER_LAYER: &[MetricDef] = &[
    // db
    m("db.generate_s", "s", Host, Lower),
    m("db.prejoin_s", "s", Host, Lower),
    m("db.oracle_s", "s", Host, Lower),
    m("db.fact_rows", "count", Count, Higher),
    // sim: host kernels (ssb_modes only)
    m("sim.kernel.gate_program_ns", "ns", Host, Lower),
    m("sim.kernel.multi_nor_ns", "ns", Host, Lower),
    m("sim.kernel.agg_circuit_ns", "ns", Host, Lower),
    m("sim.kernel.compile_eq_ns", "ns", Host, Lower),
    m("sim.kernel.compile_between_ns", "ns", Host, Lower),
    m("sim.kernel.compile_mul_ns", "ns", Host, Lower),
    // sim: decomposition of the simulated clock by phase kind
    m("sim.phase_ms.pim-logic", "sim_ms", Sim, Lower),
    m("sim.phase_ms.pim-agg-circuit", "sim_ms", Sim, Lower),
    m("sim.phase_ms.pim-reduce", "sim_ms", Sim, Lower),
    m("sim.phase_ms.pim-unpack", "sim_ms", Sim, Lower),
    m("sim.phase_ms.pim-pack", "sim_ms", Sim, Lower),
    m("sim.phase_ms.pim-combine", "sim_ms", Sim, Lower),
    m("sim.phase_ms.host-read", "sim_ms", Sim, Lower),
    m("sim.phase_ms.host-write", "sim_ms", Sim, Lower),
    m("sim.phase_ms.host-compute", "sim_ms", Sim, Lower),
    m("sim.phase_ms.host-dispatch", "sim_ms", Sim, Lower),
    m("sim.energy_uj.pim-logic", "sim_uJ", Sim, Lower),
    m("sim.energy_uj.pim-agg-circuit", "sim_uJ", Sim, Lower),
    m("sim.energy_uj.pim-reduce", "sim_uJ", Sim, Lower),
    m("sim.energy_uj.pim-unpack", "sim_uJ", Sim, Lower),
    m("sim.energy_uj.pim-pack", "sim_uJ", Sim, Lower),
    m("sim.energy_uj.pim-combine", "sim_uJ", Sim, Lower),
    m("sim.energy_uj.host-read", "sim_uJ", Sim, Lower),
    m("sim.energy_uj.host-write", "sim_uJ", Sim, Lower),
    m("sim.energy_uj.host-compute", "sim_uJ", Sim, Lower),
    m("sim.energy_uj.host-dispatch", "sim_uJ", Sim, Lower),
    m("sim.chan_bytes.read", "bytes", Sim, Lower),
    m("sim.chan_bytes.write", "bytes", Sim, Lower),
    m("sim.chan_bytes.dispatch", "bytes", Sim, Lower),
    m("sim.cell_writes_max_row", "count", Sim, Lower),
    m("sim.bus_busy_ms", "sim_ms", Sim, Lower),
    m("sim.bus_util", "share", Sim, Lower),
    m("sim.bus_demand", "ratio", Sim, Lower),
    // core
    m("core.load_s", "s", Host, Lower),
    m("core.calibrate_s", "s", Host, Lower),
    m("core.run_s", "s", Host, Lower),
    m("core.run_s.q1", "s", Host, Lower),
    m("core.run_s.q2", "s", Host, Lower),
    m("core.run_s.q3", "s", Host, Lower),
    m("core.run_s.q4", "s", Host, Lower),
    m("core.sim_ms.q1", "sim_ms", Sim, Lower),
    m("core.sim_ms.q2", "sim_ms", Sim, Lower),
    m("core.sim_ms.q3", "sim_ms", Sim, Lower),
    m("core.sim_ms.q4", "sim_ms", Sim, Lower),
    m("core.pages_scanned", "count", Count, Lower),
    m("core.pages_total", "count", Count, Lower),
    m("core.page_prune_ratio", "share", Count, Higher),
    m("core.selected_rows", "count", Count, Lower),
    m("core.pim_agg_subgroups", "count", Count, Lower),
    m("core.speedup_vs_pimdb", "ratio", Sim, Higher),
    m("core.energy_vs_pimdb", "ratio", Sim, Higher),
    m("core.lifetime_vs_pimdb", "ratio", Sim, Higher),
    m("core.speedup_vs_two_xb", "ratio", Sim, Higher),
    // monet (host wall-clock against simulated time: informational)
    m("monet.reg_s", "s", Host, Lower),
    m("monet.join_s", "s", Host, Lower),
    m("monet.speedup_one_xb_vs_join", "ratio", Host, Higher),
    // cluster
    m("cluster.new_s", "s", Host, Lower),
    m("cluster.run_s", "s", Host, Lower),
    m("cluster.plan_shards_s", "s", Host, Lower),
    m("cluster.run_on_shard_s", "s", Host, Lower),
    m("cluster.merge_s", "s", Host, Lower),
    m("cluster.mutate_s", "s", Host, Lower),
    m("cluster.dispatch_ms", "sim_ms", Sim, Lower),
    m("cluster.bus_ms", "sim_ms", Sim, Lower),
    m("cluster.merge_ms", "sim_ms", Sim, Lower),
    m("cluster.shard_busy_ms", "sim_ms", Sim, Lower),
    m("cluster.straggler_ratio", "ratio", Sim, Lower),
    m("cluster.shards_dispatched", "count", Count, Lower),
    m("cluster.shards_pruned", "count", Count, Higher),
    m("cluster.shard_prune_ratio", "share", Count, Higher),
    // join
    m("join.new_s", "s", Host, Lower),
    m("join.run_s", "s", Host, Lower),
    m("join.run_s.q1", "s", Host, Lower),
    m("join.run_s.q2", "s", Host, Lower),
    m("join.run_s.q3", "s", Host, Lower),
    m("join.run_s.q4", "s", Host, Lower),
    m("join.plan_shards_s", "s", Host, Lower),
    m("join.run_on_shard_s", "s", Host, Lower),
    m("join.merge_s", "s", Host, Lower),
    m("join.host_vs_prejoined", "ratio", Host, Lower),
    m("join.sim_vs_prejoined", "ratio", Sim, Lower),
    m("join.chan_bytes_vs_prejoined", "ratio", Sim, Lower),
    m("join.capacity_vs_prejoined", "ratio", Sim, Lower),
    m("join.data_bytes", "bytes", Sim, Lower),
    // sched
    m("sched.run_stream_s", "s", Host, Lower),
    m("sched.resolve_demand_s", "s", Host, Lower),
    m("sched.loop_s", "s", Host, Lower),
    m("sched.events", "count", Count, Lower),
    m("sched.events_per_host_s", "1/s", Host, Higher),
    m("sched.resolutions_per_query", "ratio", Count, Lower),
    m("sched.wait_ms_p50", "sim_ms", Sim, Lower),
    m("sched.wait_ms_p95", "sim_ms", Sim, Lower),
    m("sched.service_ms_p50", "sim_ms", Sim, Lower),
    m("sched.shard_util_mean", "share", Sim, Higher),
    m("sched.overtaken", "count", Count, Lower),
    m("sched.ingest_stalls", "count", Count, Lower),
    m("sched.ingest_stall_ms", "sim_ms", Sim, Lower),
    m("sched.mut_lat_p95_ms", "sim_ms", Sim, Lower),
    m("sched.lat_p95_ms.light_load", "sim_ms", Sim, Lower),
    // serve
    m("serve.run_serve_s", "s", Host, Lower),
    m("serve.events", "count", Count, Lower),
    m("serve.events_per_host_s", "1/s", Host, Higher),
    m("serve.decisions", "count", Count, Lower),
    m("serve.window_final", "count", Count, Higher),
    m("serve.window_min", "count", Count, Higher),
    m("serve.window_max", "count", Count, Higher),
    m("serve.dropped", "count", Count, Lower),
    m("serve.throttled", "count", Count, Lower),
    m("serve.light_p95_ms", "sim_ms", Sim, Lower),
    m("serve.light_slo_met", "count", Count, Higher),
    m("serve.heavy_goodput_qps", "1/sim_s", Sim, Higher),
    m("serve.heavy_drop_share", "share", Sim, Lower),
    m("serve.batch_p95_ms", "sim_ms", Sim, Lower),
    // trace
    m("trace.overhead_ratio", "ratio", Host, Lower),
    m("trace.events", "count", Count, Lower),
    m("trace.export_s", "s", Host, Lower),
    m("trace.export_bytes", "bytes", Count, Lower),
    m("trace.identical", "count", Count, Higher),
    // bench
    m("bench.span_overhead_ratio", "ratio", Host, Lower),
    m("bench.conservation_err", "ratio", Sim, Lower),
];

/// Look a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "ssb_modes",
        why: "The paper's own experiment: 13 SSB queries on one pre-joined engine per mode; sim kernels and core do all the work, cluster/join/sched/serve none.",
    },
    WorkloadDef {
        name: "star_join",
        why: "13 SSB queries on a 4-shard round-robin StarCluster: the join layer does the work and zone-map pruning cannot engage, so a pruning change must not move it.",
    },
    WorkloadDef {
        name: "stream_htap",
        why: "Open-loop Poisson stream, 30% mutations, 8 range shards at a frozen rate with the host bus ~85% busy: writes beside reads, sched ingest plus cluster pruning and mutate.",
    },
    WorkloadDef {
        name: "serve_tenants",
        why: "Read-only light/heavy/batch tenant mix at frozen 2x/4x/10x overload under the AIMD window: admission control binds instead of the bus, closed beside open loop.",
    },
];

/// The embedded `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One bounded end-to-end metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractMetric {
    pub name: String,
    pub unit: String,
    pub bound: Option<f64>,
}

/// The contract file's metric lists.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<ContractMetric>,
    pub per_layer: Vec<ContractMetric>,
}

impl Contract {
    /// Parse a `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped key.
    pub fn parse(text: &str) -> Result<Contract, String> {
        let root = json::parse(text)?;
        let list = |key: &str| -> Result<&[Value], String> {
            root.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
        };
        let metrics = |key: &str| -> Result<Vec<ContractMetric>, String> {
            list(key)?
                .iter()
                .map(|v| {
                    let s = |k: &str| {
                        v.get(k)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k}"))
                    };
                    Ok(ContractMetric {
                        name: s("name")?,
                        unit: s("unit")?,
                        bound: v.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")? as u64,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The embedded contract.
    ///
    /// # Panics
    ///
    /// Panics when the checked-in file is malformed (a build-time
    /// defect the package tests catch).
    pub fn embedded() -> Contract {
        Contract::parse(BENCHMARK_JSON).expect("checked-in BENCHMARK.json parses")
    }
}

/// Is `name` a legal metric / workload name under the contract?
pub fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim::sim::timeline::PhaseKind;

    #[test]
    fn every_simulator_phase_kind_has_its_two_metrics() {
        for kind in PhaseKind::ALL {
            for family in ["sim.phase_ms", "sim.energy_uj"] {
                let name = format!("{family}.{}", kind.label());
                assert!(PER_LAYER.iter().any(|d| d.name == name), "{name} missing");
            }
        }
    }

    #[test]
    fn names_are_unique_and_legal() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(legal_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.unit.len() <= 16);
        }
        for w in WORKLOADS {
            assert!(legal_name(w.name) && w.why.len() <= 200, "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let c = Contract::embedded();
        assert_eq!(c.workloads, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for cm in &c.end_to_end {
            let d = find(&cm.name).unwrap_or_else(|| panic!("{} not in catalogue", cm.name));
            assert_eq!(d.unit, cm.unit, "{}", cm.name);
            let b = cm.bound.unwrap_or_else(|| panic!("{} has no bound", cm.name));
            assert!(b > 0.0 && b <= 0.25, "{}", cm.name);
        }
        assert!(c.end_to_end.iter().any(|m| m.name == "setup_s"));
        // every per-layer metric of the catalogue is in the contract, in order
        let names: Vec<&str> = c.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
        for cm in &c.per_layer {
            assert_eq!(find(&cm.name).unwrap().unit, cm.unit, "{}", cm.name);
        }
        // the raw JSON also carries direction: check it against the catalogue
        let root = json::parse(BENCHMARK_JSON).unwrap();
        for key in ["end_to_end", "per_layer"] {
            for v in root.get(key).unwrap().as_arr().unwrap() {
                let name = v.get("name").unwrap().as_str().unwrap();
                let better = v.get("better").unwrap().as_str().unwrap();
                let want = match find(name).unwrap().better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(want, better, "{name}");
            }
        }
    }
}
