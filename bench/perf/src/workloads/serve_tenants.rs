//! `serve_tenants` — the same cluster and bus as `stream_htap`, used
//! differently: skewed SSB on a 4-shard `ClusterEngine`
//! range-partitioned on `d_year`, `run_serve` with the light / heavy /
//! batch tenant mix under the AIMD window, at three **frozen** overload
//! rungs. No writes; closed-loop clients beside open-loop ones;
//! admission control binds instead of the bus. Host time is the serve
//! event loop plus eight demand resolutions per rung; sim metrics come
//! from the 4× rung.

use std::collections::BTreeMap;
use std::time::Instant;

use bbpim::cluster::{ClusterEngine, ClusterReport, Partitioner};
use bbpim::db::plan::Query;
use bbpim::db::ssb::queries;
use bbpim::db::stats::{run_oracle, MultiGrouped};
use bbpim::db::Relation;
use bbpim::engine::modes::EngineMode;
use bbpim::serve::{
    run_serve, run_serve_traced, tenant_reports, AimdConfig, ArrivalProcess, RateLimit,
    ServeConfig, ServeOutcome, SloSpec, TenantSpec, WindowPolicy,
};
use bbpim::sim::SimConfig;
use bbpim::trace::TraceRecorder;

use super::{
    cluster_layers, fit_model, generate_db, phase_layers, rel_diff, set_conservation, Layers, Pass,
    SimView, Workload, FROZEN_SEED,
};
use crate::span::Recorder;
use crate::tap::{self, Tap};
use crate::trace_probe;

pub const SF: f64 = 0.05;
const SMOKE_SF: f64 = 0.002;
pub const SHARDS: usize = 4;
/// Requests per open-loop tenant per rung.
pub const OPEN_ARRIVALS: usize = 5000;
const SMOKE_OPEN_ARRIVALS: usize = 200;
/// Closed-loop batch clients and the requests each issues.
pub const BATCH_CLIENTS: usize = 2;
pub const BATCH_QUERIES_PER_CLIENT: usize = 1000;

/// The heavy tenant's offered load as multiples of its serial
/// footprint; sim metrics and the trace probe read the middle rung.
pub const OVERLOADS: [f64; 3] = [2.0, 4.0, 10.0];
const GATE_RUNG: usize = 1;

/// Indices into the 13 queries: the cheapest zone-map-pruned probes,
/// the most expensive scans, two mid-cost queries.
const LIGHT_QUERIES: &[usize] = &[2, 9, 11];
const HEAVY_QUERIES: &[usize] = &[0, 1, 6];
const BATCH_QUERIES: &[usize] = &[4, 8];

/// Frozen mean resolved busy time of each tenant's query set, ns, at
/// the seed commit (default seed, [`SF`], [`SHARDS`]). Every arrival
/// rate, promise, deadline and bucket rate below derives from these
/// constants — never from the capacity of the code under test.
pub const LIGHT_BUSY_NS: f64 = 75_000.0;
pub const HEAVY_BUSY_NS: f64 = 340_000.0;
pub const BATCH_BUSY_NS: f64 = 105_000.0;

pub struct ServeTenants {
    smoke: bool,
    wide: Relation,
    queries: Vec<Query>,
    cluster: ClusterEngine,
    /// Oracle answers by query id, for the eight tenant queries.
    oracle: BTreeMap<String, MultiGrouped>,
    /// The latest pass's outcome per rung.
    last: Vec<ServeOutcome>,
}

fn aimd() -> WindowPolicy {
    WindowPolicy::Aimd(AimdConfig {
        initial_window: 4,
        min_window: 1,
        max_window: 32,
        sample_window: 8,
        ..AimdConfig::default()
    })
}

impl ServeTenants {
    /// The three-tenant mix at one overload rung.
    fn tenants(&self, overload: f64) -> Vec<TenantSpec> {
        let pick = |idx: &[usize]| idx.iter().map(|&i| self.queries[i].clone()).collect::<Vec<_>>();
        let arrivals = if self.smoke { SMOKE_OPEN_ARRIVALS } else { OPEN_ARRIVALS };
        vec![
            // interactive probes at a quarter of their serial footprint,
            // double weight, a tight promise: the tenant the SLO protects
            TenantSpec {
                name: "light".into(),
                queries: pick(LIGHT_QUERIES),
                process: ArrivalProcess::OpenPoisson {
                    arrivals,
                    mean_interarrival_ns: 4.0 * LIGHT_BUSY_NS,
                },
                writes: None,
                rate_limit: None,
                slo: SloSpec { p95_target_ns: 35.0 * LIGHT_BUSY_NS, deadline_ns: None },
                weight: 2.0,
            },
            // bulk scans offered at `overload`× their footprint behind a
            // 2.5×-footprint token bucket, every request with a deadline
            TenantSpec {
                name: "heavy".into(),
                queries: pick(HEAVY_QUERIES),
                process: ArrivalProcess::OpenPoisson {
                    arrivals,
                    mean_interarrival_ns: HEAVY_BUSY_NS / overload,
                },
                writes: None,
                rate_limit: Some(RateLimit { rate_per_s: 2.5e9 / HEAVY_BUSY_NS, burst: 8.0 }),
                slo: SloSpec {
                    p95_target_ns: 50.0 * HEAVY_BUSY_NS,
                    deadline_ns: Some(30.0 * HEAVY_BUSY_NS),
                },
                weight: 1.0,
            },
            // closed-loop think-time clients: offered load reacts to latency
            TenantSpec {
                name: "batch".into(),
                queries: pick(BATCH_QUERIES),
                process: ArrivalProcess::Closed {
                    clients: BATCH_CLIENTS,
                    queries_per_client: if self.smoke { 3 } else { BATCH_QUERIES_PER_CLIENT },
                    mean_think_ns: 2.0 * BATCH_BUSY_NS,
                },
                writes: None,
                rate_limit: None,
                slo: SloSpec { p95_target_ns: 100.0 * BATCH_BUSY_NS, deadline_ns: None },
                weight: 1.0,
            },
        ]
    }

    fn config(&self) -> ServeConfig {
        ServeConfig { seed: FROZEN_SEED, window: aimd() }
    }

    /// Every rung through `run_serve`; returns the outcomes and the
    /// wall seconds inside `run_serve`.
    fn serve_all(&mut self, rec: &Recorder) -> (Vec<ServeOutcome>, f64) {
        let cfg = self.config();
        let rungs: Vec<Vec<TenantSpec>> = OVERLOADS.iter().map(|&o| self.tenants(o)).collect();
        let mut tap = Tap::new(&mut self.cluster, rec, tap::CLUSTER);
        let start = Instant::now();
        let outcomes = rungs
            .iter()
            .map(|tenants| {
                rec.scope("serve.run_serve", None, || run_serve(&mut tap, tenants, &cfg))
                    .expect("serve session")
            })
            .collect();
        (outcomes, start.elapsed().as_secs_f64())
    }

    /// The view of the gate rung: completions' latency; shed requests
    /// and completions later than their tenant's p95 target miss.
    fn view(&self, outcome: &ServeOutcome) -> SimView {
        let targets: Vec<f64> =
            self.tenants(OVERLOADS[GATE_RUNG]).iter().map(|t| t.slo.p95_target_ns).collect();
        let lat_ns: Vec<f64> = outcome.completions.iter().map(|c| c.latency_ns()).collect();
        let late =
            outcome.completions.iter().filter(|c| c.latency_ns() > targets[c.tenant]).count();
        let reports = || outcome.executions.iter().map(|e| &e.report);
        SimView {
            ops: outcome.submitted.iter().sum(),
            makespan_ns: outcome.makespan_ns,
            energy_pj: reports().map(|r| r.energy_pj).sum(),
            peak_chip_w: reports().map(|r| r.peak_chip_power_w).fold(0.0, f64::max),
            required_endurance: outcome.lane_required_endurance.iter().copied().fold(0.0, f64::max),
            chan_bytes: reports()
                .flat_map(|r| r.per_shard.iter().map(|s| s.phases.host_bytes()))
                .sum(),
            slo_missed: late + outcome.drops.len(),
            lat_ns,
        }
    }
}

/// What [`LIGHT_BUSY_NS`], [`HEAVY_BUSY_NS`] and [`BATCH_BUSY_NS`] were
/// frozen from: the mean resolved busy time of each tenant's query set
/// on this workload's cluster, ns. `bbpim-perf calibrate` prints them;
/// nothing in a measured run calls this.
pub fn mean_busy_ns(seed: u64) -> [f64; 3] {
    let mut w = ServeTenants::build(seed, false, &Recorder::new(false));
    [LIGHT_QUERIES, HEAVY_QUERIES, BATCH_QUERIES].map(|set| {
        let busy: f64 = set
            .iter()
            .map(|&i| {
                bbpim::sched::resolve_query_demand(&mut w.cluster, &w.queries[i], false)
                    .expect("demand probe")
                    .0
                    .total_busy_ns()
            })
            .sum();
        busy / set.len() as f64
    })
}

/// wait + service = latency for every served completion.
fn latency_split_err(outcome: &ServeOutcome) -> f64 {
    outcome
        .completions
        .iter()
        .map(|c| rel_diff(c.wait_ns() + c.service_ns(), c.latency_ns()))
        .fold(0.0, f64::max)
}

impl Workload for ServeTenants {
    fn build(seed: u64, smoke: bool, rec: &Recorder) -> Self {
        let db = rec.scope("db.generate", None, || {
            generate_db(if smoke { SMOKE_SF } else { SF }, true, seed)
        });
        let wide = rec.scope("db.prejoin", None, || db.prejoin());
        let queries =
            queries::adjusted_queries(&wide).expect("query constants re-picked on skewed data");
        let mut cluster = rec.scope("cluster.new", None, || {
            ClusterEngine::new(
                SimConfig::default(),
                wide.clone(),
                EngineMode::OneXb,
                SHARDS,
                Partitioner::range_by_attr("d_year"),
            )
            .expect("cluster construction")
        });
        cluster.set_model(rec.scope("core.calibrate", None, || fit_model(EngineMode::OneXb)));
        ServeTenants { smoke, wide, queries, cluster, oracle: BTreeMap::new(), last: Vec::new() }
    }

    fn fact_rows(&self) -> usize {
        self.wide.len()
    }

    fn query_ops(&self) -> usize {
        let per_rung: usize =
            self.tenants(OVERLOADS[GATE_RUNG]).iter().map(|t| t.process.total_requests()).sum();
        OVERLOADS.len() * per_rung
    }

    fn pass(&mut self) -> Pass {
        let (outcomes, host_s) = self.serve_all(&Recorder::new(false));
        for o in &outcomes {
            assert!(latency_split_err(o) < 1e-9, "wait + service != latency");
        }
        let sim = self.view(&outcomes[GATE_RUNG]);
        self.last = outcomes;
        Pass { host_s, sim }
    }

    fn verify(&mut self, rec: &Recorder) -> (u64, u64) {
        if self.oracle.is_empty() {
            self.oracle = rec.scope("db.oracle", None, || {
                LIGHT_QUERIES
                    .iter()
                    .chain(HEAVY_QUERIES)
                    .chain(BATCH_QUERIES)
                    .map(|&i| {
                        let q = &self.queries[i];
                        (q.id.clone(), run_oracle(q, &self.wide).expect("row oracle"))
                    })
                    .collect()
            });
        }
        // a shed request is not a failure (it misses its SLO instead);
        // a served answer that differs from the oracle is
        let served = self.last.iter().flat_map(|o| o.completions.iter().zip(&o.executions));
        let failed =
            served.filter(|(c, e)| self.oracle.get(&c.query_id) != Some(&e.groups)).count();
        let submitted: usize = self.last.iter().map(|o| o.submitted.iter().sum::<usize>()).sum();
        (submitted as u64, failed as u64)
    }

    fn traced(&mut self, rec: &Recorder, _baseline: &Pass, layers: &mut Layers) -> (SimView, f64) {
        let pass_open = rec.enter("pass", None);
        let (outcomes, host_s) = self.serve_all(rec);
        rec.exit(pass_open);
        assert_eq!(outcomes, self.last, "the tap's spans changed a served outcome");
        let gate = &outcomes[GATE_RUNG];

        let in_engine: f64 = ["cluster.plan_shards", "cluster.run_on_shard", "cluster.merge"]
            .iter()
            .map(|n| rec.total_seconds(n))
            .sum();
        let loop_s = rec.total_seconds("serve.run_serve") - in_engine;
        let events: usize = outcomes.iter().map(|o| o.timeline.len()).sum();
        layers.set("serve.run_serve_s", rec.total_seconds("serve.run_serve"));
        layers.set("serve.events", events as f64);
        layers.set("serve.events_per_host_s", events as f64 / loop_s);
        layers.set("serve.decisions", gate.decisions.len() as f64);
        layers.set("serve.window_final", gate.final_window() as f64);
        let (lo, hi) = gate.window_bounds();
        layers.set("serve.window_min", lo as f64);
        layers.set("serve.window_max", hi as f64);
        layers.set("serve.dropped", gate.drops.len() as f64);
        layers.set("serve.throttled", gate.throttled.iter().sum::<usize>() as f64);
        let tenants = self.tenants(OVERLOADS[GATE_RUNG]);
        let reports = tenant_reports(&tenants, gate);
        let by_name = |n: &str| reports.iter().find(|r| r.name == n).expect("tenant report");
        layers.set("serve.light_p95_ms", by_name("light").latency.p95_ns / 1e6);
        layers.set("serve.light_slo_met", if by_name("light").slo_met { 1.0 } else { 0.0 });
        layers.set("serve.heavy_goodput_qps", by_name("heavy").goodput_qps);
        layers.set("serve.heavy_drop_share", by_name("heavy").drop_rate);
        layers.set("serve.batch_p95_ms", by_name("batch").latency.p95_ns / 1e6);

        layers.set("sim.bus_busy_ms", gate.host_busy_ns / 1e6);
        layers.set("sim.bus_util", gate.host_utilisation());
        layers.set("sim.bus_demand", gate.host_demand());
        let cluster_reports: Vec<&ClusterReport> =
            gate.executions.iter().map(|e| &e.report).collect();
        let per_report = cluster_layers(&cluster_reports, layers);
        layers.set(
            "sim.cell_writes_max_row",
            gate.lane_cell_writes.iter().copied().max().unwrap_or(0) as f64,
        );
        let logs = cluster_reports.iter().flat_map(|r| r.per_shard.iter().map(|s| &s.phases));
        let by_kind = phase_layers(logs, layers);
        set_conservation(&[per_report, by_kind, latency_split_err(gate)], layers);

        // the serving tier's own recorder on the gate rung
        let cfg = self.config();
        let plain =
            trace_probe::timed(|| run_serve(&mut self.cluster, &tenants, &cfg).expect("gate rung"));
        let mut recorder = TraceRecorder::enabled();
        let recorded = trace_probe::timed(|| {
            run_serve_traced(&mut self.cluster, &tenants, &cfg, &mut recorder)
                .expect("traced gate rung")
        });
        trace_probe::record(layers, (&plain.0, plain.1), (&recorded.0, recorded.1), &recorder);

        (self.view(gate), host_s)
    }
}
