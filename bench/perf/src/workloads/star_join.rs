//! `star_join` — uniform SSB on a 4-shard round-robin `StarCluster`
//! (normalized storage, PIM-side semijoin bitmaps), default
//! `XferPolicy`, contention on, the 13 queries via `run`.
//! `bbpim-join` does nearly all the work; round-robin placement means
//! zone-map pruning *cannot* engage, so a pruning change must not move
//! this workload.

use std::time::Instant;

use bbpim::cluster::{ClusterEngine, ClusterExecution, ClusterReport, Partitioner};
use bbpim::db::plan::Query;
use bbpim::db::ssb::star::table_footprint;
use bbpim::db::ssb::{queries, SsbDb};
use bbpim::db::stats::{run_oracle, MultiGrouped};
use bbpim::db::Relation;
use bbpim::engine::modes::EngineMode;
use bbpim::join::StarCluster;
use bbpim::sched::{run_stream, run_stream_traced, SchedConfig};
use bbpim::sim::SimConfig;
use bbpim::trace::TraceRecorder;

use super::{
    batch_bus_layers, cluster_layers, fit_model, flight_of, generate_db, phase_layers,
    set_conservation, Layers, Pass, SimView, Workload, ENDURANCE_YEARS,
};
use crate::span::Recorder;
use crate::tap::{self, Tap};
use crate::trace_probe;

/// SSB scale factor (≈60 k fact rows). Small only because the star
/// path costs 18–55× the pre-joined path on the host clock today (Q4.1 +
/// Q4.2 ≈ 85 %): a pass at SF 0.05 takes about a minute, and the
/// driver's time cap needs several passes in one short run.
pub const SF: f64 = 0.01;
const SMOKE_SF: f64 = 0.002;
pub const SHARDS: usize = 4;

/// Frozen per-query latency limit, ns: 2× the seed commit's p95
/// (= max of 13, Q4.1) at [`SF`] with the default seed.
pub const SLO_LIMIT_NS: f64 = 2.0 * 1_887_000.0;

pub struct StarJoin {
    db: SsbDb,
    wide: Relation,
    queries: Vec<Query>,
    cluster: StarCluster,
    oracle: Vec<MultiGrouped>,
    /// The latest pass's executions (the traced pass must reproduce
    /// them exactly).
    last: Vec<ClusterExecution>,
}

fn new_star(db: &SsbDb) -> StarCluster {
    StarCluster::new(SimConfig::default(), db, EngineMode::OneXb, SHARDS, Partitioner::RoundRobin)
        .expect("star cluster construction")
}

pub fn view(execs: &[ClusterExecution], limit_ns: f64) -> SimView {
    let lat_ns: Vec<f64> = execs.iter().map(|e| e.report.time_ns).collect();
    let shards = || execs.iter().flat_map(|e| e.report.per_shard.iter());
    SimView {
        ops: lat_ns.len(),
        makespan_ns: lat_ns.iter().sum(),
        energy_pj: execs.iter().map(|e| e.report.energy_pj).sum(),
        peak_chip_w: execs.iter().map(|e| e.report.peak_chip_power_w).fold(0.0, f64::max),
        required_endurance: shards()
            .map(|s| s.required_endurance(ENDURANCE_YEARS))
            .fold(0.0, f64::max),
        chan_bytes: shards().map(|s| s.phases.host_bytes()).sum(),
        slo_missed: lat_ns.iter().filter(|&&l| l > limit_ns).count(),
        lat_ns,
    }
}

impl Workload for StarJoin {
    fn build(seed: u64, smoke: bool, rec: &Recorder) -> Self {
        let db = rec.scope("db.generate", None, || {
            generate_db(if smoke { SMOKE_SF } else { SF }, false, seed)
        });
        // the star path never reads the pre-join; the oracle and the
        // traced run's pre-joined twin do
        let wide = rec.scope("db.prejoin", None, || db.prejoin());
        let cluster = rec.scope("join.new", None, || new_star(&db));
        StarJoin {
            db,
            wide,
            queries: queries::standard_queries(),
            cluster,
            oracle: Vec::new(),
            last: Vec::new(),
        }
    }

    fn fact_rows(&self) -> usize {
        self.db.lineorder.len()
    }

    fn query_ops(&self) -> usize {
        self.queries.len()
    }

    fn pass(&mut self) -> Pass {
        let start = Instant::now();
        self.last = self
            .queries
            .iter()
            .map(|q| self.cluster.run(q).unwrap_or_else(|e| panic!("star run of {}: {e}", q.id)))
            .collect();
        Pass { host_s: start.elapsed().as_secs_f64(), sim: view(&self.last, SLO_LIMIT_NS) }
    }

    fn verify(&mut self, rec: &Recorder) -> (u64, u64) {
        if self.oracle.is_empty() {
            self.oracle = rec.scope("db.oracle", None, || {
                self.queries
                    .iter()
                    .map(|q| run_oracle(q, &self.wide).expect("row oracle"))
                    .collect()
            });
        }
        let failed =
            self.last.iter().zip(&self.oracle).filter(|(e, want)| &e.groups != *want).count();
        (self.queries.len() as u64, failed as u64)
    }

    fn traced(&mut self, rec: &Recorder, baseline: &Pass, layers: &mut Layers) -> (SimView, f64) {
        // a fresh cluster: `run` recompiles each join plan, and only a
        // cluster with an empty plan cache does the same stepwise
        let mut fresh = new_star(&self.db);
        let mut tap = Tap::new(&mut fresh, rec, tap::JOIN);
        let pass_open = rec.enter("pass", None);
        let first_span = rec.spans().len();
        let start = Instant::now();
        let execs: Vec<ClusterExecution> = self
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                rec.scope("op", Some(i as u32), || tap.run_stepwise(q))
                    .unwrap_or_else(|e| panic!("stepwise star run of {}: {e}", q.id))
            })
            .collect();
        let host_s = start.elapsed().as_secs_f64();
        rec.exit(pass_open);
        assert_eq!(execs, self.last, "stepwise execution differs from StarCluster::run");

        let mut flight_s = [0.0f64; 4];
        for s in rec.spans()[first_span..].iter().filter(|s| s.name == "op") {
            let q = s.op.expect("op spans carry their index") as usize;
            flight_s[flight_of(&self.queries[q].id).expect("SSB query id")] +=
                (s.end_ns - s.start_ns) as f64 / 1e9;
        }
        for (f, s) in flight_s.iter().enumerate() {
            layers.set(&format!("join.run_s.q{}", f + 1), *s);
        }
        layers.set("join.run_s", baseline.host_s);

        let reports: Vec<&ClusterReport> = execs.iter().map(|e| &e.report).collect();
        // the mechanism this workload bypasses: under round-robin no zone
        // map can refuse a shard, so a query reaches every shard or — when
        // a dimension filter selects nothing — none at all
        assert!(
            reports.iter().all(|r| r.shards_pruned == 0 || r.per_shard.is_empty()),
            "zone-map pruning engaged on a round-robin star cluster"
        );
        let per_report = cluster_layers(&reports, layers);
        let logs = reports.iter().flat_map(|r| r.per_shard.iter().map(|s| &s.phases));
        let by_kind = phase_layers(logs, layers);
        set_conservation(&[per_report, by_kind], layers);
        batch_bus_layers(
            reports.iter().map(|r| r.host_bus_time_ns).sum(),
            baseline.sim.makespan_ns,
            layers,
        );

        // the pre-joined twin: same data, same shards, same placement
        let mut twin = rec.scope("cluster.new", None, || {
            ClusterEngine::new(
                SimConfig::default(),
                self.wide.clone(),
                EngineMode::OneXb,
                SHARDS,
                Partitioner::RoundRobin,
            )
            .expect("pre-joined twin")
        });
        twin.set_model(rec.scope("core.calibrate", None, || fit_model(EngineMode::OneXb)));
        let twin_start = Instant::now();
        let twin_execs: Vec<ClusterExecution> = rec.scope("cluster.run", None, || {
            self.queries
                .iter()
                .zip(&self.oracle)
                .map(|(q, want)| {
                    let e = twin.run(q).unwrap_or_else(|e| panic!("twin run of {}: {e}", q.id));
                    assert_eq!(
                        &e.groups, want,
                        "pre-joined twin disagrees with the oracle on {}",
                        q.id
                    );
                    e
                })
                .collect()
        });
        let twin_s = twin_start.elapsed().as_secs_f64();
        let twin_view = view(&twin_execs, SLO_LIMIT_NS);
        layers.set("join.host_vs_prejoined", baseline.host_s / twin_s);
        layers.set("join.sim_vs_prejoined", baseline.sim.makespan_ns / twin_view.makespan_ns);
        layers.set(
            "join.chan_bytes_vs_prejoined",
            baseline.sim.chan_bytes as f64 / twin_view.chan_bytes.max(1) as f64,
        );
        let star_bytes = self.cluster.total_data_bytes();
        layers.set("join.data_bytes", star_bytes as f64);
        layers.set(
            "join.capacity_vs_prejoined",
            star_bytes as f64 / table_footprint(&self.wide, &[]).data_bytes.max(1) as f64,
        );

        // trace-recorder overhead: the 13 queries as a burst through the
        // scheduler, each on a cluster with an empty plan cache
        let burst = bbpim::sched::Workload::burst(self.queries.clone());
        let cfg = SchedConfig::default();
        let mut cluster = new_star(&self.db);
        let plain = trace_probe::timed(|| run_stream(&mut cluster, &burst, &cfg).expect("burst"));
        let mut cluster = new_star(&self.db);
        let mut recorder = TraceRecorder::enabled();
        let recorded = trace_probe::timed(|| {
            run_stream_traced(&mut cluster, &burst, &cfg, &mut recorder).expect("traced burst")
        });
        trace_probe::record(layers, (&plain.0, plain.1), (&recorded.0, recorded.1), &recorder);

        (view(&execs, SLO_LIMIT_NS), host_s)
    }
}
