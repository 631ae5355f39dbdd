//! `ssb_modes` — the paper's own experiment: skewed SSB, one
//! pre-joined `PimQueryEngine` per mode, the 13 queries each.
//! `bbpim-sim` kernels and `bbpim-core` do all the work; cluster, join,
//! sched and serve do none. Sim metrics come from `one_xb`; the other
//! modes feed the paper-ratio layer metrics.

use std::hint::black_box;
use std::time::Instant;

use bbpim::cluster::{ClusterEngine, Partitioner};
use bbpim::db::plan::Query;
use bbpim::db::ssb::{queries, SsbDb};
use bbpim::db::stats::{run_oracle, MultiGrouped};
use bbpim::db::Relation;
use bbpim::engine::engine::PimQueryEngine;
use bbpim::engine::groupby::calibration::CalibrationConfig;
use bbpim::engine::modes::EngineMode;
use bbpim::engine::result::QueryExecution;
use bbpim::monet::MonetEngine;
use bbpim::sched::{run_stream, run_stream_traced, SchedConfig};
use bbpim::sim::aggcircuit::AggRequest;
use bbpim::sim::compiler::reduce::ReduceOp;
use bbpim::sim::compiler::{arith, predicate, CodeBuilder, ColRange, ScratchPool};
use bbpim::sim::crossbar::Crossbar;
use bbpim::sim::isa::Microprogram;
use bbpim::sim::SimConfig;
use bbpim::trace::TraceRecorder;

use super::{
    batch_bus_layers, flight_of, generate_db, phase_layers, rel_diff, set_conservation, Layers,
    Pass, SimView, Workload, ENDURANCE_YEARS,
};
use crate::span::Recorder;
use crate::stats;
use crate::trace_probe;

/// SSB scale factor (≈300 k fact rows). The issue sized this workload
/// at SF 0.1; three set-ups plus the passes at that scale overrun the
/// driver's per-run share of its time cap, so it runs at half.
pub const SF: f64 = 0.05;
const SMOKE_SF: f64 = 0.002;

/// Frozen per-query latency limit, ns: 2× the seed commit's `one_xb`
/// p95 (= max of 13) at [`SF`] with the default seed.
pub const SLO_LIMIT_NS: f64 = 2.0 * 653_000.0;

/// Iterations behind each host-kernel median.
const KERNEL_ITERS: usize = 300;

pub struct SsbModes {
    db: SsbDb,
    wide: Relation,
    queries: Vec<Query>,
    /// `one_xb`, `two_xb`, `pimdb` — `EngineMode::all()` order.
    engines: Vec<PimQueryEngine>,
    oracle: Vec<MultiGrouped>,
    /// The latest pass's executions, per mode.
    last: Vec<ModeRun>,
}

/// One mode's 13 executions.
type ModeRun = Vec<QueryExecution>;

impl SsbModes {
    /// The `one_xb` view of a pass.
    fn view(one_xb: &ModeRun) -> SimView {
        let lat_ns: Vec<f64> = one_xb.iter().map(|e| e.report.time_ns).collect();
        SimView {
            ops: lat_ns.len(),
            makespan_ns: lat_ns.iter().sum(),
            energy_pj: one_xb.iter().map(|e| e.report.energy_pj).sum(),
            peak_chip_w: one_xb.iter().map(|e| e.report.peak_chip_power_w).fold(0.0, f64::max),
            required_endurance: one_xb
                .iter()
                .map(|e| e.report.required_endurance(ENDURANCE_YEARS))
                .fold(0.0, f64::max),
            chan_bytes: one_xb.iter().map(|e| e.report.phases.host_bytes()).sum(),
            slo_missed: lat_ns.iter().filter(|&&l| l > SLO_LIMIT_NS).count(),
            lat_ns,
        }
    }

    /// Run every mode's 13 queries; `rec` (when enabled) gets one
    /// `op > core.run` pair per execution.
    fn run_all(&mut self, rec: &Recorder) -> (Vec<ModeRun>, f64) {
        let start = Instant::now();
        let mut op = 0u32;
        let runs = self
            .engines
            .iter_mut()
            .map(|engine| {
                self.queries
                    .iter()
                    .map(|q| {
                        let open = rec.enter("op", Some(op));
                        op += 1;
                        let exec = rec.scope("core.run", None, || engine.run(q));
                        rec.exit(open);
                        exec.unwrap_or_else(|e| {
                            panic!("{} on {}: {e}", engine.mode().label(), q.id)
                        })
                    })
                    .collect()
            })
            .collect();
        (runs, start.elapsed().as_secs_f64())
    }
}

impl Workload for SsbModes {
    fn build(seed: u64, smoke: bool, rec: &Recorder) -> Self {
        let db = rec.scope("db.generate", None, || {
            generate_db(if smoke { SMOKE_SF } else { SF }, true, seed)
        });
        let wide = rec.scope("db.prejoin", None, || db.prejoin());
        let queries =
            queries::adjusted_queries(&wide).expect("query constants re-picked on skewed data");
        let engines = EngineMode::all()
            .into_iter()
            .map(|mode| {
                let mut engine = rec
                    .scope("core.load", None, || {
                        PimQueryEngine::new(SimConfig::default(), wide.clone(), mode)
                    })
                    .expect("engine construction");
                rec.scope("core.calibrate", None, || {
                    engine.calibrate(&CalibrationConfig::default())
                })
                .expect("GROUP-BY calibration");
                engine
            })
            .collect();
        SsbModes { db, wide, queries, engines, oracle: Vec::new(), last: Vec::new() }
    }

    fn fact_rows(&self) -> usize {
        self.wide.len()
    }

    fn query_ops(&self) -> usize {
        self.engines.len() * self.queries.len()
    }

    fn pass(&mut self) -> Pass {
        let (runs, host_s) = self.run_all(&Recorder::new(false));
        let sim = Self::view(&runs[0]);
        self.last = runs;
        Pass { host_s, sim }
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
        let failed = self
            .last
            .iter()
            .flat_map(|run| run.iter().zip(&self.oracle))
            .filter(|(exec, want)| &exec.groups != *want)
            .count();
        (self.query_ops() as u64, failed as u64)
    }

    fn traced(&mut self, rec: &Recorder, baseline: &Pass, layers: &mut Layers) -> (SimView, f64) {
        let pass_open = rec.enter("pass", None);
        let first_span = rec.spans().len();
        let (runs, host_s) = self.run_all(rec);
        rec.exit(pass_open);
        assert_eq!(runs, self.last, "the spans changed the executions");
        let (one, two, pimdb) = (&runs[0], &runs[1], &runs[2]);

        // host seconds per SSB flight, all modes (they sum to core.run_s)
        let mut flight_s = [0.0f64; 4];
        for s in rec.spans()[first_span..].iter().filter(|s| s.name == "core.run") {
            let q = s.op.expect("core.run inherits its op") as usize % self.queries.len();
            flight_s[flight_of(&self.queries[q].id).expect("SSB query id")] +=
                (s.end_ns - s.start_ns) as f64 / 1e9;
        }
        let mut flight_sim_ms = [0.0f64; 4];
        for e in one {
            flight_sim_ms[flight_of(&e.report.query_id).expect("SSB query id")] +=
                e.report.time_ns / 1e6;
        }
        for f in 0..4 {
            layers.set(&format!("core.run_s.q{}", f + 1), flight_s[f]);
            layers.set(&format!("core.sim_ms.q{}", f + 1), flight_sim_ms[f]);
        }

        // simulated-clock decomposition of the one_xb run
        let logs = one.iter().map(|e| &e.report.phases);
        let by_kind = phase_layers(logs, layers);
        let per_report = one
            .iter()
            .map(|e| rel_diff(e.report.phases.total_time_ns(), e.report.time_ns))
            .fold(0.0, f64::max);
        set_conservation(&[by_kind, per_report], layers);
        batch_bus_layers(
            one.iter().map(|e| e.report.host_bus_ns).sum(),
            baseline.sim.makespan_ns,
            layers,
        );
        let scanned: usize = one.iter().map(|e| e.report.pages_scanned).sum();
        let total: usize = one.iter().map(|e| e.report.pages).sum();
        layers.set("core.pages_scanned", scanned as f64);
        layers.set("core.pages_total", total as f64);
        layers.set("core.page_prune_ratio", 1.0 - scanned as f64 / total.max(1) as f64);
        layers.set("core.selected_rows", one.iter().map(|e| e.report.selected as f64).sum());
        layers.set(
            "core.pim_agg_subgroups",
            one.iter().map(|e| e.report.pim_agg_subgroups as f64).sum(),
        );
        layers.set(
            "sim.cell_writes_max_row",
            one.iter().map(|e| e.report.max_row_cell_writes).max().unwrap_or(0) as f64,
        );

        // the paper's ratios (its printed value beside each in the README)
        let ratio = |num: &ModeRun,
                     den: &ModeRun,
                     f: &dyn Fn(&QueryExecution) -> f64,
                     pick: &dyn Fn(usize) -> bool| {
            let r: Vec<f64> =
                (0..den.len()).filter(|&i| pick(i)).map(|i| f(&num[i]) / f(&den[i])).collect();
            stats::geomean_positive(&r).0.unwrap_or(0.0)
        };
        let both_pim_agg =
            |i: usize| pimdb[i].report.pim_agg_subgroups > 0 && one[i].report.pim_agg_subgroups > 0;
        layers.set("core.speedup_vs_pimdb", ratio(pimdb, one, &|e| e.report.time_ns, &|_| true));
        layers.set("core.speedup_vs_two_xb", ratio(two, one, &|e| e.report.time_ns, &|_| true));
        layers
            .set("core.energy_vs_pimdb", ratio(pimdb, one, &|e| e.report.energy_pj, &both_pim_agg));
        layers.set(
            "core.lifetime_vs_pimdb",
            ratio(pimdb, one, &|e| e.report.required_endurance(ENDURANCE_YEARS), &both_pim_agg),
        );

        // the column-store baseline: real wall-clock against simulated
        // PIM time, so informational only
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let monet = |engine: MonetEngine, span: &'static str| -> Vec<f64> {
            rec.scope(span, None, || {
                self.queries
                    .iter()
                    .zip(&self.oracle)
                    .map(|(q, want)| {
                        let r = engine.run(q).expect("baseline run");
                        assert_eq!(
                            &r.groups,
                            want,
                            "{} disagrees with the oracle on {}",
                            engine.label(),
                            q.id
                        );
                        r.wall.as_secs_f64() * 1e9
                    })
                    .collect()
            })
        };
        let reg_ns = monet(MonetEngine::star(&self.db, threads), "monet.reg");
        let join_ns = monet(MonetEngine::prejoined(&self.wide, threads), "monet.join");
        layers.set("monet.reg_s", reg_ns.iter().sum::<f64>() / 1e9);
        layers.set("monet.join_s", join_ns.iter().sum::<f64>() / 1e9);
        let vs_join: Vec<f64> =
            join_ns.iter().zip(one).map(|(j, e)| j / e.report.time_ns).collect();
        layers.set(
            "monet.speedup_one_xb_vs_join",
            stats::geomean_positive(&vs_join).0.unwrap_or(0.0),
        );

        kernel_layers(layers);

        // trace-recorder overhead: the same 13 queries as a burst through
        // a one-shard cluster, the only traced entry point a single
        // engine can reach
        let probe = || {
            let mut c = ClusterEngine::new(
                SimConfig::default(),
                self.wide.clone(),
                EngineMode::OneXb,
                1,
                Partitioner::RoundRobin,
            )
            .expect("one-shard probe cluster");
            c.set_model(self.engines[0].model().expect("calibrated in build").clone());
            c
        };
        let burst = bbpim::sched::Workload::burst(self.queries.clone());
        let cfg = SchedConfig::default();
        let mut cluster = probe();
        let plain = trace_probe::timed(|| run_stream(&mut cluster, &burst, &cfg).expect("burst"));
        let mut cluster = probe();
        let mut recorder = TraceRecorder::enabled();
        let recorded = trace_probe::timed(|| {
            run_stream_traced(&mut cluster, &burst, &cfg, &mut recorder).expect("traced burst")
        });
        trace_probe::record(layers, (&plain.0, plain.1), (&recorded.0, recorded.1), &recorder);

        (Self::view(one), host_s)
    }
}

/// Median wall nanoseconds of `f` over [`KERNEL_ITERS`] calls.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..KERNEL_ITERS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples).expect("KERNEL_ITERS > 0")
}

/// The six host kernels, same shapes as the criterion stubs under
/// `crates/bbpim-bench/benches/` (which print and discard their
/// timings): a paper-geometry crossbar and 20-bit predicates.
fn kernel_layers(layers: &mut Layers) {
    let mut xb = Crossbar::new(1024, 512);
    for r in 0..1024 {
        xb.write_row_bits(r, 0, 32, (r as u64).wrapping_mul(2654435761) & 0xFFFF_FFFF);
        xb.bits_mut_unaccounted().set(r, 40, r % 3 == 0);
    }
    let mut gates = Microprogram::new();
    for i in 0..100 {
        gates.gate_nor(i % 32, (i + 1) % 32, 64 + (i % 64));
    }
    layers.set(
        "sim.kernel.gate_program_ns",
        median_ns(|| {
            black_box(xb.execute(black_box(&gates)).expect("gate program"));
        }),
    );
    let mut nor = Microprogram::new();
    nor.init_col(100);
    nor.nor_many_cols((0..24).collect(), 100);
    layers.set(
        "sim.kernel.multi_nor_ns",
        median_ns(|| {
            black_box(xb.execute(black_box(&nor)).expect("multi-input NOR"));
        }),
    );
    let agg = AggRequest {
        op: ReduceOp::Sum,
        value: ColRange::new(0, 32),
        mask_col: 40,
        dst_row: 0,
        dst: ColRange::new(448, 48),
    };
    layers.set(
        "sim.kernel.agg_circuit_ns",
        median_ns(|| {
            black_box(agg.apply(&mut xb).expect("aggregation circuit"));
        }),
    );

    const ATTR: ColRange = ColRange { lo: 32, width: 20 };
    const RHS: ColRange = ColRange { lo: 64, width: 4 };
    const DST: ColRange = ColRange { lo: 96, width: 24 };
    const SCRATCH: ColRange = ColRange { lo: 200, width: 200 };
    let compile = |body: &dyn Fn(&mut CodeBuilder)| {
        median_ns(|| {
            let mut pool = ScratchPool::new(SCRATCH);
            let mut builder = CodeBuilder::new(&mut pool);
            body(&mut builder);
            black_box(builder.finish());
        })
    };
    layers.set(
        "sim.kernel.compile_eq_ns",
        compile(&|b| {
            black_box(predicate::compile_eq_const(b, ATTR, black_box(0xABCDE)).expect("eq"));
        }),
    );
    layers.set(
        "sim.kernel.compile_between_ns",
        compile(&|b| {
            black_box(
                predicate::compile_between_const(b, ATTR, 1000, black_box(200_000))
                    .expect("between"),
            );
        }),
    );
    layers.set(
        "sim.kernel.compile_mul_ns",
        compile(&|b| {
            arith::compile_mul(b, ATTR, RHS, DST).expect("mul");
        }),
    );
}
