//! Multi-tenant serving study: the three-tenant mix (`light` probes
//! with a tight p95 promise, `heavy` deadline-carrying scans offered at
//! 2–10× capacity behind a token bucket, `batch` closed-loop clients)
//! played through `bbpim-serve` on a range-partitioned cluster.
//!
//! Per overload multiple the closed-loop AIMD window runs; at the gate
//! overload (4×) a static-window sweep runs beside it — the operator's
//! fixed-knob alternative. Reports per-tenant p50/p95/p99/p999,
//! goodput, drop/throttle counts and the SLO verdict, plus each AIMD
//! row's window trajectory. Every served answer is checked
//! bit-identical against `run_batch` over the tenant query set.
//!
//! The flags it reads are [`ACCEPTS`]: the largest `--shards` count
//! runs, `--arrivals` is per open tenant, `--inflight` is the AIMD
//! initial window (the legacy knob), `--trace` records the gate-overload
//! AIMD session (tenant arrivals/admissions/sheds on a `serve` track,
//! bus grants, module windows, and the in-flight window on a
//! `controller` counter track) and `--metrics` carries the
//! `bbpim_tenant_*` series.
//!
//! The closing `gate row` line reads the AIMD row at the gate overload:
//! the light tenant's p95 against its promise and the heavy tenant's
//! goodput against the best SLO-respecting static window. A missed
//! promise fails the run with exit code 1 — it either held or it did
//! not.

use std::process::ExitCode;

use bbpim_bench::{artifacts, reports, run_serve_study_observed, study_main, Accepts};
use bbpim_core::modes::EngineMode;
use bbpim_trace::MetricsRegistry;

/// Overload multiples the AIMD rows sweep.
const OVERLOADS: &[f64] = &[2.0, 4.0, 10.0];
/// The overload whose rows feed the gate line, the verdict and the
/// static sweep.
const GATE_OVERLOAD: f64 = 4.0;
/// Static windows swept at the gate overload.
const STATIC_WINDOWS: &[usize] = &[1, 2, 4, 8, 16];

const ACCEPTS: Accepts<'static> = Accepts::shared(
    "--sf --uniform --skewed --seed --shards --arrivals \
             --inflight --trace --metrics",
);

fn main() -> ExitCode {
    study_main(&ACCEPTS, |s, _| {
        let shards = s.cfg.shards.iter().copied().max().unwrap_or(8);
        let mut trace = artifacts::recorder(&s.cfg);
        let mut reg = MetricsRegistry::new();
        let study = run_serve_study_observed(
            &s,
            EngineMode::OneXb,
            shards,
            OVERLOADS,
            GATE_OVERLOAD,
            STATIC_WINDOWS,
            &mut trace,
            &mut reg,
        );
        reports::print_serve(&s, &study);
        artifacts::write_observability(&s.cfg, &trace, &reg)?;

        let gate = study.gate_row();
        let light = gate.report("light");
        let (best_policy, best_goodput) =
            study.best_static_heavy_goodput().unwrap_or(("none".into(), 0.0));
        println!(
            "\n  gate row ({:.0}x aimd): light p95 {:.3} ms vs promise {:.3} ms ({}), heavy \
             goodput {:.1}/s vs best static ({best_policy}) {best_goodput:.1}/s",
            study.gate_overload,
            light.latency.p95_ns / 1e6,
            light.p95_target_ns / 1e6,
            if light.slo_met { "met" } else { "MISSED" },
            gate.report("heavy").goodput_qps,
        );
        study.verdict()
    })
}
