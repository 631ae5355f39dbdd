//! Streaming scheduler study: a seeded open-loop arrival trace over the
//! 13 SSB queries played through `bbpim-sched` on a range-partitioned
//! cluster, once per admission policy (FIFO vs
//! shortest-candidate-set-first).
//!
//! Reports the planner's `EXPLAIN ANALYZE` statistics (planned
//! shards/pages next to recorded actuals), then per-policy
//! p50/p95/p99/mean latency, queue wait, throughput, host/shard
//! utilisation, and the out-of-order completion count. Every streamed
//! answer is checked bit-identical against `run_batch` over the same
//! arrived queries — the scheduler changes *when*, never *what*.
//!
//! The flags it reads are [`ACCEPTS`]: the largest `--shards` count
//! runs, and `--trace` records the default-load FIFO run (one track per
//! module, one for the host bus, one for the scheduler).
//!
//! Two rows run: the configured load on the one-crossbar layout, and a
//! **high-contention** row at 4× that load with a 4×-deeper in-flight
//! window on the two-crossbar layout — the mask-transfer-heavy shape
//! whose host-bus pressure the byte-diet levers exist to relieve. The
//! default row leaves the shared channel mostly idle (utilisation
//! ~0.15 in the PR-5 baseline), so only the high-contention row
//! exercises the saturated regime the contention model is for. Both
//! rows label their metric series by policy (`run=fifo` …
//! `run=hi-scsf`) in the `--metrics` snapshot.

use std::process::ExitCode;

use bbpim_bench::{artifacts, reports, run_streaming_study_observed, study_main, Accepts};
use bbpim_core::modes::EngineMode;
use bbpim_trace::{MetricsRegistry, TraceRecorder};

const ACCEPTS: Accepts<'static> = Accepts::shared(
    "--sf --uniform --skewed --seed --shards --arrivals \
             --load --inflight --trace --metrics",
);

fn main() -> ExitCode {
    study_main(&ACCEPTS, |mut s, _| {
        let shards = s.cfg.shards.iter().copied().max().unwrap_or(8);
        let mut trace = artifacts::recorder(&s.cfg);
        let mut reg = MetricsRegistry::new();
        let study =
            run_streaming_study_observed(&s, EngineMode::OneXb, shards, &mut trace, &mut reg, "");
        reports::print_explain(&s, &study.explains);
        reports::print_streaming(&s, &study);

        // High-contention row: same data and trace shape, 4× the offered
        // load and in-flight window, two-xb layout (per-disjunct mask
        // transfers ride the bus).
        s.cfg.load *= 4.0;
        s.cfg.inflight = (s.cfg.inflight * 4).max(16);
        println!(
            "\n== high-contention row: load {:.1}x capacity, {} in flight, two-xb ==",
            s.cfg.load, s.cfg.inflight
        );
        let mut no_trace = TraceRecorder::disabled();
        let hi_study = run_streaming_study_observed(
            &s,
            EngineMode::TwoXb,
            shards,
            &mut no_trace,
            &mut reg,
            "hi-",
        );
        reports::print_streaming(&s, &hi_study);
        artifacts::write_observability(&s.cfg, &trace, &reg)
    })
}
