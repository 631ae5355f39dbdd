//! HTAP streaming-ingest study: the same seeded query pressure played
//! through the scheduler twice on a range-partitioned cluster — a
//! pure-query baseline at the configured load, then a mixed row at 2×
//! that load with 25% mutation arrivals (a point UPDATE, a DNF UPDATE
//! and an INSERT, all v2 `Mutation`s) riding the same shared host bus.
//!
//! Reports per-row query and mutation latency percentiles,
//! backpressure stall counters, and the per-workload endurance wear
//! table (accumulated cell writes and 10-year required endurance per
//! lane — UPDATE-heavy streams wear modules unevenly). Every streamed
//! answer in both rows is verified bit-identical against a
//! prefix-replay oracle; a row that is not fails the run with exit
//! code 1 after the report (a query that answers from no well-defined
//! snapshot is wrong, not slow).
//!
//! The flags it reads are [`ACCEPTS`]: the largest `--shards` count
//! runs, `--trace` records the ingest row (mutation chains queue on the
//! bus track between query slices) and `--metrics` carries `run=pure` /
//! `run=htap` series, including the `bbpim_ingest_*` surface. The
//! closing `gate:` line reads the ingest-interference headline
//! (baseline query p95 over under-ingest p95) and the verdict.

use std::process::ExitCode;

use bbpim_bench::{artifacts, fmt_ms, reports, run_htap_study_observed, study_main, Accepts};
use bbpim_core::modes::EngineMode;
use bbpim_trace::MetricsRegistry;

const ACCEPTS: Accepts<'static> = Accepts::shared(
    "--sf --uniform --skewed --seed --shards --arrivals \
             --load --inflight --trace --metrics",
);

fn main() -> ExitCode {
    study_main(&ACCEPTS, |s, _| {
        let shards = s.cfg.shards.iter().copied().max().unwrap_or(8);
        let mut trace = artifacts::recorder(&s.cfg);
        let mut reg = MetricsRegistry::new();
        let study = run_htap_study_observed(&s, EngineMode::OneXb, shards, &mut trace, &mut reg);
        reports::print_htap(&s, &study);
        artifacts::write_observability(&s.cfg, &trace, &reg)?;

        let p95 = |row| fmt_ms(study.row(row).outcome.latency_summary().p95_ns);
        let verdict = study.verdict();
        println!(
            "\n  gate: query p95 {} -> {} under ingest (ratio {:.3}), snapshots {}",
            p95("pure-query"),
            p95("htap"),
            study.query_p95_under_ingest(),
            if verdict.is_ok() { "consistent" } else { "INCONSISTENT" },
        );
        verdict
    })
}
