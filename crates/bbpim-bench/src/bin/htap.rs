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
//! prefix-replay oracle; the verdict lands in the snapshot as
//! `snapshot_consistency`, an absolute 0/1 floor in the CI gate.
//!
//! The flags it reads are [`ACCEPTS`]: the largest `--shards` count
//! runs, `--trace` records the ingest row (mutation chains queue on the
//! bus track between query slices) and `--metrics` carries `run=pure` /
//! `run=htap` series, including the `bbpim_ingest_*` surface.
//!
//! The `--json` snapshot carries the gate headlines CI watches:
//! `query_p95_under_ingest` (baseline p95 over under-ingest p95,
//! regression-gated) and `snapshot_consistency` (absolute floor 1.0 —
//! a query that answers from no well-defined snapshot is wrong, not
//! slow).

use std::process::ExitCode;

use bbpim_bench::{artifacts, fmt_ms, reports, run_htap_study_observed, study_main, Accepts};
use bbpim_core::modes::EngineMode;
use bbpim_trace::MetricsRegistry;

const ACCEPTS: Accepts<'static> = Accepts::shared(
    "--sf --uniform --skewed --seed --shards --arrivals \
             --load --inflight --json --trace --metrics",
);

fn main() -> ExitCode {
    study_main(&ACCEPTS, |s, _| {
        let shards = s.cfg.shards.iter().copied().max().unwrap_or(8);
        let mut trace = artifacts::recorder(&s.cfg);
        let mut reg = MetricsRegistry::new();
        let study = run_htap_study_observed(&s, EngineMode::OneXb, shards, &mut trace, &mut reg);
        reports::print_htap(&s, &study);
        artifacts::write_observability(&s.cfg, &trace, &reg)?;

        if let Some(path) = &s.cfg.json {
            let p95 = |row| fmt_ms(study.row(row).outcome.latency_summary().p95_ns);
            let consistent = study.rows.iter().all(|r| r.snapshot_consistent);
            println!(
                "\n  gate: query p95 {} -> {} under ingest (ratio {:.3}), snapshots {}",
                p95("pure-query"),
                p95("htap"),
                study.query_p95_under_ingest(),
                if consistent { "consistent" } else { "INCONSISTENT" },
            );
            artifacts::write_snapshot(path, "htap", &study.headlines())?;
        }
        Ok(())
    })
}
