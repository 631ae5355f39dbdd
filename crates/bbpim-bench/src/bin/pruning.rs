//! Zone-map pruning study: pruned vs exhaustive dispatch over all 13
//! SSB queries on a `RangeByAttr(d_year)` cluster at several shard
//! counts.
//!
//! Range placement on `d_year` makes shard zone maps narrow on the
//! attribute Q1.x/Q3.x/Q4.x constrain, so the planner skips most shards
//! pre-scatter and most pages inside the survivors; Q2.x (no date
//! filter) shows the no-pruning baseline behaviour. Both executions of
//! every query are cross-checked against the row-at-a-time oracle.
//! The flags it reads are [`ACCEPTS`].

use std::io;
use std::process::ExitCode;

use bbpim_bench::{artifacts, reports, run_pruning_study, study_main, Accepts, SsbSetup};
use bbpim_core::modes::EngineMode;

const ACCEPTS: Accepts<'static> = Accepts::shared("--sf --uniform --skewed --seed --shards --json");

/// The range-partitioning attribute: the dimension attribute SSB's
/// selective filters constrain most often.
const RANGE_ATTR: &str = "d_year";

fn main() -> ExitCode {
    study_main(&ACCEPTS, |s, _| run(&s))
}

fn run(s: &SsbSetup) -> io::Result<()> {
    let shard_counts = s.cfg.shards.clone();
    let points = run_pruning_study(s, EngineMode::OneXb, &shard_counts, RANGE_ATTR);
    reports::print_pruning(s, &points);

    // Machine-readable snapshot for the CI regression gate: the
    // pruned-vs-exhaustive wall-clock headline at the largest shard
    // count (geo-mean over queries the planner did not answer alone).
    if let Some(path) = &s.cfg.json {
        let top = points.iter().max_by_key(|p| p.shards).expect("at least one shard count");
        artifacts::write_snapshot(path, "pruning", &top.headlines())?;
    }
    Ok(())
}
