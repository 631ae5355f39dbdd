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

use bbpim_bench::{reports, run_pruning_study, study_main, Accepts, SsbSetup};
use bbpim_core::modes::EngineMode;

const ACCEPTS: Accepts<'static> = Accepts::shared("--sf --uniform --skewed --seed --shards");

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
    Ok(())
}
