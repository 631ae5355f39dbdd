//! Star-join study: the normalized star cluster (PIM-side semijoin
//! bitmaps over separate fact + dimension tables) against the
//! pre-joined cluster it replaces, on the 13 SSB queries.
//!
//! Both clusters run the same queries at the same shard count and
//! engine mode; every normalized answer is asserted bit-identical to
//! the pre-joined one before anything is reported. The comparison is
//! host-channel bytes — the journal extension's contended resource —
//! plus the per-table PIM-resident footprint the normalization frees.
//! The flags it reads are [`ACCEPTS`]; the largest `--shards` count runs.

use std::io;
use std::process::ExitCode;

use bbpim_bench::{fmt_ms, print_table, report_host_bytes, reports, study_main, Accepts, SsbSetup};
use bbpim_cluster::{ClusterEngine, Partitioner, StarCluster};
use bbpim_core::groupby::calibration::CalibrationConfig;
use bbpim_core::modes::EngineMode;
use bbpim_db::ssb::star;
use bbpim_sim::SimConfig;

const ACCEPTS: Accepts<'static> = Accepts::shared("--sf --uniform --skewed --seed --shards");

fn main() -> ExitCode {
    study_main(&ACCEPTS, |s, _| run(&s))
}

fn run(s: &SsbSetup) -> io::Result<()> {
    let shards = *s.cfg.shards.iter().max().expect("at least one shard count");
    let mode = EngineMode::TwoXb;

    let mut star_cluster =
        StarCluster::new(SimConfig::default(), &s.db, mode, shards, Partitioner::RoundRobin)
            .expect("star cluster construction");
    let mut prejoined = ClusterEngine::new(
        SimConfig::default(),
        s.wide.clone(),
        mode,
        shards,
        Partitioner::RoundRobin,
    )
    .expect("pre-joined cluster construction");
    prejoined.calibrate(&CalibrationConfig::default()).expect("calibration");

    println!(
        "Star join — normalized semijoin vs pre-join, host-channel bytes (SF={}, {} data, \
         {} fact records, {} shards, {mode:?})\n",
        s.cfg.sf,
        s.cfg.data_label(),
        s.db.lineorder.len(),
        shards,
    );

    let mut rows = Vec::new();
    let mut ratios_all = Vec::new();
    let mut ratios_q1 = Vec::new();
    for q in &s.queries {
        let star_out = star_cluster.run(q).unwrap_or_else(|e| panic!("star {}: {e}", q.id));
        let pre_out = prejoined.run(q).unwrap_or_else(|e| panic!("pre-joined {}: {e}", q.id));
        assert_eq!(star_out.groups, pre_out.groups, "normalized/pre-join mismatch on {}", q.id);
        // the star cluster's semijoin prelude — dimension-bitmap read +
        // broadcast — rides the first dispatched shard's log
        let sb = report_host_bytes(&star_out.report);
        let pb = report_host_bytes(&pre_out.report);
        let ratio = pb as f64 / sb.max(1) as f64;
        if sb > 0 && pb > 0 {
            ratios_all.push(ratio);
            if q.id.starts_with("Q1") {
                ratios_q1.push(ratio);
            }
        }
        rows.push(vec![
            q.id.clone(),
            fmt_ms(star_out.report.time_ns),
            fmt_ms(pre_out.report.time_ns),
            sb.to_string(),
            pb.to_string(),
            // planner-only queries move no bytes on either path
            if sb > 0 { format!("{ratio:.2}") } else { "-".into() },
        ]);
    }
    print_table(
        &["query", "star ms", "prejoin ms", "star host B", "prejoin host B", "pre/star B"],
        &rows,
    );

    let gm = |r: &[f64]| if r.is_empty() { 1.0 } else { bbpim_bench::geomean(r) };
    let q1_ratio = gm(&ratios_q1);
    let all_ratio = gm(&ratios_all);
    println!(
        "\ngeo-mean host-byte reduction (pre-join / normalized, > 1 = semijoin cheaper):\n  \
         Q1.x (selective class): {q1_ratio:.2}x\n  all queries with traffic: {all_ratio:.2}x"
    );
    println!(
        "\nshape check:\n  [{}] compressed dimension bitmaps beat wide-mask transfers on Q1.x",
        if q1_ratio > 1.0 { "PASS" } else { "FAIL" },
    );

    println!();
    let normalized = star_cluster.footprints();
    let prejoin_fp = star::table_footprint(&s.wide, &[]);
    reports::print_star_footprint(&normalized, &prejoin_fp);
    Ok(())
}
