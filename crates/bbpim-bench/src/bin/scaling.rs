//! Cluster scaling study: the 13 SSB queries on a sharded multi-module
//! cluster at each shard count, plus an A/B table attributing the
//! host-channel byte diet lever by lever at the largest count.
//!
//! The default path is the normalized **star** cluster (PIM-side
//! semijoin bitmaps, two-crossbar modules) — the storage model the
//! byte diet was built for. The legacy pre-joined one-crossbar sweep,
//! including its hash-by-group-key partitioner comparison, is kept
//! behind `--prejoined`.
//!
//! Every merged answer is cross-checked against the row-at-a-time
//! oracle before it is reported. The flags it reads are [`ACCEPTS`]:
//! `--shards` lists the counts to sweep.

use std::io;
use std::process::ExitCode;

use bbpim_bench::{
    fmt_ms, print_table, report_host_bytes, reports, run_cluster_scaling, scaling_verdict,
    study_main, Accepts, ClusterScalePoint, SsbSetup,
};
use bbpim_cluster::{Cluster, ClusterEngine, ClusterExecution, Partitioner, StarCluster, Storage};
use bbpim_core::groupby::calibration::CalibrationConfig;
use bbpim_core::modes::EngineMode;
use bbpim_sim::{SimConfig, XferPolicy};

const ACCEPTS: Accepts<'static> = Accepts {
    shared: "--sf --uniform --skewed --seed --shards",
    switches: &["--prejoined"],
    values: &[],
};

/// The lever attribution rows: each byte-diet lever switched off
/// individually against the all-on default, bracketed by the default
/// and the legacy (all-off) policy.
fn lever_rows() -> Vec<(&'static str, XferPolicy)> {
    let on = XferPolicy::default();
    vec![
        ("all-on (default)", on),
        ("compress_masks off", XferPolicy { compress_masks: false, ..on }),
        ("batch_dispatch off", XferPolicy { batch_dispatch: false, ..on }),
        ("module_reduce off", XferPolicy { module_reduce: false, ..on }),
        ("legacy (all off)", XferPolicy::legacy()),
    ]
}

/// Run all 13 queries at `shards` under `policy` on the default-path
/// engine (star unless `--prejoined`), returning the executions.
fn run_policy(
    s: &SsbSetup,
    prejoined: bool,
    mode: EngineMode,
    shards: usize,
    policy: XferPolicy,
) -> Vec<ClusterExecution> {
    fn run_all<S: Storage>(
        mut c: Cluster<S>,
        s: &SsbSetup,
        policy: XferPolicy,
    ) -> Vec<ClusterExecution> {
        c.set_xfer_policy(policy);
        let run = |q| c.run(q).unwrap_or_else(|e| panic!("{} under lever A/B: {e}", q.id));
        s.queries.iter().map(run).collect()
    }
    let (sim, rr) = (SimConfig::default(), Partitioner::RoundRobin);
    if prejoined {
        let mut c = ClusterEngine::new(sim, s.wide.clone(), mode, shards, rr)
            .expect("cluster construction");
        c.calibrate(&CalibrationConfig::default()).expect("calibration");
        run_all(c, s, policy)
    } else {
        let c = StarCluster::new(sim, &s.db, mode, shards, rr).expect("star cluster construction");
        run_all(c, s, policy)
    }
}

/// The A/B lever table at `shards`: per configuration, mean host bytes
/// per query and the contended-wall-clock geo-mean speedup over the
/// legacy policy.
fn lever_table(s: &SsbSetup, prejoined: bool, mode: EngineMode, shards: usize) {
    println!("\nhost-channel byte diet at {shards} shards, contended (per-lever attribution):\n");
    let runs: Vec<(&str, Vec<ClusterExecution>)> = lever_rows()
        .into_iter()
        .map(|(label, policy)| (label, run_policy(s, prejoined, mode, shards, policy)))
        .collect();
    let legacy = &runs.last().expect("legacy row").1;
    // answers are lever-independent; the equivalence suite enforces
    // this against the oracle, the cheap cross-check here is free
    for (label, execs) in &runs {
        for (e, l) in execs.iter().zip(legacy.iter()) {
            assert_eq!(e.groups, l.groups, "lever answer drift under {label}");
        }
    }
    let bytes_per_query = |execs: &[ClusterExecution]| {
        execs.iter().map(|e| report_host_bytes(&e.report)).sum::<u64>() as f64
            / execs.len().max(1) as f64
    };
    let legacy_bytes = bytes_per_query(legacy);
    let mut rows = Vec::new();
    for (label, execs) in &runs {
        let bytes = bytes_per_query(execs);
        let ratios: Vec<f64> = execs
            .iter()
            .zip(legacy.iter())
            .map(|(e, l)| l.report.time_ns / e.report.time_ns)
            .collect();
        let wall: f64 = execs.iter().map(|e| e.report.time_ns).sum();
        rows.push(vec![
            label.to_string(),
            format!("{bytes:.0}"),
            format!("{:.2}x", legacy_bytes / bytes.max(1.0)),
            fmt_ms(wall),
            bbpim_bench::fmt_geomean(&ratios),
        ]);
    }
    print_table(
        &["policy", "host B/query", "bytes vs legacy", "total ms", "speedup vs legacy"],
        &rows,
    );
}

fn main() -> ExitCode {
    study_main(&ACCEPTS, |s, flags| run(&s, flags.switch("--prejoined")))
}

fn run(s: &SsbSetup, prejoined: bool) -> io::Result<()> {
    let shard_counts = s.cfg.shards.clone();
    let (mode, points): (EngineMode, Vec<ClusterScalePoint>) = if prejoined {
        let m = EngineMode::OneXb;
        // One calibration sweep serves every shard count.
        let model = bbpim_bench::fit_shared_model(m);
        let new_cluster =
            |shards| bbpim_bench::modelled_cluster(s, m, shards, Partitioner::RoundRobin, &model);
        (m, run_cluster_scaling(s, &shard_counts, new_cluster))
    } else {
        // the star path runs two-crossbar modules: dimension filters on
        // their own modules, compressed semijoin bitmaps over the bus
        let m = EngineMode::TwoXb;
        let new_cluster = |shards| {
            StarCluster::new(SimConfig::default(), &s.db, m, shards, Partitioner::RoundRobin)
                .expect("star cluster construction")
        };
        (m, run_cluster_scaling(s, &shard_counts, new_cluster))
    };
    println!(
        "scaling path: {}\n",
        if prejoined { "pre-joined (legacy)" } else { "star (default)" }
    );
    reports::print_scaling(s, &points, !prejoined);

    let max_shards = *shard_counts.iter().max().expect("at least one shard count");

    if prejoined {
        // Hash partitioning keeps every subgroup on one shard: the
        // merge is a disjoint union and each shard's GROUP BY sees k/n
        // subgroups. One hash cluster per GROUP BY query (the key set
        // differs), each running only its own query.
        let hash_shards = if shard_counts.contains(&4) { 4 } else { max_shards };
        println!(
            "\nhash-by-group-key vs round-robin at {hash_shards} shards (GROUP BY queries):\n"
        );
        let rr_point =
            points.iter().find(|p| p.shards == hash_shards).expect("hash-comparison shard point");
        let mut rows = Vec::new();
        for (i, q) in s.queries.iter().enumerate() {
            if !q.has_group_by() {
                continue;
            }
            let mut cluster = ClusterEngine::new(
                SimConfig::default(),
                s.wide.clone(),
                mode,
                hash_shards,
                Partitioner::hash_by_group_keys(&q.group_by),
            )
            .expect("hash cluster construction");
            cluster.calibrate(&CalibrationConfig::default()).expect("calibration");
            let out = cluster.run(q).unwrap_or_else(|e| panic!("hash shards on {}: {e}", q.id));
            assert_eq!(
                out.groups, rr_point.executions[i].groups,
                "hash/round-robin mismatch on {}",
                q.id
            );
            let rr_ns = rr_point.executions[i].report.time_ns;
            let hash_ns = out.report.time_ns;
            let ratio = rr_ns / hash_ns;
            rows.push(vec![
                q.id.clone(),
                out.report.partitioner.to_string(),
                fmt_ms(rr_ns),
                fmt_ms(hash_ns),
                // zone-pruned zero-match queries cost ~0 on both layouts
                if ratio.is_finite() { format!("{ratio:.2}") } else { "-".into() },
            ]);
        }
        print_table(&["query", "partitioner", "round-robin", "hash-by-key", "rr/hash"], &rows);
    }

    // Lever-by-lever byte attribution at the largest shard count.
    lever_table(s, prejoined, mode, max_shards);

    // What this cluster's wide relation costs in PIM capacity next to
    // the normalized star catalog (the star path's storage win).
    println!();
    let catalog = bbpim_db::ssb::star::StarSchema::of_db(&s.db);
    reports::print_star_footprint(
        &catalog.footprints(&catalog.ssb_cold_attrs()),
        &bbpim_db::ssb::star::table_footprint(&s.wide, &[]),
    );

    scaling_verdict(&points)
}
