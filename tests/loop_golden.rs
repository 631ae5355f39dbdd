//! Cross-commit goldens for the two event-loop entry points. The
//! determinism suites compare a run with a rerun of the *same* binary;
//! these pin a 64-bit FNV-1a digest of each scenario's whole outcome
//! (`Debug` rendering: timeline, completions, drops, window
//! trajectory, per-lane wear, merged answers) and of its
//! `perfetto_json` + `jsonl` trace exports, so a refactor of the loops
//! is checked against the commit *before* it. A digest may only change
//! together with a deliberate, explained model change.
//!
//! The `Debug` digest moves whenever a record type gains or loses a
//! field. The *projection* digests move less: they hash a fixed
//! selection of every outcome — events, completions, drops, the window,
//! the lane tallies (floats as bits) and each execution's `Debug` —
//! read field by field and rendered as plain tuples, so they name no
//! type and no field outside the merged executions. A field added to or
//! removed from `ClusterExecution` or its reports moves them too.

mod common;

use bbpim::db::plan::Query;
use bbpim::db::ssb::queries;
use bbpim::engine::mutation::Mutation;
use bbpim::sched::{
    run_stream_traced, AdmissionPolicy, SchedConfig, StreamEngine, StreamOutcome, Workload,
};
use bbpim::serve::{
    run_serve_traced, AimdConfig, ArrivalProcess, RateLimit, ServeConfig, ServeOutcome, SloSpec,
    TenantSpec, WindowPolicy, WriteMix,
};
use bbpim::trace::export::{jsonl, perfetto_json};
use bbpim::trace::TraceRecorder;
use common::{
    assert_pinned, fnv1a, prejoined_cluster, ssb, star_cluster, star_mutations, wide_mutations,
};
use std::fmt::Write;

const SHARDS: usize = 4;

/// `[outcome, perfetto, jsonl]` digests of one traced run.
fn digests(outcome: &impl std::fmt::Debug, trace: &TraceRecorder) -> [u64; 3] {
    assert!(!trace.is_empty(), "the scenario must record a trace");
    [
        fnv1a(format!("{outcome:?}").as_bytes()),
        fnv1a(perfetto_json(trace).as_bytes()),
        fnv1a(jsonl(trace).as_bytes()),
    ]
}

fn probe_queries() -> Vec<Query> {
    ["Q1.1", "Q2.1", "Q3.1", "Q4.1"]
        .iter()
        .map(|id| queries::standard_query(id).expect("standard query"))
        .collect()
}

/// One HTAP stream under `policy`: a tight in-flight bound so SCSF can
/// reorder, and a one-deep ingest buffer so the head of the ingest
/// queue stalls.
fn stream_digests<E: StreamEngine>(
    cluster: &mut E,
    mutations: Vec<Mutation>,
    policy: AdmissionPolicy,
) -> ([u64; 3], u64) {
    let workload = Workload::poisson_htap(probe_queries(), mutations, 48, 0.4, 20_000.0, 0x60_1DE4);
    assert!(workload.has_mutations());
    let cfg = SchedConfig { max_in_flight: 3, policy, ingest_buffer: 1 };
    let mut trace = TraceRecorder::enabled();
    let out = run_stream_traced(cluster, &workload, &cfg, &mut trace).expect("stream");
    assert!(!out.mutation_completions.is_empty());
    (digests(&out, &trace), fnv1a(stream_projection(&out).as_bytes()))
}

/// The stream outcome, field by field (see the module docs).
fn stream_projection(out: &StreamOutcome) -> String {
    let mut s = String::new();
    for e in &out.timeline {
        writeln!(s, "{:?}", (e.t_ns.to_bits(), e.kind, e.arrival, e.shard)).unwrap();
    }
    for c in &out.completions {
        let times = [c.arrive_ns, c.admit_ns, c.first_service_ns, c.complete_ns].map(f64::to_bits);
        let shards = (c.shards_dispatched, c.shards_pruned);
        writeln!(s, "{:?}", (c.arrival, times, c.epoch, shards, &c.query_id)).unwrap();
    }
    for m in &out.mutation_completions {
        let times = [m.arrive_ns, m.admit_ns, m.complete_ns].map(f64::to_bits);
        let records = (m.records_updated, m.records_inserted);
        writeln!(s, "{:?}", (m.arrival, &m.label, times, m.lanes, records, m.epoch)).unwrap();
    }
    let stalls = (out.ingest_stalls, out.ingest_stall_ns.to_bits());
    let tallies = (
        [out.makespan_ns, out.host_busy_ns].map(f64::to_bits),
        bits(&out.shard_busy_ns),
        &out.shard_cell_writes,
        bits(&out.shard_required_endurance),
    );
    writeln!(s, "{:?}", (stalls, tallies)).unwrap();
    for e in &out.executions {
        writeln!(s, "{e:?}").unwrap();
    }
    s
}

/// The serve outcome, field by field (see the module docs).
fn serve_projection(out: &ServeOutcome) -> String {
    let mut s = String::new();
    for e in &out.timeline {
        writeln!(s, "{:?}", (e.t_ns.to_bits(), e.kind, e.arrival, e.shard)).unwrap();
    }
    for c in &out.completions {
        let times = [c.arrive_ns, c.admit_ns, c.first_service_ns, c.complete_ns].map(f64::to_bits);
        let shards = (c.shards_dispatched, c.shards_pruned);
        let who = (c.tenant, c.client, c.eligible_ns.to_bits(), c.deadline_ns.map(f64::to_bits));
        writeln!(s, "{:?}", (c.arrival, times, shards, &c.query_id, who)).unwrap();
    }
    writeln!(s, "{:?}", out.write_completions.len()).unwrap();
    for d in &out.drops {
        let times =
            [d.arrive_ns, d.shed_ns, d.predicted_complete_ns, d.deadline_ns].map(f64::to_bits);
        writeln!(s, "{:?}", (d.request, d.tenant, d.client, &d.query_id, times)).unwrap();
    }
    for (t, w) in &out.window_trajectory {
        writeln!(s, "{:?}", (t.to_bits(), w)).unwrap();
    }
    for d in &out.decisions {
        writeln!(s, "{:?}", (d.t_ns.to_bits(), d.p95_ratio.to_bits(), d.window)).unwrap();
    }
    let tallies = (
        [out.makespan_ns, out.host_busy_ns].map(f64::to_bits),
        bits(&out.shard_busy_ns),
        &out.lane_cell_writes,
        bits(&out.lane_required_endurance),
    );
    writeln!(s, "{:?}", (&out.submitted, &out.throttled, tallies)).unwrap();
    for e in &out.executions {
        writeln!(s, "{e:?}").unwrap();
    }
    s
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An open, a rate-limited deadline-bound burst, a closed-loop and a
/// write-mixing tenant under the AIMD window.
fn tenants(writes: Vec<Mutation>) -> Vec<TenantSpec> {
    let q = queries::standard_queries();
    vec![
        TenantSpec {
            name: "probes".into(),
            queries: vec![q[2].clone(), q[9].clone()],
            process: ArrivalProcess::OpenPoisson { arrivals: 12, mean_interarrival_ns: 120_000.0 },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 0.15e6, deadline_ns: None },
            weight: 2.0,
        },
        TenantSpec {
            name: "burst".into(),
            queries: vec![q[0].clone(), q[6].clone()],
            process: ArrivalProcess::Burst { arrivals: 8, at_ns: 400_000.0 },
            writes: None,
            rate_limit: Some(RateLimit { rate_per_s: 5_000.0, burst: 2.0 }),
            slo: SloSpec { p95_target_ns: 80.0e6, deadline_ns: Some(0.6e6) },
            weight: 1.0,
        },
        TenantSpec {
            name: "clients".into(),
            queries: vec![q[4].clone()],
            process: ArrivalProcess::Closed {
                clients: 2,
                queries_per_client: 3,
                mean_think_ns: 100_000.0,
            },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 50.0e6, deadline_ns: None },
            weight: 1.0,
        },
        TenantSpec {
            name: "ingest".into(),
            queries: vec![q[1].clone()],
            process: ArrivalProcess::OpenPoisson { arrivals: 10, mean_interarrival_ns: 150_000.0 },
            writes: Some(WriteMix { mutations: writes, write_frac: 0.5 }),
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 50.0e6, deadline_ns: None },
            weight: 1.0,
        },
    ]
}

fn serve_digests<E: StreamEngine>(cluster: &mut E, writes: Vec<Mutation>) -> [u64; 3] {
    let (out, trace) = serve(cluster, tenants(writes));
    assert!(!out.write_completions.is_empty(), "the write mix must land writes");
    digests(&out, &trace)
}

/// The [`tenants`] mix without its `ingest` tenant: no write in the
/// session. Returns the `[outcome, perfetto, jsonl]` digests and the
/// projection digest.
fn query_only_serve_digests<E: StreamEngine>(cluster: &mut E) -> ([u64; 3], u64) {
    let mut specs = tenants(Vec::new());
    specs.retain(|t| t.writes.is_none());
    let (out, trace) = serve(cluster, specs);
    assert!(out.write_completions.is_empty());
    (digests(&out, &trace), fnv1a(serve_projection(&out).as_bytes()))
}

/// One traced serve session under the AIMD window; it must shed,
/// throttle and decide.
fn serve<E: StreamEngine>(
    cluster: &mut E,
    specs: Vec<TenantSpec>,
) -> (ServeOutcome, TraceRecorder) {
    let cfg = ServeConfig {
        seed: 0x5E_47E5,
        window: WindowPolicy::Aimd(AimdConfig { sample_window: 4, ..AimdConfig::default() }),
    };
    let mut trace = TraceRecorder::enabled();
    let out = run_serve_traced(cluster, &specs, &cfg, &mut trace).expect("serve");
    assert!(!out.drops.is_empty(), "the deadline must shed");
    assert!(out.throttled.iter().sum::<usize>() > 0, "the token bucket must throttle");
    assert!(!out.decisions.is_empty(), "the AIMD window must decide");
    (out, trace)
}

#[test]
fn run_stream_matches_the_pinned_digests() {
    let db = ssb();
    let wide = db.prejoin();
    let (mut got, mut projections) = (Vec::new(), Vec::new());
    for policy in AdmissionPolicy::all() {
        let (d, p) =
            stream_digests(&mut prejoined_cluster(&wide, SHARDS), wide_mutations(&wide), policy);
        got.push((format!("ClusterEngine, {}", policy.label()), d));
        projections.push((format!("ClusterEngine, {}", policy.label()), [p]));
        let (d, p) = stream_digests(&mut star_cluster(&db, SHARDS), star_mutations(&db), policy);
        got.push((format!("StarCluster, {}", policy.label()), d));
        projections.push((format!("StarCluster, {}", policy.label()), [p]));
    }
    assert_pinned(
        "run_stream projections",
        &projections,
        &[
            [0x0c80_8e4c_b55c_8f7e], // ClusterEngine, fifo
            [0x625d_ece8_b77d_117b], // StarCluster, fifo
            [0xb369_c16e_7910_848b], // ClusterEngine, scsf
            [0x625d_ece8_b77d_117b], // StarCluster, scsf
        ],
    );
    assert_pinned(
        "run_stream digests",
        &got,
        &[
            [0x95bc_4a53_5fa1_9d26, 0xd955_04b3_1eae_e836, 0x92a4_8752_d011_2e9e],
            [0xc4b6_3d06_a38a_7afd, 0xd23d_7c02_5220_4320, 0x703c_5e66_7b50_8b36],
            [0x156d_5015_3513_e963, 0xd2f9_0526_187f_29c9, 0x00d9_66b2_4703_6780],
            [0x810a_a3fd_7934_9b68, 0xd23d_7c02_5220_4320, 0x703c_5e66_7b50_8b36],
        ],
    );
}

#[test]
fn run_serve_matches_the_pinned_digests() {
    let db = ssb();
    let wide = db.prejoin();
    let got = [
        (
            "ClusterEngine".to_string(),
            serve_digests(&mut prejoined_cluster(&wide, SHARDS), wide_mutations(&wide)),
        ),
        (
            "StarCluster".to_string(),
            serve_digests(&mut star_cluster(&db, SHARDS), star_mutations(&db)),
        ),
    ];
    assert_pinned(
        "run_serve digests",
        &got,
        &[
            [0xbd4d_5ba3_9e6b_dcd8, 0x28d6_f794_f1f9_f835, 0xad56_eea1_e4e9_f23a],
            [0x8d4a_2b0c_ca0b_d60f, 0x1510_a711_e480_0121, 0x41e2_3ad0_13b5_787b],
        ],
    );
}

#[test]
fn query_only_run_serve_matches_the_pinned_digests() {
    let db = ssb();
    let wide = db.prejoin();
    let (mut got, mut projections) = (Vec::new(), Vec::new());
    for (name, (d, p)) in [
        ("ClusterEngine", query_only_serve_digests(&mut prejoined_cluster(&wide, SHARDS))),
        ("StarCluster", query_only_serve_digests(&mut star_cluster(&db, SHARDS))),
    ] {
        got.push((name.to_string(), d));
        projections.push((name.to_string(), [p]));
    }
    assert_pinned(
        "query-only run_serve projections",
        &projections,
        &[[0xcbe8_0f5f_8434_1fb7], [0xb44d_021f_2de4_784b]],
    );
    assert_pinned(
        "query-only run_serve digests",
        &got,
        &[
            [0x08f1_2f94_3a98_2fb1, 0xc035_dc69_4fc6_ee0e, 0xc7e6_393b_684b_3b82],
            [0x7a91_58e8_08fe_577c, 0x1aed_265b_c126_7ef3, 0x1002_0e49_5f6a_5230],
        ],
    );
}
