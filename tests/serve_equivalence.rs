//! Serving-layer equivalence, determinism and the closed-loop
//! acceptance bar: every answer a multi-tenant serve session admits
//! must be bit-identical to the storage model's own batch path — for
//! both models (pre-joined `ClusterEngine` and normalized
//! `StarCluster`) and for 1 and 4 shards — the full outcome must be a
//! pure function of the seed, and at 4× overload the AIMD window must
//! keep the light tenant's p95 promise while harvesting at least as
//! much heavy-tenant goodput as the best SLO-respecting static window.
//! With writes in the session, every answer must equal a fresh engine
//! that replayed exactly the writes admitted before it, on both models.

mod common;

use std::collections::HashMap;

use bbpim::cluster::{Cluster, ClusterEngine, Partitioner, Storage};
use bbpim::db::builder::col;
use bbpim::db::plan::Query;
use bbpim::db::ssb::{queries, SsbDb, SsbParams};
use bbpim::engine::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim::engine::modes::EngineMode;
use bbpim::engine::mutation::Mutation;
use bbpim::sched::{resolve_query_demand, EventKind};
use bbpim::serve::{
    run_serve, tenant_reports, AimdConfig, ArrivalProcess, RateLimit, ServeConfig, ServeOutcome,
    SloSpec, TenantReport, TenantSpec, WindowPolicy, WriteMix,
};
use bbpim::sim::SimConfig;
use common::{assert_prefix_replay, prejoined_cluster, ssb, ssb_wide, star_cluster};

const SHARD_COUNTS: [usize; 2] = [1, 4];

/// A mix exercising every arrival process, a rate limit and a deadline:
/// open Poisson probes, a mid-session burst behind a token bucket with
/// a deadline (so some requests shed), and closed-loop clients.
fn tenants() -> Vec<TenantSpec> {
    let q = queries::standard_queries();
    vec![
        TenantSpec {
            name: "probes".into(),
            queries: vec![q[2].clone(), q[9].clone()],
            process: ArrivalProcess::OpenPoisson { arrivals: 10, mean_interarrival_ns: 150_000.0 },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 50.0e6, deadline_ns: None },
            weight: 2.0,
        },
        TenantSpec {
            name: "burst".into(),
            queries: vec![q[0].clone(), q[6].clone()],
            process: ArrivalProcess::Burst { arrivals: 8, at_ns: 400_000.0 },
            writes: None,
            rate_limit: Some(RateLimit { rate_per_s: 5_000.0, burst: 2.0 }),
            slo: SloSpec { p95_target_ns: 80.0e6, deadline_ns: Some(2.0e6) },
            weight: 1.0,
        },
        TenantSpec {
            name: "clients".into(),
            queries: vec![q[4].clone()],
            process: ArrivalProcess::Closed {
                clients: 2,
                queries_per_client: 2,
                mean_think_ns: 100_000.0,
            },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 50.0e6, deadline_ns: None },
            weight: 1.0,
        },
    ]
}

fn serve_cfg(seed: u64) -> ServeConfig {
    ServeConfig { seed, window: WindowPolicy::Aimd(AimdConfig::default()) }
}

/// Every admitted answer equals the query's batch-path answer, and the
/// session conserves requests (served + shed = submitted).
fn check_conservation(outcome: &ServeOutcome) {
    let submitted: usize = outcome.submitted.iter().sum();
    assert_eq!(
        outcome.completions.len() + outcome.drops.len(),
        submitted,
        "every request completes or sheds"
    );
    assert_eq!(outcome.completions.len(), outcome.executions.len());
}

#[test]
fn served_answers_match_the_prejoined_batch_path_across_shards() {
    let wide = ssb_wide();
    let specs = tenants();
    for shards in SHARD_COUNTS {
        let mut cluster = prejoined_cluster(&wide, shards);
        let distinct: Vec<_> = specs.iter().flat_map(|t| t.queries.clone()).collect();
        let batch = cluster.run_batch(&distinct).expect("batch oracle");
        let outcome = run_serve(&mut cluster, &specs, &serve_cfg(11)).expect("serve");
        check_conservation(&outcome);
        assert!(!outcome.completions.is_empty(), "the session served something");
        for (c, e) in outcome.completions.iter().zip(&outcome.executions) {
            let i = distinct.iter().position(|q| q.id == c.query_id).expect("known query");
            assert_eq!(
                e.groups, batch.executions[i].groups,
                "served answer for {} at {shards} shards",
                c.query_id
            );
        }
    }
}

#[test]
fn served_answers_match_the_normalized_star_path_across_shards() {
    let db = ssb();
    let specs = tenants();
    for shards in SHARD_COUNTS {
        let mut star = star_cluster(&db, shards);
        let distinct: Vec<_> = specs.iter().flat_map(|t| t.queries.clone()).collect();
        let oracle: Vec<_> =
            distinct.iter().map(|q| star.run(q).expect("star oracle").groups).collect();
        let outcome = run_serve(&mut star, &specs, &serve_cfg(11)).expect("serve");
        check_conservation(&outcome);
        assert!(!outcome.completions.is_empty(), "the session served something");
        for (c, e) in outcome.completions.iter().zip(&outcome.executions) {
            let i = distinct.iter().position(|q| q.id == c.query_id).expect("known query");
            assert_eq!(
                e.groups, oracle[i],
                "served answer for {} at {shards} shards (normalized)",
                c.query_id
            );
        }
    }
}

#[test]
fn serve_outcome_is_a_pure_function_of_the_seed() {
    let wide = ssb_wide();
    let specs = tenants();
    let mut a = prejoined_cluster(&wide, 4);
    let mut b = prejoined_cluster(&wide, 4);
    let oa = run_serve(&mut a, &specs, &serve_cfg(23)).expect("serve a");
    let ob = run_serve(&mut b, &specs, &serve_cfg(23)).expect("serve b");
    assert_eq!(oa.timeline, ob.timeline, "same seed, same event timeline");
    assert_eq!(oa.completions, ob.completions);
    assert_eq!(oa.drops, ob.drops);
    assert_eq!(oa.window_trajectory, ob.window_trajectory);

    let mut c = prejoined_cluster(&wide, 4);
    let oc = run_serve(&mut c, &specs, &serve_cfg(24)).expect("serve c");
    assert_ne!(oa.timeline, oc.timeline, "a different seed reshuffles the session");
}

/// The serving acceptance bar's tenant mix, as indices into the 13 SSB
/// queries chosen by per-query demand: `LIGHT` are the cheapest
/// zone-map-pruned probes (~10 µs busy), `HEAVY` the most expensive scans
/// (the two single-shard year-range scans plus the widest join probe,
/// ~75–145 µs busy), `BATCH` two mid-cost queries.
const LIGHT_QUERIES: [usize; 3] = [2, 9, 11];
const HEAVY_QUERIES: [usize; 3] = [0, 1, 6];
const BATCH_QUERIES: [usize; 2] = [4, 8];

/// The three-tenant mix at `overload`, calibrated from each tenant's own
/// mean resolved busy time (`busy_ns[i]` for query `i`):
///
/// * `light` — cheap selective probes at ~25% of their serial footprint,
///   double weight, a tight p95 promise (the tenant the SLO protects);
/// * `heavy` — the most expensive scans offered at `overload`× their
///   serial footprint behind a 2.5×-footprint token bucket, each request
///   carrying a deadline (the bulk tenant goodput measures);
/// * `batch` — two closed-loop think-time clients with a loose promise.
fn slo_tenants(
    queries: &[Query],
    busy_ns: &[f64],
    arrivals: usize,
    overload: f64,
) -> Vec<TenantSpec> {
    let pick = |idx: &[usize]| idx.iter().map(|&i| queries[i].clone()).collect::<Vec<_>>();
    let mean = |idx: &[usize]| idx.iter().map(|&i| busy_ns[i]).sum::<f64>() / idx.len() as f64;
    let (light_ns, heavy_ns, batch_ns) =
        (mean(&LIGHT_QUERIES), mean(&HEAVY_QUERIES), mean(&BATCH_QUERIES));
    vec![
        TenantSpec {
            name: "light".into(),
            queries: pick(&LIGHT_QUERIES),
            process: ArrivalProcess::OpenPoisson { arrivals, mean_interarrival_ns: 4.0 * light_ns },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 35.0 * light_ns, deadline_ns: None },
            weight: 2.0,
        },
        TenantSpec {
            name: "heavy".into(),
            queries: pick(&HEAVY_QUERIES),
            process: ArrivalProcess::OpenPoisson {
                arrivals,
                mean_interarrival_ns: heavy_ns / overload,
            },
            writes: None,
            rate_limit: Some(RateLimit { rate_per_s: 2.5e9 / heavy_ns, burst: 8.0 }),
            slo: SloSpec { p95_target_ns: 50.0 * heavy_ns, deadline_ns: Some(30.0 * heavy_ns) },
            weight: 1.0,
        },
        TenantSpec {
            name: "batch".into(),
            queries: pick(&BATCH_QUERIES),
            process: ArrivalProcess::Closed {
                clients: 2,
                queries_per_client: 3,
                mean_think_ns: 2.0 * batch_ns,
            },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 100.0 * batch_ns, deadline_ns: None },
            weight: 1.0,
        },
    ]
}

/// The named tenant's report.
fn tenant<'a>(reports: &'a [TenantReport], name: &str) -> &'a TenantReport {
    reports.iter().find(|r| r.name == name).expect("tenant report by name")
}

/// The serving acceptance bar at SF 0.002 (skewed, default seed), 4
/// `d_year` range shards, 120 arrivals per open tenant and 4× overload:
/// the AIMD window (starting at 4, floating in [1, 32] on 8-completion
/// samples) keeps the light tenant's p95 inside its promise, and no
/// static window in {1, 2, 4, 8, 16} that also keeps the promise
/// harvests more heavy-tenant goodput. Every served answer is checked
/// against the batch path over the tenant query set.
#[test]
fn aimd_keeps_the_light_slo_and_beats_every_slo_respecting_static() {
    let params = SsbParams::skewed(0.002);
    let wide = SsbDb::generate(&params).prejoin();
    let queries = queries::adjusted_queries(&wide).expect("query adjustment");
    let (_, model) =
        run_calibration(&SimConfig::default(), EngineMode::OneXb, &CalibrationConfig::default())
            .expect("calibration");
    let mut cluster = ClusterEngine::new(
        SimConfig::default(),
        wide,
        EngineMode::OneXb,
        4,
        Partitioner::range_by_attr("d_year"),
    )
    .expect("cluster construction");
    cluster.set_model(model);
    let busy_ns: Vec<f64> = queries
        .iter()
        .map(|q| resolve_query_demand(&mut cluster, q, false).expect("demand probe").0)
        .map(|demand| demand.total_busy_ns())
        .collect();
    let tenants = slo_tenants(&queries, &busy_ns, 120, 4.0);
    let distinct: Vec<Query> = tenants.iter().flat_map(|t| t.queries.clone()).collect();
    let batch = cluster.run_batch(&distinct).expect("batch oracle");

    let aimd = AimdConfig {
        initial_window: 4,
        min_window: 1,
        max_window: 32,
        sample_window: 8,
        ..Default::default()
    };
    let windows =
        [WindowPolicy::Aimd(aimd)].into_iter().chain([1, 2, 4, 8, 16].map(WindowPolicy::Static));
    let rows: Vec<_> = windows
        .map(|window| {
            let cfg = ServeConfig { seed: params.seed, window };
            let outcome = run_serve(&mut cluster, &tenants, &cfg).expect("serve session");
            for (c, e) in outcome.completions.iter().zip(&outcome.executions) {
                let i = distinct.iter().position(|q| q.id == c.query_id).expect("known query");
                let want = &batch.executions[i].groups;
                assert_eq!(&e.groups, want, "served answer for {}", c.query_id);
            }
            let reports = tenant_reports(&tenants, &outcome);
            (cfg.window, outcome, reports)
        })
        .collect();
    for (window, outcome, reports) in &rows {
        let (light, heavy) = (tenant(reports, "light"), tenant(reports, "heavy"));
        println!(
            "{window:?}: light p95 {:.3} ms vs promise {:.3} ms, heavy goodput {:.1}/s, {} decisions",
            light.latency.p95_ns / 1e6,
            light.p95_target_ns / 1e6,
            heavy.goodput_qps,
            outcome.decisions.len()
        );
    }
    let (_, gate, gate_reports) = &rows[0];
    let (light, heavy) = (tenant(gate_reports, "light"), tenant(gate_reports, "heavy"));
    assert!(
        light.slo_met,
        "AIMD keeps the light tenant's p95 promise: p95 {:.3} ms vs target {:.3} ms",
        light.latency.p95_ns / 1e6,
        light.p95_target_ns / 1e6
    );
    let best_static = rows[1..]
        .iter()
        .filter(|(_, _, reports)| tenant(reports, "light").slo_met)
        .map(|(window, _, reports)| (window, tenant(reports, "heavy").goodput_qps))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((window, goodput)) = best_static {
        assert!(
            heavy.goodput_qps >= goodput,
            "AIMD heavy goodput {:.1}/s must not trail the best SLO-respecting \
             static ({window:?} at {goodput:.1}/s)",
            heavy.goodput_qps
        );
    }
    assert!(heavy.goodput_qps > 0.0, "the heavy tenant made progress");
    assert!(!gate.decisions.is_empty(), "the controller actually adapted during the gate session");
}

/// Served writes apply at their admission, as streamed ones do. An
/// `htap` tenant's write mix UPDATEs `lo_discount`, which its Q1.1
/// filters on, and INSERTs one row, beside a read-only tenant. Every
/// served answer must equal a fresh engine that replayed exactly the
/// writes admitted before it (its `epoch`); every INSERT drawn lands
/// its row; the served engine ends where replaying every write leaves a
/// fresh one; and a write is durable at its last lane chain's end, with
/// no merge grant after it.
#[test]
fn served_writes_match_prefix_replay_on_both_models() {
    let db = ssb();
    let wide = db.prejoin();
    let lo = &db.lineorder;
    let wide_writes = vec![
        Mutation::update()
            .filter(col("d_year").eq(1993u64))
            .set("lo_discount", 2u64)
            .build(wide.schema())
            .expect("update"),
        Mutation::insert().row(wide.row(0)).build(wide.schema()).expect("insert"),
    ];
    let star_writes = vec![
        Mutation::update()
            .filter(col("lo_discount").eq(3u64))
            .set("lo_discount", 4u64)
            .build(lo.schema())
            .expect("fact update"),
        Mutation::insert().row(lo.row(0)).build(lo.schema()).expect("fact insert"),
    ];
    assert_served_writes_replay("wide", wide_writes, || prejoined_cluster(&wide, 4));
    assert_served_writes_replay("star", star_writes, || star_cluster(&db, 4));
}

fn assert_served_writes_replay<S: Storage>(
    label: &str,
    writes: Vec<Mutation>,
    build: impl Fn() -> Cluster<S>,
) {
    let q = queries::standard_queries();
    let tenant = |name: &str, queries: Vec<Query>, writes: Option<WriteMix>| TenantSpec {
        name: name.into(),
        queries,
        process: ArrivalProcess::OpenPoisson { arrivals: 16, mean_interarrival_ns: 100_000.0 },
        writes,
        rate_limit: None,
        slo: SloSpec { p95_target_ns: 50.0e6, deadline_ns: None },
        weight: 1.0,
    };
    let mix = WriteMix { mutations: writes.clone(), write_frac: 0.4 };
    let specs = vec![
        tenant("htap", vec![q[0].clone()], Some(mix)),
        tenant("probes", vec![q[2].clone(), q[6].clone()], None),
    ];
    let mut served = build();
    let out = run_serve(&mut served, &specs, &serve_cfg(5)).expect("serve");
    let fates = out.completions.len() + out.write_completions.len() + out.drops.len();
    assert_eq!(fates, out.submitted.iter().sum::<usize>(), "{label}: every request has a fate");
    let by_label: HashMap<String, &Mutation> = writes.iter().map(|m| (m.label(), m)).collect();
    assert_eq!(by_label.len(), writes.len(), "{label}: write labels must be distinct");
    let mut admitted: Vec<_> = out.write_completions.iter().collect();
    admitted.sort_by_key(|w| w.epoch);
    let epochs: Vec<usize> = admitted.iter().map(|w| w.epoch).collect();
    assert_eq!(epochs, (1..=admitted.len()).collect::<Vec<_>>(), "{label}: one epoch per write");

    // Every INSERT drawn lands its row, once per draw.
    let insert = writes.iter().find(|m| matches!(m, Mutation::Insert { .. })).expect("an insert");
    let drawn = admitted.iter().filter(|w| w.label == insert.label()).count();
    assert!(drawn >= 2, "{label}: the seed must draw the INSERT more than once, drew {drawn}");
    let inserted: u64 = admitted.iter().map(|w| w.records_inserted).sum();
    assert_eq!(inserted, drawn as u64, "{label}: one row per INSERT drawn");

    // Each answer against a fresh engine that replayed its prefix, and
    // the served engine's end state against one that replayed them all.
    let epochs = || out.completions.iter().map(|c| c.epoch);
    assert!(epochs().min() == Some(0) && epochs().max() > Some(0));
    let all: Vec<&Query> = specs.iter().flat_map(|t| &t.queries).collect();
    let answers = out.completions.iter().zip(&out.executions).map(|(c, exec)| {
        let query = all.iter().find(|q| q.id == c.query_id).expect("a tenant query");
        (c, &**exec, *query)
    });
    let in_order: Vec<Mutation> = admitted.iter().map(|w| by_label[&w.label].clone()).collect();
    let mut fresh = build();
    assert_prefix_replay(label, &mut fresh, &in_order, answers);
    let end_state = |c: &mut Cluster<S>| c.run(&q[0]).expect("end-state query");
    assert_eq!(
        end_state(&mut served),
        end_state(&mut fresh),
        "{label}: the served engine's end state"
    );

    // Durable at the last lane chain's end.
    for w in &admitted {
        let lanes_done = out
            .timeline
            .iter()
            .filter(|e| e.arrival == w.arrival && e.kind == EventKind::MutationLaneDone);
        let last_lane = lanes_done.map(|e| e.t_ns).fold(w.admit_ns, f64::max);
        assert_eq!(
            w.complete_ns, last_lane,
            "{label}: write {} completes at its last lane",
            w.arrival
        );
    }
}
