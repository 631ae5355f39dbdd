//! # bbpim-serve — SLO-aware multi-tenant serving for the PIM cluster
//!
//! The streaming scheduler answers "what happens when queries arrive
//! over time"; this crate answers the production question on top of
//! it: what happens when *several tenants* share one PIM cluster, each
//! with its own traffic shape, rate limit, and latency promise — and
//! the operator must keep those promises under overload?
//!
//! * [`tenant::TenantSpec`] — a named workload: a query set, an
//!   arrival process (seeded open Poisson / burst, or closed-loop
//!   think-time clients whose offered load *reacts* to latency), an
//!   optional token-bucket [`tenant::RateLimit`], an [`tenant::SloSpec`]
//!   (p95 target, optional per-request deadline), an optional
//!   [`tenant::WriteMix`] (HTAP tenants issue Mutation API v2 writes as
//!   first-class requests), and a fair-share weight.
//! * [`serve::run_serve`] — the tenant front-end of the scheduler's one
//!   admission loop ([`bbpim_sched::Core`]), multiplexing every
//!   tenant's stream: token buckets delay over-rate requests, weighted
//!   fair queueing picks the next admission (no tenant starves),
//!   deadline shedding drops requests whose predicted completion blows
//!   their deadline, and the global in-flight window is either static
//!   or closed-loop.
//! * [`controller::AimdController`] — the closed loop: every
//!   completion feeds its SLO-normalised latency; the windowed p95 of
//!   those ratios raises the window additively while promises hold and
//!   cuts it multiplicatively on violation, replacing the static
//!   `max_in_flight` guess.
//! * [`report::tenant_reports`] — per-tenant p50/p95/p99/p999, goodput,
//!   drop rate and SLO verdict.
//!
//! Admission policies decide *which* requests run and *when*; what a
//! query answers is fixed at its admission, from real shard runs, by the
//! writes admitted before it ([`ServeCompletion::epoch`]) — exactly as
//! on a stream. A write request applies its mutation at its admission,
//! rides the shared channel and its ingest lanes, and feeds the
//! controller and the per-lane wear accounting
//! ([`ServeOutcome::lane_cell_writes`]). Without writes every answer is
//! bit-identical to the batch oracle.
//!
//! ```
//! use bbpim_cluster::{ClusterEngine, Partitioner};
//! use bbpim_core::modes::EngineMode;
//! use bbpim_db::ssb::{queries, SsbDb, SsbParams};
//! use bbpim_serve::{
//!     run_serve, tenant_reports, ArrivalProcess, ServeConfig, SloSpec, TenantSpec,
//! };
//! use bbpim_sim::SimConfig;
//!
//! let wide = SsbDb::generate(&SsbParams::tiny_for_tests()).prejoin();
//! let mut cluster = ClusterEngine::new(
//!     SimConfig::default(), wide, EngineMode::OneXb, 4, Partitioner::range_by_attr("d_year"))?;
//! let tenants = vec![
//!     TenantSpec {
//!         name: "interactive".into(),
//!         queries: vec![queries::standard_query("Q1.1").unwrap()],
//!         process: ArrivalProcess::OpenPoisson { arrivals: 6, mean_interarrival_ns: 200_000.0 },
//!         writes: None,
//!         rate_limit: None,
//!         slo: SloSpec { p95_target_ns: 2_000_000.0, deadline_ns: None },
//!         weight: 4.0,
//!     },
//!     TenantSpec {
//!         name: "batch".into(),
//!         queries: vec![queries::standard_query("Q1.2").unwrap()],
//!         process: ArrivalProcess::Closed { clients: 2, queries_per_client: 2, mean_think_ns: 50_000.0 },
//!         writes: None,
//!         rate_limit: None,
//!         slo: SloSpec { p95_target_ns: 20_000_000.0, deadline_ns: None },
//!         weight: 1.0,
//!     },
//! ];
//! let out = run_serve(&mut cluster, &tenants, &ServeConfig::default())?;
//! assert_eq!(out.completions.len(), 10);
//! for r in tenant_reports(&tenants, &out) {
//!     println!("{:12} p95 {:8.3} ms  goodput {:6.0} q/s  slo_met {}",
//!         r.name, r.latency.p95_ns / 1e6, r.goodput_qps, r.slo_met);
//! }
//! # Ok::<(), bbpim_serve::ServeError>(())
//! ```

pub mod controller;
pub mod error;
pub mod report;
pub mod serve;
pub mod tenant;

pub use controller::{AimdConfig, AimdController, WindowDecision, WindowPolicy};
pub use error::ServeError;
pub use report::{tenant_reports, TenantReport};
pub use serve::{
    run_serve, run_serve_traced, ServeCompletion, ServeConfig, ServeDrop, ServeEventKind,
    ServeOutcome, ServeTimelineEvent, ServeWriteCompletion,
};
pub use tenant::{ArrivalProcess, RateLimit, SloSpec, TenantSpec, TokenBucket, WriteMix};

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use bbpim_cluster::{ClusterEngine, Partitioner};
    use bbpim_core::modes::EngineMode;
    use bbpim_core::mutation::Mutation;
    use bbpim_db::builder::col;
    use bbpim_db::plan::{AggExpr, AggFunc, Atom, Query};
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_db::Relation;
    use bbpim_sim::config::SimConfig;
    use bbpim_trace::TraceRecorder;

    fn relation(rows: u64) -> Relation {
        let schema = Schema::new(
            "t",
            vec![
                Attribute::numeric("lo_price", 8),
                Attribute::numeric("lo_disc", 4),
                Attribute::numeric("d_year", 3),
            ],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..rows {
            rel.push_row(&[(3 * i + 1) % 251, i % 11, i % 7]).unwrap();
        }
        rel
    }

    fn year_probe(y: u64) -> Query {
        Query::single(
            format!("y{y}"),
            vec![Atom::Eq { attr: "d_year".into(), value: y.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::Attr("lo_price".into()),
        )
    }

    fn broad() -> Query {
        Query::single(
            "broad",
            vec![Atom::Gt { attr: "lo_price".into(), value: 0u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::Mul("lo_price".into(), "lo_disc".into()),
        )
    }

    fn cluster(shards: usize) -> ClusterEngine {
        ClusterEngine::new(
            SimConfig::small_for_tests(),
            relation(1400),
            EngineMode::OneXb,
            shards,
            Partitioner::range_by_attr("d_year"),
        )
        .unwrap()
    }

    fn tenant(name: &str, queries: Vec<Query>, process: ArrivalProcess) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            queries,
            process,
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 1e9, deadline_ns: None },
            weight: 1.0,
        }
    }

    #[test]
    fn served_answers_match_the_batch_oracle() {
        let tenants = vec![
            tenant(
                "probes",
                vec![year_probe(1), year_probe(4)],
                ArrivalProcess::OpenPoisson { arrivals: 8, mean_interarrival_ns: 40_000.0 },
            ),
            tenant(
                "scans",
                vec![broad()],
                ArrivalProcess::Closed {
                    clients: 2,
                    queries_per_client: 3,
                    mean_think_ns: 5_000.0,
                },
            ),
        ];
        let mut c = cluster(7);
        let out = run_serve(&mut c, &tenants, &ServeConfig::default()).unwrap();
        assert_eq!(out.completions.len(), 14);
        assert_eq!(out.executions.len(), 14);
        // Oracle: run each distinct query once, batch-style, on the
        // same cluster. Every served answer must match bit for bit.
        let oracle_queries = vec![year_probe(1), year_probe(4), broad()];
        let batch = c.run_batch(&oracle_queries).unwrap();
        let oracle: HashMap<&str, _> =
            oracle_queries.iter().map(|q| q.id.as_str()).zip(batch.executions.iter()).collect();
        for (completion, exec) in out.completions.iter().zip(&out.executions) {
            let want = oracle[completion.query_id.as_str()];
            assert_eq!(exec.groups, want.groups, "answer drifted for {}", completion.query_id);
            assert_eq!(exec.report, want.report);
        }
    }

    #[test]
    fn same_seed_same_session() {
        let tenants = vec![
            tenant(
                "open",
                vec![broad(), year_probe(2)],
                ArrivalProcess::OpenPoisson { arrivals: 10, mean_interarrival_ns: 20_000.0 },
            ),
            tenant(
                "closed",
                vec![year_probe(5)],
                ArrivalProcess::Closed {
                    clients: 3,
                    queries_per_client: 2,
                    mean_think_ns: 8_000.0,
                },
            ),
        ];
        let cfg = ServeConfig { seed: 42, window: WindowPolicy::Aimd(Default::default()) };
        let run = || {
            let mut c = cluster(5);
            run_serve(&mut c, &tenants, &cfg).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.window_trajectory, b.window_trajectory);
        assert_eq!(a.decisions, b.decisions);
        // A different seed genuinely reshuffles arrivals.
        let mut c = cluster(5);
        let other = run_serve(&mut c, &tenants, &ServeConfig { seed: 43, ..cfg.clone() }).unwrap();
        assert_ne!(a.timeline, other.timeline);
    }

    #[test]
    fn weighted_fair_sharing_shields_the_light_tenant() {
        // Both tenants dump a burst at t = 0 through a 1-wide window.
        // The probes are tiny next to the broad scans: fair sharing by
        // weighted admitted work must slip probes between scans instead
        // of draining either queue strictly first.
        let tenants = vec![
            tenant("light", vec![year_probe(3)], ArrivalProcess::Burst { arrivals: 6, at_ns: 0.0 }),
            tenant("heavy", vec![broad()], ArrivalProcess::Burst { arrivals: 6, at_ns: 0.0 }),
        ];
        let cfg = ServeConfig { seed: 1, window: WindowPolicy::Static(1) };
        let mut c = cluster(7);
        let out = run_serve(&mut c, &tenants, &cfg).unwrap();
        assert_eq!(out.completions.len(), 12);
        let last_complete = |t: usize| {
            out.completions
                .iter()
                .filter(|c| c.tenant == t)
                .map(|c| c.complete_ns)
                .fold(0.0, f64::max)
        };
        assert!(
            last_complete(0) < last_complete(1),
            "the cheap tenant must clear long before the heavy one"
        );
        // Interleaving, not strict priority: some heavy work is
        // admitted before the light queue drains.
        let light_last_admit = out
            .completions
            .iter()
            .filter(|c| c.tenant == 0)
            .map(|c| c.admit_ns)
            .fold(0.0, f64::max);
        let heavy_admits_before = out
            .completions
            .iter()
            .filter(|c| c.tenant == 1 && c.admit_ns < light_last_admit)
            .count();
        assert!(heavy_admits_before >= 1, "fair sharing interleaves, it does not starve heavy");
        // Cranking the heavy tenant's weight buys it earlier service.
        let mut favoured = tenants.clone();
        favoured[1].weight = 50.0;
        let mut c = cluster(7);
        let out_favoured = run_serve(&mut c, &favoured, &cfg).unwrap();
        let first_heavy_admit = |o: &ServeOutcome| {
            o.completions
                .iter()
                .filter(|c| c.tenant == 1)
                .map(|c| c.admit_ns)
                .fold(f64::INFINITY, f64::min)
        };
        let heavy_done = |o: &ServeOutcome| {
            o.completions.iter().filter(|c| c.tenant == 1).map(|c| c.complete_ns).sum::<f64>()
        };
        assert!(first_heavy_admit(&out_favoured) <= first_heavy_admit(&out));
        assert!(heavy_done(&out_favoured) < heavy_done(&out), "weight must buy service share");
    }

    #[test]
    fn token_bucket_throttles_eligibility_not_answers() {
        // Four simultaneous arrivals against a 1-deep bucket refilling
        // every 1 ms: the first passes, the rest wait 1/2/3 ms.
        let mut t = tenant(
            "limited",
            vec![year_probe(2)],
            ArrivalProcess::Burst { arrivals: 4, at_ns: 0.0 },
        );
        t.rate_limit = Some(RateLimit { rate_per_s: 1_000.0, burst: 1.0 });
        let mut c = cluster(7);
        let out =
            run_serve(&mut c, &[t], &ServeConfig { seed: 0, window: WindowPolicy::Static(4) })
                .unwrap();
        assert_eq!(out.completions.len(), 4);
        assert_eq!(out.throttled, vec![3]);
        let mut eligibles: Vec<f64> = out.completions.iter().map(|c| c.eligible_ns).collect();
        eligibles.sort_by(f64::total_cmp);
        for (i, e) in eligibles.iter().enumerate() {
            let want = i as f64 * 1e6;
            assert!((e - want).abs() < 1.0, "eligibility {i} at {e}, want {want}");
        }
        for c in &out.completions {
            assert!(c.admit_ns >= c.eligible_ns, "admission never precedes eligibility");
        }
    }

    #[test]
    fn deadline_shedding_drops_doomed_requests_and_conserves_the_rest() {
        // Eight broad scans at once through a 1-wide window, each
        // promising a deadline barely above one scan's service time:
        // the backlog cannot make it, so once the first completion
        // teaches the predictor, admission sheds the doomed tail.
        let mut t =
            tenant("doomed", vec![broad()], ArrivalProcess::Burst { arrivals: 8, at_ns: 0.0 });
        let mut c = cluster(7);
        let probe = run_serve(
            &mut c,
            &[tenant("probe", vec![broad()], ArrivalProcess::Burst { arrivals: 1, at_ns: 0.0 })],
            &ServeConfig { seed: 0, window: WindowPolicy::Static(1) },
        )
        .unwrap();
        let service = probe.completions[0].service_ns();
        t.slo.deadline_ns = Some(service * 1.5);
        let mut c = cluster(7);
        let out =
            run_serve(&mut c, &[t], &ServeConfig { seed: 0, window: WindowPolicy::Static(1) })
                .unwrap();
        assert!(!out.drops.is_empty(), "the backlog tail must shed");
        assert_eq!(out.completions.len() + out.drops.len(), 8, "every request gets a fate");
        for d in &out.drops {
            assert!(
                d.shed_ns > d.deadline_ns || d.predicted_complete_ns > d.deadline_ns,
                "sheds only on predicted or actual deadline misses"
            );
        }
        // Shedding shows up in the report as drop rate and dropped
        // count, and completed + dropped covers every submission.
        let reports = tenant_reports(
            &[tenant("doomed", vec![broad()], ArrivalProcess::Burst { arrivals: 8, at_ns: 0.0 })],
            &out,
        );
        assert_eq!(reports[0].dropped, out.drops.len());
        assert_eq!(reports[0].latency.count_dropped, out.drops.len());
        assert!(reports[0].drop_rate > 0.0);
    }

    #[test]
    fn closed_loop_clients_wait_for_their_answer_before_the_next_request() {
        let tenants = vec![tenant(
            "closed",
            vec![broad(), year_probe(1)],
            ArrivalProcess::Closed { clients: 2, queries_per_client: 4, mean_think_ns: 10_000.0 },
        )];
        let mut c = cluster(5);
        let out = run_serve(&mut c, &tenants, &ServeConfig::default()).unwrap();
        assert_eq!(out.submitted, vec![8]);
        assert_eq!(out.completions.len(), 8);
        for client in 0..2 {
            let mut mine: Vec<&ServeCompletion> =
                out.completions.iter().filter(|c| c.client == Some(client)).collect();
            mine.sort_by(|a, b| a.arrive_ns.total_cmp(&b.arrive_ns));
            assert_eq!(mine.len(), 4);
            for pair in mine.windows(2) {
                assert!(
                    pair[1].arrive_ns >= pair[0].complete_ns,
                    "a closed client never overlaps its own requests"
                );
            }
        }
    }

    #[test]
    fn planner_only_requests_complete_at_admission_without_a_slot() {
        let impossible = Query::single(
            "never",
            vec![Atom::Gt { attr: "lo_price".into(), value: 254u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::Attr("lo_price".into()),
        );
        let tenants =
            vec![tenant("t", vec![impossible], ArrivalProcess::Burst { arrivals: 3, at_ns: 5.0 })];
        let mut c = cluster(4);
        let out =
            run_serve(&mut c, &tenants, &ServeConfig { seed: 0, window: WindowPolicy::Static(1) })
                .unwrap();
        assert_eq!(out.completions.len(), 3);
        for comp in &out.completions {
            assert_eq!(comp.complete_ns, 5.0, "no service, no queueing");
            assert_eq!(comp.shards_dispatched, 0);
        }
        assert!(out.executions.iter().all(|e| e.groups.is_empty()));
    }

    #[test]
    fn aimd_session_respects_bounds_and_reacts_to_overload() {
        let aimd = AimdConfig {
            initial_window: 2,
            min_window: 1,
            max_window: 8,
            sample_window: 4,
            ..Default::default()
        };
        // A tight p95 promise under a heavy burst: ratios blow past 1,
        // the controller must cut toward the floor and never leave the
        // configured range.
        let mut t =
            tenant("slammed", vec![broad()], ArrivalProcess::Burst { arrivals: 24, at_ns: 0.0 });
        t.slo.p95_target_ns = 1.0;
        let mut c = cluster(7);
        let out = run_serve(
            &mut c,
            &[t.clone()],
            &ServeConfig { seed: 0, window: WindowPolicy::Aimd(aimd.clone()) },
        )
        .unwrap();
        assert!(!out.decisions.is_empty());
        let (lo, hi) = out.window_bounds();
        assert!(lo >= 1 && hi <= 8, "window stayed in [{lo}, {hi}]");
        assert_eq!(out.final_window(), 1, "persistent violation pins the floor");
        // The same burst against a generous promise climbs instead.
        t.slo.p95_target_ns = 1e15;
        let mut c = cluster(7);
        let out =
            run_serve(&mut c, &[t], &ServeConfig { seed: 0, window: WindowPolicy::Aimd(aimd) })
                .unwrap();
        assert!(out.final_window() > 2, "a kept promise earns additive raises");
    }

    /// The step-load scenario the controller exists for: a steady
    /// probe tenant with a p95 promise, then a mid-session burst of
    /// broad scans. A static window sized for the pre-step load keeps
    /// over-admitting through the burst and blows the probe promise;
    /// the AIMD controller sees the violation samples, cuts, and
    /// converges back under the target.
    #[test]
    fn aimd_converges_under_step_load_where_the_static_mean_window_violates() {
        let probe_target_ns = 450_000.0;
        // The burst lands at 300 us; "converged" is judged on probes
        // arriving after 1.5 ms — several controller decision windows
        // past the step, while the burst backlog is still draining.
        let settled_ns = 1_500_000.0;
        let mk_tenants = || {
            let mut probe = tenant(
                "probe",
                vec![year_probe(1), year_probe(3)],
                ArrivalProcess::OpenPoisson { arrivals: 120, mean_interarrival_ns: 40_000.0 },
            );
            probe.slo.p95_target_ns = probe_target_ns;
            probe.weight = 2.0;
            let mut step = tenant(
                "step",
                vec![broad()],
                ArrivalProcess::Burst { arrivals: 100, at_ns: 300_000.0 },
            );
            step.slo.p95_target_ns = 1e15;
            vec![probe, step]
        };
        let settled_probe_p95 = |out: &ServeOutcome| {
            let mut l: Vec<f64> = out
                .completions
                .iter()
                .filter(|c| c.tenant == 0 && c.arrive_ns >= settled_ns)
                .map(|c| c.latency_ns())
                .collect();
            assert!(l.len() > 20, "enough settled probes to judge a p95");
            l.sort_by(f64::total_cmp);
            l[((l.len() as f64 * 0.95).ceil() as usize - 1).min(l.len() - 1)]
        };
        let aimd = AimdConfig {
            initial_window: 8,
            min_window: 1,
            max_window: 16,
            sample_window: 8,
            multiplicative_decrease: 0.25,
            ..Default::default()
        };
        let mut c = cluster(7);
        let out_aimd = run_serve(
            &mut c,
            &mk_tenants(),
            &ServeConfig { seed: 5, window: WindowPolicy::Aimd(aimd) },
        )
        .unwrap();
        let mut c = cluster(7);
        let out_static = run_serve(
            &mut c,
            &mk_tenants(),
            &ServeConfig { seed: 5, window: WindowPolicy::Static(16) },
        )
        .unwrap();
        let (aimd_p95, static_p95) = (settled_probe_p95(&out_aimd), settled_probe_p95(&out_static));
        eprintln!(
            "settled probe p95: aimd {:.1} us (window {:?}), static16 {:.1} us",
            aimd_p95 / 1e3,
            out_aimd.window_bounds(),
            static_p95 / 1e3,
        );
        let (lo, _) = out_aimd.window_bounds();
        assert!(lo < 8, "the controller cut below the pre-step window, got floor {lo}");
        assert!(
            aimd_p95 <= probe_target_ns,
            "AIMD converges: settled probe p95 {:.1} us within the {:.1} us promise",
            aimd_p95 / 1e3,
            probe_target_ns / 1e3
        );
        assert!(
            static_p95 > probe_target_ns,
            "the static window sized for the pre-step load keeps violating: {:.1} us",
            static_p95 / 1e3
        );
    }

    #[test]
    fn tracing_never_changes_the_session() {
        let tenants = vec![
            tenant(
                "a",
                vec![broad(), year_probe(2)],
                ArrivalProcess::OpenPoisson { arrivals: 6, mean_interarrival_ns: 30_000.0 },
            ),
            tenant(
                "b",
                vec![year_probe(6)],
                ArrivalProcess::Closed {
                    clients: 1,
                    queries_per_client: 3,
                    mean_think_ns: 5_000.0,
                },
            ),
        ];
        let cfg = ServeConfig::default();
        let mut c = cluster(7);
        let plain = run_serve(&mut c, &tenants, &cfg).unwrap();
        let mut c = cluster(7);
        let mut trace = TraceRecorder::enabled();
        let traced = run_serve_traced(&mut c, &tenants, &cfg, &mut trace).unwrap();
        assert_eq!(plain, traced, "the recorder observes, it must not perturb");
        let tracks = trace.tracks();
        for want in ["serve", "host-bus", "controller"] {
            assert!(tracks.iter().any(|t| t == want), "missing track {want}");
        }
    }

    fn disc_update(y: u64, v: u64) -> Mutation {
        Mutation::update().filter(col("d_year").eq(y)).set("lo_disc", v).build_unchecked()
    }

    #[test]
    fn write_traffic_rides_the_bus_wears_cells_and_stays_deterministic() {
        let mut htap = tenant(
            "htap",
            vec![year_probe(2), broad()],
            ArrivalProcess::OpenPoisson { arrivals: 16, mean_interarrival_ns: 30_000.0 },
        );
        // Two UPDATEs `broad` reads, with distinct labels.
        let price = Mutation::update().filter(col("d_year").eq(5u64)).set("lo_price", 1u64);
        let mutations = vec![disc_update(2, 9), price.build_unchecked()];
        htap.writes = Some(WriteMix { mutations: mutations.clone(), write_frac: 0.4 });
        let cfg = ServeConfig { seed: 7, window: WindowPolicy::Aimd(Default::default()) };
        let run = || run_serve(&mut cluster(5), &[htap.clone()], &cfg).unwrap();
        let out = run();
        // Every arrival gets a fate; the coin actually mixed the stream.
        assert_eq!(out.completions.len() + out.write_completions.len(), 16);
        assert!(!out.completions.is_empty(), "the mix keeps query traffic");
        assert!(!out.write_completions.is_empty(), "the mix generates writes");
        // Write chains occupied real service time and wore real cells.
        assert!(out.write_completions.iter().all(|w| w.service_ns() > 0.0));
        assert!(out.write_completions.iter().any(|w| w.records_updated > 0));
        assert!(out.lane_cell_writes.iter().any(|&w| w > 0), "UPDATEs wear cells");
        assert!(out.lane_required_endurance.iter().any(|&e| e > 0.0));
        // Each answer reflects exactly the writes admitted before it: a
        // fresh cluster that replayed them in admission order matches it
        // bit for bit.
        let by_label: HashMap<String, &Mutation> =
            mutations.iter().map(|m| (m.label(), m)).collect();
        let mut writes: Vec<_> = out.write_completions.iter().collect();
        writes.sort_by_key(|w| w.epoch);
        let mut served: Vec<_> = out.completions.iter().zip(&out.executions).collect();
        served.sort_by_key(|(c, _)| c.epoch);
        assert!(served[0].0.epoch < writes.len(), "some answer predates a write");
        let (mut fresh, mut applied) = (cluster(5), 0);
        for (completion, exec) in served {
            for w in &writes[applied..completion.epoch] {
                fresh.mutate(by_label[&w.label]).unwrap();
            }
            applied = completion.epoch;
            let query = if completion.query_id == "y2" { year_probe(2) } else { broad() };
            assert_eq!(
                **exec,
                fresh.run(&query).unwrap(),
                "answer drifted for {}",
                completion.query_id
            );
        }
        // Same seed, same session — timeline, writes, wear, everything.
        assert_eq!(out, run());
        // The tenant report folds writes into the latency promise.
        let reports = tenant_reports(&[htap], &out);
        assert_eq!(reports[0].writes_completed, out.write_completions.len());
        assert_eq!(reports[0].completed, 16);
    }

    #[test]
    fn aimd_hears_write_latencies() {
        // A pure writer slamming 16 UPDATEs against an impossible p95:
        // the controller must see the write latencies and cut to the
        // floor, exactly as it would for slow queries.
        let mut writer =
            tenant("writer", vec![], ArrivalProcess::Burst { arrivals: 16, at_ns: 0.0 });
        writer.writes = Some(WriteMix { mutations: vec![disc_update(3, 7)], write_frac: 1.0 });
        writer.slo.p95_target_ns = 1.0;
        let aimd = AimdConfig {
            initial_window: 4,
            min_window: 1,
            max_window: 8,
            sample_window: 4,
            ..Default::default()
        };
        let mut c = cluster(5);
        let out = run_serve(
            &mut c,
            &[writer],
            &ServeConfig { seed: 0, window: WindowPolicy::Aimd(aimd) },
        )
        .unwrap();
        assert_eq!(out.write_completions.len(), 16);
        assert!(out.completions.is_empty());
        assert!(!out.decisions.is_empty(), "write completions feed the controller");
        assert_eq!(out.final_window(), 1, "persistent write-latency violation pins the floor");
    }

    #[test]
    fn bad_sessions_are_rejected_up_front() {
        let mut c = cluster(2);
        let r = run_serve(&mut c, &[], &ServeConfig::default());
        assert!(matches!(r, Err(ServeError::InvalidConfig(_))));
        let t = tenant("dup", vec![broad()], ArrivalProcess::Burst { arrivals: 1, at_ns: 0.0 });
        let r = run_serve(&mut c, &[t.clone(), t.clone()], &ServeConfig::default());
        assert!(matches!(r, Err(ServeError::InvalidTenant(_))));
        let r = run_serve(&mut c, &[t], &ServeConfig { seed: 0, window: WindowPolicy::Static(0) });
        assert!(matches!(r, Err(ServeError::InvalidConfig(_))));
    }
}
