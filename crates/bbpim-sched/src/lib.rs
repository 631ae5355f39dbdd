//! # bbpim-sched — streaming scheduling and multi-tenant serving on the PIM cluster
//!
//! The batch layers answer "how fast is one query / one closed batch";
//! this crate answers the serving question the ROADMAP's north star
//! asks: what happens when queries *arrive over time* — heavy traffic
//! from many independent users — against a sharded PIM cluster?
//!
//! * [`workload::Workload`] — timestamped arrival traces over a query
//!   set: seeded Poisson ([`Workload::poisson`]), closed bursts
//!   ([`Workload::burst`]), hand-written traces, or mixed HTAP streams
//!   interleaving queries with mutations on one seeded clock
//!   ([`Workload::poisson_htap`]).
//! * [`sched::run_stream`] — a deterministic discrete-event scheduler:
//!   admission control bounds in-flight queries (backpressure, FIFO or
//!   shortest-candidate-set-first order), each admitted query is
//!   zone-map-planned to its candidate shards, shard slices queue on
//!   per-shard FIFO servers (PIM phases on different modules overlap),
//!   and every per-page dispatch serialises on one shared host bus
//!   ([`bbpim_sim::hostbus::SharedBus`]). Queries complete out of
//!   order; answers are **bit-identical** to
//!   [`bbpim_cluster::ClusterEngine::run_batch`] over the same queries
//!   — only timing and order differ.
//! * **Streaming ingest** — mutation arrivals are first-class
//!   scheduler citizens: strict-FIFO admission behind a bounded
//!   per-lane ingest buffer ([`SchedConfig::ingest_buffer`],
//!   deterministic backpressure stalls), write phases on the shared
//!   host channel alongside query traffic, and snapshot-consistent
//!   queries — each answer reflects exactly the mutations admitted
//!   before it ([`QueryCompletion::epoch`]), bit-identical to a
//!   prefix-replay oracle.
//! * [`serve::run_serve`] — SLO-aware multi-tenant serving: named
//!   tenants with arrival shapes, token-bucket rate limits, p95 and
//!   deadline promises and fair-share weights, under a static or AIMD
//!   in-flight window.
//! * One admission loop under [`run_stream`] and [`serve::run_serve`]:
//!   each front-end keeps only its admission policy, while the
//!   crate-private core resolves queries and applies mutations at
//!   admission, drives the chain kernel and keeps one record family
//!   ([`QueryCompletion`], [`MutationCompletion`], [`TimelineEvent`]).
//! * [`report::LatencySummary`] — per-query queue-wait vs service
//!   decomposition, p50/p95/p99/mean/max latency, plus throughput and
//!   host/shard utilisation on [`sched::StreamOutcome`].
//!
//! ```
//! use bbpim_cluster::{ClusterEngine, Partitioner};
//! use bbpim_core::modes::EngineMode;
//! use bbpim_db::ssb::{queries, SsbDb, SsbParams};
//! use bbpim_sched::{run_stream, SchedConfig, Workload};
//! use bbpim_sim::SimConfig;
//!
//! let wide = SsbDb::generate(&SsbParams::tiny_for_tests()).prejoin();
//! let mut cluster = ClusterEngine::new(
//!     SimConfig::default(), wide, EngineMode::OneXb, 4, Partitioner::range_by_attr("d_year"))?;
//! // Four Q1-style arrivals over 2 ms, admission bounded to 2 in flight.
//! let qs: Vec<_> =
//!     ["Q1.1", "Q1.2", "Q1.3"].iter().map(|id| queries::standard_query(id).unwrap()).collect();
//! let workload = Workload::poisson(qs, 4, 500_000.0, 7);
//! let out = run_stream(&mut cluster, &workload, &SchedConfig { max_in_flight: 2, ..Default::default() })?;
//! assert_eq!(out.completions.len(), 4);
//! let s = out.latency_summary();
//! println!("p50 {:.3} ms, p99 {:.3} ms, {:.0} q/s", s.p50_ns / 1e6, s.p99_ns / 1e6,
//!     out.throughput_qps());
//! # Ok::<(), bbpim_sched::SchedError>(())
//! ```

mod admission;
pub mod demand;
pub mod error;
mod kernel;
pub mod report;
pub mod sched;
pub mod serve;
pub mod workload;

pub use admission::{EventKind, MutationCompletion, QueryCompletion, TimelineEvent};
pub use demand::{resolve_query_demand, QueryDemand, Resolution, ShardDemand, Slice};
pub use error::SchedError;
pub use report::{LatencySummary, RunRates};
pub use sched::{
    run_stream, run_stream_traced, AdmissionPolicy, SchedConfig, StreamEngine, StreamOutcome,
    ENDURANCE_YEARS,
};
pub use workload::{Arrival, MutationArrival, Workload};

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_cluster::{ClusterEngine, Partitioner};
    use bbpim_core::modes::EngineMode;
    use bbpim_db::plan::{AggExpr, AggFunc, Atom, Query};
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_db::Relation;
    use bbpim_sim::config::SimConfig;

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

    #[test]
    fn streamed_answers_match_run_batch_and_complete_all() {
        let mut c = cluster(7);
        let workload = Workload::poisson(
            vec![broad(), year_probe(1), year_probe(3), year_probe(5)],
            12,
            50_000.0,
            11,
        );
        let out = run_stream(&mut c, &workload, &SchedConfig::default()).unwrap();
        assert_eq!(out.completions.len(), 12);
        assert_eq!(out.executions.len(), 12);
        let batch = c.run_batch(&workload.arrived_queries()).unwrap();
        for (streamed, batched) in out.executions.iter().zip(&batch.executions) {
            assert_eq!(streamed.groups, batched.groups);
            assert_eq!(streamed.report, batched.report);
        }
    }

    #[test]
    fn short_pruned_query_overtakes_a_broad_one() {
        // Zone-map pruning makes the two candidate sets disjoint: the
        // long query covers years 0..=5 (six shards of expression
        // work), the probe needs only the year-6 shard — which the
        // long query never touches. The probe arrives later, pays only
        // its turn on the shared dispatch bus, runs on an idle module
        // and finishes first.
        let mut c = cluster(7);
        let long = Query::single(
            "long",
            vec![Atom::Between { attr: "d_year".into(), lo: 0u64.into(), hi: 5u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::Mul("lo_price".into(), "lo_disc".into()),
        );
        let workload = Workload::new(
            vec![long, year_probe(6)],
            vec![Arrival { at_ns: 0.0, query: 0 }, Arrival { at_ns: 1.0, query: 1 }],
        )
        .unwrap();
        let out = run_stream(&mut c, &workload, &SchedConfig::default()).unwrap();
        assert_eq!(out.completions[0].arrival, 1, "the pruned probe completes first");
        assert_eq!(out.completions[1].arrival, 0);
        assert_eq!(out.overtaken(), 1);
        assert_eq!(out.first_overtaker().map(|c| c.arrival), Some(1), "the probe overtook");
        assert_eq!(out.completions[0].shards_pruned, 6);
        assert_eq!(out.completions[1].shards_dispatched, 6);
        // its wait is the long query's bus occupancy, not its service
        assert!(out.completions[0].wait_ns() > 0.0);
        assert!(
            out.completions[0].latency_ns() < out.completions[1].latency_ns(),
            "pruning must shield the short query from the long one"
        );
    }

    #[test]
    fn same_seed_same_timeline() {
        let workload =
            Workload::poisson(vec![broad(), year_probe(2), year_probe(4)], 16, 30_000.0, 5);
        let run = |policy| {
            let mut c = cluster(5);
            run_stream(
                &mut c,
                &workload,
                &SchedConfig { max_in_flight: 3, policy, ..SchedConfig::default() },
            )
            .unwrap()
        };
        for policy in AdmissionPolicy::all() {
            let a = run(policy);
            let b = run(policy);
            assert_eq!(a.timeline, b.timeline, "{}", policy.label());
            assert_eq!(a.completions, b.completions, "{}", policy.label());
            assert_eq!(a.makespan_ns, b.makespan_ns, "{}", policy.label());
        }
    }

    #[test]
    fn admission_bound_creates_backpressure() {
        let workload = Workload::burst(vec![broad(); 6]);
        let mut c = cluster(3);
        let tight = run_stream(
            &mut c,
            &workload,
            &SchedConfig {
                max_in_flight: 1,
                policy: AdmissionPolicy::Fifo,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let wide = run_stream(
            &mut c,
            &workload,
            &SchedConfig {
                max_in_flight: 6,
                policy: AdmissionPolicy::Fifo,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        // One-at-a-time admission serialises identical queries end to
        // end; with all six admitted the host bus still serialises
        // dispatch but PIM work pipelines, so waiting shrinks.
        assert!(tight.latency_summary().mean_wait_ns > wide.latency_summary().mean_wait_ns);
        assert!(tight.makespan_ns >= wide.makespan_ns);
        // In-flight bound respected: with max 1, every query is
        // admitted only after the previous completed.
        let mut last_complete = 0.0f64;
        for c in &tight.completions {
            assert!(c.admit_ns >= last_complete);
            last_complete = c.complete_ns;
        }
    }

    #[test]
    fn scsf_prefers_pruned_queries_under_backpressure() {
        // Queue three broad queries and one pruned probe behind a
        // 1-slot admission gate: FIFO admits in arrival order, SCSF
        // jumps the probe (1 candidate shard) ahead of the waiting
        // broad queries (7 candidate shards).
        let queries = vec![broad(), year_probe(5)];
        let arrivals = vec![
            Arrival { at_ns: 0.0, query: 0 },
            Arrival { at_ns: 1.0, query: 0 },
            Arrival { at_ns: 2.0, query: 0 },
            Arrival { at_ns: 3.0, query: 1 },
        ];
        let workload = Workload::new(queries, arrivals).unwrap();
        let run = |policy| {
            let mut c = cluster(7);
            run_stream(
                &mut c,
                &workload,
                &SchedConfig { max_in_flight: 1, policy, ..SchedConfig::default() },
            )
            .unwrap()
        };
        let fifo = run(AdmissionPolicy::Fifo);
        let scsf = run(AdmissionPolicy::ShortestCandidateFirst);
        let order = |o: &StreamOutcome| -> Vec<usize> {
            o.completions.iter().map(|c| c.arrival).collect::<Vec<_>>()
        };
        assert_eq!(order(&fifo), vec![0, 1, 2, 3]);
        assert_eq!(order(&scsf), vec![0, 3, 1, 2], "the probe jumps the queue");
        let probe_latency =
            |o: &StreamOutcome| o.completions.iter().find(|c| c.arrival == 3).unwrap().latency_ns();
        assert!(probe_latency(&scsf) < probe_latency(&fifo));
        // identical answers under both policies
        for (a, b) in fifo.executions.iter().zip(&scsf.executions) {
            assert_eq!(a.groups, b.groups);
        }
    }

    #[test]
    fn planner_only_queries_complete_at_admission() {
        let mut c = cluster(4);
        let impossible = Query::single(
            "never",
            vec![Atom::Gt { attr: "lo_price".into(), value: 254u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::Attr("lo_price".into()),
        );
        let workload =
            Workload::new(vec![impossible], vec![Arrival { at_ns: 40.0, query: 0 }]).unwrap();
        let out = run_stream(&mut c, &workload, &SchedConfig::default()).unwrap();
        assert_eq!(out.completions.len(), 1);
        let c0 = &out.completions[0];
        assert_eq!(c0.complete_ns, 40.0);
        assert_eq!(c0.latency_ns(), 0.0);
        assert_eq!(c0.shards_dispatched, 0);
        assert!(out.executions[0].groups.is_empty());
        assert_eq!(out.makespan_ns, 40.0);
    }

    #[test]
    fn utilisation_and_throughput_are_consistent() {
        let mut c = cluster(4);
        let workload = Workload::poisson(vec![broad(), year_probe(3)], 10, 20_000.0, 3);
        let out = run_stream(&mut c, &workload, &SchedConfig::default()).unwrap();
        assert!(out.makespan_ns > 0.0);
        assert!(out.throughput_qps() > 0.0);
        assert!(out.host_utilisation() > 0.0 && out.host_utilisation() <= 1.0);
        assert!(out.mean_shard_utilisation() > 0.0 && out.mean_shard_utilisation() <= 1.0);
        // host busy time equals the channel-occupancy + merge demand
        // total (every tagged transfer rides the bus)
        let demand: f64 =
            out.executions.iter().map(|e| e.report.host_bus_time_ns + e.report.merge_time_ns).sum();
        assert!((out.host_busy_ns - demand).abs() < 1e-6);
        assert!(
            demand
                > out
                    .executions
                    .iter()
                    .map(|e| e.report.dispatch_time_ns + e.report.merge_time_ns)
                    .sum::<f64>(),
            "transfers must add bused work beyond dispatch + merge"
        );
    }

    #[test]
    fn zero_in_flight_bound_is_rejected() {
        let mut c = cluster(2);
        let workload = Workload::burst(vec![broad()]);
        let r = run_stream(
            &mut c,
            &workload,
            &SchedConfig {
                max_in_flight: 0,
                policy: AdmissionPolicy::Fifo,
                ..SchedConfig::default()
            },
        );
        assert!(matches!(r, Err(SchedError::InvalidConfig(_))));
    }

    #[test]
    fn empty_workload_is_a_quiet_success() {
        let mut c = cluster(2);
        let workload = Workload::new(vec![broad()], vec![]).unwrap();
        let out = run_stream(&mut c, &workload, &SchedConfig::default()).unwrap();
        assert!(out.completions.is_empty());
        assert_eq!(out.makespan_ns, 0.0);
        assert_eq!(out.throughput_qps(), 0.0);
        assert_eq!(out.ingest_stalls, 0);
    }

    #[test]
    fn streamed_star_queries_match_direct_runs() {
        use bbpim_cluster::StarCluster;
        use bbpim_db::ssb::{queries, SsbDb, SsbParams};
        let db = SsbDb::generate(&SsbParams::tiny_for_tests());
        let cluster = || {
            StarCluster::new(
                SimConfig::small_for_tests(),
                &db,
                EngineMode::OneXb,
                4,
                Partitioner::RoundRobin,
            )
            .unwrap()
        };
        let queries: Vec<Query> = ["Q1.1", "Q1.2", "Q1.3"]
            .iter()
            .map(|id| queries::standard_query(id).unwrap())
            .collect();
        let workload = Workload::poisson(queries.clone(), 6, 50_000.0, 7);
        let mut c = cluster();
        let out = run_stream(&mut c, &workload, &SchedConfig::default()).unwrap();
        assert_eq!(out.completions.len(), 6);
        assert!(out.makespan_ns > 0.0);
        let mut direct = cluster();
        for (arrival, exec) in workload.arrivals().iter().zip(&out.executions) {
            let want = direct.run(&queries[arrival.query]).unwrap();
            assert_eq!(exec.groups, want.groups);
        }
    }

    // ---- streaming ingest (mutations as first-class arrivals) ----

    use bbpim_core::mutation::Mutation;
    use bbpim_db::builder::col;
    use workload::MutationArrival;

    fn disc_probe(y: u64) -> Query {
        Query::single(
            format!("disc{y}"),
            vec![Atom::Eq { attr: "d_year".into(), value: y.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::Attr("lo_disc".into()),
        )
    }

    fn disc_update(y: u64, v: u64) -> Mutation {
        Mutation::update().filter(col("d_year").eq(y)).set("lo_disc", v).build_unchecked()
    }

    #[test]
    fn queries_observe_exactly_the_mutations_admitted_before_them() {
        let mut c = cluster(3);
        // q at t=0 (epoch 0), UPDATE at t=10, q again well after (epoch 1)
        let workload = Workload::with_mutations(
            vec![disc_probe(3)],
            vec![Arrival { at_ns: 0.0, query: 0 }, Arrival { at_ns: 1e9, query: 0 }],
            vec![disc_update(3, 15)],
            vec![MutationArrival { at_ns: 10.0, mutation: 0 }],
        )
        .unwrap();
        let out = run_stream(&mut c, &workload, &SchedConfig::default()).unwrap();
        assert_eq!(out.completions.len(), 2);
        assert_eq!(out.mutation_completions.len(), 1);
        let by_arrival = |a: usize| out.completions.iter().find(|x| x.arrival == a).unwrap();
        assert_eq!(by_arrival(0).epoch, 0, "first query pre-dates the ingest");
        assert_eq!(by_arrival(1).epoch, 1, "second query observes the update");
        let mc = &out.mutation_completions[0];
        assert!(mc.records_updated > 0);
        assert_eq!(mc.epoch, 1);
        assert!(mc.complete_ns >= mc.admit_ns && mc.admit_ns >= mc.arrive_ns);
        // prefix-replay oracle: epoch-0 answer on a fresh cluster,
        // epoch-1 answer after applying the mutation
        let mut fresh = cluster(3);
        let before = fresh.run(&disc_probe(3)).unwrap();
        assert_eq!(out.executions[0].groups, before.groups);
        fresh.mutate(&disc_update(3, 15)).unwrap();
        let after = fresh.run(&disc_probe(3)).unwrap();
        assert_eq!(out.executions[1].groups, after.groups);
        assert_ne!(before.groups, after.groups, "the update must change the answer");
    }

    #[test]
    fn bounded_ingest_buffer_stalls_and_drains_fifo() {
        let mut c = cluster(3);
        // Four updates on the same zone-planned lane at (almost) once
        // behind a 1-deep buffer: the head admits, the rest stall.
        let arrivals = (0..4).map(|i| MutationArrival { at_ns: i as f64, mutation: 0 }).collect();
        let workload = Workload::with_mutations(
            vec![disc_probe(1)],
            vec![Arrival { at_ns: 2.0, query: 0 }],
            vec![disc_update(3, 9)],
            arrivals,
        )
        .unwrap();
        let cfg = SchedConfig { ingest_buffer: 1, ..SchedConfig::default() };
        let out = run_stream(&mut c, &workload, &cfg).unwrap();
        assert_eq!(out.mutation_completions.len(), 4, "backpressure must not deadlock");
        assert!(out.ingest_stalls > 0, "a 1-deep buffer under 4 back-to-back writes stalls");
        assert!(out.ingest_stall_ns > 0.0);
        assert!(out.timeline.iter().any(|e| e.kind == EventKind::MutationStall));
        // strict FIFO: admissions in arrival order, one in flight at a time
        let admits: Vec<usize> = out
            .timeline
            .iter()
            .filter(|e| e.kind == EventKind::MutationAdmit)
            .map(|e| e.arrival)
            .collect();
        assert_eq!(admits, vec![0, 1, 2, 3]);
        let epochs: Vec<usize> = out.mutation_completions.iter().map(|m| m.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3, 4]);
        // the query still completes, against some well-defined prefix
        assert_eq!(out.completions.len(), 1);
        // and the run is deterministic, stalls included
        let mut c2 = cluster(3);
        let again = run_stream(&mut c2, &workload, &cfg).unwrap();
        assert_eq!(out.timeline, again.timeline);
        assert_eq!(out.ingest_stall_ns, again.ingest_stall_ns);
    }

    #[test]
    fn inserts_route_round_robin_and_later_queries_see_them() {
        let mut c = cluster(3);
        let schema = relation(1).schema().clone();
        let ins =
            Mutation::insert().row([200u64, 5, 6]).row([201u64, 5, 6]).build(&schema).unwrap();
        let workload = Workload::with_mutations(
            vec![disc_probe(6)],
            vec![Arrival { at_ns: 0.0, query: 0 }, Arrival { at_ns: 1e9, query: 0 }],
            vec![ins.clone()],
            vec![MutationArrival { at_ns: 100.0, mutation: 0 }],
        )
        .unwrap();
        let out = run_stream(&mut c, &workload, &SchedConfig::default()).unwrap();
        assert_eq!(out.mutation_completions[0].records_inserted, 2);
        let mut fresh = cluster(3);
        let before = fresh.run(&disc_probe(6)).unwrap();
        fresh.mutate(&ins).unwrap();
        let after = fresh.run(&disc_probe(6)).unwrap();
        assert_eq!(out.executions[0].groups, before.groups);
        assert_eq!(out.executions[1].groups, after.groups);
        assert_ne!(before.groups, after.groups, "inserted rows must show up");
        // ingest wear is accounted on the lanes the rows landed on
        assert!(out.shard_cell_writes.iter().sum::<u64>() > 0);
    }

    #[test]
    fn mutation_write_phases_ride_the_shared_bus() {
        // A mutation's host bus occupancy joins
        // host_busy_ns: the streamed busy time must exceed what the
        // queries alone account for.
        let workload_q =
            Workload::new(vec![disc_probe(3)], vec![Arrival { at_ns: 0.0, query: 0 }]).unwrap();
        let workload_m = Workload::with_mutations(
            vec![disc_probe(3)],
            vec![Arrival { at_ns: 0.0, query: 0 }],
            vec![disc_update(3, 9)],
            vec![MutationArrival { at_ns: 0.0, mutation: 0 }],
        )
        .unwrap();
        let mut c1 = cluster(3);
        let queries_only = run_stream(&mut c1, &workload_q, &SchedConfig::default()).unwrap();
        let mut c2 = cluster(3);
        let with_ingest = run_stream(&mut c2, &workload_m, &SchedConfig::default()).unwrap();
        assert!(
            with_ingest.host_busy_ns > queries_only.host_busy_ns,
            "ingest write phases must occupy the shared channel"
        );
        assert!(with_ingest.shard_required_endurance.iter().any(|&e| e > 0.0));
    }

    #[test]
    fn zero_ingest_buffer_is_rejected() {
        let mut c = cluster(2);
        let workload = Workload::burst(vec![broad()]);
        let r = run_stream(
            &mut c,
            &workload,
            &SchedConfig { ingest_buffer: 0, ..SchedConfig::default() },
        );
        assert!(matches!(r, Err(SchedError::InvalidConfig(_))));
    }

    // ---- multi-tenant serving (`serve::run_serve`) ----

    use std::collections::HashMap;

    use bbpim_trace::TraceRecorder;
    use serve::{
        run_serve, run_serve_traced, tenant_reports, AimdConfig, ArrivalProcess, RateLimit,
        ServeConfig, ServeOutcome, SloSpec, TenantSpec, WindowPolicy, WriteMix,
    };

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
            let mut mine: Vec<&QueryCompletion> =
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
        // The promise follows the burst's own measured service: a probe
        // may queue behind one broad scan's whole busy time and half of
        // the next one's.
        let broad_busy_ns = resolve_query_demand(&mut cluster(7), &broad(), false)
            .expect("demand probe")
            .0
            .total_busy_ns();
        let probe_target_ns = 1.5 * broad_busy_ns;
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
            "settled probe p95 against a {:.1} us promise: aimd {:.1} us (window {:?}), \
             static16 {:.1} us",
            probe_target_ns / 1e3,
            aimd_p95 / 1e3,
            out_aimd.window_bounds(),
            static_p95 / 1e3,
        );
        // the premise: the static window keeps violating the promise
        assert!(
            static_p95 > probe_target_ns,
            "the static window sized for the pre-step load keeps violating: {:.1} us vs the \
             {:.1} us promise",
            static_p95 / 1e3,
            probe_target_ns / 1e3
        );
        let (lo, _) = out_aimd.window_bounds();
        assert!(lo < 8, "the controller cut below the pre-step window, got floor {lo}");
        assert!(
            aimd_p95 <= probe_target_ns,
            "AIMD converges: settled probe p95 {:.1} us within the {:.1} us promise",
            aimd_p95 / 1e3,
            probe_target_ns / 1e3
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
        assert!(matches!(r, Err(SchedError::InvalidConfig(_))));
        let t = tenant("dup", vec![broad()], ArrivalProcess::Burst { arrivals: 1, at_ns: 0.0 });
        let r = run_serve(&mut c, &[t.clone(), t.clone()], &ServeConfig::default());
        assert!(matches!(r, Err(SchedError::InvalidTenant(_))));
        let r = run_serve(&mut c, &[t], &ServeConfig { seed: 0, window: WindowPolicy::Static(0) });
        assert!(matches!(r, Err(SchedError::InvalidConfig(_))));
    }
}
