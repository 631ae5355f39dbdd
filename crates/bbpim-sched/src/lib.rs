//! # bbpim-sched — streaming query scheduling for the PIM cluster
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
//! * [`Core`] — the one admission loop under [`run_stream`] and
//!   `bbpim_serve::run_serve`: each a [`Front`] that keeps only its
//!   admission policy, while the core resolves queries and applies
//!   mutations at admission, drives the chain kernel and keeps one
//!   record family ([`QueryCompletion`], [`MutationCompletion`],
//!   [`TimelineEvent`]).
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

pub mod admission;
pub mod demand;
pub mod error;
mod kernel;
pub mod report;
pub mod sched;
pub mod workload;

pub use admission::{
    Admitted, Core, Done, EventKind, Finished, Front, MutationCompletion, QueryCompletion, Ticket,
    TimelineEvent,
};
pub use demand::{
    compile_log_slices, resolve_query_demand, QueryDemand, Resolution, ShardDemand, Slice,
    SliceChain,
};
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
        // total (under contention every tagged transfer rides the bus)
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
        // With contention on, a mutation's host bus occupancy joins
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
}
