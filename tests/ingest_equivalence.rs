//! HTAP ingest equivalence: an interleaved query/mutation stream must
//! answer every query bit-identically to a prefix-replay oracle — a
//! fresh engine that applies exactly the first
//! [`QueryCompletion::epoch`] arrived mutations and then runs the query
//! — on both storage models (pre-joined wide cluster and normalized
//! star cluster), across shard counts. The whole [`ClusterExecution`] must match — groups, report
//! and per-shard phase logs — so a shard execution the scheduler reused
//! after a mutation it should have re-run fails here even where the
//! groups happen to agree. On top of snapshot equivalence: the
//! interleaving must be a pure function of the seed, and a full ingest
//! buffer must stall arrivals (backpressure) without deadlocking the
//! stream.

mod common;

use bbpim::cluster::{Cluster, Storage, StreamEngine};
use bbpim::db::builder::col;
use bbpim::db::plan::Query;
use bbpim::db::ssb::queries;
use bbpim::db::Relation;
use bbpim::engine::mutation::Mutation;
use bbpim::sched::{run_stream, MutationArrival, SchedConfig, StreamOutcome, Workload};
use common::{
    assert_prefix_replay, prejoined_cluster, ssb, star_cluster, star_mutations, wide_mutations,
};

/// The ingest matrix runs the interesting ends of the shard range; the
/// pure-query matrix in `streaming_equivalence.rs` covers 8.
const SHARD_COUNTS: [usize; 2] = [1, 4];

/// Mean interarrival for the mixed stream: half the pure-query suite's
/// 200µs — twice the load, as the acceptance bar demands — so queries
/// genuinely queue behind mutation write phases.
const MEAN_INTERARRIVAL_NS: f64 = 100_000.0;

/// Probes that the mutation sets below visibly perturb: Q1.1 filters
/// on `d_year`/`lo_discount`/`lo_quantity`, Q2.1 groups by `d_year`,
/// Q3.1 aggregates `lo_revenue` by year.
fn probe_queries() -> Vec<Query> {
    ["Q1.1", "Q2.1", "Q3.1"]
        .iter()
        .map(|id| queries::standard_query(id).expect("standard query"))
        .collect()
}

/// Every streamed execution must equal that of `fresh` after it
/// replayed exactly the first `epoch` arrived mutations.
fn assert_stream_replays<S: Storage>(
    label: &str,
    out: &StreamOutcome,
    workload: &Workload,
    fresh: &mut Cluster<S>,
) {
    let answers = out.completions.iter().map(|c| {
        let query = &workload.queries()[workload.arrivals()[c.arrival].query];
        (c, &*out.executions[c.arrival], query)
    });
    assert_prefix_replay(label, fresh, &workload.arrived_mutations(), answers);
}

/// The mixed stream both models run: one seeded interleaving with at
/// least 20% mutation arrivals.
fn mixed_workload(qs: Vec<Query>, muts: Vec<Mutation>) -> Workload {
    let w = Workload::poisson_htap(qs, muts, 40, 0.25, MEAN_INTERARRIVAL_NS, 0xA11_CE0);
    let total = w.arrivals().len() + w.mutation_arrivals().len();
    assert!(
        w.mutation_arrivals().len() * 5 >= total,
        "seed must draw >= 20% mutations ({} of {total})",
        w.mutation_arrivals().len()
    );
    w
}

#[test]
fn mixed_stream_matches_prefix_replay_on_the_wide_model() {
    let db = ssb();
    let wide = db.prejoin();
    let workload = mixed_workload(probe_queries(), wide_mutations(&wide));
    for shards in SHARD_COUNTS {
        let mut c = prejoined_cluster(&wide, shards);
        let out = run_stream(&mut c, &workload, &SchedConfig::default())
            .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
        assert_eq!(out.completions.len(), workload.arrivals().len());
        assert_eq!(out.mutation_completions.len(), workload.mutation_arrivals().len());
        // the stream must have genuinely written, not no-opped
        let written: u64 =
            out.mutation_completions.iter().map(|m| m.records_updated + m.records_inserted).sum();
        assert!(written > 0, "mutations must land records");
        assert!(out.shard_cell_writes.iter().sum::<u64>() > 0, "ingest must wear cells");
        let mut fresh = prejoined_cluster(&wide, shards);
        assert_stream_replays(&format!("wide, {shards} shards"), &out, &workload, &mut fresh);
    }
}

#[test]
fn mixed_stream_matches_prefix_replay_on_the_star_model() {
    let db = ssb();
    let workload = mixed_workload(probe_queries(), star_mutations(&db));
    for shards in SHARD_COUNTS {
        let mut c = star_cluster(&db, shards);
        let out = run_stream(&mut c, &workload, &SchedConfig::default())
            .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
        assert_eq!(out.completions.len(), workload.arrivals().len());
        assert_eq!(out.mutation_completions.len(), workload.mutation_arrivals().len());
        // lanes extend past the fact shards: dimension modules get
        // their own ingest lanes, and the dimension UPDATE must
        // wear one of them
        assert_eq!(out.shard_cell_writes.len(), c.ingest_lanes());
        assert!(
            out.shard_cell_writes[shards..].iter().sum::<u64>() > 0,
            "the dimension UPDATE must wear a dimension-module lane"
        );
        let mut fresh = star_cluster(&db, shards);
        assert_stream_replays(&format!("star, {shards} shards"), &out, &workload, &mut fresh);
    }
}

/// UPDATEs of an attribute the streamed queries read: `d_year`, which
/// Q1.1 filters on and Q2.1 / Q3.1 group by, moved between two years
/// and on again, beside an INSERT. No benchmark workload times such an
/// UPDATE, so the scheduler's per-attribute stamps are held here: on
/// the wide model every shard the UPDATE lands on re-runs the queries
/// that read the year (and enumerates their GROUP BY d_year subgroups
/// anew); on the star model the date module takes the write, and the
/// planner reads the moved years off its image. Both must still match the whole-execution prefix replay.
#[test]
fn a_d_year_update_matches_prefix_replay_on_both_models() {
    let db = ssb();
    let wide = db.prejoin();
    let lo = &db.lineorder;
    let wide_insert = Mutation::insert().row(wide.row(0)).build(wide.schema()).expect("insert");
    let fact_insert = Mutation::insert().row(lo.row(3)).build(lo.schema()).expect("fact insert");
    assert_year_updates_replay("wide", wide_insert, || prejoined_cluster(&wide, 4));
    assert_year_updates_replay("star", fact_insert, || star_cluster(&db, 4));
}

/// Stream the probes beside two `d_year` UPDATEs and `insert` on an
/// engine from `build`, then hold every execution against a fresh one.
fn assert_year_updates_replay<S: Storage>(
    label: &str,
    insert: Mutation,
    build: impl Fn() -> Cluster<S>,
) {
    let year = |from: u64, to: u64| {
        Mutation::update().filter(col("d_year").eq(from)).set("d_year", to).build_unchecked()
    };
    let workload =
        mixed_workload(probe_queries(), vec![year(1994, 1993), year(1993, 1997), insert]);
    let out = run_stream(&mut build(), &workload, &SchedConfig::default()).expect("stream");
    let moved: u64 = out.mutation_completions.iter().map(|m| m.records_updated).sum();
    assert!(moved > 0, "{label}: the year updates must land records");
    assert_stream_replays(&format!("{label}, d_year updates"), &out, &workload, &mut build());
}

/// A star cluster whose fact table is empty still owns its dimension
/// modules, and a streamed dimension UPDATE is recorded as what it
/// did: the lanes, records and time `mutate` reports for the same
/// write on a twin cluster.
#[test]
fn a_streamed_dimension_update_without_fact_rows_reports_its_work() {
    let mut db = ssb();
    db.lineorder = Relation::new(db.lineorder.schema().clone());
    let m = Mutation::update()
        .filter(col("d_year").eq(1995u64))
        .set("d_weeknuminyear", 53u64)
        .build_unchecked();
    let want = star_cluster(&db, 2).mutate(&m).expect("mutate");
    let workload = Workload::with_mutations(
        Vec::new(),
        Vec::new(),
        vec![m],
        vec![MutationArrival { at_ns: 0.0, mutation: 0 }],
    )
    .expect("workload");
    let mut c = star_cluster(&db, 2);
    assert_eq!(c.active_shards(), 0, "no fact row, no fact shard");
    let out = run_stream(&mut c, &workload, &SchedConfig::default()).expect("stream");
    let [done] = &out.mutation_completions[..] else { panic!("one mutation completes") };
    assert_eq!(done.lanes, 1, "the date module's lane");
    assert_eq!(done.records_updated, want.records_updated);
    assert_eq!(done.records_updated, 365);
    assert_eq!(done.complete_ns - done.admit_ns, want.time_ns);
    assert!(want.time_ns > 0.0);
}

/// Ingest wears cells beyond what the queries write: one seeded query
/// trace streamed bare and again under a mutation overlay must show
/// strictly more summed per-lane cell writes with the overlay, on both
/// storage models.
#[test]
fn a_mutation_overlay_wears_more_than_its_query_trace_alone() {
    let db = ssb();
    let wide = db.prejoin();
    assert_overlay_wears_more("wide", wide_mutations(&wide), || prejoined_cluster(&wide, 4));
    assert_overlay_wears_more("star", star_mutations(&db), || star_cluster(&db, 4));
}

/// Stream a seeded probe trace on an engine from `build`, bare and with
/// `muts` overlaid evenly over its horizon, and compare the wear.
fn assert_overlay_wears_more<S: Storage>(
    label: &str,
    muts: Vec<Mutation>,
    build: impl Fn() -> Cluster<S>,
) {
    let bare = Workload::poisson(probe_queries(), 24, MEAN_INTERARRIVAL_NS, 0xA11_CE0);
    let horizon_ns = bare.arrivals().last().map_or(0.0, |a| a.at_ns);
    let overlay = (0..6)
        .map(|k| MutationArrival { at_ns: horizon_ns * k as f64 / 6.0, mutation: k % muts.len() })
        .collect();
    let ingest = Workload::with_mutations(probe_queries(), bare.arrivals().to_vec(), muts, overlay)
        .expect("workload");
    let wear = |w: &Workload| {
        let out = run_stream(&mut build(), w, &SchedConfig::default()).expect("stream");
        out.shard_cell_writes.iter().sum::<u64>()
    };
    let (queries_only, with_ingest) = (wear(&bare), wear(&ingest));
    assert!(
        with_ingest > queries_only,
        "{label}: the overlay wore {with_ingest} cell writes, the query trace alone {queries_only}"
    );
}

#[test]
fn the_interleaving_is_a_pure_function_of_the_seed() {
    let db = ssb();
    let wide = db.prejoin();
    let workload = mixed_workload(probe_queries(), wide_mutations(&wide));
    let run = |w: &Workload| {
        let mut c = prejoined_cluster(&wide, 4);
        run_stream(&mut c, w, &SchedConfig::default()).expect("stream")
    };
    let a = run(&workload);
    let b = run(&workload);
    assert_eq!(a.timeline, b.timeline, "the event timeline must be deterministic");
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.mutation_completions, b.mutation_completions);
    assert_eq!(a.shard_cell_writes, b.shard_cell_writes);
    assert_eq!(a.ingest_stalls, b.ingest_stalls);
    // and a different seed draws a different interleaving
    let other = Workload::poisson_htap(
        probe_queries(),
        wide_mutations(&wide),
        40,
        0.25,
        MEAN_INTERARRIVAL_NS,
        0xB0_771E,
    );
    assert_ne!(
        workload.mutation_arrivals(),
        other.mutation_arrivals(),
        "two seeds, one trace: the interleaving would not be seeded at all"
    );
}

#[test]
fn a_full_ingest_buffer_stalls_without_deadlock() {
    let db = ssb();
    let wide = db.prejoin();
    // every mutation routes to the same range-partitioned lane
    // (d_year = 1993), and they arrive nose-to-tail: with a one-deep
    // buffer the later arrivals must stall at the door
    let m = Mutation::update()
        .filter(col("d_year").eq(1993u64))
        .set("lo_discount", 5u64)
        .build(wide.schema())
        .expect("update");
    let q = queries::standard_query("Q1.1").expect("probe");
    let workload = Workload::with_mutations(
        vec![q.clone()],
        vec![bbpim::sched::Arrival { at_ns: 0.0, query: 0 }],
        vec![m.clone()],
        (0..4).map(|k| MutationArrival { at_ns: k as f64, mutation: 0 }).collect(),
    )
    .expect("workload");
    let cfg = SchedConfig { ingest_buffer: 1, ..SchedConfig::default() };
    let mut c = prejoined_cluster(&wide, 4);
    let out = run_stream(&mut c, &workload, &cfg).expect("backpressure must not deadlock");
    assert!(out.ingest_stalls > 0, "a one-deep buffer under a burst must stall");
    assert!(out.ingest_stall_ns > 0.0);
    assert_eq!(out.mutation_completions.len(), 4, "every stalled mutation still completes");
    assert_eq!(out.completions.len(), 1, "the query still completes");
    // admissions serialised: epochs are a permutation-free 1..=4
    let mut epochs: Vec<usize> = out.mutation_completions.iter().map(|m| m.epoch).collect();
    epochs.sort_unstable();
    assert_eq!(epochs, vec![1, 2, 3, 4]);
    // and the stalled stream still answers from a well-defined prefix
    let mut fresh = prejoined_cluster(&wide, 4);
    assert_stream_replays("backpressure", &out, &workload, &mut fresh);
}
