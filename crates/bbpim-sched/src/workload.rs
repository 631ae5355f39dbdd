//! Timestamped query + mutation workloads.
//!
//! A [`Workload`] is a query set plus a sequence of [`Arrival`]s —
//! *which* query arrives *when* — and, for HTAP streams, a mutation
//! set plus a sequence of [`MutationArrival`]s interleaved on the same
//! clock. [`Workload::poisson`] draws a seeded open-loop arrival
//! process (exponential interarrival times, queries picked uniformly),
//! the standard model for "many independent users";
//! [`Workload::poisson_htap`] draws **one** seeded process and flips a
//! seeded coin per arrival to make it a query or a mutation — the
//! mixed-stream model the ingest scheduler consumes;
//! [`Workload::burst`] drops everything at time zero (a closed batch,
//! useful for comparing against [`bbpim_cluster::ClusterEngine::run_batch`]);
//! [`Workload::new`] / [`Workload::with_mutations`] accept hand-written
//! traces. Everything is a pure function of its inputs, so a seed fully
//! determines the trace.

use bbpim_core::mutation::Mutation;
use bbpim_db::plan::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::SchedError;

/// One timestamped query arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Simulated arrival time, nanoseconds.
    pub at_ns: f64,
    /// Index into the workload's query set.
    pub query: usize,
}

/// One timestamped mutation arrival (streaming ingest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationArrival {
    /// Simulated arrival time, nanoseconds.
    pub at_ns: f64,
    /// Index into the workload's mutation set.
    pub mutation: usize,
}

/// A query set plus its arrival trace (sorted by time), optionally
/// interleaved with a mutation set and its own sorted arrival trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    queries: Vec<Query>,
    arrivals: Vec<Arrival>,
    mutations: Vec<Mutation>,
    mutation_arrivals: Vec<MutationArrival>,
}

impl Workload {
    /// A pure-query workload from an explicit trace.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidWorkload`] when an arrival references a
    /// query outside the set, times are negative or non-finite, or the
    /// trace is not sorted by arrival time.
    pub fn new(queries: Vec<Query>, arrivals: Vec<Arrival>) -> Result<Workload, SchedError> {
        Workload::with_mutations(queries, arrivals, Vec::new(), Vec::new())
    }

    /// A mixed query/mutation workload from explicit traces. The two
    /// traces share one simulated clock; each must be independently
    /// sorted by time.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidWorkload`] for out-of-range indices,
    /// invalid times, or an unsorted trace (either one).
    pub fn with_mutations(
        queries: Vec<Query>,
        arrivals: Vec<Arrival>,
        mutations: Vec<Mutation>,
        mutation_arrivals: Vec<MutationArrival>,
    ) -> Result<Workload, SchedError> {
        let trace = arrivals.iter().map(|a| (a.at_ns, a.query));
        check_trace("", "query", queries.len(), trace)?;
        let trace = mutation_arrivals.iter().map(|a| (a.at_ns, a.mutation));
        check_trace("mutation ", "mutation", mutations.len(), trace)?;
        Ok(Workload { queries, arrivals, mutations, mutation_arrivals })
    }

    /// A seeded open-loop arrival process: `n` arrivals with
    /// exponentially distributed interarrival times (mean
    /// `mean_interarrival_ns`) over queries picked uniformly from
    /// `queries`. The trace is a pure function of `(queries.len(), n,
    /// mean_interarrival_ns, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty while `n > 0`, or if the mean is
    /// negative or non-finite.
    pub fn poisson(
        queries: Vec<Query>,
        n: usize,
        mean_interarrival_ns: f64,
        seed: u64,
    ) -> Workload {
        assert!(
            mean_interarrival_ns.is_finite() && mean_interarrival_ns >= 0.0,
            "mean interarrival must be finite and non-negative"
        );
        assert!(!queries.is_empty() || n == 0, "arrivals need a non-empty query set");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0f64;
        let arrivals = (0..n)
            .map(|_| {
                t += exp_draw(&mut rng, mean_interarrival_ns);
                Arrival { at_ns: t, query: rng.gen_range(0..queries.len()) }
            })
            .collect();
        Workload { queries, arrivals, mutations: Vec::new(), mutation_arrivals: Vec::new() }
    }

    /// A seeded open-loop **HTAP** arrival process: one exponential
    /// clock (mean `mean_interarrival_ns`) drives `n` arrivals, and
    /// each arrival is a mutation with probability `mutation_frac`
    /// (picked uniformly from `mutations`), otherwise a query (picked
    /// uniformly from `queries`). Because queries and mutations share
    /// one clock *and one RNG stream*, the full interleaving — times,
    /// kinds, and picks — is a pure function of
    /// `(queries.len(), mutations.len(), n, mutation_frac,
    /// mean_interarrival_ns, seed)`.
    ///
    /// # Panics
    ///
    /// Panics when the mean is negative/non-finite, `mutation_frac` is
    /// outside `[0, 1]`, or either set is empty while its side of the
    /// coin can come up (`queries` empty with `mutation_frac < 1`,
    /// `mutations` empty with `mutation_frac > 0`) and `n > 0`.
    pub fn poisson_htap(
        queries: Vec<Query>,
        mutations: Vec<Mutation>,
        n: usize,
        mutation_frac: f64,
        mean_interarrival_ns: f64,
        seed: u64,
    ) -> Workload {
        assert!(
            mean_interarrival_ns.is_finite() && mean_interarrival_ns >= 0.0,
            "mean interarrival must be finite and non-negative"
        );
        assert!((0.0..=1.0).contains(&mutation_frac), "mutation_frac must be in [0, 1]");
        if n > 0 {
            assert!(!queries.is_empty() || mutation_frac >= 1.0, "queries may arrive: need some");
            assert!(
                !mutations.is_empty() || mutation_frac <= 0.0,
                "mutations may arrive: need some"
            );
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0f64;
        let mut arrivals = Vec::new();
        let mut mutation_arrivals = Vec::new();
        for _ in 0..n {
            t += exp_draw(&mut rng, mean_interarrival_ns);
            if rng.gen::<f64>() < mutation_frac {
                mutation_arrivals.push(MutationArrival {
                    at_ns: t,
                    mutation: rng.gen_range(0..mutations.len()),
                });
            } else {
                arrivals.push(Arrival { at_ns: t, query: rng.gen_range(0..queries.len()) });
            }
        }
        Workload { queries, arrivals, mutations, mutation_arrivals }
    }

    /// A closed batch: every query of the set arrives once, in order,
    /// at time zero. Streaming this workload is directly comparable to
    /// [`bbpim_cluster::ClusterEngine::run_batch`] over the same set.
    pub fn burst(queries: Vec<Query>) -> Workload {
        let arrivals = (0..queries.len()).map(|query| Arrival { at_ns: 0.0, query }).collect();
        Workload { queries, arrivals, mutations: Vec::new(), mutation_arrivals: Vec::new() }
    }

    /// The query set.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// The arrival trace, sorted by time.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// The mutation set (empty for pure-query workloads).
    pub fn mutations(&self) -> &[Mutation] {
        &self.mutations
    }

    /// The mutation arrival trace, sorted by time.
    pub fn mutation_arrivals(&self) -> &[MutationArrival] {
        &self.mutation_arrivals
    }

    /// Does the workload carry streaming ingest?
    pub fn has_mutations(&self) -> bool {
        !self.mutation_arrivals.is_empty()
    }

    /// Number of query arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Is the trace empty (no queries *and* no mutations)?
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty() && self.mutation_arrivals.is_empty()
    }

    /// The arrived queries as an owned list in arrival order — the
    /// exact argument to hand `run_batch` for an apples-to-apples
    /// result-equivalence check.
    pub fn arrived_queries(&self) -> Vec<Query> {
        self.arrivals.iter().map(|a| self.queries[a.query].clone()).collect()
    }

    /// The arrived mutations as an owned list in arrival order — what
    /// a prefix-replay oracle applies, one admission at a time.
    pub fn arrived_mutations(&self) -> Vec<Mutation> {
        self.mutation_arrivals.iter().map(|a| self.mutations[a.mutation].clone()).collect()
    }
}

/// One exponential draw with mean `mean_ns`: the inverse CDF of one
/// uniform `u` ∈ [0, 1), which keeps `ln(1 - u)` finite. Every Poisson
/// clock in the crate draws through it, so seeds compare.
pub(crate) fn exp_draw(rng: &mut StdRng, mean_ns: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean_ns * (1.0 - u).ln()
}

/// Validate one arrival trace, `(time, index)` per arrival, whose
/// indices name one of `len` items of kind `item`: every index in range,
/// every time finite and non-negative, times sorted. `trace` (`""` or
/// `"mutation "`) names the trace in the error.
fn check_trace(
    trace: &str,
    item: &str,
    len: usize,
    arrivals: impl Iterator<Item = (f64, usize)>,
) -> Result<(), SchedError> {
    let mut last = f64::NEG_INFINITY;
    for (i, (at_ns, index)) in arrivals.enumerate() {
        let err = if index >= len {
            format!("{trace}arrival {i} references {item} {index} of {len}")
        } else if !at_ns.is_finite() || at_ns < 0.0 {
            format!("{trace}arrival {i} at invalid time {at_ns}")
        } else if last > at_ns {
            format!("{trace}arrivals must be sorted by time (index {i})")
        } else {
            last = at_ns;
            continue;
        };
        return Err(SchedError::InvalidWorkload(err));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_db::builder::col;
    use bbpim_db::plan::{AggExpr, AggFunc};

    fn q(id: &str) -> Query {
        Query::single(id, vec![], vec![], AggFunc::Sum, AggExpr::Attr("x".into()))
    }

    fn m() -> Mutation {
        Mutation::update().filter(col("x").eq(1u64)).set("x", 2u64).build_unchecked()
    }

    /// The message of an [`SchedError::InvalidWorkload`].
    fn invalid(w: Result<Workload, SchedError>) -> String {
        match w {
            Err(SchedError::InvalidWorkload(msg)) => msg,
            other => panic!("expected an invalid workload, got {other:?}"),
        }
    }

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let a = Workload::poisson(vec![q("a"), q("b")], 50, 1000.0, 7);
        let b = Workload::poisson(vec![q("a"), q("b")], 50, 1000.0, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(a.arrivals().windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a.arrivals().iter().all(|x| x.query < 2 && x.at_ns > 0.0));
        assert!(!a.has_mutations());
        // a different seed yields a different trace
        let c = Workload::poisson(vec![q("a"), q("b")], 50, 1000.0, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_mean_interarrival_is_plausible() {
        let w = Workload::poisson(vec![q("a")], 2000, 1000.0, 42);
        let last = w.arrivals().last().unwrap().at_ns;
        let mean = last / 2000.0;
        assert!((500.0..2000.0).contains(&mean), "mean interarrival {mean} off by >2x");
    }

    #[test]
    fn htap_interleaves_one_seeded_process() {
        let a = Workload::poisson_htap(vec![q("a"), q("b")], vec![m()], 200, 0.25, 1000.0, 9);
        let b = Workload::poisson_htap(vec![q("a"), q("b")], vec![m()], 200, 0.25, 1000.0, 9);
        assert_eq!(a, b, "same seed, same interleaving");
        assert_eq!(a.len() + a.mutation_arrivals().len(), 200);
        assert!(a.has_mutations());
        // the coin lands near its bias
        let frac = a.mutation_arrivals().len() as f64 / 200.0;
        assert!((0.1..0.45).contains(&frac), "mutation fraction {frac} implausible for 0.25");
        // both traces are independently sorted on the shared clock
        assert!(a.arrivals().windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a.mutation_arrivals().windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // and genuinely interleaved: some mutation lands between queries
        let first_q = a.arrivals().first().unwrap().at_ns;
        let last_q = a.arrivals().last().unwrap().at_ns;
        assert!(a.mutation_arrivals().iter().any(|x| (first_q..last_q).contains(&x.at_ns)));
        let c = Workload::poisson_htap(vec![q("a"), q("b")], vec![m()], 200, 0.25, 1000.0, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn htap_zero_frac_is_pure_queries() {
        let w = Workload::poisson_htap(vec![q("a")], Vec::new(), 30, 0.0, 500.0, 3);
        assert_eq!(w.len(), 30);
        assert!(!w.has_mutations());
    }

    #[test]
    fn burst_arrives_all_at_zero() {
        let w = Workload::burst(vec![q("a"), q("b"), q("c")]);
        assert_eq!(w.len(), 3);
        assert!(w.arrivals().iter().all(|a| a.at_ns == 0.0));
        assert_eq!(
            w.arrived_queries().iter().map(|x| x.id.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn new_validates_the_trace() {
        let qs = vec![q("a")];
        assert_eq!(
            invalid(Workload::new(qs.clone(), vec![Arrival { at_ns: 0.0, query: 1 }])),
            "arrival 0 references query 1 of 1"
        );
        assert_eq!(
            invalid(Workload::new(qs.clone(), vec![Arrival { at_ns: -1.0, query: 0 }])),
            "arrival 0 at invalid time -1"
        );
        let unsorted = vec![Arrival { at_ns: 5.0, query: 0 }, Arrival { at_ns: 1.0, query: 0 }];
        assert_eq!(
            invalid(Workload::new(qs.clone(), unsorted)),
            "arrivals must be sorted by time (index 1)"
        );
        let ok = Workload::new(qs, vec![Arrival { at_ns: 1.0, query: 0 }]).unwrap();
        assert!(!ok.is_empty());
    }

    #[test]
    fn with_mutations_validates_the_ingest_trace() {
        let qs = vec![q("a")];
        let ms = vec![m()];
        let bad_idx = Workload::with_mutations(
            qs.clone(),
            vec![],
            ms.clone(),
            vec![MutationArrival { at_ns: 0.0, mutation: 1 }],
        );
        assert_eq!(invalid(bad_idx), "mutation arrival 0 references mutation 1 of 1");
        let bad_time = Workload::with_mutations(
            qs.clone(),
            vec![],
            ms.clone(),
            vec![MutationArrival { at_ns: f64::NAN, mutation: 0 }],
        );
        assert_eq!(invalid(bad_time), "mutation arrival 0 at invalid time NaN");
        let unsorted = Workload::with_mutations(
            qs.clone(),
            vec![],
            ms.clone(),
            vec![
                MutationArrival { at_ns: 9.0, mutation: 0 },
                MutationArrival { at_ns: 1.0, mutation: 0 },
            ],
        );
        assert_eq!(invalid(unsorted), "mutation arrivals must be sorted by time (index 1)");
        let ok = Workload::with_mutations(
            qs,
            vec![],
            ms,
            vec![MutationArrival { at_ns: 2.0, mutation: 0 }],
        )
        .unwrap();
        assert!(!ok.is_empty(), "a mutation-only workload is not empty");
        assert_eq!(ok.arrived_mutations().len(), 1);
    }
}
