//! Tenant specifications: who sends traffic, how it arrives, how much
//! is allowed in, and what latency it was promised.

use bbpim_core::mutation::Mutation;
use bbpim_db::plan::Query;
use rand::rngs::StdRng;

use crate::error::SchedError;
use crate::workload::exp_draw;

/// How a tenant's requests are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Open loop: `arrivals` requests with seeded exponential
    /// interarrival gaps (Poisson process) starting at t = 0; each
    /// request picks a uniform random query from the tenant's set.
    /// Arrivals keep coming whether or not earlier ones finished —
    /// the overload generator.
    OpenPoisson {
        /// Requests to generate.
        arrivals: usize,
        /// Mean interarrival gap, nanoseconds.
        mean_interarrival_ns: f64,
    },
    /// Open loop: all `arrivals` requests land at once at `at_ns`
    /// (queue-depth and shedding stress).
    Burst {
        /// Requests to generate.
        arrivals: usize,
        /// The instant they all arrive.
        at_ns: f64,
    },
    /// Closed loop: `clients` concurrent clients, each issuing a
    /// request, waiting for its completion (or drop), thinking for a
    /// seeded exponential gap, then issuing the next — so offered load
    /// *reacts* to latency, the classic interactive-client model.
    Closed {
        /// Concurrent think-time clients.
        clients: usize,
        /// Requests each client issues before leaving.
        queries_per_client: usize,
        /// Mean think gap between a client's completion and its next
        /// request, nanoseconds.
        mean_think_ns: f64,
    },
}

impl ArrivalProcess {
    /// Total requests this process will generate.
    pub fn total_requests(&self) -> usize {
        match self {
            ArrivalProcess::OpenPoisson { arrivals, .. } => *arrivals,
            ArrivalProcess::Burst { arrivals, .. } => *arrivals,
            ArrivalProcess::Closed { clients, queries_per_client, .. } => {
                clients * queries_per_client
            }
        }
    }
}

/// A token-bucket rate limit on one tenant's *admission eligibility*:
/// requests above the sustained rate are not rejected, they become
/// eligible later (throttled), and the scheduler counts them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained request rate, per second.
    pub rate_per_s: f64,
    /// Bucket depth: how many requests may pass at line rate before
    /// the sustained rate bites.
    pub burst: f64,
}

/// Write traffic mixed into a tenant's request stream.
///
/// Each write request applies its mutation to the cluster **at its
/// admission**, as a streamed mutation does: queries admitted after it
/// observe it, queries admitted before it do not, and a mutation drawn
/// k times is applied k times. The request rides the shared host
/// channel and its ingest lanes' module queues, holds an in-flight slot
/// until its last lane chain finishes, charges the tenant's fair share,
/// feeds the AIMD controller its SLO-normalised latency, and wears its
/// lanes' cells. Write requests are never deadline-shed: durable work is
/// not droppable.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteMix {
    /// The tenant's mutation set; arrival processes pick from it
    /// uniformly, exactly as they pick queries.
    pub mutations: Vec<Mutation>,
    /// Probability an arrival is a write rather than a query. Must be
    /// in `(0, 1]`; `1.0` makes a pure-write tenant (its query set may
    /// then be empty).
    pub write_frac: f64,
}

/// What the tenant was promised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// The p95 end-to-end latency target, nanoseconds. Feeds the AIMD
    /// controller (violation cuts the window) and the per-tenant
    /// `slo_met` report bit.
    pub p95_target_ns: f64,
    /// Optional per-request deadline relative to arrival: at admission
    /// the scheduler sheds a request whose predicted completion blows
    /// it, and a completion past it does not count toward goodput.
    pub deadline_ns: Option<f64>,
}

/// One tenant: a named workload with its arrival process, rate limit,
/// SLO, and fair-share weight.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Report/metric label (must be unique across the session).
    pub name: String,
    /// The tenant's query set; arrival processes pick from it.
    pub queries: Vec<Query>,
    /// How requests are generated.
    pub process: ArrivalProcess,
    /// Optional write traffic mixed into the request stream
    /// (HTAP-serving tenants).
    pub writes: Option<WriteMix>,
    /// Optional token-bucket rate limit on admission eligibility.
    pub rate_limit: Option<RateLimit>,
    /// The latency promise.
    pub slo: SloSpec,
    /// Weighted-fair-sharing weight (relative service share under
    /// contention; must be positive).
    pub weight: f64,
}

impl TenantSpec {
    /// Validate one tenant spec.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidTenant`] for an empty query set,
    /// non-positive weight/targets/rates, or non-finite parameters.
    pub fn validate(&self) -> Result<(), SchedError> {
        let fail = |m: String| Err(SchedError::InvalidTenant(format!("{}: {m}", self.name)));
        match &self.writes {
            None => {
                if self.queries.is_empty() {
                    return fail("empty query set".into());
                }
            }
            Some(w) => {
                if w.mutations.is_empty() {
                    return fail("write mix with an empty mutation set".into());
                }
                if !(w.write_frac.is_finite() && w.write_frac > 0.0 && w.write_frac <= 1.0) {
                    return fail(format!("write_frac must be in (0, 1], got {}", w.write_frac));
                }
                if self.queries.is_empty() && w.write_frac < 1.0 {
                    return fail("empty query set needs write_frac = 1".into());
                }
            }
        }
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return fail(format!("weight must be finite and positive, got {}", self.weight));
        }
        if !(self.slo.p95_target_ns.is_finite() && self.slo.p95_target_ns > 0.0) {
            return fail(format!("p95 target must be positive, got {}", self.slo.p95_target_ns));
        }
        if let Some(d) = self.slo.deadline_ns {
            if !(d.is_finite() && d > 0.0) {
                return fail(format!("deadline must be positive, got {d}"));
            }
        }
        if let Some(rl) = &self.rate_limit {
            if !(rl.rate_per_s.is_finite() && rl.rate_per_s > 0.0) {
                return fail(format!("rate limit must be positive, got {}", rl.rate_per_s));
            }
            if !(rl.burst.is_finite() && rl.burst >= 1.0) {
                return fail(format!("burst must be at least 1, got {}", rl.burst));
            }
        }
        match self.process {
            ArrivalProcess::OpenPoisson { mean_interarrival_ns, .. } => {
                if !(mean_interarrival_ns.is_finite() && mean_interarrival_ns > 0.0) {
                    return fail(format!(
                        "mean interarrival must be positive, got {mean_interarrival_ns}"
                    ));
                }
            }
            ArrivalProcess::Burst { at_ns, .. } => {
                if !(at_ns.is_finite() && at_ns >= 0.0) {
                    return fail(format!("burst instant must be non-negative, got {at_ns}"));
                }
            }
            ArrivalProcess::Closed { mean_think_ns, .. } => {
                if !(mean_think_ns.is_finite() && mean_think_ns >= 0.0) {
                    return fail(format!("mean think must be non-negative, got {mean_think_ns}"));
                }
            }
        }
        Ok(())
    }
}

/// A GCRA-style token bucket over the simulated clock. [`reserve`] is
/// called once per request in nondecreasing arrival order and returns
/// the instant the request becomes *eligible* for admission — `at_ns`
/// itself while tokens last, later once the sustained rate binds. The
/// request is never rejected, only delayed; the delta is the tenant's
/// throttle signal.
///
/// [`reserve`]: TokenBucket::reserve
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_ns: f64,
    burst: f64,
    tokens: f64,
    last_ns: f64,
}

impl TokenBucket {
    /// A full bucket for `limit`.
    pub fn new(limit: &RateLimit) -> TokenBucket {
        TokenBucket {
            rate_per_ns: limit.rate_per_s / 1e9,
            burst: limit.burst,
            tokens: limit.burst,
            last_ns: 0.0,
        }
    }

    /// Reserve one token for a request arriving at `at_ns`
    /// (nondecreasing across calls) and return its eligibility instant.
    /// The count may go negative — accumulated debt is what spaces a
    /// queue of borrowers at exactly the sustained rate.
    pub fn reserve(&mut self, at_ns: f64) -> f64 {
        let refill = (at_ns - self.last_ns).max(0.0) * self.rate_per_ns;
        self.tokens = (self.tokens + refill).min(self.burst);
        self.last_ns = at_ns;
        self.tokens -= 1.0;
        if self.tokens >= 0.0 {
            at_ns
        } else {
            at_ns + -self.tokens / self.rate_per_ns
        }
    }
}

/// Draw an exponential gap with the given mean from `rng`
/// ([`exp_draw`]); a zero mean draws nothing and returns zero.
pub(crate) fn exp_gap_ns(rng: &mut StdRng, mean_ns: f64) -> f64 {
    if mean_ns <= 0.0 {
        return 0.0;
    }
    exp_draw(rng, mean_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_db::plan::{AggExpr, AggFunc, Atom, Query};
    use rand::SeedableRng;

    fn q() -> Query {
        Query::single(
            "q",
            vec![Atom::Gt { attr: "a".into(), value: 0u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::Attr("a".into()),
        )
    }

    fn tenant() -> TenantSpec {
        TenantSpec {
            name: "t".into(),
            queries: vec![q()],
            process: ArrivalProcess::OpenPoisson { arrivals: 4, mean_interarrival_ns: 100.0 },
            writes: None,
            rate_limit: None,
            slo: SloSpec { p95_target_ns: 1_000.0, deadline_ns: None },
            weight: 1.0,
        }
    }

    #[test]
    fn bucket_passes_burst_then_paces_at_rate() {
        // 2 req/s sustained, burst of 2: two immediate, then 500 ms
        // spacing from the *bucket*, not from arrival time.
        let mut b = TokenBucket::new(&RateLimit { rate_per_s: 2.0, burst: 2.0 });
        assert_eq!(b.reserve(0.0), 0.0);
        assert_eq!(b.reserve(0.0), 0.0);
        let e3 = b.reserve(0.0);
        assert!((e3 - 0.5e9).abs() < 1.0, "third waits one token: {e3}");
        let e4 = b.reserve(0.0);
        assert!((e4 - 1.0e9).abs() < 1.0, "fourth waits two: {e4}");
        // A late arrival after full refill passes immediately again.
        let mut b = TokenBucket::new(&RateLimit { rate_per_s: 2.0, burst: 2.0 });
        b.reserve(0.0);
        b.reserve(0.0);
        assert_eq!(b.reserve(2.0e9), 2.0e9);
    }

    #[test]
    fn bucket_never_reorders_eligibility() {
        let mut b = TokenBucket::new(&RateLimit { rate_per_s: 10.0, burst: 1.0 });
        let mut at = 0.0;
        let mut last = 0.0;
        for i in 0..50 {
            at += (i % 3) as f64 * 20e6;
            let e = b.reserve(at);
            assert!(e >= at, "eligibility never precedes arrival");
            assert!(e >= last, "eligibility is nondecreasing");
            last = e;
        }
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(tenant().validate().is_ok());
        let mut t = tenant();
        t.queries.clear();
        assert!(matches!(t.validate(), Err(SchedError::InvalidTenant(_))));
        let mut t = tenant();
        t.weight = 0.0;
        assert!(t.validate().is_err());
        let mut t = tenant();
        t.slo.p95_target_ns = -1.0;
        assert!(t.validate().is_err());
        let mut t = tenant();
        t.slo.deadline_ns = Some(0.0);
        assert!(t.validate().is_err());
        let mut t = tenant();
        t.rate_limit = Some(RateLimit { rate_per_s: 0.0, burst: 2.0 });
        assert!(t.validate().is_err());
        let mut t = tenant();
        t.process = ArrivalProcess::OpenPoisson { arrivals: 1, mean_interarrival_ns: f64::NAN };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_polices_the_write_mix() {
        let m = Mutation::update().set("a", 1).build_unchecked();
        let mut t = tenant();
        t.writes = Some(WriteMix { mutations: vec![m.clone()], write_frac: 0.5 });
        assert!(t.validate().is_ok());
        // A pure writer may drop its query set — but only at frac 1.
        t.writes = Some(WriteMix { mutations: vec![m.clone()], write_frac: 1.0 });
        t.queries.clear();
        assert!(t.validate().is_ok());
        t.writes = Some(WriteMix { mutations: vec![m.clone()], write_frac: 0.5 });
        assert!(t.validate().is_err(), "mixed traffic needs queries to mix");
        let mut t = tenant();
        t.writes = Some(WriteMix { mutations: vec![], write_frac: 0.5 });
        assert!(t.validate().is_err());
        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            let mut t = tenant();
            t.writes = Some(WriteMix { mutations: vec![m.clone()], write_frac: bad });
            assert!(t.validate().is_err(), "write_frac {bad} must be rejected");
        }
    }

    #[test]
    fn exp_gap_is_seed_deterministic_and_positive() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let ga = exp_gap_ns(&mut a, 1000.0);
            assert!(ga >= 0.0 && ga.is_finite());
            assert_eq!(ga, exp_gap_ns(&mut b, 1000.0));
        }
        assert_eq!(exp_gap_ns(&mut a, 0.0), 0.0);
    }

    #[test]
    fn process_counts_requests() {
        assert_eq!(
            ArrivalProcess::Closed { clients: 3, queries_per_client: 4, mean_think_ns: 1.0 }
                .total_requests(),
            12
        );
        assert_eq!(ArrivalProcess::Burst { arrivals: 5, at_ns: 0.0 }.total_requests(), 5);
    }
}
