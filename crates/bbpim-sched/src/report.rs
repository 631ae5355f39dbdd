//! Latency-distribution and per-makespan rate accounting for streamed
//! runs.

use crate::admission::QueryCompletion;

/// Nearest-rank percentile of an ascending-sorted slice (`p` in
/// percent). Returns 0 for an empty slice.
///
/// The rank is `⌈p·n / 100⌉`. Common percentiles are not
/// binary-representable (`0.55`, `99.9`), so the naive float form
/// lands an ulp above an exact boundary and `ceil` charges one rank
/// too many — p55 of 20 values indexed rank 12 instead of the
/// nearest-rank 11. The product is taken before the division and the
/// result snapped to the nearest integer when it is within relative
/// epsilon of one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let exact = (p * sorted.len() as f64) / 100.0;
    let nearest = exact.round();
    let rank = if (exact - nearest).abs() <= 1e-9 * nearest.max(1.0) {
        nearest as usize
    } else {
        exact.ceil() as usize
    };
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The rates a finished run reports over its makespan, stated once:
/// [`crate::StreamOutcome`] answers `throughput_qps` / `host_utilisation`
/// / `host_demand` through it, [`crate::serve::ServeOutcome`] the last two.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunRates {
    /// When the last query or mutation completed.
    pub makespan_ns: f64,
    /// Host-channel busy time over the run.
    pub host_busy_ns: f64,
}

impl RunRates {
    /// `completed` requests per second of simulated time.
    pub fn throughput_qps(&self, completed: usize) -> f64 {
        if self.makespan_ns <= 0.0 {
            0.0
        } else {
            completed as f64 / (self.makespan_ns / 1e9)
        }
    }

    /// Raw host-channel demand ratio `host_busy_ns / makespan_ns`,
    /// **unclamped** — above 1.0 it measures how deeply the run
    /// oversubscribes the channel: a demand of 1.8 means the channel was
    /// asked for 80 % more service than the makespan holds. A
    /// non-positive makespan reports 0.
    pub fn host_demand(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            return 0.0;
        }
        self.host_busy_ns / self.makespan_ns
    }

    /// Fraction of the makespan the host channel was busy: the demand
    /// saturated to `[0, 1]` (eager FIFO grants can stretch past the
    /// last completion, so the raw ratio could drift above 1).
    pub fn host_utilisation(&self) -> f64 {
        self.host_demand().clamp(0.0, 1.0)
    }
}

/// The latency distribution of one streamed run.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Completed queries.
    pub completed: usize,
    /// Requests dropped before completion (deadline shed); zero for
    /// plain streamed runs, which never drop.
    pub count_dropped: usize,
    /// Median end-to-end latency, nanoseconds.
    pub p50_ns: f64,
    /// 95th-percentile latency.
    pub p95_ns: f64,
    /// 99th-percentile latency.
    pub p99_ns: f64,
    /// 99.9th-percentile latency (the serving tail).
    pub p999_ns: f64,
    /// Mean latency.
    pub mean_ns: f64,
    /// Worst latency.
    pub max_ns: f64,
    /// Mean time waiting before any service (admission + bus queues).
    pub mean_wait_ns: f64,
    /// Mean time in service (first dispatch → merged answer).
    pub mean_service_ns: f64,
}

impl LatencySummary {
    /// Summarise a set of completions (any order).
    pub fn of(completions: &[QueryCompletion]) -> LatencySummary {
        LatencySummary::from_parts(
            completions.iter().map(QueryCompletion::latency_ns).collect(),
            &completions.iter().map(QueryCompletion::wait_ns).collect::<Vec<_>>(),
            &completions.iter().map(QueryCompletion::service_ns).collect::<Vec<_>>(),
            0,
        )
    }

    /// Summarise raw latency/wait/service samples (any order) plus a
    /// dropped count — what a per-tenant report folding queries and
    /// mutations together shares with [`LatencySummary::of`].
    pub fn from_parts(
        mut latencies: Vec<f64>,
        waits: &[f64],
        services: &[f64],
        dropped: usize,
    ) -> LatencySummary {
        let n = latencies.len();
        if n == 0 {
            return LatencySummary {
                completed: 0,
                count_dropped: dropped,
                p50_ns: 0.0,
                p95_ns: 0.0,
                p99_ns: 0.0,
                p999_ns: 0.0,
                mean_ns: 0.0,
                max_ns: 0.0,
                mean_wait_ns: 0.0,
                mean_service_ns: 0.0,
            };
        }
        latencies.sort_by(f64::total_cmp);
        LatencySummary {
            completed: n,
            count_dropped: dropped,
            p50_ns: percentile(&latencies, 50.0),
            p95_ns: percentile(&latencies, 95.0),
            p99_ns: percentile(&latencies, 99.0),
            p999_ns: percentile(&latencies, 99.9),
            mean_ns: latencies.iter().sum::<f64>() / n as f64,
            max_ns: *latencies.last().expect("non-empty"),
            mean_wait_ns: waits.iter().sum::<f64>() / n as f64,
            mean_service_ns: services.iter().sum::<f64>() / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(arrive: f64, first: f64, complete: f64) -> QueryCompletion {
        QueryCompletion {
            arrival: 0,
            tenant: 0,
            client: None,
            query_id: "q".into(),
            arrive_ns: arrive,
            eligible_ns: arrive,
            admit_ns: first,
            first_service_ns: first,
            complete_ns: complete,
            shards_dispatched: 1,
            shards_pruned: 0,
            deadline_ns: None,
            epoch: 0,
        }
    }

    #[test]
    fn host_utilisation_saturates_where_demand_keeps_the_depth() {
        // 120 ns of grants issued eagerly at t = 0
        let over = |makespan_ns| RunRates { makespan_ns, host_busy_ns: 120.0 };
        // below saturation the two ratios agree
        assert!((over(1000.0).host_utilisation() - 0.12).abs() < 1e-12);
        assert!((over(1000.0).host_demand() - 0.12).abs() < 1e-12);
        // a makespan shorter than the granted service: utilisation
        // saturates, demand keeps the oversubscription depth
        assert_eq!(over(100.0).host_utilisation(), 1.0);
        assert!((over(100.0).host_demand() - 1.2).abs() < 1e-12);
        for makespan_ns in [0.0, -5.0] {
            assert_eq!(over(makespan_ns).host_utilisation(), 0.0);
            assert_eq!(over(makespan_ns).host_demand(), 0.0);
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    /// Nearest-rank pin on exact boundaries: `⌈p·n/100⌉` with the
    /// product computed *before* the division. `0.55_f64` is slightly
    /// above 55/100, so the old `(p/100)·n` form ceiled p55 of twenty
    /// values to rank 12; the convention says rank 11.
    #[test]
    fn percentile_exact_boundaries_stay_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 55.0), 11.0);
        assert_eq!(percentile(&v, 5.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 19.0);
        // p95 of 40: 0.95·40 = 38 exactly → rank 38
        let v40: Vec<f64> = (1..=40).map(|i| i as f64).collect();
        assert_eq!(percentile(&v40, 95.0), 38.0);
        // p999 pins: rank ⌈0.999·n⌉
        let v1000: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(percentile(&v1000, 99.9), 999.0);
        let v2000: Vec<f64> = (1..=2000).map(|i| i as f64).collect();
        assert_eq!(percentile(&v2000, 99.9), 1998.0);
        let v100: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v100, 99.9), 100.0);
    }

    #[test]
    fn summary_decomposes_wait_and_service() {
        let cs = vec![completion(0.0, 10.0, 30.0), completion(5.0, 5.0, 25.0)];
        let s = LatencySummary::of(&cs);
        assert_eq!(s.completed, 2);
        assert_eq!(s.count_dropped, 0);
        assert_eq!(s.max_ns, 30.0);
        assert_eq!(s.mean_ns, 25.0); // (30 + 20) / 2
        assert_eq!(s.mean_wait_ns, 5.0); // (10 + 0) / 2
        assert_eq!(s.mean_service_ns, 20.0); // (20 + 20) / 2
        assert_eq!(s.p50_ns, 20.0);
        assert_eq!(s.p99_ns, 30.0);
        assert_eq!(s.p999_ns, 30.0);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = LatencySummary::of(&[]);
        assert_eq!(s.completed, 0);
        assert_eq!(s.p99_ns, 0.0);
        assert_eq!(s.p999_ns, 0.0);
        assert_eq!(s.count_dropped, 0);
    }

    #[test]
    fn from_parts_carries_drops_even_when_nothing_completed() {
        let s = LatencySummary::from_parts(Vec::new(), &[], &[], 7);
        assert_eq!(s.completed, 0);
        assert_eq!(s.count_dropped, 7);
        let s = LatencySummary::from_parts(vec![4.0, 2.0], &[1.0, 1.0], &[3.0, 1.0], 3);
        assert_eq!(s.completed, 2);
        assert_eq!(s.count_dropped, 3);
        assert_eq!(s.p50_ns, 2.0);
        assert_eq!(s.max_ns, 4.0);
        assert_eq!(s.mean_wait_ns, 1.0);
        assert_eq!(s.mean_service_ns, 2.0);
    }

    /// Regression pin: percentiles must come from *sorted* latencies,
    /// not completion order. A streamed run with overtaking delivers
    /// completions out of latency order — here a scripted trace whose
    /// completion order is adversarially anti-sorted (worst latency
    /// completes first). Nearest-rank over the sorted 1..=100 ns
    /// latencies has known answers; an implementation indexing the
    /// completion-ordered list would report p50 = 51, p95 = 6,
    /// p99 = 2.
    #[test]
    fn percentiles_are_order_invariant_under_overtaking() {
        // Latency of completion i is (100 - i) ns: completion order is
        // strictly descending latency, the extreme of out-of-order.
        let cs: Vec<QueryCompletion> = (0..100)
            .map(|i| {
                let latency = (100 - i) as f64;
                let mut c = completion(0.0, 0.0, latency);
                c.arrival = i;
                c
            })
            .collect();
        let s = LatencySummary::of(&cs);
        assert_eq!(s.p50_ns, 50.0);
        assert_eq!(s.p95_ns, 95.0);
        assert_eq!(s.p99_ns, 99.0);
        assert_eq!(s.p999_ns, 100.0);
        assert_eq!(s.max_ns, 100.0);
        // and any permutation of the same completions agrees exactly
        let mut shuffled = cs.clone();
        shuffled.reverse();
        shuffled.swap(3, 77);
        shuffled.swap(12, 50);
        assert_eq!(LatencySummary::of(&shuffled), s);
    }
}
