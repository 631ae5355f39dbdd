//! Cell endurance and lifetime accounting (Fig. 9 of the paper).
//!
//! RRAM cells survive a bounded number of writes (~10¹² per \[22\] in the
//! paper). The paper's metric: run one query back-to-back for ten years
//! at 100 % duty cycle, assume wear-leveling spreads a row's writes
//! uniformly over its cells, and report the per-cell write count that
//! the worst row requires.

/// Seconds in one (Julian) year.
pub const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// The horizon the required-endurance figures assume (the paper's
/// Fig. 9 runs each query back-to-back for ten years) — the `years` of
/// [`required_endurance`].
pub const ENDURANCE_YEARS: f64 = 10.0;

/// Writes-per-cell one query charges: the worst row's cell writes spread
/// over the row's `cols` cells.
pub fn writes_per_cell_per_query(max_row_cell_writes: u64, cols: usize) -> f64 {
    max_row_cell_writes as f64 / cols as f64
}

/// Required cell endurance (write cycles) to run a query back-to-back
/// for `years` at 100 % duty cycle (Fig. 9).
///
/// Returns 0 for a query that performs no PIM writes.
///
/// # Panics
///
/// Panics if `query_time_ns` is not positive.
pub fn required_endurance(
    max_row_cell_writes: u64,
    cols: usize,
    query_time_ns: f64,
    years: f64,
) -> f64 {
    assert!(query_time_ns > 0.0, "query time must be positive");
    let per_query = writes_per_cell_per_query(max_row_cell_writes, cols);
    let queries = years * SECONDS_PER_YEAR * 1e9 / query_time_ns;
    per_query * queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wear_leveling_divides_by_row_cells() {
        assert!((writes_per_cell_per_query(512, 512) - 1.0).abs() < 1e-12);
        assert!((writes_per_cell_per_query(256, 512) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn endurance_matches_paper_magnitude() {
        // A filter-dominated query: ~200 ops per row (0.39 writes/cell)
        // at 10 ms per query for 10 years ≈ 1.2e10 — the order Fig. 9
        // reports.
        let e = required_endurance(200, 512, 10e6, 10.0);
        assert!(e > 1e9 && e < 1e11, "got {e}");
    }

    #[test]
    fn endurance_inversely_proportional_to_query_time() {
        let fast = required_endurance(100, 512, 1e6, 10.0);
        let slow = required_endurance(100, 512, 2e6, 10.0);
        assert!((fast / slow - 2.0).abs() < 1e-9);
    }

    #[test]
    fn no_writes_means_infinite_lifetime() {
        // no endurance is required of a cell that is never written
        assert_eq!(required_endurance(0, 512, 1e6, ENDURANCE_YEARS), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_query_time_rejected() {
        let _ = required_endurance(1, 512, 0.0, 10.0);
    }
}
