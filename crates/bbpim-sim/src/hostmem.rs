//! Host-side view of PIM memory: cache-line reads with the paper's 32×
//! read amplification, and a DDR4 latency/bandwidth timing model.
//!
//! ## Line layout
//!
//! A 2 MB page interleaves its 32 crossbars so that the 64-byte cache
//! line at *(row ρ, chunk γ)* concatenates the 16-bit chunk γ of row ρ
//! from **every** crossbar of the page. Consequences (Section V-B of the
//! paper):
//!
//! * reading a filter-result bit-vector costs one line per row — 1024
//!   lines (64 KB) per 2 MB page, a 32× reduction over the raw data;
//! * reading *one whole record* touches as many lines as the record has
//!   chunks, and every one of those lines drags in the same chunk of the
//!   31 sibling records — "reading a single record brings 32 records";
//! * reading the same attribute of many records amortises: one line
//!   serves up to 32 records.
//!
//! [`LineSet`] computes exact unique-line counts from real selections.
//! [`read_time_ns`]/[`write_time_ns`] convert line counts to time with a
//! `max(bandwidth, latency/MLP)` model across the configured threads.

use std::collections::BTreeSet;

use crate::config::SimConfig;

/// Address of one cache line inside the PIM rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr {
    /// Page index (engine-level id).
    pub page: usize,
    /// Crossbar row.
    pub row: usize,
    /// 16-bit chunk index within the row.
    pub chunk: usize,
}

/// A deduplicating set of line addresses touched by a host phase.
///
/// ```
/// use bbpim_sim::hostmem::{LineAddr, LineSet};
/// let mut s = LineSet::new();
/// s.touch(LineAddr { page: 0, row: 5, chunk: 2 });
/// s.touch(LineAddr { page: 0, row: 5, chunk: 2 }); // same line
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LineSet {
    lines: BTreeSet<LineAddr>,
}

impl LineSet {
    /// Empty set.
    pub fn new() -> Self {
        LineSet::default()
    }

    /// Record that a line is needed.
    pub fn touch(&mut self, addr: LineAddr) {
        self.lines.insert(addr);
    }

    /// Record every chunk line a `[lo, lo+width)` bit range of `row`
    /// spans.
    pub fn touch_bit_range(
        &mut self,
        cfg: &SimConfig,
        page: usize,
        row: usize,
        col_lo: usize,
        width: usize,
    ) {
        if width == 0 {
            return;
        }
        let first = col_lo / cfg.read_width_bits;
        let last = (col_lo + width - 1) / cfg.read_width_bits;
        for chunk in first..=last {
            self.touch(LineAddr { page, row, chunk });
        }
    }

    /// Unique lines.
    pub fn len(&self) -> u64 {
        self.lines.len() as u64
    }

    /// True when no lines were touched.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Time for the host to read `lines` cache lines from the PIM rank with
/// a *streaming* access pattern (sequential addresses the prefetchers
/// cover: filter-result bit-vectors, aggregation result slots),
/// nanoseconds.
///
/// Bandwidth bound: `lines × line_bytes / BW`. Latency bound: each
/// thread keeps `mlp` misses in flight, so `lines / threads × lat / mlp`.
/// The phase takes the larger of the two.
pub fn read_time_ns(cfg: &SimConfig, lines: u64) -> f64 {
    transfer_time_ns(cfg, lines)
}

/// Time for *scattered* (data-dependent) line reads — the host-gb record
/// fetches, whose addresses come from just-read mask bits, defeating
/// prefetch. Effective parallelism is only the thread count
/// (`scatter_mlp` ≈ 1 in-flight miss per thread), which is what makes
/// host-gb latency-dominated and the paper's `a(s)·√r + b(s)` slopes
/// large.
pub fn scattered_read_time_ns(cfg: &SimConfig, lines: u64) -> f64 {
    if lines == 0 {
        return 0.0;
    }
    let per_line = cfg.host.dram_latency_ns / (cfg.host.threads as f64 * cfg.host.scatter_mlp);
    (lines as f64 * per_line).max(transfer_time_ns(cfg, lines))
}

/// Time for the host to write `lines` cache lines into the PIM rank,
/// nanoseconds. Writes are posted, so the same pipe model applies; the
/// RRAM write latency is paid inside the module, overlapped per line.
pub fn write_time_ns(cfg: &SimConfig, lines: u64) -> f64 {
    transfer_time_ns(cfg, lines).max(lines as f64 * cfg.write_latency_ns / cfg.host.mlp)
}

fn transfer_time_ns(cfg: &SimConfig, lines: u64) -> f64 {
    if lines == 0 {
        return 0.0;
    }
    let bytes = lines as f64 * cfg.line_bytes() as f64;
    let bw_ns = bytes / (cfg.host.dram_bandwidth_gib_s * 1.073_741_824) * 1.0; // GiB/s → B/ns
    let lat_ns = lines as f64 / cfg.host.threads as f64 * cfg.host.dram_latency_ns / cfg.host.mlp;
    bw_ns.max(lat_ns)
}

/// Host time to fold `records` fetched records into their groups,
/// spread over the configured threads, nanoseconds — the per-record
/// aggregation term of host-gb's cost.
pub fn fold_time_ns(cfg: &SimConfig, records: u64) -> f64 {
    records as f64 * (cfg.host.host_agg_ns_per_record / cfg.host.threads as f64)
}

/// PIM-module energy of reading `lines` lines (every bit of a line is a
/// crossbar cell read), picojoules.
pub fn read_energy_pj(cfg: &SimConfig, lines: u64) -> f64 {
    lines as f64 * (cfg.line_bytes() * 8) as f64 * cfg.read_energy_pj_per_bit
}

/// PIM-module energy of writing `lines` lines, picojoules.
pub fn write_energy_pj(cfg: &SimConfig, lines: u64) -> f64 {
    lines as f64 * (cfg.line_bytes() * 8) as f64 * cfg.write_energy_pj_per_bit
}

/// Power one PIM chip draws while the host streams `lines` lines over
/// `time_ns`, watts (the read/write energy is spread over the module's
/// chips).
pub fn chip_power_w(cfg: &SimConfig, energy_pj: f64, time_ns: f64) -> f64 {
    if time_ns <= 0.0 {
        return 0.0;
    }
    energy_pj / time_ns / 1000.0 / cfg.chips as f64 // pJ/ns = mW
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn the_host_fold_spreads_records_over_the_threads() {
        let mut c = cfg();
        c.host.host_agg_ns_per_record = 6.0;
        c.host.threads = 4;
        assert_eq!(fold_time_ns(&c, 0), 0.0);
        assert_eq!(fold_time_ns(&c, 10), 15.0);
        c.host.threads = 1;
        assert_eq!(fold_time_ns(&c, 10), 60.0);
    }

    #[test]
    fn dedup_same_line() {
        let mut s = LineSet::new();
        for _ in 0..10 {
            s.touch(LineAddr { page: 1, row: 2, chunk: 3 });
        }
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn bit_range_spanning_chunks() {
        let c = cfg();
        let mut s = LineSet::new();
        // bits 10..40 with 16-bit chunks → chunks 0, 1, 2
        s.touch_bit_range(&c, 0, 7, 10, 30);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn zero_width_range_touches_nothing() {
        let c = cfg();
        let mut s = LineSet::new();
        s.touch_bit_range(&c, 0, 0, 0, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn same_attribute_of_sibling_records_shares_a_line() {
        // Records at the same row of different crossbars of one page all
        // live behind the same (page, row, chunk) lines — the LineSet
        // only keys on those three, so 32 sibling reads count once.
        let c = cfg();
        let mut s = LineSet::new();
        for _crossbar in 0..32 {
            s.touch_bit_range(&c, 0, 99, 32, 16);
        }
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn read_time_zero_lines() {
        assert_eq!(read_time_ns(&cfg(), 0), 0.0);
    }

    #[test]
    fn read_time_bandwidth_bound_for_many_lines() {
        let c = cfg();
        let lines = 1_000_000;
        let t = read_time_ns(&c, lines);
        let bytes = lines as f64 * 64.0;
        let bw_ns = bytes / (c.host.dram_bandwidth_gib_s * 1.073_741_824);
        assert!((t - bw_ns).abs() / bw_ns < 0.5, "expected ≈ bandwidth bound");
    }

    #[test]
    fn scattered_reads_cost_more_than_streaming() {
        let c = cfg();
        let lines = 10_000;
        assert!(scattered_read_time_ns(&c, lines) > 2.0 * read_time_ns(&c, lines));
        assert_eq!(scattered_read_time_ns(&c, 0), 0.0);
    }

    #[test]
    fn scattered_read_latency_per_line() {
        let c = cfg();
        // 80 ns / (4 threads × 1 in-flight) = 20 ns per line
        let t = scattered_read_time_ns(&c, 1000);
        assert!((t - 20_000.0).abs() < 1.0, "got {t}");
    }

    #[test]
    fn read_time_monotone_in_lines() {
        let c = cfg();
        let t1 = read_time_ns(&c, 1000);
        let t2 = read_time_ns(&c, 2000);
        assert!(t2 > t1);
    }

    #[test]
    fn energy_proportional_to_lines() {
        let c = cfg();
        let e1 = read_energy_pj(&c, 100);
        let e2 = read_energy_pj(&c, 200);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
        // one line = 512 bits at 0.84 pJ/bit
        assert!((e1 / 100.0 - 512.0 * 0.84).abs() < 1e-9);
    }

    #[test]
    fn write_energy_exceeds_read_energy() {
        let c = cfg();
        assert!(write_energy_pj(&c, 10) > read_energy_pj(&c, 10));
    }

    #[test]
    fn chip_power_spreads_over_chips() {
        let c = cfg();
        // 8 chips: 8000 pJ over 1000 ns = 8 mW module → 1 mW per chip
        let p = chip_power_w(&c, 8000.0, 1000.0);
        assert!((p - 0.001).abs() < 1e-9);
    }
}
