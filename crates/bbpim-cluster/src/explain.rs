//! `EXPLAIN`-style physical-plan statistics.
//!
//! [`crate::ClusterEngine::explain`] runs the zone-map planner — shard
//! admission plus per-page candidate sets inside admitted shards —
//! without executing anything, and returns what *would* be dispatched.
//! This is the planner side of the reports the journal extension
//! motivates: for selective queries the interesting number is not the
//! PIM time but how many pages the host never has to orchestrate.

/// One shard's slice of a query plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Configured shard index (empty shards never appear).
    pub shard_index: usize,
    /// Records this shard holds.
    pub records: usize,
    /// Pages this shard holds (per partition).
    pub pages: usize,
    /// Pages the page-level planner would activate (0 when the shard is
    /// pruned pre-scatter).
    pub candidate_pages: usize,
    /// Would the shard be dispatched at all? `false` means its zone map
    /// proves the filter matches nothing it holds.
    pub dispatched: bool,
}

/// One dimension-bitmap transfer of a star join: the host reads the
/// filtered key bitmap off the dimension module once, compressed, and
/// broadcasts it to every fact shard in one grant. `raw_bytes` vs
/// `wire_bytes` is the saving the compressed wire format buys over a
/// bit-packed bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTransfer {
    /// Dimension table name.
    pub dimension: String,
    /// Which DNF disjunct of the filter this semijoin belongs to.
    pub disjunct: usize,
    /// Keys the dimension filter selected.
    pub keys_selected: u64,
    /// Size of the dimension's dense key space.
    pub key_space: u64,
    /// Bit-packed bitmap payload, bytes.
    pub raw_bytes: u64,
    /// Bytes actually crossing the channel (header + the smaller of
    /// bit-packed and run-length encodings).
    pub wire_bytes: u64,
    /// Fact shards the single broadcast grant reaches.
    pub broadcast_shards: usize,
}

/// Planner estimate of the host-channel bytes one query moves, by
/// category — the byte diet's itemised bill. Dispatch bytes are exact
/// (descriptor header plus run list, per partition, per dispatched
/// shard; zero under legacy per-page doorbells, which carry no
/// descriptor payload). Mask bytes are the wire-format ceiling of each
/// inter-partition mask transfer (header + bit-packed payload, both
/// channel directions; the RLE encoding can only shrink it further).
/// Result bytes assume one 64-bit accumulator per physical aggregate,
/// read back in read-width chunks — per shard under module-side
/// reduction, per candidate page without it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostBytes {
    /// Batched dispatch descriptor payloads.
    pub dispatch_bytes: u64,
    /// Filter / semijoin mask transfers (read + write/broadcast).
    pub mask_wire_bytes: u64,
    /// Aggregate result partials read back by the host.
    pub result_bytes: u64,
}

impl HostBytes {
    /// Sum over the three categories.
    pub fn total(&self) -> u64 {
        self.dispatch_bytes + self.mask_wire_bytes + self.result_bytes
    }

    /// Accumulate another shard's contribution.
    pub fn absorb(&mut self, other: &HostBytes) {
        self.dispatch_bytes += other.dispatch_bytes;
        self.mask_wire_bytes += other.mask_wire_bytes;
        self.result_bytes += other.result_bytes;
    }
}

/// The full pre-execution plan of one query on a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplain {
    /// Query identifier.
    pub query_id: String,
    /// The resolved filter tree, pretty-printed
    /// (e.g. `(d_year = 1993 AND (lo_discount BETWEEN 1 AND 3 OR …))`).
    pub filter: String,
    /// Per-attribute pruning intervals: the interval *union* across DNF
    /// branches the zone maps are tested against
    /// (`(attribute name, [lo, hi] list)`).
    pub filter_bounds: Vec<(String, Vec<(u64, u64)>)>,
    /// Per-shard plans, in shard order (active shards only).
    pub shards: Vec<ShardPlan>,
    /// Dimension-bitmap transfers of a star join (empty on the
    /// pre-joined storage model, which never joins).
    pub join_transfers: Vec<JoinTransfer>,
    /// Estimated host-channel bytes, by category, under the engine's
    /// transfer policy at plan time.
    pub host_bytes: HostBytes,
}

impl PlanExplain {
    /// Shards the plan dispatches.
    pub fn shards_dispatched(&self) -> usize {
        self.shards.iter().filter(|s| s.dispatched).count()
    }

    /// Candidate pages over the dispatched shards.
    pub fn pages_candidate(&self) -> usize {
        self.shards.iter().map(|s| s.candidate_pages).sum()
    }

    /// Pages across all active shards.
    pub fn pages_total(&self) -> usize {
        self.shards.iter().map(|s| s.pages).sum()
    }

    /// One-line summary, e.g. `Q1.1: 2/8 shards, 3/64 pages`.
    pub fn summary(&self) -> String {
        format!(
            "{}: {}/{} shards, {}/{} pages",
            self.query_id,
            self.shards_dispatched(),
            self.shards.len(),
            self.pages_candidate(),
            self.pages_total(),
        )
    }

    /// Multi-line dump: the resolved filter, the host-byte ledger, its
    /// per-attribute pruning intervals, the join transfers and the
    /// shard/page candidate-vs-pruned counts.
    pub fn detail(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.summary());
        let _ = writeln!(out, "  filter: {}", self.filter);
        let _ = writeln!(
            out,
            "  host bytes: {} dispatch + {} mask + {} result = {} B",
            self.host_bytes.dispatch_bytes,
            self.host_bytes.mask_wire_bytes,
            self.host_bytes.result_bytes,
            self.host_bytes.total(),
        );
        for (attr, intervals) in &self.filter_bounds {
            let _ = writeln!(out, "  bounds: {attr} ∈ {}", render_intervals(intervals));
        }
        for t in &self.join_transfers {
            let _ = writeln!(
                out,
                "  semijoin: {} (disjunct {}): {}/{} keys, {} B raw → {} B wire, \
                 broadcast ×{}",
                t.dimension,
                t.disjunct,
                t.keys_selected,
                t.key_space,
                t.raw_bytes,
                t.wire_bytes,
                t.broadcast_shards,
            );
        }
        for s in &self.shards {
            let _ = writeln!(
                out,
                "  shard {:>2}: {:>8} records, {}/{} pages{}",
                s.shard_index,
                s.records,
                s.candidate_pages,
                s.pages,
                if s.dispatched { "" } else { "  (pruned pre-scatter)" },
            );
        }
        out
    }

    /// Total bytes the join bitmaps put on the channel (reads off the
    /// dimension modules plus one broadcast each).
    pub fn join_wire_bytes(&self) -> u64 {
        self.join_transfers.iter().map(|t| 2 * t.wire_bytes).sum()
    }

    /// What the same transfers would cost bit-packed, uncompressed.
    pub fn join_raw_bytes(&self) -> u64 {
        self.join_transfers.iter().map(|t| 2 * t.raw_bytes).sum()
    }
}

/// Render a sorted `[lo, hi]` interval list as a set-notation union:
/// `{7}`, `[1, 3]`, `[5, ∞)`, joined with `∪` — the `bounds:` rows of
/// [`PlanExplain::detail`].
fn render_intervals(intervals: &[(u64, u64)]) -> String {
    let rendered: Vec<String> = intervals
        .iter()
        .map(|(lo, hi)| {
            if lo == hi {
                format!("{{{lo}}}")
            } else if *hi == u64::MAX {
                format!("[{lo}, ∞)")
            } else {
                format!("[{lo}, {hi}]")
            }
        })
        .collect();
    rendered.join(" ∪ ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> PlanExplain {
        PlanExplain {
            query_id: "q".into(),
            filter: "(x = 1 OR x BETWEEN 5 AND 9)".into(),
            filter_bounds: vec![("x".into(), vec![(1, 1), (5, 9)])],
            shards: vec![
                ShardPlan {
                    shard_index: 0,
                    records: 100,
                    pages: 4,
                    candidate_pages: 2,
                    dispatched: true,
                },
                ShardPlan {
                    shard_index: 2,
                    records: 80,
                    pages: 4,
                    candidate_pages: 0,
                    dispatched: false,
                },
            ],
            join_transfers: vec![JoinTransfer {
                dimension: "date".into(),
                disjunct: 0,
                keys_selected: 365,
                key_space: 2556,
                raw_bytes: 320,
                wire_bytes: 12,
                broadcast_shards: 2,
            }],
            host_bytes: HostBytes { dispatch_bytes: 48, mask_wire_bytes: 24, result_bytes: 256 },
        }
    }

    #[test]
    fn totals_add_up() {
        let p = plan();
        assert_eq!(p.shards_dispatched(), 1);
        assert_eq!(p.pages_candidate(), 2);
        assert_eq!(p.pages_total(), 8);
        assert_eq!(p.summary(), "q: 1/2 shards, 2/8 pages");
    }

    #[test]
    fn detail_renders_filter_and_bounds() {
        let d = plan().detail();
        assert!(d.contains("filter: (x = 1 OR x BETWEEN 5 AND 9)"));
        assert!(d.contains("bounds: x ∈ {1} ∪ [5, 9]"));
        assert!(d.contains("(pruned pre-scatter)"));
        assert!(d.contains("shard  0"));
        assert!(d.contains("semijoin: date (disjunct 0): 365/2556 keys, 320 B raw → 12 B wire"));
        assert!(d.contains("host bytes: 48 dispatch + 24 mask + 256 result = 328 B"));
    }

    #[test]
    fn host_byte_ledger_totals_and_absorbs() {
        let mut a = HostBytes { dispatch_bytes: 10, mask_wire_bytes: 20, result_bytes: 30 };
        assert_eq!(a.total(), 60);
        a.absorb(&HostBytes { dispatch_bytes: 1, mask_wire_bytes: 2, result_bytes: 3 });
        assert_eq!(a, HostBytes { dispatch_bytes: 11, mask_wire_bytes: 22, result_bytes: 33 });
    }

    #[test]
    fn join_byte_totals_count_read_plus_broadcast() {
        let p = plan();
        assert_eq!(p.join_wire_bytes(), 24);
        assert_eq!(p.join_raw_bytes(), 640);
    }
}
