//! Shared-resource contention: a single-server FIFO bus with
//! byte-accounted grants.
//!
//! The cluster layer serialises per-page host dispatch across shards
//! *within* one query; the streaming scheduler (`bbpim-sched`) needs
//! the same constraint *across* concurrently in-flight queries — and
//! not just for dispatch. Every host↔module transfer (mask transfers,
//! result-line reads, host-gb record fetches, update-mask writes)
//! crosses the same off-chip interface, which the journal extension of
//! the paper identifies as the scarce resource once many PIM modules
//! run concurrently. [`SharedBus`] models exactly that — a single
//! server that grants requests in the order they are made, each grant
//! starting no earlier than the previous one ended.
//!
//! There is one grant shape: [`SharedBus::acquire`] takes a service
//! time. Host dispatch and host-side merges are per-descriptor work and
//! pass their duration; a transfer passes the channel occupancy of its
//! bytes at the configured [`HostConfig::dram_bandwidth_gib_s`]
//! ([`transfer_ns`]; zero bytes occupy zero time, always).
//!
//! The distinction matters for latency-bound phases: a scattered
//! host-gb fetch takes far longer end-to-end than its bytes occupy the
//! channel (the host core stalls on DRAM latency while the pipe sits
//! mostly idle), so only the bandwidth component contends. That split
//! is computed by [`phase_occupancy_ns`] from the byte tags
//! [`Phase::host_bytes`] carries.
//!
//! The same abstraction doubles as each shard's PIM pipeline in the
//! scheduler: one module executes one query's PIM phases at a time, so
//! a shard is a `SharedBus` whose jobs are PIM slices instead of
//! transfer slices.
//!
//! Grants are computed eagerly: because a discrete-event simulation
//! requests the bus in nondecreasing event-time order, `max(now,
//! free_at)` is precisely FIFO service. The bus also accumulates its
//! busy time ([`SharedBus::busy_ns`]); the ratios a run reports from it
//! are stated once, in `bbpim_sched::RunRates`.

use crate::config::HostConfig;
use crate::timeline::{Phase, PhaseKind, RunLog};

/// Channel occupancy of moving `bytes` over the host↔PIM interface at
/// `cfg`'s aggregate bandwidth, nanoseconds. This is the pure
/// bandwidth term (GiB/s → B/ns); latency stalls do not occupy the
/// channel and are excluded by design.
pub fn transfer_ns(cfg: &HostConfig, bytes: u64) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    bytes as f64 / (cfg.dram_bandwidth_gib_s * 1.073_741_824)
}

/// The shared-channel occupancy of one logged phase, nanoseconds:
///
/// * host dispatch — its full duration (descriptor composition and
///   doorbell writes hold the channel);
/// * byte-tagged transfers ([`PhaseKind::HostRead`] /
///   [`PhaseKind::HostWrite`]) — the bandwidth term of their bytes;
/// * PIM and host-compute phases — zero (they do not touch the
///   channel).
///
/// The occupancy never exceeds the phase's own duration: transfer
/// phase times are `max(bandwidth, latency)` models of the same byte
/// count.
pub fn phase_occupancy_ns(cfg: &HostConfig, phase: &Phase) -> f64 {
    match phase.kind {
        PhaseKind::HostDispatch => phase.time_ns,
        PhaseKind::HostRead | PhaseKind::HostWrite => {
            transfer_ns(cfg, phase.host_bytes).min(phase.time_ns)
        }
        _ => 0.0,
    }
}

/// Total shared-channel occupancy of a phase log, nanoseconds: what a
/// contended host must serialise for this execution (dispatch plus the
/// bandwidth term of every tagged transfer). Everything else — PIM
/// logic, host compute, latency stalls — overlaps across modules.
pub fn log_occupancy_ns(cfg: &HostConfig, log: &RunLog) -> f64 {
    log.phases().iter().map(|p| phase_occupancy_ns(cfg, p)).sum()
}

/// One admitted slot on a [`SharedBus`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusGrant {
    /// When service starts (≥ the request time).
    pub start_ns: f64,
    /// When service ends (`start_ns` + requested duration).
    pub end_ns: f64,
}

/// A single-server FIFO resource: requests are served one at a time in
/// request order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SharedBus {
    free_at_ns: f64,
    busy_ns: f64,
}

impl SharedBus {
    /// An idle bus at time zero.
    pub fn new() -> Self {
        SharedBus::default()
    }

    /// Request `duration_ns` of exclusive bus time at simulated time
    /// `now_ns`. Returns the granted service window; the bus is busy
    /// until `end_ns`.
    ///
    /// Callers must request in nondecreasing `now_ns` order (as any
    /// event-driven simulation naturally does) for the FIFO semantics
    /// to hold; simultaneous requests are served in call order, which
    /// keeps grant timelines deterministic.
    pub fn acquire(&mut self, now_ns: f64, duration_ns: f64) -> BusGrant {
        let start_ns = now_ns.max(self.free_at_ns);
        let end_ns = start_ns + duration_ns;
        self.free_at_ns = end_ns;
        self.busy_ns += duration_ns;
        BusGrant { start_ns, end_ns }
    }

    /// Total time the bus spent serving requests.
    pub fn busy_ns(&self) -> f64 {
        self.busy_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_requests_serialise() {
        let mut bus = SharedBus::new();
        let a = bus.acquire(0.0, 10.0);
        let b = bus.acquire(0.0, 5.0);
        assert_eq!(a.start_ns, 0.0);
        assert_eq!(a.end_ns, 10.0);
        assert_eq!(b.start_ns, 10.0, "second request waits for the first");
        assert_eq!(b.end_ns, 15.0);
    }

    #[test]
    fn idle_gaps_are_not_busy_time() {
        let mut bus = SharedBus::new();
        bus.acquire(0.0, 10.0);
        let late = bus.acquire(100.0, 10.0);
        assert_eq!(late.start_ns, 100.0, "an idle bus serves immediately");
        assert_eq!(bus.busy_ns(), 20.0, "the 90 ns idle gap is not busy time");
    }

    #[test]
    fn zero_duration_requests_are_free() {
        let mut bus = SharedBus::new();
        let g = bus.acquire(5.0, 0.0);
        assert_eq!(g.start_ns, g.end_ns);
        assert_eq!(bus.busy_ns(), 0.0);
    }

    #[test]
    fn byte_grant_duration_is_bytes_over_bandwidth() {
        let cfg = HostConfig::default(); // 19.2 GiB/s
        let mut bus = SharedBus::new();
        let bytes = 1 << 20; // 1 MiB
        let g = bus.acquire(0.0, transfer_ns(&cfg, bytes));
        let expected = bytes as f64 / (19.2 * 1.073_741_824);
        assert!((g.end_ns - g.start_ns - expected).abs() < 1e-9);
        assert!((bus.busy_ns() - expected).abs() < 1e-9);
        // halving the bandwidth doubles the occupancy
        let slow = HostConfig { dram_bandwidth_gib_s: 9.6, ..HostConfig::default() };
        assert!((transfer_ns(&slow, bytes) - 2.0 * expected).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_grants_cost_zero_bus_time() {
        let cfg = HostConfig::default();
        let mut bus = SharedBus::new();
        bus.acquire(0.0, 50.0);
        // a zero-byte transfer queues like any request but occupies nothing
        let g = bus.acquire(10.0, transfer_ns(&cfg, 0));
        assert_eq!(g.start_ns, g.end_ns);
        assert_eq!(bus.busy_ns(), 50.0);
        assert_eq!(bus.acquire(50.0, 1.0).start_ns, 50.0, "the queue end is unchanged");
    }

    #[test]
    fn simultaneous_requests_grant_in_call_order() {
        // Three requests at the same instant: the grant timeline is the
        // call order, deterministically, and busy time matches the
        // event timeline exactly (disjoint contiguous windows).
        let cfg = HostConfig::default();
        let requests = [transfer_ns(&cfg, 4096), transfer_ns(&cfg, 8192), 7.0];
        let mut bus = SharedBus::new();
        let [a, b, c] = requests.map(|ns| bus.acquire(0.0, ns));
        assert_eq!(a.start_ns, 0.0);
        assert!((b.start_ns - a.end_ns).abs() < 1e-12, "b starts exactly when a ends");
        assert!((c.start_ns - b.end_ns).abs() < 1e-12, "c starts exactly when b ends");
        // busy time == sum of grant windows == last end (no gaps formed)
        assert!((bus.busy_ns() - requests.iter().sum::<f64>()).abs() < 1e-9);
        assert!((bus.busy_ns() - c.end_ns).abs() < 1e-9);
        // replay: the same request sequence reproduces the same grants
        let mut replay = SharedBus::new();
        assert_eq!(requests.map(|ns| replay.acquire(0.0, ns)), [a, b, c]);
    }

    #[test]
    fn busy_time_matches_event_timeline_with_gaps() {
        let cfg = HostConfig::default();
        let mut bus = SharedBus::new();
        let mut windows = 0.0;
        let mut last_end = 0.0f64;
        for (t, bytes) in [(0.0, 1024u64), (1.0, 2048), (5e6, 512), (6e6, 0)] {
            let g = bus.acquire(t, transfer_ns(&cfg, bytes));
            assert!(g.start_ns >= last_end - 1e-12, "windows never overlap");
            if bytes == 0 {
                assert_eq!(g.start_ns, g.end_ns, "zero bytes occupy nothing");
            }
            last_end = g.end_ns;
            windows += g.end_ns - g.start_ns;
        }
        assert!((bus.busy_ns() - windows).abs() < 1e-9);
    }

    #[test]
    fn phase_occupancy_splits_bandwidth_from_latency() {
        let cfg = HostConfig::default();
        // dispatch: full duration occupies
        let d = Phase::host_dispatch(600.0);
        assert_eq!(phase_occupancy_ns(&cfg, &d), 600.0);
        // compute: never occupies
        let c = Phase::host_compute(1e6);
        assert_eq!(phase_occupancy_ns(&cfg, &c), 0.0);
        // a latency-bound scattered read occupies only its bandwidth term
        let scattered = Phase {
            kind: PhaseKind::HostRead,
            time_ns: 1e6, // mostly DRAM latency stalls
            energy_pj: 0.0,
            chip_power_w: 0.0,
            host_bytes: 64 * 100,
        };
        let occ = phase_occupancy_ns(&cfg, &scattered);
        assert!((occ - transfer_ns(&cfg, 6400)).abs() < 1e-9);
        assert!(occ < scattered.time_ns);
        // occupancy is clamped to the phase duration
        let tight = Phase { time_ns: 1.0, ..scattered };
        assert_eq!(phase_occupancy_ns(&cfg, &tight), 1.0);
    }
}
