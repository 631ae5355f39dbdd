//! Simulator configuration — the paper's Table I, as code.
//!
//! [`SimConfig`] carries the PIM module parameters (geometry, latencies,
//! energies) and [`HostConfig`] the host-system parameters used by the
//! host memory model. Defaults reproduce Table I of the paper; a
//! sensitivity study deviates by struct update, and every constructor
//! that takes a configuration runs [`SimConfig::validate`] on it.

use crate::error::SimError;

/// Host (CPU-side) system parameters used by [`crate::hostmem`].
///
/// The paper runs queries on 4 threads of a 6-core out-of-order x86 at
/// 3.6 GHz with DDR4-2400 main memory.
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// Number of worker threads executing a query (paper: 4).
    pub threads: usize,
    /// Loaded-latency of one DRAM/PIM line read in nanoseconds.
    pub dram_latency_ns: f64,
    /// Aggregate memory bandwidth to the PIM rank, in GiB/s
    /// (DDR4-2400 ≈ 19.2 GB/s per channel).
    pub dram_bandwidth_gib_s: f64,
    /// Memory-level parallelism: outstanding misses an OoO core sustains
    /// on streaming (prefetchable) access patterns.
    pub mlp: f64,
    /// In-flight misses per thread on scattered, data-dependent reads
    /// (host-gb record fetches): mask-directed addresses defeat the
    /// prefetcher, so this is ≈ 1.
    pub scatter_mlp: f64,
    /// Host CPU time to hash-aggregate one record, in nanoseconds.
    pub host_agg_ns_per_record: f64,
    /// Host-side orchestration cost per touched huge page per query, in
    /// nanoseconds: physical-address resolution, request-descriptor
    /// composition and the uncached doorbell write for one page
    /// controller. The journal extension of the paper identifies this
    /// per-page host work as the dominant cost of selective queries;
    /// zone-map pruning avoids it for pages proven irrelevant.
    ///
    /// With batched dispatch ([`crate::module::XferPolicy`]) this cost
    /// is paid per contiguous page-ID *run* instead of per page: one
    /// descriptor covers a whole run, so dense candidate sets amortise
    /// to a single doorbell while singleton pages degenerate to exactly
    /// the per-page cost.
    pub dispatch_ns_per_page: f64,
    /// Fixed bytes of one batched dispatch descriptor (query id, shard,
    /// program handle, run count).
    pub dispatch_header_bytes: u64,
    /// Bytes per page-ID run entry in a batched dispatch descriptor
    /// (start page + run length).
    pub dispatch_run_bytes: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            threads: 4,
            dram_latency_ns: 80.0,
            dram_bandwidth_gib_s: 19.2,
            mlp: 8.0,
            scatter_mlp: 1.0,
            host_agg_ns_per_record: 6.0,
            dispatch_ns_per_page: 600.0,
            dispatch_header_bytes: 16,
            dispatch_run_bytes: 8,
        }
    }
}

/// Full simulator configuration (the paper's Table I).
///
/// Construct with [`SimConfig::default`] for the paper's parameters and
/// override individual values by struct update.
///
/// ```
/// use bbpim_sim::config::SimConfig;
/// let cfg = SimConfig::default();
/// assert_eq!(cfg.crossbar_rows, 1024);
/// assert_eq!(cfg.crossbars_per_page(), 32);
/// assert_eq!(cfg.records_per_page(), 32 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Rows per crossbar (records per crossbar). Paper: 1024.
    pub crossbar_rows: usize,
    /// Columns per crossbar (bits per record slot). Paper: 512.
    pub crossbar_cols: usize,
    /// Bits delivered by one crossbar read. Paper: 16.
    pub read_width_bits: usize,
    /// Huge page size in bytes. Paper: 2 MiB.
    pub page_bytes: usize,
    /// Total module capacity in bytes. Paper: 32 GiB.
    pub module_capacity_bytes: u64,
    /// PIM chips per module. Paper: 8.
    pub chips: usize,
    /// Bulk-bitwise logic cycle in nanoseconds. Paper: 30 ns.
    pub logic_cycle_ns: f64,
    /// Crossbar read latency in nanoseconds (not listed in Table I; the
    /// table gives only the logic cycle — 10 ns is typical for RRAM reads).
    pub read_latency_ns: f64,
    /// Crossbar write latency in nanoseconds (RRAM SET/RESET).
    pub write_latency_ns: f64,
    /// Crossbar read energy, picojoules per bit. Paper: 0.84 pJ/b.
    pub read_energy_pj_per_bit: f64,
    /// Crossbar write energy, picojoules per bit. Paper: 6.9 pJ/b.
    pub write_energy_pj_per_bit: f64,
    /// Bulk-bitwise logic energy, femtojoules per bit. Paper: 81.6 fJ/b.
    pub logic_energy_fj_per_bit: f64,
    /// Power of a single aggregation circuit, microwatts. Paper: 25.4 µW.
    pub agg_circuit_power_uw: f64,
    /// Power of a single PIM (page) controller, microwatts. Paper: 126 µW.
    pub controller_power_uw: f64,
    /// Bus/issue overhead for one PIM request, nanoseconds.
    pub request_issue_ns: f64,
    /// Page-controller time to fold one aggregation partial into its
    /// running total during module-side result reduction
    /// ([`crate::module::XferPolicy::module_reduce`]), nanoseconds.
    pub combine_ns_per_partial: f64,
    /// Host-side parameters.
    pub host: HostConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            crossbar_rows: 1024,
            crossbar_cols: 512,
            read_width_bits: 16,
            page_bytes: 2 * 1024 * 1024,
            module_capacity_bytes: 32 * 1024 * 1024 * 1024,
            chips: 8,
            logic_cycle_ns: 30.0,
            read_latency_ns: 10.0,
            write_latency_ns: 30.0,
            read_energy_pj_per_bit: 0.84,
            write_energy_pj_per_bit: 6.9,
            logic_energy_fj_per_bit: 81.6,
            agg_circuit_power_uw: 25.4,
            controller_power_uw: 126.0,
            request_issue_ns: 50.0,
            combine_ns_per_partial: 2.0,
            host: HostConfig::default(),
        }
    }
}

impl SimConfig {
    /// Bytes stored by one crossbar (rows × cols / 8).
    pub fn crossbar_bytes(&self) -> usize {
        self.crossbar_rows * self.crossbar_cols / 8
    }

    /// Crossbars composing one huge page.
    ///
    /// With Table I values: 2 MiB / 64 KiB = 32 crossbars, which also
    /// fixes the paper's 32× read amplification and the 32 K records per
    /// sampled page.
    pub fn crossbars_per_page(&self) -> usize {
        self.page_bytes / self.crossbar_bytes()
    }

    /// Bytes of one host cache line: one read-width chunk from each
    /// crossbar of a page (Table I: 32 × 16 bit = 64 B).
    pub fn line_bytes(&self) -> usize {
        self.crossbars_per_page() * self.read_width_bits / 8
    }

    /// Records (crossbar rows) held by one page.
    pub fn records_per_page(&self) -> usize {
        self.crossbars_per_page() * self.crossbar_rows
    }

    /// Total pages the module can hold.
    pub fn module_pages(&self) -> usize {
        (self.module_capacity_bytes / self.page_bytes as u64) as usize
    }

    /// Crossbars of one page that live on a single chip.
    ///
    /// A page is interleaved over all chips so its controller on each
    /// chip drives `crossbars_per_page / chips` crossbars.
    pub fn page_crossbars_per_chip(&self) -> usize {
        self.crossbars_per_page() / self.chips
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the geometry does not
    /// divide evenly (rows not a multiple of 64, page not a multiple of
    /// the crossbar size, crossbars per page not a multiple of chips…),
    /// and when a cost constant would turn simulated time or energy
    /// into `inf` / `NaN`: a rate the model divides by must be finite
    /// and positive, a latency, energy or power finite and non-negative.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.crossbar_rows == 0 || !self.crossbar_rows.is_multiple_of(64) {
            return Err(SimError::InvalidConfig(format!(
                "crossbar_rows must be a positive multiple of 64, got {}",
                self.crossbar_rows
            )));
        }
        if self.crossbar_cols == 0 || !self.crossbar_cols.is_multiple_of(self.read_width_bits) {
            return Err(SimError::InvalidConfig(format!(
                "crossbar_cols ({}) must be a positive multiple of read width ({})",
                self.crossbar_cols, self.read_width_bits
            )));
        }
        if !self.page_bytes.is_multiple_of(self.crossbar_bytes()) {
            return Err(SimError::InvalidConfig(format!(
                "page size ({}) must be a multiple of the crossbar size ({})",
                self.page_bytes,
                self.crossbar_bytes()
            )));
        }
        if self.chips == 0 || !self.crossbars_per_page().is_multiple_of(self.chips) {
            return Err(SimError::InvalidConfig(format!(
                "crossbars per page ({}) must divide evenly over {} chips",
                self.crossbars_per_page(),
                self.chips
            )));
        }
        if self.host.threads == 0 {
            return Err(SimError::InvalidConfig("host.threads must be nonzero".into()));
        }
        let line_bits = self.crossbars_per_page() * self.read_width_bits;
        if line_bits == 0 || !line_bits.is_multiple_of(8) {
            return Err(SimError::InvalidConfig(format!(
                "one cache line gathers one {}-bit chunk from each of the {} crossbars \
                 of a page: {line_bits} bits is not a positive number of whole bytes",
                self.read_width_bits,
                self.crossbars_per_page()
            )));
        }
        // (field, value, may be zero): the model divides by the rates;
        // a cost of zero is legal (it switches the mechanism off).
        let host = &self.host;
        for (name, value, zero_ok) in [
            ("host.dram_bandwidth_gib_s", host.dram_bandwidth_gib_s, false),
            ("host.mlp", host.mlp, false),
            ("host.scatter_mlp", host.scatter_mlp, false),
            ("logic_cycle_ns", self.logic_cycle_ns, true),
            ("read_latency_ns", self.read_latency_ns, true),
            ("write_latency_ns", self.write_latency_ns, true),
            ("read_energy_pj_per_bit", self.read_energy_pj_per_bit, true),
            ("write_energy_pj_per_bit", self.write_energy_pj_per_bit, true),
            ("logic_energy_fj_per_bit", self.logic_energy_fj_per_bit, true),
            ("agg_circuit_power_uw", self.agg_circuit_power_uw, true),
            ("controller_power_uw", self.controller_power_uw, true),
            ("request_issue_ns", self.request_issue_ns, true),
            ("combine_ns_per_partial", self.combine_ns_per_partial, true),
            ("host.dram_latency_ns", host.dram_latency_ns, true),
            ("host.host_agg_ns_per_record", host.host_agg_ns_per_record, true),
            ("host.dispatch_ns_per_page", host.dispatch_ns_per_page, true),
        ] {
            if !value.is_finite() || value < 0.0 || (value == 0.0 && !zero_ok) {
                let wanted = if zero_ok { "non-negative" } else { "positive" };
                return Err(SimError::InvalidConfig(format!(
                    "{name} must be finite and {wanted}, got {value}"
                )));
            }
        }
        Ok(())
    }

    /// A fast geometry for unit tests: 64×256 crossbars, 4 per page, 2
    /// chips. Not representative of Table I — use only in tests.
    pub fn small_for_tests() -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.crossbar_rows = 64;
        cfg.crossbar_cols = 256;
        cfg.page_bytes = cfg.crossbar_bytes() * 4;
        cfg.chips = 2;
        cfg.module_capacity_bytes = (cfg.page_bytes as u64) * 64;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.crossbar_rows, 1024);
        assert_eq!(cfg.crossbar_cols, 512);
        assert_eq!(cfg.read_width_bits, 16);
        assert_eq!(cfg.page_bytes, 2 * 1024 * 1024);
        assert_eq!(cfg.chips, 8);
        assert!((cfg.logic_cycle_ns - 30.0).abs() < 1e-12);
        assert!((cfg.read_energy_pj_per_bit - 0.84).abs() < 1e-12);
        assert!((cfg.write_energy_pj_per_bit - 6.9).abs() < 1e-12);
        assert!((cfg.logic_energy_fj_per_bit - 81.6).abs() < 1e-12);
        assert!((cfg.agg_circuit_power_uw - 25.4).abs() < 1e-12);
        assert!((cfg.controller_power_uw - 126.0).abs() < 1e-12);
    }

    #[test]
    fn derived_geometry_matches_paper() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.crossbar_bytes(), 64 * 1024);
        assert_eq!(cfg.crossbars_per_page(), 32);
        assert_eq!(cfg.records_per_page(), 32 * 1024); // the 32K-record sample page
        assert_eq!(cfg.module_pages(), 16 * 1024);
        assert_eq!(cfg.page_crossbars_per_chip(), 4);
    }

    #[test]
    fn default_config_validates() {
        SimConfig::default().validate().unwrap();
    }

    #[test]
    fn small_test_config_validates() {
        SimConfig::small_for_tests().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_rows() {
        let cfg = SimConfig { crossbar_rows: 100, ..SimConfig::default() };
        assert!(matches!(cfg.validate(), Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn validation_rejects_a_line_of_no_whole_bytes() {
        assert_eq!(SimConfig::default().line_bytes(), 64);
        assert_eq!(SimConfig::small_for_tests().line_bytes(), 8);
        // a page holding no crossbar, and 4 crossbars × 1 bit
        let empty = SimConfig { page_bytes: 0, ..SimConfig::default() };
        let half = SimConfig { read_width_bits: 1, ..SimConfig::small_for_tests() };
        for cfg in [empty, half] {
            assert!(matches!(cfg.validate(), Err(SimError::InvalidConfig(_))), "{cfg:?}");
        }
    }

    #[test]
    fn validation_rejects_constants_that_make_time_infinite_or_nan() {
        type Edit = fn(&mut SimConfig, f64);
        // (field, its setter, may be zero)
        let fields: [(&str, Edit, bool); 16] = [
            ("dram_bandwidth_gib_s", |c, v| c.host.dram_bandwidth_gib_s = v, false),
            ("mlp", |c, v| c.host.mlp = v, false),
            ("scatter_mlp", |c, v| c.host.scatter_mlp = v, false),
            ("logic_cycle_ns", |c, v| c.logic_cycle_ns = v, true),
            ("read_latency_ns", |c, v| c.read_latency_ns = v, true),
            ("write_latency_ns", |c, v| c.write_latency_ns = v, true),
            ("read_energy_pj_per_bit", |c, v| c.read_energy_pj_per_bit = v, true),
            ("write_energy_pj_per_bit", |c, v| c.write_energy_pj_per_bit = v, true),
            ("logic_energy_fj_per_bit", |c, v| c.logic_energy_fj_per_bit = v, true),
            ("agg_circuit_power_uw", |c, v| c.agg_circuit_power_uw = v, true),
            ("controller_power_uw", |c, v| c.controller_power_uw = v, true),
            ("request_issue_ns", |c, v| c.request_issue_ns = v, true),
            ("combine_ns_per_partial", |c, v| c.combine_ns_per_partial = v, true),
            ("dram_latency_ns", |c, v| c.host.dram_latency_ns = v, true),
            ("host_agg_ns_per_record", |c, v| c.host.host_agg_ns_per_record = v, true),
            ("dispatch_ns_per_page", |c, v| c.host.dispatch_ns_per_page = v, true),
        ];
        for (name, edit, zero_ok) in fields {
            for value in [0.0, -1.0, f64::INFINITY, f64::NAN] {
                let mut cfg = SimConfig::small_for_tests();
                edit(&mut cfg, value);
                match cfg.validate() {
                    // the fidelity study switches dispatch off with a zero cost
                    Ok(()) => assert!(zero_ok && value == 0.0, "{name} = {value} must be rejected"),
                    Err(SimError::InvalidConfig(msg)) => {
                        assert!(!(zero_ok && value == 0.0) && msg.contains(name), "{name}: {msg}")
                    }
                    Err(other) => panic!("{name} = {value}: {other:?}"),
                }
            }
        }
    }
}
