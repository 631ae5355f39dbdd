//! Simulator configuration — the paper's Table I, as code.
//!
//! [`SimConfig`] carries the PIM module parameters (geometry, latencies,
//! energies) and [`HostConfig`] the host-system parameters used by the
//! host memory model. Defaults reproduce Table I of the paper; a builder
//! allows deviating for sensitivity studies.

use crate::error::SimError;

/// Host (CPU-side) system parameters used by [`crate::hostmem`].
///
/// The paper runs queries on 4 threads of a 6-core out-of-order x86 at
/// 3.6 GHz with DDR4-2400 main memory.
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// Number of worker threads executing a query (paper: 4).
    pub threads: usize,
    /// Cache line size in bytes (paper: 64).
    pub line_bytes: usize,
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
    /// Host clock in GHz (used for miscellaneous per-record work).
    pub clock_ghz: f64,
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
            line_bytes: 64,
            dram_latency_ns: 80.0,
            dram_bandwidth_gib_s: 19.2,
            mlp: 8.0,
            scatter_mlp: 1.0,
            host_agg_ns_per_record: 6.0,
            clock_ghz: 3.6,
            dispatch_ns_per_page: 600.0,
            dispatch_header_bytes: 16,
            dispatch_run_bytes: 8,
        }
    }
}

/// Full simulator configuration (the paper's Table I).
///
/// Construct with [`SimConfig::default`] for the paper's parameters, or
/// use [`SimConfig::builder`] to override individual values.
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
    /// Start building a configuration from the Table I defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder { cfg: SimConfig::default() }
    }

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

    /// Number of 16-bit chunks in one crossbar row.
    pub fn chunks_per_row(&self) -> usize {
        self.crossbar_cols / self.read_width_bits
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the geometry does not
    /// divide evenly (rows not a multiple of 64, page not a multiple of
    /// the crossbar size, crossbars per page not a multiple of chips…).
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
        if self.host.line_bytes * 8 != self.crossbars_per_page() * self.read_width_bits {
            return Err(SimError::InvalidConfig(format!(
                "one cache line ({} bits) must gather one {}-bit chunk from each of \
                 the {} crossbars of a page",
                self.host.line_bytes * 8,
                self.read_width_bits,
                self.crossbars_per_page()
            )));
        }
        Ok(())
    }
}

/// Builder for [`SimConfig`] (non-consuming terminal method).
///
/// ```
/// use bbpim_sim::config::SimConfig;
/// let cfg = SimConfig::builder()
///     .logic_cycle_ns(25.0)
///     .threads(2)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.logic_cycle_ns, 25.0);
/// assert_eq!(cfg.host.threads, 2);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Set the bulk-bitwise logic cycle in nanoseconds.
    pub fn logic_cycle_ns(&mut self, ns: f64) -> &mut Self {
        self.cfg.logic_cycle_ns = ns;
        self
    }

    /// Set the crossbar read latency in nanoseconds.
    pub fn read_latency_ns(&mut self, ns: f64) -> &mut Self {
        self.cfg.read_latency_ns = ns;
        self
    }

    /// Set the number of crossbars composing one page (resizes the page
    /// and the cache line accordingly).
    pub fn crossbars_per_page(&mut self, n: usize) -> &mut Self {
        self.cfg.page_bytes = self.cfg.crossbar_bytes() * n;
        self.cfg.host.line_bytes = n * self.cfg.read_width_bits / 8;
        self
    }

    /// Set the number of host worker threads.
    pub fn threads(&mut self, n: usize) -> &mut Self {
        self.cfg.host.threads = n;
        self
    }

    /// Set the number of chips per module.
    pub fn chips(&mut self, n: usize) -> &mut Self {
        self.cfg.chips = n;
        self
    }

    /// Finish, validating the configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`SimConfig::validate`] failures.
    pub fn build(&self) -> Result<SimConfig, SimError> {
        let cfg = self.cfg.clone();
        cfg.validate()?;
        Ok(cfg)
    }
}

impl SimConfig {
    /// Configuration for one module of an `n`-module cluster.
    ///
    /// Geometry, latencies and energies are identical to `self` — every
    /// module of a rank is physically the same part — and only the
    /// capacity is divided, so an `n`-shard cluster holds the same
    /// total data as the single module it is compared against
    /// (iso-capacity scaling). Capacity is rounded down to whole pages
    /// but never below one page.
    ///
    /// Use plain [`Clone`] instead when modeling a cluster of
    /// full-capacity modules (capacity scaling *and* parallelism).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `n` is zero.
    pub fn per_module_of(&self, n: usize) -> Result<SimConfig, SimError> {
        if n == 0 {
            return Err(SimError::InvalidConfig("cluster needs at least one module".into()));
        }
        let mut cfg = self.clone();
        let pages = (self.module_pages() / n).max(1) as u64;
        cfg.module_capacity_bytes = pages * self.page_bytes as u64;
        cfg.validate()?;
        Ok(cfg)
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
        cfg.host.line_bytes = 4 * cfg.read_width_bits / 8;
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
        assert_eq!(cfg.chunks_per_row(), 32);
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
    fn validation_rejects_line_mismatch() {
        let mut cfg = SimConfig::default();
        cfg.host.line_bytes = 32;
        assert!(matches!(cfg.validate(), Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn per_module_divides_capacity_only() {
        let cfg = SimConfig::default();
        let shard = cfg.per_module_of(4).unwrap();
        assert_eq!(shard.module_pages(), cfg.module_pages() / 4);
        assert_eq!(shard.crossbar_rows, cfg.crossbar_rows);
        assert_eq!(shard.page_bytes, cfg.page_bytes);
        assert!((shard.logic_cycle_ns - cfg.logic_cycle_ns).abs() < 1e-12);
        // never below one page, and zero shards is rejected
        let tiny = cfg.per_module_of(usize::MAX).unwrap();
        assert_eq!(tiny.module_pages(), 1);
        assert!(cfg.per_module_of(0).is_err());
    }

    #[test]
    fn builder_roundtrip() {
        let cfg = SimConfig::builder().logic_cycle_ns(40.0).build().unwrap();
        assert!((cfg.logic_cycle_ns - 40.0).abs() < 1e-12);
        // untouched values keep Table I defaults
        assert_eq!(cfg.crossbar_rows, 1024);
    }
}
