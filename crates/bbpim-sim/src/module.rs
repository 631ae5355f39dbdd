//! The PIM module: pages, chips, request dispatch, and the accounting
//! glue that turns micro-ops into time / energy / power phases.
//!
//! A [`PimModule`] is one memory rank of PIM-enabled chips (Fig. 1b).
//! Pages operate independently and concurrently — the host issues one
//! PIM request per page per operation (serialised on the memory bus at
//! [`crate::config::SimConfig::request_issue_ns`] apiece), after which
//! all targeted pages run the program in parallel. Each page is
//! interleaved over all chips, `crossbars_per_page / chips` crossbars
//! per chip, which determines the per-chip power draw.
//!
//! The module is also the host channel's one price list: every
//! host↔module movement is priced by a method here from the sizes its
//! caller passes, and only these methods read the [`XferPolicy`].

use crate::aggcircuit::AggRequest;
use crate::compiler::reduce::{reduce_cost, ReduceCost, ReduceOp};
use crate::compiler::ColRange;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::hostmem;
use crate::isa::{Lowered, Microprogram};
use crate::page::PimPage;
use crate::timeline::{Phase, PhaseKind};

/// Host nanoseconds to fold one partial that crossed the channel.
const HOST_COMBINE_NS_PER_PARTIAL: f64 = 2.0;

/// Identifier of an allocated page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub usize);

/// Independent toggles for the host-channel byte-diet levers. Each can
/// be flipped on its own (like the cluster's `set_contention`) so the
/// bench tables can attribute byte/time savings per lever. All levers
/// are on by default; [`XferPolicy::legacy`] is the pre-diet model.
///
/// Answers are bit-identical under every combination — the levers move
/// bytes and time, never bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XferPolicy {
    /// Send two-crossbar per-disjunct mask transfers in the compressed
    /// wire format ([`crate::maskwire`]) instead of one line per page
    /// row; decompression is a module-local [`PhaseKind::PimUnpack`]
    /// phase.
    pub compress_masks: bool,
    /// Dispatch one descriptor per (query, shard) carrying a page-ID
    /// run-list instead of one doorbell per page.
    pub batch_dispatch: bool,
    /// Fold per-page aggregation partials inside the module
    /// ([`PhaseKind::PimCombine`]) so one finalised partial per
    /// physical aggregate crosses the channel.
    pub module_reduce: bool,
}

impl Default for XferPolicy {
    fn default() -> Self {
        XferPolicy { compress_masks: true, batch_dispatch: true, module_reduce: true }
    }
}

impl XferPolicy {
    /// The pre-diet transfer model: per-row mask lines, per-page
    /// doorbells, per-page result reads.
    pub fn legacy() -> Self {
        XferPolicy { compress_masks: false, batch_dispatch: false, module_reduce: false }
    }
}

/// Which way a one-bit mask column crosses the host channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskPath {
    /// Module → host: the filter-result fetch of a host-side gather.
    ToHost,
    /// Module → host → module: an inter-partition transfer, read as
    /// cache lines and rewritten into the other partition's transfer
    /// chunk.
    ThroughHost,
}

/// Per-crossbar results of one [`PimModule::aggregate`] request; the
/// outer index is the position in the request's page list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggPartials {
    /// Each crossbar's reduced value.
    pub values: Vec<Vec<u64>>,
    /// Each crossbar's selected-row count; empty without a count slot.
    pub counts: Vec<Vec<u64>>,
}

/// A bulk-bitwise PIM module.
///
/// ```
/// use bbpim_sim::{PimModule, SimConfig};
/// use bbpim_sim::isa::Microprogram;
///
/// let mut module = PimModule::new(SimConfig::small_for_tests())?;
/// let pages = module.alloc_pages(2)?;
/// let mut prog = Microprogram::new();
/// prog.gate_not(0, 1);
/// let phase = module.exec_program(&pages, &prog)?;
/// assert!(phase.time_ns > 0.0);
/// # Ok::<(), bbpim_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct PimModule {
    cfg: SimConfig,
    pages: Vec<PimPage>,
    policy: XferPolicy,
    /// `(programs executed, chained op digest)` — see
    /// [`PimModule::program_digest`].
    programs: (u64, u64),
    /// The latest request's program, lowered for the crossbar geometry;
    /// kept so that the next request reuses its buffers.
    lowered: Lowered,
}

impl PimModule {
    /// Create an empty module.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the configuration fails
    /// [`SimConfig::validate`] — a module cannot exist with inconsistent
    /// geometry or a cost constant that turns simulated time into
    /// `inf` / `NaN`.
    pub fn new(cfg: SimConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(PimModule {
            cfg,
            pages: Vec::new(),
            policy: XferPolicy::default(),
            programs: (0, 0xcbf2_9ce4_8422_2325),
            lowered: Lowered::default(),
        })
    }

    /// The configuration this module was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Set the host-channel transfer policy (A/B attribution of the
    /// byte-diet levers).
    pub fn set_policy(&mut self, policy: XferPolicy) {
        self.policy = policy;
    }

    /// How many microprograms this module has executed and the chained
    /// [`Microprogram::digest`] of their op sequences, in execution
    /// order — the program-level pin a refactor of the compilers above
    /// is checked against.
    pub fn program_digest(&self) -> (u64, u64) {
        self.programs
    }

    /// Allocate `n` zeroed pages.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfCapacity`] when the module is full.
    pub fn alloc_pages(&mut self, n: usize) -> Result<Vec<PageId>, SimError> {
        let available = self.cfg.module_pages() - self.pages.len();
        if n > available {
            return Err(SimError::OutOfCapacity { requested: n, available });
        }
        let start = self.pages.len();
        for _ in 0..n {
            self.pages.push(PimPage::new(&self.cfg));
        }
        Ok((start..start + n).map(PageId).collect())
    }

    /// Borrow a page.
    ///
    /// # Panics
    ///
    /// Panics on an unallocated id (ids come from
    /// [`PimModule::alloc_pages`], so this indicates a caller bug).
    pub fn page(&self, id: PageId) -> &PimPage {
        &self.pages[id.0]
    }

    /// Mutably borrow a page.
    ///
    /// # Panics
    ///
    /// Panics on an unallocated id.
    pub fn page_mut(&mut self, id: PageId) -> &mut PimPage {
        &mut self.pages[id.0]
    }

    /// Fallible page lookup.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchPage`] for an unallocated id.
    pub fn try_page(&self, id: PageId) -> Result<&PimPage, SimError> {
        self.pages.get(id.0).ok_or(SimError::NoSuchPage(id.0))
    }

    // ------------------------------------------------------------------
    // PIM operations
    // ------------------------------------------------------------------

    /// Execute a microprogram on every crossbar of the given pages.
    ///
    /// The program is validated and lowered once for the module's
    /// crossbar geometry, into buffers the module reuses across
    /// requests, and every page runs the lowered list (see
    /// [`crate::isa`]'s module docs); cycles, cells written, wear and
    /// the program digest count the original ops.
    ///
    /// Time: one bus issue per page plus the program length (pages run in
    /// parallel). Energy: output cells written × logic energy, plus the
    /// per-page controllers. Power: every targeted crossbar switches one
    /// cell per row per cycle.
    ///
    /// # Errors
    ///
    /// Propagates program validation failures and unknown page ids,
    /// both before any crossbar, wear counter or the program digest is
    /// touched.
    pub fn exec_program(
        &mut self,
        pages: &[PageId],
        program: &Microprogram,
    ) -> Result<Phase, SimError> {
        program.lower(self.cfg.crossbar_rows, self.cfg.crossbar_cols, &mut self.lowered)?;
        self.check_pages(pages)?;
        self.programs = (self.programs.0 + 1, program.digest(self.programs.1));
        let mut cells_total = 0u64;
        for id in pages {
            let page = &mut self.pages[id.0];
            let summary = page.run(&self.lowered);
            cells_total += summary.cells_written * page.crossbar_count() as u64;
        }
        let time_ns =
            self.issue_time_ns(pages.len()) + program.cycles() as f64 * self.cfg.logic_cycle_ns;
        let logic_pj = cells_total as f64 * self.cfg.logic_energy_fj_per_bit * 1e-3;
        let controller_pj = self.controller_energy_pj(pages.len(), time_ns);
        Ok(Phase {
            kind: PhaseKind::PimLogic,
            time_ns,
            energy_pj: logic_pj + controller_pj,
            chip_power_w: self.logic_chip_power_w(pages.len()),
            host_bytes: 0,
        })
    }

    /// Aggregate on every crossbar of the given pages — the one PIM
    /// aggregation request. `circuit` picks the backend: the paper's
    /// peripheral aggregation circuit, or (off) the PIMDB baseline,
    /// functionally identical but costed and worn as the in-crossbar
    /// reduction tree of [`crate::compiler::reduce`].
    ///
    /// With a `count_dst` slot the request also leaves each crossbar's
    /// selected-row count there: the circuit's count register rides the
    /// same serial pass (one more write-back); PIMDB has no such
    /// register, so the count costs a second tree over
    /// `log₂(rows)+1`-bit partials.
    ///
    /// # Errors
    ///
    /// Propagates aggregation and count-slot validation failures and
    /// unknown page ids, all before any crossbar is touched.
    pub fn aggregate(
        &mut self,
        pages: &[PageId],
        req: &AggRequest,
        count_dst: Option<ColRange>,
        circuit: bool,
    ) -> Result<(AggPartials, Phase), SimError> {
        let (rows, cols) = (self.cfg.crossbar_rows, self.cfg.crossbar_cols);
        req.validate(rows, cols)?;
        if let Some(slot) = count_dst {
            req.validate_count_slot(slot, cols)?;
        }
        self.check_pages(pages)?;
        let levels = rows.trailing_zeros() as u64;
        let tree = reduce_cost(rows, cols, req.value.width, req.op);
        // PIMDB's second tree, folding the selection bits themselves
        let count_tree = count_dst.filter(|_| !circuit).map(|slot| {
            reduce_cost(rows, cols, (levels as usize + 1).min(slot.width), ReduceOp::Sum)
        });
        let mut partials = AggPartials::default();
        let mut crossbars_total = 0u64;
        for id in pages {
            let page = &mut self.pages[id.0];
            let mut values = Vec::with_capacity(page.crossbar_count());
            let mut counts = Vec::new();
            for xb in page.crossbars_mut() {
                values.push(if circuit {
                    req.apply(xb)?
                } else {
                    // Endurance of the modeled tree: every row takes the
                    // column ops; the fold's copy destinations additionally
                    // take 4 row-ops × cols cells per level.
                    xb.note_all_rows_writes(tree.col_ops);
                    xb.note_row_writes(req.dst_row, 4 * levels * cols as u64);
                    req.fold(xb)
                });
                if let Some(slot) = count_dst {
                    counts.push(req.count_into(xb, slot));
                }
                if let Some(extra) = count_tree {
                    xb.note_all_rows_writes(extra.col_ops);
                }
            }
            crossbars_total += values.len() as u64;
            partials.values.push(values);
            if count_dst.is_some() {
                partials.counts.push(counts);
            }
        }
        let xbs = crossbars_total as f64;
        let issue_ns = self.issue_time_ns(pages.len());
        let phase = if circuit {
            let cost = req.cost(&self.cfg);
            // a count slot costs its write-back
            let (count_ns, count_bits) =
                count_dst.map_or((0.0, 0), |slot| (self.cfg.write_latency_ns, slot.width as u64));
            let time_ns = issue_ns + cost.time_ns + count_ns;
            let per_xb_pj = cost.bits_read as f64 * self.cfg.read_energy_pj_per_bit
                + (cost.bits_written + count_bits) as f64 * self.cfg.write_energy_pj_per_bit
                + self.cfg.agg_circuit_power_uw * cost.time_ns * 1e-3;
            Phase {
                kind: PhaseKind::PimAggCircuit,
                time_ns,
                energy_pj: per_xb_pj * xbs + self.controller_energy_pj(pages.len(), time_ns),
                chip_power_w: self.agg_chip_power_w(pages.len(), req),
                host_bytes: 0,
            }
        } else {
            let tree_pj = |cost: ReduceCost| {
                let bits = cost.col_ops * rows as u64 + cost.row_ops * cols as u64;
                bits as f64 * xbs * self.cfg.logic_energy_fj_per_bit * 1e-3
            };
            let time_ns = issue_ns + tree.cycles as f64 * self.cfg.logic_cycle_ns;
            let mut phase = Phase {
                kind: PhaseKind::PimReduce,
                time_ns,
                energy_pj: tree_pj(tree) + self.controller_energy_pj(pages.len(), time_ns),
                chip_power_w: self.logic_chip_power_w(pages.len()),
                host_bytes: 0,
            };
            if let Some(extra) = count_tree {
                phase.time_ns += extra.cycles as f64 * self.cfg.logic_cycle_ns;
                phase.energy_pj += tree_pj(extra);
            }
            phase
        };
        Ok((partials, phase))
    }

    // ------------------------------------------------------------------
    // The host channel: the only readers of the transfer policy
    // ------------------------------------------------------------------

    /// Phase for the host reading `lines` cache lines from this module.
    /// The phase is byte-tagged (`lines × line_bytes`) so the shared
    /// host channel can account its bus occupancy under contention.
    pub fn host_read_phase(&self, lines: u64) -> Phase {
        self.line_phase(PhaseKind::HostRead, lines, hostmem::read_time_ns)
    }

    /// Phase for the host reading `lines` *scattered* (data-dependent)
    /// cache lines from this module — see
    /// [`hostmem::scattered_read_time_ns`]. Byte-tagged like
    /// [`PimModule::host_read_phase`]; the latency-stall excess over
    /// the bandwidth term does not occupy the shared channel.
    pub fn host_read_scattered_phase(&self, lines: u64) -> Phase {
        self.line_phase(PhaseKind::HostRead, lines, hostmem::scattered_read_time_ns)
    }

    /// Phase for the host writing `lines` cache lines into this module
    /// (byte-tagged, see [`PimModule::host_read_phase`]).
    pub fn host_write_phase(&self, lines: u64) -> Phase {
        self.line_phase(PhaseKind::HostWrite, lines, hostmem::write_time_ns)
    }

    /// Posting a plan of `pages` candidate pages, in `runs` maximal runs
    /// of consecutive page indices, to `partitions` vertical partitions:
    /// per-page doorbells ([`PimModule::doorbell_phase`]), or under
    /// [`XferPolicy::batch_dispatch`] one descriptor per partition whose
    /// run-list costs one doorbell per *run* and carries
    /// [`PimModule::dispatch_bytes`]. An empty plan costs nothing.
    pub fn dispatch_phase(&self, pages: usize, runs: usize, partitions: usize) -> Phase {
        let batched = pages > 0 && self.policy.batch_dispatch;
        let doorbells = self.doorbell_phase(if batched { runs } else { pages }, partitions);
        Phase { host_bytes: self.dispatch_bytes(pages, runs, partitions), ..doorbells }
    }

    /// The descriptor bytes of [`PimModule::dispatch_phase`]'s plan:
    /// `partitions × (header + runs × run_bytes)` when batched, none for
    /// an empty plan or doorbells. Both `EXPLAIN` estimators call it, so
    /// planned equals recorded by construction.
    pub fn dispatch_bytes(&self, pages: usize, runs: usize, partitions: usize) -> u64 {
        if pages == 0 || !self.policy.batch_dispatch {
            return 0;
        }
        let host = &self.cfg.host;
        partitions as u64 * (host.dispatch_header_bytes + runs as u64 * host.dispatch_run_bytes)
    }

    /// One doorbell per page per partition whatever the policy, with no
    /// byte tag — the occupancy is the duration.
    pub fn doorbell_phase(&self, pages: usize, partitions: usize) -> Phase {
        Phase::host_dispatch((pages * partitions) as f64 * self.cfg.host.dispatch_ns_per_page)
    }

    /// The phases of moving a one-bit mask column of `raw` lines (one
    /// per page row) along `path`; `wire` gives its wire encoding's
    /// lines ([`crate::maskwire`]) and is asked only under
    /// [`XferPolicy::compress_masks`].
    ///
    /// Raw, the host reads (and for a transfer rewrites) every line.
    /// When the wire format wins (tiny masks where the header dominates
    /// fall back to raw) only the wire lines are byte-tagged and cross
    /// the channel, and a module-local phase — [`PhaseKind::PimPack`]
    /// before a read-back, [`PhaseKind::PimUnpack`] after a transfer —
    /// covers the same crossbar cell traffic the raw lines would have
    /// driven from the host. The phases together cost exactly what the
    /// raw movement did in time and energy: compression moves work off
    /// the shared channel, it does not change the cell reads/writes the
    /// mask movement requires.
    pub fn mask_phases(&self, raw: u64, wire: impl FnOnce() -> u64, path: MaskPath) -> Vec<Phase> {
        let wire = if self.policy.compress_masks { wire() } else { raw };
        let transfer = path == MaskPath::ThroughHost;
        let legs: &[fn(&Self, u64) -> Phase] = match transfer {
            true => &[Self::host_read_phase, Self::host_write_phase],
            false => &[Self::host_read_phase],
        };
        let mut phases: Vec<Phase> = legs.iter().map(|leg| leg(self, raw.min(wire))).collect();
        if wire < raw {
            // what the raw legs would have cost beyond the wire-sized ones
            let (mut time_ns, mut energy_pj) = (0.0, 0.0);
            for (leg, sent) in legs.iter().zip(&phases) {
                let full = leg(self, raw);
                time_ns = time_ns + full.time_ns - sent.time_ns;
                energy_pj = energy_pj + full.energy_pj - sent.energy_pj;
            }
            let (time_ns, energy_pj) = (time_ns.max(0.0), energy_pj.max(0.0));
            phases.push(Phase {
                kind: if transfer { PhaseKind::PimUnpack } else { PhaseKind::PimPack },
                time_ns,
                energy_pj,
                chip_power_w: hostmem::chip_power_w(&self.cfg, energy_pj, time_ns),
                host_bytes: 0,
            });
        }
        phases
    }

    /// A star join's key bitmap crossing the channel twice: a read off
    /// this (dimension) module and one broadcast write every fact shard
    /// shares. Each leg takes `wire(line_bytes)` lines under
    /// [`XferPolicy::compress_masks`], else the `bytes` of its
    /// bit-packed payload in whole lines, at least one.
    pub fn key_bitmap_phases(&self, bytes: u64, wire: impl FnOnce(u64) -> u64) -> [Phase; 2] {
        let line_bytes = self.cfg.line_bytes() as u64;
        let packed = || bytes.div_ceil(line_bytes.max(1)).max(1);
        let lines = if self.policy.compress_masks { wire(line_bytes) } else { packed() };
        [self.host_read_phase(lines), self.host_write_phase(lines)]
    }

    /// Getting one aggregation request's results off `pages` pages:
    /// `lines` result lines per page holding `partials` partials in all.
    /// Under [`XferPolicy::module_reduce`] the page controllers fold
    /// them ([`PhaseKind::PimCombine`]) and one set of `lines` crosses
    /// the channel; otherwise the host reads `pages × lines`. With
    /// `folds`, the partials the host would fold itself, the host folds
    /// what crossed: one of them, or all.
    pub fn result_phases(
        &self,
        pages: usize,
        lines: u64,
        partials: u64,
        folds: Option<u64>,
    ) -> Vec<Phase> {
        let (mut phases, folds) = if self.policy.module_reduce {
            let read = self.host_read_phase(lines * u64::from(pages > 0));
            (vec![self.combine_phase(pages, partials), read], folds.map(|n| n.min(1)))
        } else {
            (vec![self.host_read_phase(pages as u64 * lines)], folds)
        };
        phases.extend(folds.map(|n| Phase::host_compute(n as f64 * HOST_COMBINE_NS_PER_PARTIAL)));
        phases
    }

    /// Module-side fold of `partials` aggregation partials into one
    /// finalised partial per physical aggregate: the page controllers
    /// combine their crossbars' results locally so only the final slot
    /// is read over the channel.
    fn combine_phase(&self, pages: usize, partials: u64) -> Phase {
        let time_ns = partials as f64 * self.cfg.combine_ns_per_partial;
        let energy_pj = self.controller_energy_pj(pages, time_ns);
        Phase {
            kind: PhaseKind::PimCombine,
            time_ns,
            energy_pj,
            chip_power_w: pages as f64 * self.cfg.controller_power_uw * 1e-6,
            host_bytes: 0,
        }
    }

    /// A byte-tagged host movement of `lines` lines that takes `time`.
    fn line_phase(&self, kind: PhaseKind, lines: u64, time: fn(&SimConfig, u64) -> f64) -> Phase {
        let (cfg, time_ns) = (&self.cfg, time(&self.cfg, lines));
        let energy_pj = match kind {
            PhaseKind::HostWrite => hostmem::write_energy_pj(cfg, lines),
            _ => hostmem::read_energy_pj(cfg, lines),
        };
        let chip_power_w = hostmem::chip_power_w(cfg, energy_pj, time_ns);
        Phase {
            kind,
            time_ns,
            energy_pj,
            chip_power_w,
            host_bytes: lines * cfg.line_bytes() as u64,
        }
    }

    // ------------------------------------------------------------------
    // Endurance
    // ------------------------------------------------------------------

    /// Worst per-row cell-write count over the given pages.
    pub fn max_row_cell_writes(&self, pages: &[PageId]) -> u64 {
        pages.iter().map(|id| self.pages[id.0].max_row_cell_writes()).max().unwrap_or(0)
    }

    /// Reset endurance counters on the given pages.
    pub fn reset_endurance(&mut self, pages: &[PageId]) {
        for id in pages {
            self.pages[id.0].reset_endurance();
        }
    }

    // ------------------------------------------------------------------
    // Internal accounting helpers
    // ------------------------------------------------------------------

    /// Every id names an allocated page.
    fn check_pages(&self, pages: &[PageId]) -> Result<(), SimError> {
        pages.iter().try_for_each(|id| self.try_page(*id).map(drop))
    }

    fn issue_time_ns(&self, pages: usize) -> f64 {
        pages as f64 * self.cfg.request_issue_ns
    }

    fn controller_energy_pj(&self, pages: usize, time_ns: f64) -> f64 {
        // One controller per page per chip; µW × ns = fJ → ×1e-3 pJ.
        pages as f64 * self.cfg.chips as f64 * self.cfg.controller_power_uw * time_ns * 1e-3
    }

    /// Power of one chip while `pages` run bulk-bitwise logic: each
    /// active crossbar writes one cell per row per cycle
    /// (fJ/ns = µW, so 1024 × 81.6 fJ / 30 ns ≈ 2785 µW per crossbar).
    fn logic_chip_power_w(&self, pages: usize) -> f64 {
        let active_xb = pages as f64 * self.cfg.page_crossbars_per_chip() as f64;
        let op_uw = self.cfg.crossbar_rows as f64 * self.cfg.logic_energy_fj_per_bit
            / self.cfg.logic_cycle_ns;
        let controllers_uw = pages as f64 * self.cfg.controller_power_uw;
        (active_xb * op_uw + controllers_uw) * 1e-6
    }

    /// Power of one chip while the aggregation circuits run: per active
    /// crossbar, the serial read stream (pJ/ns = mW) plus the ALU.
    fn agg_chip_power_w(&self, pages: usize, _req: &AggRequest) -> f64 {
        let active_xb = pages as f64 * self.cfg.page_crossbars_per_chip() as f64;
        let read_uw = self.cfg.read_width_bits as f64 * self.cfg.read_energy_pj_per_bit
            / self.cfg.read_latency_ns
            * 1e3;
        let per_xb_uw = read_uw + self.cfg.agg_circuit_power_uw;
        let controllers_uw = pages as f64 * self.cfg.controller_power_uw;
        (active_xb * per_xb_uw + controllers_uw) * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> PimModule {
        PimModule::new(SimConfig::small_for_tests()).unwrap()
    }

    #[test]
    fn alloc_respects_capacity() {
        let mut m = module();
        let total = m.config().module_pages();
        let pages = m.alloc_pages(total).unwrap();
        assert_eq!(pages.len(), total);
        assert!(matches!(m.alloc_pages(1), Err(SimError::OutOfCapacity { .. })));
    }

    #[test]
    fn exec_program_runs_on_all_pages() {
        let mut m = module();
        let pages = m.alloc_pages(2).unwrap();
        for &p in &pages {
            for r in 0..m.page(p).record_capacity() {
                m.page_mut(p).write_records(r, 0, 1, &[1]).unwrap();
            }
        }
        let mut prog = Microprogram::new();
        prog.gate_not(0, 1);
        let phase = m.exec_program(&pages, &prog).unwrap();
        assert_eq!(phase.kind, PhaseKind::PimLogic);
        // time = 2 issues + 2 cycles
        let cfg = m.config();
        let expected = 2.0 * cfg.request_issue_ns + 2.0 * cfg.logic_cycle_ns;
        assert!((phase.time_ns - expected).abs() < 1e-9);
        for &p in &pages {
            for r in 0..m.page(p).record_capacity() {
                assert_eq!(m.page(p).read_record_bits(r, 1, 1).unwrap(), 0);
            }
        }
    }

    #[test]
    fn exec_program_energy_scales_with_pages() {
        let mut m = module();
        let one = m.alloc_pages(1).unwrap();
        let two = m.alloc_pages(2).unwrap();
        let mut prog = Microprogram::new();
        prog.gate_not(0, 1);
        let e1 = m.exec_program(&one, &prog).unwrap().energy_pj;
        let e2 = m.exec_program(&two, &prog).unwrap().energy_pj;
        assert!(e2 > 1.8 * e1, "two pages should spend ~2x the energy");
    }

    #[test]
    fn agg_circuit_produces_per_crossbar_partials() {
        let mut m = module();
        let pages = m.alloc_pages(1).unwrap();
        let p = pages[0];
        // value = record index, mask = all records
        for r in 0..m.page(p).record_capacity() {
            m.page_mut(p).write_records(r, 0, 16, &[r as u64]).unwrap();
            m.page_mut(p).write_records(r, 20, 1, &[1]).unwrap();
        }
        let req = AggRequest {
            op: ReduceOp::Sum,
            value: ColRange::new(0, 16),
            mask_col: 20,
            dst_row: 0,
            dst: ColRange::new(32, 32),
        };
        let (partials, phase) = m.aggregate(&pages, &req, None, true).unwrap();
        assert_eq!(phase.kind, PhaseKind::PimAggCircuit);
        assert!(partials.counts.is_empty());
        assert_eq!(partials.values.len(), 1);
        assert_eq!(partials.values[0].len(), 4);
        let total: u64 = partials.values[0].iter().sum();
        let expected: u64 = (0..m.page(p).record_capacity() as u64).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn counted_aggregation_returns_exact_counts() {
        let mut m = module();
        let pages = m.alloc_pages(1).unwrap();
        let p = pages[0];
        for r in 0..m.page(p).record_capacity() {
            m.page_mut(p).write_records(r, 0, 16, &[(r % 13) as u64]).unwrap();
            m.page_mut(p).write_records(r, 20, 1, &[(r % 4 == 0) as u64]).unwrap();
        }
        let req = AggRequest {
            op: ReduceOp::Sum,
            value: ColRange::new(0, 16),
            mask_col: 20,
            dst_row: 0,
            dst: ColRange::new(32, 32),
        };
        let count_dst = ColRange::new(80, 16);
        let (circuit, phase) = m.aggregate(&pages, &req, Some(count_dst), true).unwrap();
        let expected_count = m.page(p).record_capacity() as u64 / 4;
        assert_eq!(circuit.counts[0].iter().sum::<u64>(), expected_count);
        let expected_sum: u64 =
            (0..m.page(p).record_capacity() as u64).filter(|r| r % 4 == 0).map(|r| r % 13).sum();
        assert_eq!(circuit.values[0].iter().sum::<u64>(), expected_sum);
        assert!(phase.time_ns > 0.0);

        // the pimdb path agrees functionally and costs more
        let pages2 = m.alloc_pages(1).unwrap();
        let p2 = pages2[0];
        for r in 0..m.page(p2).record_capacity() {
            m.page_mut(p2).write_records(r, 0, 16, &[(r % 13) as u64]).unwrap();
            m.page_mut(p2).write_records(r, 20, 1, &[(r % 4 == 0) as u64]).unwrap();
        }
        let (tree, phase2) = m.aggregate(&pages2, &req, Some(count_dst), false).unwrap();
        assert_eq!(tree, circuit);
        assert!(phase2.time_ns > phase.time_ns);
    }

    #[test]
    fn counted_aggregation_rejects_overlapping_slots() {
        let mut m = module();
        let pages = m.alloc_pages(1).unwrap();
        let req = AggRequest {
            op: ReduceOp::Sum,
            value: ColRange::new(0, 16),
            mask_col: 20,
            dst_row: 0,
            dst: ColRange::new(32, 32),
        };
        // overlapping the value slot, past the last column, empty, wider
        // than the 64-bit count register
        let cols = m.config().crossbar_cols;
        for bad in [
            ColRange::new(40, 16),
            ColRange::new(cols - 8, 16),
            ColRange::new(80, 0),
            ColRange::new(100, 70),
        ] {
            for circuit in [true, false] {
                let before = m.page(pages[0]).crossbar(0).bits().clone();
                let got = m.aggregate(&pages, &req, Some(bad), circuit);
                assert!(
                    matches!(got, Err(SimError::InvalidAggregation(_))),
                    "{bad:?} circuit={circuit}: {got:?}"
                );
                // rejected before any crossbar was touched
                assert_eq!(m.page(pages[0]).crossbar(0).bits(), &before);
                assert_eq!(m.max_row_cell_writes(&pages), 0);
            }
        }
    }

    #[test]
    fn unknown_page_is_rejected_before_anything_runs() {
        let mut m = module();
        let good = m.alloc_pages(1).unwrap()[0];
        for r in 0..m.page(good).record_capacity() {
            m.page_mut(good).write_records(r, 0, 16, &[r as u64]).unwrap();
            m.page_mut(good).write_records(r, 20, 1, &[1]).unwrap();
        }
        m.reset_endurance(&[good]);
        let snapshot = |m: &PimModule| {
            let bits: Vec<_> = m.page(good).crossbars().map(|xb| xb.bits().clone()).collect();
            (bits, m.max_row_cell_writes(&[good]), m.program_digest())
        };
        let before = snapshot(&m);
        let mut prog = Microprogram::new();
        prog.gate_not(0, 1);
        let ids = [good, PageId(99)];
        assert!(matches!(m.exec_program(&ids, &prog), Err(SimError::NoSuchPage(99))));
        assert!(snapshot(&m) == before, "exec_program ran on the good page first");
        let req = AggRequest {
            op: ReduceOp::Sum,
            value: ColRange::new(0, 16),
            mask_col: 20,
            dst_row: 0,
            dst: ColRange::new(32, 32),
        };
        for circuit in [true, false] {
            let got = m.aggregate(&ids, &req, Some(ColRange::new(80, 16)), circuit);
            assert!(matches!(got, Err(SimError::NoSuchPage(99))), "circuit={circuit}: {got:?}");
            assert!(snapshot(&m) == before, "aggregate (circuit={circuit}) touched the good page");
        }
    }

    #[test]
    fn bitwise_reduce_same_result_much_slower() {
        let mut m = module();
        let a = m.alloc_pages(1).unwrap();
        let b = m.alloc_pages(1).unwrap();
        for &pg in a.iter().chain(b.iter()) {
            for r in 0..m.page(pg).record_capacity() {
                m.page_mut(pg).write_records(r, 0, 16, &[(r % 50) as u64]).unwrap();
                m.page_mut(pg).write_records(r, 20, 1, &[(r % 3 == 0) as u64]).unwrap();
            }
        }
        let req = AggRequest {
            op: ReduceOp::Sum,
            value: ColRange::new(0, 16),
            mask_col: 20,
            dst_row: 0,
            dst: ColRange::new(32, 32),
        };
        let (p_circ, t_circ) = m.aggregate(&a, &req, None, true).unwrap();
        let (p_red, t_red) = m.aggregate(&b, &req, None, false).unwrap();
        assert_eq!(p_circ, p_red, "both paths must aggregate identically");
        assert!(t_red.time_ns > t_circ.time_ns, "reduction tree must be slower");
        assert!(t_red.energy_pj > t_circ.energy_pj, "and cost more energy");
    }

    #[test]
    fn bitwise_reduce_wears_cells_harder() {
        let mut m = module();
        let a = m.alloc_pages(1).unwrap();
        let b = m.alloc_pages(1).unwrap();
        let req = AggRequest {
            op: ReduceOp::Sum,
            value: ColRange::new(0, 16),
            mask_col: 20,
            dst_row: 0,
            dst: ColRange::new(32, 16),
        };
        m.reset_endurance(&a);
        m.reset_endurance(&b);
        m.aggregate(&a, &req, None, true).unwrap();
        m.aggregate(&b, &req, None, false).unwrap();
        assert!(m.max_row_cell_writes(&b) > 10 * m.max_row_cell_writes(&a));
    }

    #[test]
    fn host_phases_have_energy_and_time() {
        let m = module();
        let rd = m.host_read_phase(1000);
        assert!(rd.time_ns > 0.0 && rd.energy_pj > 0.0);
        let wr = m.host_write_phase(1000);
        assert!(wr.energy_pj > rd.energy_pj);
        assert_eq!(m.host_read_phase(0).time_ns, 0.0);
    }

    /// Test modules under the legacy policy and with one lever on.
    fn levers(on: fn(&mut XferPolicy)) -> [PimModule; 2] {
        let mut policy = XferPolicy::legacy();
        on(&mut policy);
        [XferPolicy::legacy(), policy].map(|policy| {
            let mut m = module();
            m.set_policy(policy);
            m
        })
    }

    #[test]
    fn an_empty_plan_costs_nothing() {
        for m in levers(|p| p.batch_dispatch = true) {
            assert_eq!(m.dispatch_phase(0, 0, 3), Phase::host_dispatch(0.0));
            assert_eq!(m.dispatch_bytes(0, 0, 3), 0);
        }
    }

    #[test]
    fn doorbells_cost_every_page_of_every_partition_and_carry_no_bytes() {
        let [legacy, batched] = levers(|p| p.batch_dispatch = true);
        let per_page = legacy.config().host.dispatch_ns_per_page;
        let (pages, runs, partitions) = (7, 2, 3);
        let doorbells = Phase::host_dispatch(21.0 * per_page);
        assert_eq!(legacy.dispatch_phase(pages, runs, partitions), doorbells);
        assert_eq!(legacy.dispatch_bytes(pages, runs, partitions), 0);
        // the explicit doorbell price ignores the lever
        assert_eq!(batched.doorbell_phase(pages, partitions), doorbells);
        assert_eq!(legacy.doorbell_phase(pages, partitions), doorbells);
    }

    #[test]
    fn batched_dispatch_costs_one_doorbell_per_run_and_carries_its_descriptors() {
        let [_, m] = levers(|p| p.batch_dispatch = true);
        let host = m.config().host.clone();
        let (pages, runs, partitions) = (7, 2, 3);
        let bytes = 3 * (host.dispatch_header_bytes + 2 * host.dispatch_run_bytes);
        let phase = m.dispatch_phase(pages, runs, partitions);
        let doorbells = Phase::host_dispatch(6.0 * host.dispatch_ns_per_page);
        assert_eq!(phase, Phase { host_bytes: bytes, ..doorbells });
        assert_eq!(m.dispatch_bytes(pages, runs, partitions), bytes);
        // all-singleton runs: the doorbell time, plus the descriptors
        let singletons = m.dispatch_phase(pages, pages, partitions);
        assert_eq!(singletons.time_ns, m.doorbell_phase(pages, partitions).time_ns);
        assert!(singletons.host_bytes > 0);
    }

    #[test]
    fn the_module_fold_reads_one_set_of_result_lines() {
        let [legacy, reduce] = levers(|p| p.module_reduce = true);
        let line_bytes = legacy.config().line_bytes() as u64;
        let (pages, chunks, partials) = (5, 3, 40);
        let fold = |n: u64| Phase::host_compute(n as f64 * HOST_COMBINE_NS_PER_PARTIAL);

        let host_side = legacy.result_phases(pages, chunks, partials, Some(20));
        assert_eq!(host_side, [legacy.host_read_phase(15), fold(20)]);
        assert_eq!(host_side[0].host_bytes, 15 * line_bytes);

        let module_side = reduce.result_phases(pages, chunks, partials, Some(20));
        let combine = reduce.combine_phase(pages, partials);
        assert_eq!(combine.kind, PhaseKind::PimCombine);
        assert_eq!(combine.time_ns, 40.0 * reduce.config().combine_ns_per_partial);
        assert_eq!(module_side, [combine, reduce.host_read_phase(3), fold(1)]);

        // no host fold charged, and nothing read off an empty plan
        assert_eq!(legacy.result_phases(pages, 1, 5, None), [legacy.host_read_phase(5)]);
        let empty = reduce.result_phases(0, chunks, 0, Some(0));
        assert_eq!(empty[1], reduce.host_read_phase(0));
        assert_eq!(empty[2], fold(0));
    }

    #[test]
    fn the_key_bitmap_moves_at_its_wire_or_packed_size() {
        let [raw, compressed] = levers(|p| p.compress_masks = true);
        let line_bytes = raw.config().line_bytes() as u64;
        let packed_bytes = 5 * line_bytes + 1;
        let never = |_| -> u64 { unreachable!("the wire size is not asked for") };
        let raw_phases = raw.key_bitmap_phases(packed_bytes, never);
        assert_eq!(raw_phases, [raw.host_read_phase(6), raw.host_write_phase(6)]);
        // at least one line, however small the payload
        assert_eq!(raw.key_bitmap_phases(0, never)[0], raw.host_read_phase(1));
        let wire = compressed.key_bitmap_phases(packed_bytes, |lb| {
            assert_eq!(lb, line_bytes);
            2
        });
        assert_eq!(wire, [compressed.host_read_phase(2), compressed.host_write_phase(2)]);
    }

    #[test]
    fn mask_moves_ask_for_the_wire_size_only_when_compressing() {
        let [raw, compressed] = levers(|p| p.compress_masks = true);
        let never = || -> u64 { unreachable!("the wire size is not asked for") };
        for path in [MaskPath::ToHost, MaskPath::ThroughHost] {
            let phases = raw.mask_phases(64, never, path);
            assert_eq!(phases.len(), 1 + usize::from(path == MaskPath::ThroughHost));
            assert!(phases.iter().all(|p| p.host_bytes == 64 * raw.config().line_bytes() as u64));
            let packed = compressed.mask_phases(64, || 4, path);
            let kind =
                if path == MaskPath::ToHost { PhaseKind::PimPack } else { PhaseKind::PimUnpack };
            assert_eq!(packed.last().map(|p| p.kind), Some(kind));
            // the phases together cost what the raw movement did
            let time = |ps: &[Phase]| ps.iter().map(|p| p.time_ns).sum::<f64>();
            assert!((time(&packed) - time(&phases)).abs() < 1e-9);
            // a wire size that does not win moves raw
            assert_eq!(compressed.mask_phases(64, || 80, path), phases);
        }
    }

    #[test]
    fn logic_power_scales_with_active_pages() {
        let mut m = module();
        let one = m.alloc_pages(1).unwrap();
        let four = m.alloc_pages(4).unwrap();
        let mut prog = Microprogram::new();
        prog.gate_not(0, 1);
        let p1 = m.exec_program(&one, &prog).unwrap().chip_power_w;
        let p4 = m.exec_program(&four, &prog).unwrap().chip_power_w;
        assert!(p4 > 3.5 * p1);
    }

    #[test]
    fn paper_geometry_chip_power_is_plausible() {
        // SF=10-scale: ~1832 pages active → the paper reports < 44 W
        // peak per chip; our logic-phase model must land in that order.
        let m = PimModule::new(SimConfig::default()).unwrap();
        let w = m.logic_chip_power_w(1832);
        assert!(w > 1.0 && w < 60.0, "got {w} W");
    }

    #[test]
    fn try_page_rejects_unknown() {
        let m = module();
        assert!(matches!(m.try_page(PageId(7)), Err(SimError::NoSuchPage(7))));
    }
}
