//! One PIM-resident table of the normalized star schema.
//!
//! A [`StarTable`] owns its relation, its single-partition
//! [`RecordLayout`] (normalized records never split across crossbars —
//! the two-xb fact/dimension split *is* the normalization now), its own
//! [`PimModule`], and the loaded image. It exposes exactly the
//! primitives the star cluster composes: plan pages against the zone
//! maps, run a mask program, read the mask back, fetch stored record
//! bits, and apply UPDATEs through the PIM multiplexer.

use bbpim_cluster::ClusterError;
use bbpim_core::filter_exec::{self, mask_read_lines};
use bbpim_core::layout::{RecordLayout, MASK_COL, VALID_COL};
use bbpim_core::loader::{load_relation, LoadedRelation};
use bbpim_core::mutation::{run_mutation, Mutation, MutationReport};
use bbpim_core::planner::{plan_pages, PageSet};
use bbpim_db::plan::{FilterBounds, ResolvedAtom};
use bbpim_db::zonemap::ZoneMap;
use bbpim_db::Relation;
use bbpim_sim::compiler::ColRange;
use bbpim_sim::module::PimModule;
use bbpim_sim::timeline::RunLog;
use bbpim_sim::SimConfig;

/// A normalized table resident on its own PIM module.
pub struct StarTable {
    relation: Relation,
    layout: RecordLayout,
    loaded: LoadedRelation,
    module: PimModule,
}

impl StarTable {
    /// Load `relation` into a fresh module, leaving `cold` attributes
    /// (plus the engine's always-excluded `*_phone` columns)
    /// host-resident.
    ///
    /// # Errors
    ///
    /// Layout or load failures (records wider than a crossbar…).
    pub fn new(cfg: SimConfig, relation: Relation, cold: &[String]) -> Result<Self, ClusterError> {
        let layout = RecordLayout::build_custom(relation.schema(), &cfg, 1, |_| 0, cold)?;
        let mut module = PimModule::new(cfg);
        let loaded = load_relation(&mut module, &relation, &layout)?;
        Ok(StarTable { relation, layout, loaded, module })
    }

    /// The catalog copy of the relation (patched by UPDATEs).
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The record layout.
    pub fn layout(&self) -> &RecordLayout {
        &self.layout
    }

    /// The loaded image.
    pub fn loaded(&self) -> &LoadedRelation {
        &self.loaded
    }

    /// The module (inspection, line accounting).
    pub fn module(&self) -> &PimModule {
        &self.module
    }

    /// Set the host-transfer policy (compressed masks, batched
    /// dispatch, module-side reduction) on this table's module.
    pub fn set_xfer_policy(&mut self, policy: bbpim_sim::XferPolicy) {
        self.module.set_policy(policy);
    }

    /// Table-level zone map (widened by UPDATEs).
    pub fn zone_map(&self) -> ZoneMap {
        self.loaded.zone_map()
    }

    /// Pages holding the table.
    pub fn page_count(&self) -> usize {
        self.loaded.page_count()
    }

    /// Resolve an attribute to its column range, erroring on cold
    /// (host-resident) attributes.
    ///
    /// # Errors
    ///
    /// `Unsupported` for excluded attributes, `Layout` for unknown
    /// names.
    pub fn col_range(&self, attr: &str) -> Result<ColRange, ClusterError> {
        Ok(self.layout.placement(attr)?.range)
    }

    /// Candidate pages of a resolved conjunction (zone-map pruned), or
    /// every page when `prune` is off.
    pub fn plan_conjunction(&self, atoms: &[ResolvedAtom], prune: bool) -> PageSet {
        if prune {
            plan_pages(&FilterBounds::from_dnf(&[atoms.to_vec()]), &self.loaded)
        } else {
            PageSet::all(self.loaded.page_count())
        }
    }

    /// Candidate pages of a resolved DNF (zone-map pruned), or every
    /// page when `prune` is off.
    pub fn plan_dnf(&self, dnf: &[Vec<ResolvedAtom>], prune: bool) -> PageSet {
        if prune {
            plan_pages(&FilterBounds::from_dnf(dnf), &self.loaded)
        } else {
            PageSet::all(self.loaded.page_count())
        }
    }

    /// Run one conjunctive filter on-module (used for dimension
    /// filters): per-page dispatch, then the bulk-bitwise mask program
    /// into `MASK_COL`; returns the per-record mask, charging `log`.
    ///
    /// # Errors
    ///
    /// Compiler or substrate failures.
    pub fn filter_conjunction(
        &mut self,
        atoms: &[(ResolvedAtom, ColRange)],
        pages: &PageSet,
        log: &mut RunLog,
    ) -> Result<Vec<bool>, ClusterError> {
        log.push(pages.dispatch_phase(&self.module.config().host, self.module.policy(), 1));
        if !pages.is_empty() {
            let prog = filter_exec::build_dnf_mask_program_in(
                self.layout.scratch(0),
                &[atoms.to_vec()],
                &[VALID_COL],
                MASK_COL,
            )?;
            log.push(
                self.module
                    .exec_program(&pages.ids(&self.loaded, 0), &prog)
                    .map_err(bbpim_core::error::CoreError::from)?,
            );
        }
        Ok(filter_exec::mask_bits(&self.module, &self.loaded, pages, 0, MASK_COL))
    }

    /// Host-channel lines a mask-column read of `pages` costs.
    pub fn mask_lines(&self, pages: &PageSet) -> u64 {
        mask_read_lines(&self.module, &pages.ids(&self.loaded, 0))
    }

    /// Apply a mutation (API v2): UPDATE through the PIM multiplexer —
    /// full `Pred` filter, multi-column SET — widening zone maps and
    /// patching the catalog copy, or INSERT appending rows behind the
    /// loaded image (fresh pages on demand, zones grown).
    ///
    /// # Errors
    ///
    /// Propagates substrate failures (cold SET attributes included —
    /// host-resident columns cannot be rewritten in PIM).
    pub fn mutate(&mut self, m: &Mutation, prune: bool) -> Result<MutationReport, ClusterError> {
        Ok(run_mutation(
            &mut self.module,
            &self.layout,
            &mut self.loaded,
            &mut self.relation,
            m,
            prune,
        )?)
    }

    /// Split borrow for execution paths that mutate the module while
    /// reading the layout and loaded image.
    pub(crate) fn parts_mut(&mut self) -> (&mut PimModule, &RecordLayout, &LoadedRelation) {
        (&mut self.module, &self.layout, &self.loaded)
    }
}

impl std::fmt::Debug for StarTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StarTable")
            .field("table", &self.relation.schema().name)
            .field("records", &self.relation.len())
            .field("pages", &self.loaded.page_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_db::plan::{Atom, Const};
    use bbpim_db::ssb::star::StarSchema;
    use bbpim_db::ssb::{SsbDb, SsbParams};

    fn date_table() -> StarTable {
        let db = SsbDb::generate(&SsbParams::tiny_for_tests());
        let star = StarSchema::of_db(&db);
        let cold = star.ssb_cold_attrs();
        StarTable::new(SimConfig::small_for_tests(), db.date.clone(), &cold[4]).unwrap()
    }

    #[test]
    fn dimension_filter_yields_key_bitmap() {
        let mut t = date_table();
        let schema = t.relation().schema().clone();
        let atom = Atom::Eq { attr: "d_year".into(), value: Const::from(1993u64) };
        let resolved = atom.resolve(&schema).unwrap();
        let range = t.col_range("d_year").unwrap();
        let pages = t.plan_conjunction(std::slice::from_ref(&resolved), true);
        let mut log = RunLog::new();
        let mask = t.filter_conjunction(&[(resolved, range)], &pages, &mut log).unwrap();
        let year = schema.index_of("d_year").unwrap();
        for (row, got) in mask.iter().enumerate() {
            assert_eq!(*got, t.relation().value(row, year) == 1993, "row {row}");
        }
        assert_eq!(mask.iter().filter(|b| **b).count(), 365);
        assert!(log.total_time_ns() > 0.0);
    }

    #[test]
    fn update_patches_module_and_catalog() {
        let mut t = date_table();
        let m = Mutation::update()
            .filter(bbpim_db::builder::col("d_year").eq(1995u64))
            .set("d_weeknuminyear", 53u64)
            .build_unchecked();
        let rep = t.mutate(&m, true).unwrap();
        assert_eq!(rep.records_updated, 365);
        let schema = t.relation().schema().clone();
        let (year, week) =
            (schema.index_of("d_year").unwrap(), schema.index_of("d_weeknuminyear").unwrap());
        let mut probe = None;
        for row in 0..t.relation().len() {
            if t.relation().value(row, year) == 1995 {
                assert_eq!(t.relation().value(row, week), 53);
                probe = Some(row);
            }
        }
        // stored bits agree with the catalog copy
        let stored = bbpim_core::groupby::host_gb::read_attr_value(
            t.module(),
            t.layout(),
            t.loaded(),
            probe.unwrap(),
            "d_weeknuminyear",
        )
        .unwrap();
        assert_eq!(stored, 53);
    }

    #[test]
    fn cold_attributes_stay_host_side() {
        let t = date_table();
        assert!(t.col_range("d_datekey").is_err(), "dim keys are positional, not stored");
        assert!(t.col_range("d_year").is_ok());
    }
}
