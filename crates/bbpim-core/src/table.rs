//! One relation resident on its own PIM module.
//!
//! A [`PimTable`] owns a [`PimModule`], the host-side catalog of the
//! relation — shared with every other holder of the same
//! [`Relation`], copied on this table's first mutation — the
//! [`RecordLayout`] and the loaded image. It is the
//! storage half every engine shares — the pre-joined wide relation of
//! the paper, a fact shard or a dimension of the normalized star — and
//! exposes the primitives they compose: zone-map page planning,
//! mutations through the PIM multiplexer, reads of the stored bits
//! ([`crate::record`]), and [`PimTable::begin`], which opens the
//! [`crate::scan::Scan`] every execution path drives.

use bbpim_db::plan::{FilterBounds, ResolvedAtom};
use bbpim_db::zonemap::ZoneMap;
use bbpim_db::Relation;
use bbpim_sim::config::SimConfig;
use bbpim_sim::module::PimModule;

use crate::error::CoreError;
use crate::layout::RecordLayout;
use crate::loader::{load_relation, LoadedRelation};
use crate::mutation::{run_mutation, Mutation, MutationReport};
use crate::planner::{plan_pages, PageSet};

/// A relation loaded into a PIM module of its own.
pub struct PimTable {
    pub(crate) module: PimModule,
    pub(crate) relation: Relation,
    pub(crate) layout: RecordLayout,
    pub(crate) loaded: LoadedRelation,
}

impl PimTable {
    /// Allocate pages on a fresh module and load `relation` under
    /// `layout`.
    ///
    /// # Errors
    ///
    /// A configuration that fails `SimConfig::validate`, module capacity
    /// and loader failures.
    pub fn new(
        cfg: SimConfig,
        relation: Relation,
        layout: RecordLayout,
    ) -> Result<Self, CoreError> {
        let mut module = PimModule::new(cfg)?;
        let loaded = load_relation(&mut module, &relation, &layout)?;
        Ok(PimTable { module, relation, layout, loaded })
    }

    /// The module (inspection, line accounting).
    pub fn module(&self) -> &PimModule {
        &self.module
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        self.module.config()
    }

    /// The host-side catalog of the relation: the shared catalog the
    /// table was built from, copied on the first mutation and patched
    /// by every one.
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

    /// Pages per partition (`M`).
    pub fn page_count(&self) -> usize {
        self.loaded.page_count()
    }

    /// Table-level zone map (merge over the per-page zones, mutation
    /// widening included) — what shard-level pruning consults.
    pub fn zone_map(&self) -> ZoneMap {
        self.loaded.zone_map()
    }

    /// Set the host-channel transfer policy (compressed masks, batched
    /// dispatch, module-side reduction) on this table's module.
    pub fn set_xfer_policy(&mut self, policy: bbpim_sim::XferPolicy) {
        self.module.set_policy(policy);
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

    /// Apply a mutation: UPDATE through the PIM multiplexer
    /// (Algorithm 1) — full `Pred` filter, multi-column SET, WHERE
    /// clause zone-map-planned like a query filter unless `prune` is
    /// off — or INSERT appending rows behind the loaded image. Touched
    /// pages' zone maps widen and the catalog (this table's own from
    /// its first mutation on) is patched, so pruning stays sound.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures (host-resident SET attributes
    /// included — they cannot be rewritten in PIM).
    pub fn mutate(&mut self, m: &Mutation, prune: bool) -> Result<MutationReport, CoreError> {
        run_mutation(self, m, prune)
    }

    /// Read an attribute of one record straight from the stored bits —
    /// the by-name, single-record form of [`PimTable::read`].
    ///
    /// # Errors
    ///
    /// Placement failures; a record past the data.
    pub fn read_attr(&self, record: usize, name: &str) -> Result<u64, CoreError> {
        let mut value = Vec::with_capacity(1);
        self.read(&self.layout.project([name])?, record, &mut value)?;
        Ok(value[0])
    }
}

impl std::fmt::Debug for PimTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PimTable")
            .field("table", &self.relation.schema().name)
            .field("records", &self.loaded.records())
            .field("pages", &self.loaded.page_count())
            .finish()
    }
}
