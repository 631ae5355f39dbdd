//! One relation resident on its own PIM module.
//!
//! A [`PimTable`] owns a [`PimModule`], the loaded image and the
//! [`RecordLayout`]. The image *is* the table: the host keeps only the
//! [`Schema`], the page zone maps and the GROUP-BY [`DomainIndex`].
//!
//! The table also owns how it computes: the [`EngineMode`] it was built
//! for (its partition split, and whether its module reduces through the
//! aggregation circuit), the fitted Eq. (3) [`GroupByModel`] its GROUP
//! BY decides with, and the zone-map pruning switch — as its module owns
//! the transfer policy. Every execution path reads them from the table
//! it scans; nothing passes them along.
//!
//! It is the one engine of every storage model — the paper's pre-joined
//! wide relation ([`crate::PimQueryEngine`] is this type), a fact shard
//! or a dimension of the normalized star — and exposes the primitives
//! they compose: zone-map page planning, mutations through the PIM
//! multiplexer, reads of the stored bits ([`crate::record`]), and
//! [`PimTable::begin`], which opens the [`crate::scan::Scan`] every
//! execution path drives.

use std::sync::Mutex;

use bbpim_db::domain::DomainIndex;
use bbpim_db::plan::{FilterBounds, ResolvedAtom};
use bbpim_db::schema::Schema;
use bbpim_db::zonemap::ZoneMap;
use bbpim_sim::config::SimConfig;
use bbpim_sim::module::PimModule;

use crate::error::CoreError;
use crate::groupby::cost_model::GroupByModel;
use crate::layout::RecordLayout;
use crate::loader::LoadedRelation;
use crate::modes::EngineMode;
use crate::mutation::{run_mutation, Mutation, MutationReport};
use crate::planner::{plan_pages, PageSet};

/// A relation loaded into a PIM module of its own.
pub struct PimTable {
    pub(crate) module: PimModule,
    pub(crate) schema: Schema,
    pub(crate) layout: RecordLayout,
    pub(crate) loaded: LoadedRelation,
    /// Filled on first use by shared readers, hence the lock; a build
    /// stores its prefix only once complete, so poisoning leaves it whole.
    pub(crate) domains: Mutex<DomainIndex>,
    /// The engine mode the table was built for.
    pub(crate) mode: EngineMode,
    /// The fitted GROUP-BY model, once calibrated or installed.
    pub(crate) model: Option<GroupByModel>,
    /// Zone-map page pruning on (the default), or every page planned.
    pub(crate) pruning: bool,
}

impl PimTable {
    /// The module (inspection, line accounting).
    pub fn module(&self) -> &PimModule {
        &self.module
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        self.module.config()
    }

    /// The schema the image was loaded under.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Records the image holds.
    pub fn records(&self) -> usize {
        self.loaded.records()
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

    /// The engine mode the table was built for.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// The fitted GROUP-BY model, if calibrated.
    pub fn model(&self) -> Option<&GroupByModel> {
        self.model.as_ref()
    }

    /// Install a pre-fitted model. The calibration is a pure function of
    /// the hardware configuration and the mode, not of the data, so one
    /// fit serves every table built with both.
    pub fn set_model(&mut self, model: GroupByModel) {
        self.model = Some(model);
    }

    /// The model a GROUP BY decides with.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotCalibrated`] without a
    /// [fitted](GroupByModel::is_fitted) model.
    pub(crate) fn fitted_model(&self) -> Result<&GroupByModel, CoreError> {
        self.model.as_ref().filter(|m| m.is_fitted()).ok_or(CoreError::NotCalibrated)
    }

    /// Is zone-map page pruning on (the default), or does every query
    /// and UPDATE plan every page?
    pub fn pruning(&self) -> bool {
        self.pruning
    }

    /// Switch zone-map page pruning. Answers are bit-identical either
    /// way; only which pages are activated (and therefore time, energy
    /// and endurance) changes.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.pruning = enabled;
    }

    /// Candidate pages of a resolved DNF (zone-map pruned), or every
    /// page with pruning off.
    pub fn plan_dnf(&self, dnf: &[Vec<ResolvedAtom>]) -> PageSet {
        if self.pruning {
            plan_pages(&FilterBounds::from_dnf(dnf), &self.loaded)
        } else {
            PageSet::all(self.loaded.page_count())
        }
    }

    /// The descriptor bytes dispatching `pages` puts on the channel under
    /// this module's transfer policy — what [`PimTable::begin`] charges.
    pub fn dispatch_bytes(&self, pages: &PageSet) -> u64 {
        self.module.dispatch_bytes(pages.len(), pages.run_count(), self.layout.partitions())
    }

    /// Apply a mutation: UPDATE through the PIM multiplexer
    /// (Algorithm 1) — full `Pred` filter, multi-column SET, WHERE
    /// clause planned like a query filter ([`PimTable::plan_dnf`]) —
    /// or INSERT appending rows behind the loaded image. Touched
    /// pages' zone maps widen and the domain index follows, so pruning
    /// and the GROUP-BY enumeration stay sound.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures (host-resident SET attributes
    /// included — they cannot be rewritten in PIM).
    pub fn mutate(&mut self, m: &Mutation) -> Result<MutationReport, CoreError> {
        run_mutation(self, m)
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
            .field("table", &self.schema.name)
            .field("mode", &self.mode)
            .field("records", &self.loaded.records())
            .field("pages", &self.loaded.page_count())
            .finish()
    }
}
