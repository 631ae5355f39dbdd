//! One relation resident on its own PIM module.
//!
//! A [`PimTable`] owns a [`PimModule`], the host-side catalog copy of
//! the relation, the [`RecordLayout`] and the loaded image. It is the
//! storage half every engine shares — the pre-joined wide relation of
//! the paper, a fact shard or a dimension of the normalized star — and
//! exposes the primitives they compose: zone-map page planning, the
//! split borrow execution needs, mutations through the PIM multiplexer,
//! and the head and tail every query execution has in common
//! ([`PimTable::begin_query`], [`PimTable::finish_query`]).

use bbpim_db::plan::{FilterBounds, PhysicalPlan, Query, ResolvedAtom};
use bbpim_db::stats::GroupedResult;
use bbpim_db::zonemap::ZoneMap;
use bbpim_db::Relation;
use bbpim_sim::config::SimConfig;
use bbpim_sim::module::PimModule;
use bbpim_sim::timeline::RunLog;

use crate::agg_exec::{aggregate_masked, materialize_exprs};
use crate::error::CoreError;
use crate::groupby::GroupByOutcome;
use crate::layout::{RecordLayout, MASK_COL};
use crate::loader::{load_relation, LoadedRelation};
use crate::modes::EngineMode;
use crate::mutation::{run_mutation, Mutation, MutationReport};
use crate::planner::{plan_pages, PageSet};
use crate::result::{PartialGroups, QueryExecution, QueryReport};

/// A relation loaded into a PIM module of its own.
pub struct PimTable {
    module: PimModule,
    relation: Relation,
    layout: RecordLayout,
    loaded: LoadedRelation,
}

impl PimTable {
    /// Allocate pages on a fresh module and load `relation` under
    /// `layout`.
    ///
    /// # Errors
    ///
    /// Module capacity and loader failures.
    pub fn new(
        cfg: SimConfig,
        relation: Relation,
        layout: RecordLayout,
    ) -> Result<Self, CoreError> {
        let mut module = PimModule::new(cfg);
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

    /// The host-side catalog copy of the relation (patched by
    /// mutations).
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
    /// pages' zone maps widen and the catalog copy is patched, so
    /// pruning stays sound.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures (host-resident SET attributes
    /// included — they cannot be rewritten in PIM).
    pub fn mutate(&mut self, m: &Mutation, prune: bool) -> Result<MutationReport, CoreError> {
        run_mutation(&mut self.module, &self.layout, &mut self.loaded, &mut self.relation, m, prune)
    }

    /// Split borrow for execution paths that drive the module while
    /// reading the layout, the loaded image and the catalog copy.
    pub fn parts_mut(&mut self) -> (&mut PimModule, &RecordLayout, &LoadedRelation, &Relation) {
        (&mut self.module, &self.layout, &self.loaded, &self.relation)
    }

    /// Open one query's phase log: reset the wear counters, charge
    /// `prelude` (work done elsewhere on this query's behalf — a star
    /// join's dimension filters) and the host's dispatch of `pages` —
    /// per-page doorbells, or one run-list descriptor per partition
    /// under batched dispatch.
    pub fn begin_query(&mut self, pages: &PageSet, prelude: Option<&RunLog>) -> RunLog {
        self.module.reset_endurance(&self.loaded.all_pages());
        let mut log = RunLog::new();
        if let Some(prelude) = prelude {
            log.extend(prelude);
        }
        log.push(pages.dispatch_phase(
            &self.module.config().host,
            self.module.policy(),
            self.layout.partitions(),
        ));
        log
    }

    /// Close one query whose filter left `selected` records' mask bits
    /// in partition 0 of `pages`: aggregate, derive the SELECT list and
    /// assemble the report. `grouped` is the GROUP-BY result when the
    /// query has one; without it every physical component is one PIM
    /// aggregation over the whole selection, all sharing the query
    /// mask. Distinct expressions materialise once even when several
    /// components reduce them; COUNT is the filter pass's own popcount
    /// — no extra PIM work.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] for an aggregate over attributes
    /// outside partition 0; substrate failures otherwise.
    #[allow(clippy::too_many_arguments)]
    pub fn finish_query(
        &mut self,
        mode: EngineMode,
        query: &Query,
        plan: &PhysicalPlan,
        pages: &PageSet,
        selected: u64,
        grouped: Option<GroupByOutcome>,
        mut log: RunLog,
    ) -> Result<QueryExecution, CoreError> {
        let (module, layout, loaded) = (&mut self.module, &self.layout, &self.loaded);
        let gb = match grouped {
            Some(gb) => gb,
            None => {
                let mut per_agg = vec![GroupedResult::new(); plan.aggs.len()];
                if selected > 0 {
                    let exprs: Vec<_> = plan.aggs.iter().filter_map(|a| a.expr.as_ref()).collect();
                    let mut inputs =
                        materialize_exprs(module, layout, loaded, pages, &exprs, &mut log)?
                            .into_iter();
                    for (agg, grouped) in plan.aggs.iter().zip(per_agg.iter_mut()) {
                        let value = match &agg.expr {
                            None => selected,
                            Some(_) => {
                                let input = inputs.next().expect("one input per expression");
                                // the query mask lives in partition 0
                                // only; a value stored elsewhere cannot
                                // be reduced under it
                                if input.partition != 0 {
                                    return Err(CoreError::Unsupported(
                                        "aggregating dimension-partition attributes (the query \
                                         mask lives in the fact partition)"
                                            .into(),
                                    ));
                                }
                                aggregate_masked(
                                    module, layout, loaded, pages, mode, &input, MASK_COL,
                                    agg.func, &mut log,
                                )?
                            }
                        };
                        grouped.insert(Vec::new(), value);
                    }
                }
                let flat = usize::from(selected > 0);
                GroupByOutcome { per_agg, k: flat, kmax: flat, sampled: 0 }
            }
        };
        let groups = plan.finalize(&gb.per_agg);
        let partials = plan
            .aggs
            .iter()
            .zip(gb.per_agg)
            .map(|(agg, groups)| PartialGroups { func: agg.func, groups })
            .collect();
        let records = loaded.records();
        let report = QueryReport {
            query_id: query.id.clone(),
            mode,
            host_bus_ns: bbpim_sim::hostbus::log_occupancy_ns(&module.config().host, &log),
            time_ns: log.total_time_ns(),
            energy_pj: log.total_energy_pj(),
            peak_chip_power_w: log.peak_chip_power_w(),
            max_row_cell_writes: module.max_row_cell_writes(&loaded.all_pages()),
            row_cells: module.config().crossbar_cols,
            records,
            pages: loaded.page_count(),
            pages_scanned: pages.len(),
            selected,
            selectivity: if records == 0 { 0.0 } else { selected as f64 / records as f64 },
            total_subgroups: gb.kmax as u64,
            subgroups_in_sample: gb.sampled as u64,
            pim_agg_subgroups: gb.k as u64,
            phases: log,
        };
        Ok(QueryExecution { groups, partials, report })
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
