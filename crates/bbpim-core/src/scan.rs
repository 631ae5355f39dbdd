//! One scan of a [`PimTable`]: the query path as one sequence of calls
//! on one object.
//!
//! [`PimTable::begin`] opens a [`Scan`] over a planned [`PageSet`]; the
//! stages of the paper's Section IV pipeline are its methods, each
//! defined next to the code it drives:
//!
//! ```text
//! begin → filter → ( sample → choose k → pim-gb / host-gb | aggregate ) → finish
//! ```
//!
//! * [`Scan::filter`] / [`Scan::filter_joined`] — the bulk-bitwise
//!   filter ([`crate::filter_exec`]) over the planner's value runs,
//!   leaving the query mask;
//!   [`Scan::move_mask`] moves a mask column over the host channel.
//! * [`Scan::group_by`] — Section IV's hybrid GROUP BY
//!   ([`crate::groupby`]): [`Scan::sample`] one page, decide `k` by
//!   Eq. (3) with the table's fitted model, [`Scan::pim_gb`] for the
//!   `k` largest subgroups, [`Scan::host_gb`] for the tail. A star
//!   join's GROUP BY is [`Scan::host_gb`] alone (`k = 0`), probing the
//!   dimensions its keys name — the one host gather of both storage
//!   models.
//! * [`Scan::materialize`] / [`Scan::aggregate`] — in-crossbar
//!   arithmetic and the reduction through the per-crossbar aggregation
//!   circuit or, on a pimdb table, PIMDB's reduction tree
//!   ([`crate::agg_exec`]).
//! * [`Scan::finish`] — aggregate what is left to aggregate and
//!   assemble the [`QueryExecution`], reported under the table's mode.
//!
//! Every stage runs over the scan's planned pages only and charges its
//! phases to the scan's one log, so a stage takes what it decides on
//! and nothing else: how the table computes — its mode and its GROUP-BY
//! model — it reads from the table it scans. UPDATE's filter pass (Algorithm 1's select bit),
//! a star join's dimension filters and the calibration sweep drive the
//! same bracket and end it with [`Scan::take_log`].

use bbpim_db::plan::{PhysicalPlan, Query};
use bbpim_db::stats::GroupedResult;
use bbpim_sim::isa::Microprogram;
use bbpim_sim::timeline::RunLog;

use crate::error::CoreError;
use crate::groupby::GroupByOutcome;
use crate::layout::MASK_COL;
use crate::planner::PageSet;
use crate::result::{PartialGroups, QueryExecution, QueryReport};
use crate::table::PimTable;

/// An open scan: the table (module, layout, loaded image), the page
/// plan, and the phase log every stage charges.
#[derive(Debug)]
pub struct Scan<'t> {
    pub(crate) table: &'t mut PimTable,
    pub(crate) pages: PageSet,
    pub(crate) log: RunLog,
}

impl PimTable {
    /// Open one scan over `pages`: reset the wear counters — whatever
    /// the scan reports, a query's or a mutation's, is the wear of this
    /// scan alone — then charge `prelude` (work done elsewhere on this
    /// query's behalf — a star join's dimension filters) and the host's
    /// dispatch of the plan, at the module's price
    /// ([`bbpim_sim::module::PimModule::dispatch_phase`]).
    pub fn begin(&mut self, pages: PageSet, prelude: Option<&RunLog>) -> Scan<'_> {
        self.module.reset_endurance(&self.loaded.all_pages());
        let mut log = RunLog::new();
        if let Some(prelude) = prelude {
            log.extend(prelude);
        }
        log.push(self.module.dispatch_phase(
            pages.len(),
            pages.run_count(),
            self.layout.partitions(),
        ));
        Scan { table: self, pages, log }
    }
}

impl Scan<'_> {
    /// The table under the scan (stored bits, layout, schema).
    pub fn table(&self) -> &PimTable {
        self.table
    }

    /// Hand over the phases charged so far and start an empty log —
    /// how a scan that is not a query (a mutation's filter pass, a join
    /// prelude, a calibration point) ends or splits its accounting.
    pub fn take_log(&mut self) -> RunLog {
        std::mem::take(&mut self.log)
    }

    /// Run one microprogram on the planned pages of `partition` and
    /// charge it.
    ///
    /// # Errors
    ///
    /// Propagates program validation failures.
    pub(crate) fn exec(
        &mut self,
        partition: usize,
        program: &Microprogram,
    ) -> Result<(), CoreError> {
        let ids = self.pages.ids(&self.table.loaded, partition);
        self.log.push(self.table.module.exec_program(&ids, program)?);
        Ok(())
    }

    /// Close a query whose filter left `selected` records' mask bits in
    /// partition 0: aggregate, derive the SELECT list and assemble the
    /// report. `grouped` is the GROUP-BY result when the query has one;
    /// without it every physical component is one PIM aggregation over
    /// the whole selection, all sharing the query mask. Distinct
    /// expressions materialise once even when several components reduce
    /// them; COUNT is the filter pass's own popcount — no extra PIM
    /// work.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] for an aggregate over attributes
    /// outside partition 0; substrate failures otherwise.
    pub fn finish(
        mut self,
        query: &Query,
        plan: &PhysicalPlan,
        selected: u64,
        grouped: Option<GroupByOutcome>,
    ) -> Result<QueryExecution, CoreError> {
        let gb = match grouped {
            Some(gb) => gb,
            None => {
                let mut per_agg = vec![GroupedResult::new(); plan.aggs.len()];
                if selected > 0 {
                    let exprs: Vec<_> = plan.aggs.iter().filter_map(|a| a.expr.as_ref()).collect();
                    let mut inputs = self.materialize(&exprs)?.into_iter();
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
                                self.aggregate(&input, MASK_COL, agg.func, false)?.0
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
        let Scan { table: PimTable { module, loaded, mode, .. }, pages, log } = self;
        let records = loaded.records();
        let report = QueryReport {
            query_id: query.id.clone(),
            mode: *mode,
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
