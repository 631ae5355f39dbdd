//! The end-to-end PIM query engine.
//!
//! The paper's engine is one [`PimTable`] holding the pre-joined
//! relation: [`PimQueryEngine`] is that type. The table owns its mode
//! and its fitted GROUP-BY model, so running a query needs nothing but
//! the table. [`run_query`] executes one logical query exactly as
//! Section IV describes, as one sequence of calls on one
//! [`crate::scan::Scan`]: begin → bulk-bitwise filter → (for GROUP BY)
//! one-page sampling and the Eq. (3) decision → pim-gb / host-gb →
//! finish. Queries without GROUP BY (SSB Q1.x) aggregate the whole
//! selection in PIM directly.

use bbpim_db::plan::Query;

use crate::error::CoreError;
use crate::groupby::calibration::{run_calibration, CalibrationConfig, CalibrationData};
use crate::planner::PageSet;
use crate::result::QueryExecution;
use crate::table::PimTable;

/// A PIM-resident OLAP engine over one (pre-joined) relation: the table
/// itself, built by [`PimTable::new`] or [`PimTable::with_layout`].
pub type PimQueryEngine = PimTable;

impl PimTable {
    /// Plan the pages a query's filter must touch under the current
    /// pruning setting.
    ///
    /// # Errors
    ///
    /// Propagates filter resolution failures.
    pub fn plan(&self, query: &Query) -> Result<PageSet, CoreError> {
        let dnf = query.resolve_filter(self.schema())?;
        Ok(self.plan_dnf(&dnf))
    }

    /// Run the Section IV calibration for this table's configuration and
    /// mode and install the fitted model. Returns the raw measurements
    /// (the data behind Fig. 4).
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn calibrate(&mut self, cal: &CalibrationConfig) -> Result<CalibrationData, CoreError> {
        let (data, model) = run_calibration(self.config(), self.mode, cal)?;
        self.model = Some(model);
        Ok(data)
    }

    /// Execute one query ([`run_query`] on this table).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotCalibrated`] for GROUP BY queries before
    /// [`PimTable::calibrate`]; substrate failures otherwise.
    pub fn run(&mut self, query: &Query) -> Result<QueryExecution, CoreError> {
        run_query(self, query)
    }
}

/// Execute one query on a table holding the pre-joined relation, in the
/// table's mode and with its GROUP-BY model.
///
/// The physical plan comes first: the filter's bound intervals
/// (interval union across OR branches) are tested against the per-page
/// zone maps and only candidate pages are dispatched (every page with
/// the table's pruning off) — pruned pages draw no crossbar ops, no
/// host read lines and no per-page orchestration time, while the answer
/// stays bit-identical to exhaustive execution.
///
/// The filter mask is computed **once** and shared by every aggregate
/// of the SELECT list; extra aggregates are charged their own value
/// reads and reductions, never extra filter passes.
///
/// # Errors
///
/// [`CoreError::NotCalibrated`] for a GROUP BY query on a table without
/// a [fitted](crate::groupby::cost_model::GroupByModel::is_fitted)
/// model; substrate failures otherwise.
pub fn run_query(table: &mut PimTable, query: &Query) -> Result<QueryExecution, CoreError> {
    let plan = query.physical_plan().map_err(CoreError::Db)?;
    let dnf = query.resolve_filter(table.schema())?;
    let mut scan = table.begin(table.plan_dnf(&dnf), None);
    let selected = scan.filter(&dnf)?;
    let grouped = match query.has_group_by() {
        true => Some(scan.group_by(query, &plan)?),
        false => None,
    };
    scan.finish(query, &plan, selected, grouped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groupby::cost_model::GroupByModel;
    use crate::modes::EngineMode;
    use crate::mutation::Mutation;
    use bbpim_db::builder::col;
    use bbpim_db::plan::{AggExpr, AggFunc, Atom, SelectItem};
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_db::{stats, Relation};
    use bbpim_sim::config::SimConfig;
    use bbpim_sim::timeline::PhaseKind;

    fn relation(rows: u64) -> Relation {
        let schema = Schema::new(
            "t",
            vec![
                Attribute::numeric("lo_price", 8),
                Attribute::numeric("lo_disc", 4),
                Attribute::numeric("d_year", 3),
                Attribute::numeric("d_brand", 5),
            ],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..rows {
            rel.push_row(&[(3 * i + 1) % 251, i % 11, i % 7, (i * i) % 30]).unwrap();
        }
        rel
    }

    impl PimQueryEngine {
        /// Run a query and hold its answer against the row-at-a-time
        /// oracle on `rel`, the relation the engine holds (mutations
        /// replayed).
        fn run_checked(
            &mut self,
            rel: &Relation,
            query: &Query,
        ) -> Result<QueryExecution, CoreError> {
            let out = self.run(query)?;
            let oracle = stats::run_oracle(query, rel)?;
            assert_eq!(out.groups, oracle, "engine/oracle mismatch on {}", query.id);
            Ok(out)
        }
    }

    /// A calibrated engine over `relation(1500)`, beside that relation.
    fn engine(mode: EngineMode) -> (PimQueryEngine, Relation) {
        let rel = relation(1500);
        let mut e = PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), mode).unwrap();
        e.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        (e, rel)
    }

    fn q1_like() -> Query {
        Query::single(
            "q1",
            vec![
                Atom::Eq { attr: "d_year".into(), value: 3u64.into() },
                Atom::Between { attr: "lo_disc".into(), lo: 1u64.into(), hi: 3u64.into() },
            ],
            vec![],
            AggFunc::Sum,
            AggExpr::mul("lo_price", "lo_disc"),
        )
    }

    fn q2_like() -> Query {
        Query::single(
            "q2",
            vec![Atom::Gt { attr: "lo_price".into(), value: 60u64.into() }],
            vec!["d_year".into(), "d_brand".into()],
            AggFunc::Sum,
            AggExpr::attr("lo_price"),
        )
    }

    /// Engines built from clones of one relation keep no copy of it:
    /// an UPDATE and an INSERT through one engine change that engine's
    /// image alone. The caller's relation and the other engines'
    /// answers stay what they were, and every engine stays
    /// bit-identical to the oracle on the relation it holds — the
    /// caller's, with the mutations replayed for the engine that took
    /// them.
    #[test]
    fn a_mutation_through_one_engine_leaves_the_others_alone() {
        let wide = relation(1500);
        let pristine = relation(1500);
        let mut engines: Vec<PimQueryEngine> = EngineMode::all()
            .into_iter()
            .map(|mode| {
                let mut e =
                    PimQueryEngine::new(SimConfig::small_for_tests(), wide.clone(), mode).unwrap();
                e.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
                e
            })
            .collect();
        let queries = [q1_like(), q2_like()];
        let before: Vec<Vec<QueryExecution>> = engines[1..]
            .iter_mut()
            .map(|e| queries.iter().map(|q| e.run_checked(&wide, q).unwrap()).collect())
            .collect();

        let schema = wide.schema();
        let update = Mutation::update()
            .filter(col("d_year").eq(3u64))
            .set("lo_price", 250u64)
            .build(schema)
            .unwrap();
        let insert = Mutation::insert()
            .row(vec![200u64, 2, 3, 29])
            .row(vec![77u64, 1, 3, 0])
            .build(schema)
            .unwrap();
        let mut replayed = wide.clone();
        for m in [&update, &insert] {
            assert!(engines[0].mutate(m).unwrap().time_ns > 0.0);
            m.apply_to(&mut replayed).unwrap();
        }

        assert_eq!(wide, pristine, "the caller's relation is untouched");
        assert_eq!(engines[0].records(), wide.len() + 2);
        for (e, before) in engines[1..].iter_mut().zip(&before) {
            assert_eq!(e.records(), wide.len(), "{:?}", e.mode());
            for (q, before) in queries.iter().zip(before) {
                assert_eq!(e.run_checked(&wide, q).unwrap().groups, before.groups, "{}", q.id);
            }
        }
        for q in &queries {
            let moved = engines[0].run_checked(&replayed, q).unwrap();
            assert_ne!(moved.groups, stats::run_oracle(q, &wide).unwrap(), "{}", q.id);
        }
    }

    #[test]
    fn a_configuration_that_fails_validate_is_a_typed_error() {
        use bbpim_sim::SimError;
        let mut unpriced = SimConfig::small_for_tests();
        unpriced.host.dram_bandwidth_gib_s = 0.0;
        // 32 crossbars per page do not divide over 3 chips
        for cfg in [SimConfig { chips: 3, ..SimConfig::default() }, unpriced] {
            for mode in EngineMode::all() {
                let err = PimQueryEngine::new(cfg.clone(), relation(10), mode).unwrap_err();
                assert!(matches!(err, CoreError::Sim(SimError::InvalidConfig(_))), "{err}");
            }
        }
    }

    #[test]
    fn q1_like_matches_oracle_all_modes() {
        for mode in EngineMode::all() {
            let (mut e, rel) = engine(mode);
            let out = e.run_checked(&rel, &q1_like()).unwrap();
            assert_eq!(out.report.pim_agg_subgroups, 1, "{mode:?}");
            assert!(out.report.time_ns > 0.0);
            assert!(out.report.energy_pj > 0.0);
        }
    }

    #[test]
    fn group_by_matches_oracle_all_modes() {
        for mode in EngineMode::all() {
            let (mut e, rel) = engine(mode);
            let out = e.run_checked(&rel, &q2_like()).unwrap();
            assert!(!out.groups.is_empty(), "{mode:?}");
            assert!(out.report.total_subgroups >= out.groups.len() as u64);
        }
    }

    #[test]
    fn multi_aggregate_query_shares_one_filter_pass() {
        // SUM + COUNT + AVG + MAX over one filter: results equal the
        // four single-aggregate runs, while the filter's PIM program
        // runs once.
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let (mut e, rel) = engine(mode);
            let combined = Query::select([
                SelectItem::sum("revenue", AggExpr::mul("lo_price", "lo_disc")),
                SelectItem::count("orders"),
                SelectItem::avg("avg_price", AggExpr::attr("lo_price")),
                SelectItem::max("max_price", AggExpr::attr("lo_price")),
            ])
            .id("combo")
            .filter(col("d_year").eq(3u64).and(col("lo_disc").between(1u64, 3u64)))
            .build(rel.schema())
            .unwrap();
            let out = e.run_checked(&rel, &combined).unwrap();
            let row = out.groups.get(&Vec::new()).unwrap().clone();
            // compare column-wise against dedicated single-aggregate runs
            let singles = [
                (AggFunc::Sum, Some(AggExpr::mul("lo_price", "lo_disc"))),
                (AggFunc::Count, None),
                (AggFunc::Avg, Some(AggExpr::attr("lo_price"))),
                (AggFunc::Max, Some(AggExpr::attr("lo_price"))),
            ];
            for (i, (func, expr)) in singles.into_iter().enumerate() {
                let q = Query {
                    id: format!("single{i}"),
                    filter: combined.filter.clone(),
                    group_by: vec![],
                    select: vec![SelectItem { name: "value".into(), func, expr }],
                };
                let single = e.run_checked(&rel, &q).unwrap();
                assert_eq!(single.groups[&Vec::new()][0], row[i], "{mode:?} column {i} ({func:?})");
            }
            // exactly one filter program before any aggregation: the
            // PimLogic phases are 1 (filter) + ≤1 per materialised
            // expression — never one filter per aggregate.
            let pim_logic =
                out.report.phases.phases().iter().filter(|p| p.kind == PhaseKind::PimLogic).count();
            let dim_filter = usize::from(mode == EngineMode::TwoXb); // dim-side program
            assert!(
                pim_logic <= 1 + dim_filter + 2,
                "{mode:?}: {pim_logic} PimLogic phases (filter must not repeat per aggregate)"
            );
        }
    }

    #[test]
    fn shared_expression_materialises_once_without_group_by() {
        // SUM and MAX over the same computed product: one filter program
        // plus exactly one arithmetic program — never one per aggregate.
        let (mut e, rel) = engine(EngineMode::OneXb);
        let q = Query::select([
            SelectItem::sum("total", AggExpr::mul("lo_price", "lo_disc")),
            SelectItem::max("peak", AggExpr::mul("lo_price", "lo_disc")),
        ])
        .id("shared-expr")
        .filter(col("lo_price").gt(10u64))
        .build(rel.schema())
        .unwrap();
        let out = e.run_checked(&rel, &q).unwrap();
        let pim_logic =
            out.report.phases.phases().iter().filter(|p| p.kind == PhaseKind::PimLogic).count();
        assert_eq!(pim_logic, 2, "filter + one shared materialisation");
    }

    #[test]
    fn disjunctive_filter_end_to_end() {
        let (mut e, rel) = engine(EngineMode::OneXb);
        let q = Query::select([
            SelectItem::sum("total", AggExpr::attr("lo_price")),
            SelectItem::count("n"),
        ])
        .id("or-query")
        .filter(
            col("d_year")
                .eq(1u64)
                .and(col("lo_disc").lt(3u64))
                .or(col("d_year").eq(5u64).and(col("lo_disc").gt(7u64))),
        )
        .build(rel.schema())
        .unwrap();
        let out = e.run_checked(&rel, &q).unwrap();
        assert!(!out.groups.is_empty());
        assert!(out.report.selected > 0);
    }

    #[test]
    fn group_by_requires_calibration() {
        let mut e =
            PimQueryEngine::new(SimConfig::small_for_tests(), relation(500), EngineMode::OneXb)
                .unwrap();
        assert!(matches!(e.run(&q2_like()), Err(CoreError::NotCalibrated)));
        // Q1-style works uncalibrated
        assert!(e.run(&q1_like()).is_ok());
    }

    #[test]
    fn a_model_without_fits_is_no_model() {
        let mut e =
            PimQueryEngine::new(SimConfig::small_for_tests(), relation(500), EngineMode::OneXb)
                .unwrap();
        e.set_model(GroupByModel::default());
        assert!(matches!(e.run(&q2_like()), Err(CoreError::NotCalibrated)));
        // one empty table is enough to make Eq. (3) unevaluable
        e.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        let fitted = e.model().unwrap().clone();
        e.set_model(GroupByModel { pim: Default::default(), ..fitted.clone() });
        assert!(matches!(e.run(&q2_like()), Err(CoreError::NotCalibrated)));
        e.set_model(GroupByModel { host: Default::default(), ..fitted });
        assert!(matches!(e.run(&q2_like()), Err(CoreError::NotCalibrated)));
    }

    #[test]
    fn empty_selection_returns_empty_groups() {
        let (mut e, _) = engine(EngineMode::OneXb);
        let mut q = q1_like();
        q.filter = bbpim_db::plan::Pred::all(vec![Atom::Gt {
            attr: "lo_price".into(),
            value: 254u64.into(),
        }]);
        let out = e.run(&q).unwrap();
        assert!(out.groups.is_empty());
        assert_eq!(out.report.selected, 0);
    }

    #[test]
    fn report_counts_are_consistent() {
        let (mut e, _) = engine(EngineMode::OneXb);
        let out = e.run(&q2_like()).unwrap();
        let r = &out.report;
        assert_eq!(r.records, 1500);
        assert_eq!(r.pages, e.page_count());
        assert!(r.selectivity > 0.0 && r.selectivity <= 1.0);
        assert_eq!(r.selectivity, r.selected as f64 / r.records as f64);
        assert!(r.max_row_cell_writes > 0);
        assert!(r.peak_chip_power_w > 0.0);
        assert!(r.required_endurance(10.0) > 0.0);
    }

    /// A relation sorted by `lo_price` so page zone maps prune.
    fn sorted_relation(rows: u64) -> Relation {
        let schema = Schema::new(
            "t",
            vec![Attribute::numeric("lo_price", 12), Attribute::numeric("d_year", 3)],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..rows {
            rel.push_row(&[i, i % 7]).unwrap();
        }
        rel
    }

    #[test]
    fn pruned_run_is_bit_identical_and_cheaper() {
        let rel = sorted_relation(1500);
        let q = Query::single(
            "probe",
            vec![Atom::Between { attr: "lo_price".into(), lo: 300u64.into(), hi: 400u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::attr("lo_price"),
        );
        let mut e =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        // Per-page doorbells so the dispatch comparison below measures
        // pruning economics, not descriptor batching (which collapses
        // both contiguous plans to one run each).
        e.set_xfer_policy(bbpim_sim::XferPolicy {
            batch_dispatch: false,
            ..bbpim_sim::XferPolicy::default()
        });
        assert!(e.pruning());
        let pruned = e.run_checked(&rel, &q).unwrap();
        e.set_pruning(false);
        let exhaustive = e.run_checked(&rel, &q).unwrap();
        assert_eq!(pruned.groups, exhaustive.groups);
        // 256 records/page: [300, 400] spans pages 1..=1
        assert_eq!(pruned.report.pages_scanned, 1);
        assert_eq!(exhaustive.report.pages_scanned, exhaustive.report.pages);
        assert!(pruned.report.time_ns < exhaustive.report.time_ns);
        assert!(pruned.report.energy_pj < exhaustive.report.energy_pj);
        assert!(
            pruned.report.phases.time_in(PhaseKind::HostDispatch)
                < exhaustive.report.phases.time_in(PhaseKind::HostDispatch)
        );
    }

    #[test]
    fn or_of_ranges_prunes_the_gap() {
        // two value windows with a wide gap: the planner must dispatch
        // the windows' pages only, and the answer must stay identical to
        // exhaustive execution.
        let rel = sorted_relation(1500);
        let q = Query::select([
            SelectItem::sum("total", AggExpr::attr("lo_price")),
            SelectItem::count("n"),
        ])
        .id("or-ranges")
        .filter(col("lo_price").between(0u64, 80u64).or(col("lo_price").between(1300u64, 1400u64)))
        .build(rel.schema())
        .unwrap();
        let mut e =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        let pruned = e.run_checked(&rel, &q).unwrap();
        // 256 records/page: window one is page 0, window two page 5
        assert_eq!(pruned.report.pages_scanned, 2);
        e.set_pruning(false);
        let exhaustive = e.run_checked(&rel, &q).unwrap();
        assert_eq!(pruned.groups, exhaustive.groups);
        assert!(pruned.report.energy_pj < exhaustive.report.energy_pj);
    }

    #[test]
    fn unsatisfiable_filter_dispatches_nothing() {
        let rel = sorted_relation(600);
        let q = Query::single(
            "never",
            vec![Atom::Lt { attr: "lo_price".into(), value: 0u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::attr("lo_price"),
        );
        let mut e =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        let out = e.run_checked(&rel, &q).unwrap();
        assert_eq!(out.report.pages_scanned, 0);
        assert_eq!(out.report.selected, 0);
        assert!(out.groups.is_empty());
        assert_eq!(out.report.energy_pj, 0.0);
    }

    #[test]
    fn update_widens_zones_so_pruning_stays_sound() {
        let mut rel = sorted_relation(1500);
        // probe for a value that exists only after the update
        let q = Query::single(
            "post",
            vec![Atom::Eq { attr: "lo_price".into(), value: 4000u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::attr("d_year"),
        );
        let mut e =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        assert_eq!(e.run_checked(&rel, &q).unwrap().report.pages_scanned, 0);
        // move the d_year=3 records to lo_price=4000 (they live on many pages)
        let m = Mutation::update()
            .filter(col("d_year").eq(3u64))
            .set("lo_price", 4000u64)
            .build_unchecked();
        let rep = e.mutate(&m).unwrap();
        assert!(rep.records_updated > 0);
        m.apply_to(&mut rel).unwrap();
        // the probe must now find them: zone maps widened to cover 4000
        let out = e.run_checked(&rel, &q).unwrap();
        assert_eq!(out.report.selected, rep.records_updated);
        assert!(out.report.pages_scanned > 0);
    }

    #[test]
    fn pruned_group_by_matches_exhaustive() {
        let rel = sorted_relation(1500);
        let q = Query::single(
            "gb",
            vec![Atom::Lt { attr: "lo_price".into(), value: 500u64.into() }],
            vec!["d_year".into()],
            AggFunc::Sum,
            AggExpr::attr("lo_price"),
        );
        let mut e =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        e.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        let pruned = e.run_checked(&rel, &q).unwrap();
        assert!(pruned.report.pages_scanned < pruned.report.pages);
        e.set_pruning(false);
        let exhaustive = e.run_checked(&rel, &q).unwrap();
        assert_eq!(pruned.groups, exhaustive.groups);
    }

    #[test]
    fn filter_on_host_only_attribute_is_rejected() {
        let schema = Schema::new(
            "t",
            vec![Attribute::numeric("lo_v", 8), Attribute::numeric("c_phone", 30)],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        rel.push_row(&[1, 123_456_789]).unwrap();
        let mut e =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        let q = Query::single(
            "t",
            vec![Atom::Eq { attr: "c_phone".into(), value: 123_456_789u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::attr("lo_v"),
        );
        assert!(matches!(e.run(&q), Err(CoreError::Unsupported(_))));
    }

    /// The query mask lives in partition 0 only: a two-xb SUM of a
    /// dimension-partition attribute with no GROUP BY is refused, never
    /// reduced under a mask that did not see the fact-side predicates.
    #[test]
    fn two_xb_sum_of_a_dimension_attribute_is_unsupported() {
        let (mut e, _) = engine(EngineMode::TwoXb);
        let q = Query::single(
            "dim-sum",
            vec![Atom::Gt { attr: "lo_price".into(), value: 60u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::attr("d_brand"),
        );
        let got = e.run(&q);
        let refused =
            matches!(&got, Err(CoreError::Unsupported(m)) if m.contains("dimension-partition"));
        assert!(refused, "{got:?}");
    }

    #[test]
    fn unknown_attribute_is_a_db_error() {
        let (mut e, _) = engine(EngineMode::OneXb);
        let q = Query::single(
            "t",
            vec![Atom::Eq { attr: "nope".into(), value: 1u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::attr("lo_price"),
        );
        assert!(matches!(e.run(&q), Err(CoreError::Db(_))));
    }

    #[test]
    fn empty_select_list_is_a_db_error() {
        let (mut e, _) = engine(EngineMode::OneXb);
        let q = Query {
            id: "t".into(),
            filter: bbpim_db::plan::Pred::always(),
            group_by: vec![],
            select: vec![],
        };
        assert!(matches!(e.run(&q), Err(CoreError::Db(_))));
    }

    #[test]
    fn with_layout_rejects_partition_mismatch() {
        let rel = relation(100);
        let layout = crate::layout::RecordLayout::build(
            rel.schema(),
            &SimConfig::small_for_tests(),
            EngineMode::TwoXb,
            &[],
        )
        .unwrap();
        let r = PimQueryEngine::with_layout(
            SimConfig::small_for_tests(),
            rel,
            EngineMode::OneXb,
            layout,
        );
        assert!(matches!(r, Err(CoreError::Layout(_))));
    }

    #[test]
    fn custom_placement_engine_matches_oracle() {
        // hot dimension key co-located with the fact: pim-gb without
        // transfers, results unchanged
        let rel = relation(1200);
        let cfg = SimConfig::small_for_tests();
        let layout = crate::layout::RecordLayout::build_custom(
            rel.schema(),
            &cfg,
            2,
            |name| {
                if name.starts_with("lo_") || name == "d_brand" {
                    0
                } else {
                    1
                }
            },
            &[],
        )
        .unwrap();
        let mut e =
            PimQueryEngine::with_layout(cfg, rel.clone(), EngineMode::TwoXb, layout).unwrap();
        e.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        let q = Query::single(
            "t",
            vec![Atom::Gt { attr: "lo_price".into(), value: 40u64.into() }],
            vec!["d_brand".into()],
            AggFunc::Sum,
            AggExpr::attr("lo_price"),
        );
        let out = e.run_checked(&rel, &q).unwrap();
        assert!(!out.groups.is_empty());
    }

    #[test]
    fn update_then_query_sees_new_values() {
        let (mut e, mut rel) = engine(EngineMode::OneXb);
        // move every year-3 record to brand 29, then group by brand
        let m = Mutation::update()
            .filter(col("d_year").eq(3u64))
            .set("d_brand", 29u64)
            .build_unchecked();
        let rep = e.mutate(&m).unwrap();
        assert!(rep.records_updated > 0);
        m.apply_to(&mut rel).unwrap();
        let out = e.run_checked(&rel, &q2_like()).unwrap();
        // all year-3 groups now carry brand 29
        for key in out.groups.keys() {
            if key[0] == 3 {
                assert_eq!(key[1], 29);
            }
        }
    }

    #[test]
    fn two_xb_slower_than_one_xb_when_dimensions_filtered() {
        // Q1-style query with a dimension atom: two-xb must pay the mask
        // transfer through the host, one-xb must not. (For GROUP BY
        // queries the modes may legitimately pick different k, so the
        // clean comparison is the fixed-plan query.)
        let (mut e1, rel) = engine(EngineMode::OneXb);
        let (mut e2, _) = engine(EngineMode::TwoXb);
        let t1 = e1.run_checked(&rel, &q1_like()).unwrap().report.time_ns;
        let t2 = e2.run_checked(&rel, &q1_like()).unwrap().report.time_ns;
        assert!(t2 > t1, "two-xb {t2} must pay the transfer over one-xb {t1}");
    }
}
