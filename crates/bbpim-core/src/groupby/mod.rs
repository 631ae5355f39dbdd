//! The hybrid GROUP-BY of Section IV, over the full SELECT list.
//!
//! Flow: filter (done by the caller, once per query) → [`sampling`] one
//! page → [`cost_model`] evaluation of Eqs. (1)–(3) with tables fitted
//! by [`calibration`] → the k largest subgroups to [`pim_gb`], the tail
//! to [`host_gb`] → merge. Every physical aggregate of the SELECT list
//! shares the same sample, the same k decision, the same per-key group
//! masks (pim-gb) and the same record-read pass (host-gb) — extra
//! aggregates cost extra reductions / host ALU work, never extra filter
//! or mask passes.
//!
//! Candidate subgroups are ordered: keys seen in the sample (estimated
//! size, descending), then all remaining *potential* keys (the cross
//! product of the constrained per-attribute domains) — so choosing
//! `k = k_MAX` covers subgroups the sample never saw, exactly like the
//! paper's Q3.4, where 4 subgroups go to PIM with 0 seen in the sample.

pub mod calibration;
pub mod cost_model;
pub mod fitting;
pub mod host_gb;
pub mod pim_gb;
pub mod sampling;

use std::collections::HashSet;

use bbpim_db::plan::{PhysicalPlan, Query};
use bbpim_db::stats::GroupedResult;

use crate::agg_exec::{computed_width, reads_per_value};
use crate::error::CoreError;
use crate::layout::RecordLayout;
use crate::scan::Scan;
use cost_model::GbParams;
use pim_gb::PreparedAgg;

/// GROUP-BY execution summary (feeds Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByOutcome {
    /// Aggregated groups, one [`GroupedResult`] per physical aggregate
    /// of the plan (plan order).
    pub per_agg: Vec<GroupedResult>,
    /// Subgroups aggregated in PIM (`k`).
    pub k: usize,
    /// Total potential subgroups (`k_MAX`).
    pub kmax: usize,
    /// Subgroups seen in the sample.
    pub sampled: usize,
}

/// The `n` parameter (aggregation-value reads per crossbar) a query's
/// expression will have, without materialising anything.
///
/// # Errors
///
/// Propagates placement failures.
pub fn plan_n(
    layout: &RecordLayout,
    cfg: &bbpim_sim::config::SimConfig,
    expr: &bbpim_db::plan::AggExpr,
) -> Result<usize, CoreError> {
    use bbpim_db::plan::AggExpr;
    let range = match expr {
        AggExpr::Attr(a) => layout.placement(a)?.range,
        AggExpr::Mul(a, b) | AggExpr::Sub(a, b) => {
            let (pa, pb) = (layout.placement(a)?, layout.placement(b)?);
            let width = computed_width(expr, pa.range.width, pb.range.width);
            bbpim_sim::compiler::ColRange::new(layout.scratch(pa.partition).lo, width)
        }
    };
    Ok(reads_per_value(cfg.read_width_bits, range))
}

impl Scan<'_> {
    /// Execute the hybrid GROUP-BY over the planned pages for every
    /// physical aggregate of `plan`, deciding `k` with the table's
    /// model. The filter must already have produced the mask in
    /// partition 0 of those pages. The table's domain index serves the
    /// potential-subgroup enumeration (`k_MAX`). An empty plan returns
    /// the empty outcome without touching the module — the planner
    /// proved no record matches.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotCalibrated`] when the table has no fitted model;
    /// substrate failures otherwise.
    pub fn group_by(
        &mut self,
        query: &Query,
        plan: &PhysicalPlan,
    ) -> Result<GroupByOutcome, CoreError> {
        // checked before the empty-plan answer, so an uncalibrated GROUP
        // BY fails alike on every plan
        self.table.fitted_model()?;
        if self.pages.is_empty() {
            return Ok(GroupByOutcome {
                per_agg: vec![GroupedResult::new(); plan.aggs.len()],
                k: 0,
                kmax: 0,
                sampled: 0,
            });
        }
        let group_by = || query.group_by.iter().map(String::as_str);
        let keys = self.table.layout.project(group_by())?;

        // 1. Sample one candidate page, estimate subgroup sizes (shared by
        //    every aggregate).
        let estimate = self.sample(&keys)?;

        // 2. Candidate ordering: sampled keys by size, then unseen potential
        //    keys from the domain index.
        let domains = self.table.group_domains(query)?;
        let kmax: usize = domains.iter().fold(1usize, |acc, d| acc.saturating_mul(d.len().max(1)));
        let mut candidates: Vec<Vec<u64>> =
            estimate.groups.iter().map(|(k, _)| k.clone()).collect();
        let sampled_set: HashSet<Vec<u64>> = candidates.iter().cloned().collect();
        for key in cross_product(&domains) {
            if !sampled_set.contains(&key) {
                candidates.push(key);
            }
        }
        // The product counts an empty domain as 1, but enumerates nothing
        // from it: clamp kmax to the candidates actually enumerated.
        let kmax = kmax.min(candidates.len());

        // 3. Decide k (Eq. 3) once for the whole SELECT list: the host-side
        //    cost reads every operand (s covers them all); the PIM-side cost
        //    model is driven by the widest aggregate's read count.
        let (layout, cfg) = (&self.table.layout, self.table.module.config());
        let agg_attrs = plan.aggs.iter().flat_map(|a| a.attrs());
        let s = layout.project(group_by().chain(agg_attrs))?.chunks_per_row();
        let n = plan
            .aggs
            .iter()
            .filter_map(|a| a.expr.as_ref())
            .map(|e| plan_n(layout, cfg, e))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .max()
            .unwrap_or(1);
        // Both gb paths touch only the planned candidate pages, so the cost
        // model's page count `M` is the plan's, not the whole relation's.
        let params = GbParams { m: self.pages.len(), n, s, kmax };
        let k = self.table.fitted_model()?.choose_k(&params, &|k| estimate.r_of_k(k))?;

        // 4. pim-gb for the k largest candidates: materialise every distinct
        //    expression once (stacked into scratch), then one shared group
        //    mask per key feeds all reductions.
        let mut per_agg: Vec<GroupedResult> = vec![GroupedResult::new(); plan.aggs.len()];
        let mut skip: HashSet<Vec<u64>> = HashSet::new();
        if k > 0 {
            let exprs: Vec<&bbpim_db::plan::AggExpr> =
                plan.aggs.iter().filter_map(|a| a.expr.as_ref()).collect();
            let mut inputs = self.materialize(&exprs)?.into_iter();
            let prepared: Vec<PreparedAgg> = plan
                .aggs
                .iter()
                .map(|agg| match &agg.expr {
                    None => PreparedAgg::Count,
                    Some(_) => PreparedAgg::Reduce {
                        func: agg.func,
                        input: inputs.next().expect("one input per expression"),
                    },
                })
                .collect();
            // Scratch past every stacked value, in the mask partition
            // (the first reduced value's; partition 0 for a pure COUNT).
            let mask_scratch = prepared
                .iter()
                .find_map(|a| match a {
                    PreparedAgg::Reduce { input, .. } => Some(input.scratch_left),
                    PreparedAgg::Count => None,
                })
                .unwrap_or_else(|| self.table.layout.scratch(0));
            for e in self.pim_gb(&keys, &candidates[..k], &prepared, mask_scratch)? {
                if e.count > 0 {
                    for (grouped, value) in per_agg.iter_mut().zip(&e.values) {
                        grouped.insert(e.key.clone(), *value);
                    }
                }
                skip.insert(e.key);
            }
        }

        // 5. host-gb for the tail, all aggregates in one read pass.
        if k < kmax {
            let tail = self.host_gb(&query.group_by, &plan.aggs, &skip, &[])?;
            for (grouped, tail_col) in per_agg.iter_mut().zip(tail) {
                grouped.extend(tail_col);
            }
        }

        Ok(GroupByOutcome { per_agg, k, kmax, sampled: estimate.seen() })
    }
}

/// Cross product of per-attribute domains, deterministic order (empty
/// without domains).
fn cross_product(domains: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let seed = if domains.is_empty() { Vec::new() } else { vec![Vec::new()] };
    domains.iter().fold(seed, |keys, domain| {
        keys.iter().flat_map(|key| domain.iter().map(move |&v| [&key[..], &[v]].concat())).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::groupby::calibration::{run_calibration, CalibrationConfig};
    use crate::groupby::cost_model::{GroupByModel, HostGbModel, PimGbModel};
    use crate::groupby::fitting::{LinFit, SqrtFit};
    use crate::modes::EngineMode;
    use crate::table::PimTable;
    use bbpim_db::plan::{AggExpr, AggFunc, Atom, SelectItem};
    use bbpim_db::{stats, Relation};
    use bbpim_sim::SimConfig;

    /// Zipf-ish groups: group 0 huge, tail small.
    fn table(mode: EngineMode) -> (PimTable, Relation) {
        let rows = (0..2000u64).map(|i| {
            let g = match i % 10 {
                0..=5 => 0,
                6..=7 => 1,
                8 => 2,
                _ => 3 + (i % 5),
            };
            vec![(7 * i) % 251, g]
        });
        fixture::table(mode, &[("lo_v", 8), ("d_g", 4)], rows)
    }

    fn query() -> Query {
        Query::single(
            "t",
            vec![Atom::Lt { attr: "lo_v".into(), value: 240u64.into() }],
            vec!["d_g".into()],
            AggFunc::Sum,
            AggExpr::attr("lo_v"),
        )
    }

    fn fitted(mode: EngineMode) -> GroupByModel {
        let cfg = SimConfig::small_for_tests();
        run_calibration(&cfg, mode, &CalibrationConfig::tiny_for_tests()).unwrap().1
    }

    /// A model with only these two fits (host `a = b`, PIM intercept).
    fn forced(host: f64, pim: f64) -> GroupByModel {
        GroupByModel {
            host: HostGbModel::new([(2, SqrtFit { a: host, b: host, r2: 1.0 })].into()),
            pim: PimGbModel::new([(1, LinFit { slope: 0.0, intercept: pim, r2: 1.0 })].into()),
        }
    }

    /// Install `model`, then filter and run the hybrid GROUP BY, as the
    /// engine runs them.
    fn run(t: &mut PimTable, q: &Query, model: GroupByModel) -> GroupByOutcome {
        t.set_model(model);
        let mut scan = fixture::filtered(t, &q.filter);
        scan.group_by(q, &q.physical_plan().unwrap()).unwrap()
    }

    #[test]
    fn hybrid_group_by_matches_oracle_all_modes() {
        for mode in [EngineMode::OneXb, EngineMode::TwoXb, EngineMode::PimDb] {
            let ((mut t, rel), q) = (table(mode), query());
            let out = run(&mut t, &q, fitted(mode));
            let expected = stats::column(&stats::run_oracle(&q, &rel).unwrap(), 0);
            assert_eq!(out.per_agg.len(), 1);
            assert_eq!(out.per_agg[0], expected, "{mode:?} (k={})", out.k);
            assert!(out.kmax >= out.per_agg[0].len());
            assert!(out.k <= out.kmax);
        }
    }

    #[test]
    fn multi_aggregate_group_by_matches_oracle() {
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let (mut t, rel) = table(mode);
            let q = Query {
                select: vec![
                    SelectItem::sum("total", AggExpr::attr("lo_v")),
                    SelectItem::count("n"),
                    SelectItem::avg("mean", AggExpr::attr("lo_v")),
                    SelectItem::max("hi", AggExpr::attr("lo_v")),
                ],
                ..query()
            };
            let out = run(&mut t, &q, fitted(mode));
            let finalized = q.physical_plan().unwrap().finalize(&out.per_agg);
            let expected = stats::run_oracle(&q, &rel).unwrap();
            assert_eq!(finalized, expected, "{mode:?} (k={})", out.k);
        }
    }

    #[test]
    fn forced_all_pim_still_matches_oracle() {
        // A model with free PIM and absurdly expensive host forces k=kmax.
        let ((mut t, rel), q) = (table(EngineMode::OneXb), query());
        let out = run(&mut t, &q, forced(1e12, 1.0));
        assert_eq!(out.k, out.kmax, "everything must go to PIM");
        assert_eq!(out.per_agg[0], stats::column(&stats::run_oracle(&q, &rel).unwrap(), 0));
    }

    #[test]
    fn forced_all_host_still_matches_oracle() {
        let ((mut t, rel), q) = (table(EngineMode::OneXb), query());
        let out = run(&mut t, &q, forced(1.0, 1e12));
        assert_eq!(out.k, 0);
        assert_eq!(out.per_agg[0], stats::column(&stats::run_oracle(&q, &rel).unwrap(), 0));
    }

    #[test]
    fn cross_product_enumerates_in_order() {
        let d = vec![vec![1u64, 2], vec![10u64, 20]];
        let keys = cross_product(&d);
        assert_eq!(keys, vec![vec![1, 10], vec![1, 20], vec![2, 10], vec![2, 20]]);
        assert!(cross_product(&[]).is_empty());
    }

    #[test]
    fn empty_selection_yields_empty_groups() {
        let (mut t, _) = table(EngineMode::OneXb);
        let mut q = query();
        q.filter =
            bbpim_db::plan::Pred::all(vec![Atom::Lt { attr: "lo_v".into(), value: 0u64.into() }]);
        let out = run(&mut t, &q, fitted(EngineMode::OneXb));
        assert!(out.per_agg[0].is_empty());
    }
}
