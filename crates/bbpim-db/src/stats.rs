//! Query oracles: reference execution, selectivity, subgroup counts.
//!
//! These row-at-a-time evaluators are the ground truth the PIM engine
//! and the column-store baseline are tested against, and they produce
//! the per-query statistics of the paper's Table II (selectivity, total
//! potential subgroups).
//!
//! The oracle executes the v2 query surface: the filter tree is
//! evaluated in disjunctive normal form and every SELECT item is
//! computed through the query's [`crate::plan::PhysicalPlan`] — the same
//! sum/count/min/max components the engines merge — so `AVG` derives
//! identically everywhere (merged sum over merged count, integer
//! division at the very end).

use std::collections::BTreeMap;

use crate::error::DbError;
use crate::plan::{PhysAgg, PhysFunc, Query, ResolvedAtom};
use crate::relation::Relation;

/// Result of a single-component (group-by) aggregation: group key
/// values → one aggregate value. This is the *mergeable* per-column
/// shape partials travel in.
pub type GroupedResult = BTreeMap<Vec<u64>, u64>;

/// A full query answer: group key values → one value per SELECT item
/// (in SELECT order). Queries without GROUP BY use a single empty key.
pub type MultiGrouped = BTreeMap<Vec<u64>, Vec<u64>>;

/// Extract one output column of a [`MultiGrouped`] answer as a
/// [`GroupedResult`] (handy for single-aggregate comparisons).
///
/// # Panics
///
/// Panics when a row is narrower than `idx` (caller bug).
pub fn column(grouped: &MultiGrouped, idx: usize) -> GroupedResult {
    grouped.iter().map(|(k, vs)| (k.clone(), vs[idx])).collect()
}

/// Evaluate a resolved conjunction on one row.
pub fn row_matches(atoms: &[ResolvedAtom], rel: &Relation, row: usize) -> bool {
    atoms.iter().all(|a| a.matches(rel, row))
}

/// Evaluate a resolved DNF (any disjunct's atoms all hold) on one row.
pub fn row_matches_dnf(dnf: &[Vec<ResolvedAtom>], rel: &Relation, row: usize) -> bool {
    dnf.iter().any(|conj| row_matches(conj, rel, row))
}

/// The selection bit-vector of a query's filter.
///
/// # Errors
///
/// Propagates resolution failures.
pub fn filter_bitvec(query: &Query, rel: &Relation) -> Result<Vec<bool>, DbError> {
    let dnf = query.resolve_filter(rel.schema())?;
    Ok((0..rel.len()).map(|r| row_matches_dnf(&dnf, rel, r)).collect())
}

/// Selectivity: fraction of rows passing the filter.
///
/// # Errors
///
/// Propagates resolution failures.
pub fn selectivity(query: &Query, rel: &Relation) -> Result<f64, DbError> {
    if rel.is_empty() {
        return Ok(0.0);
    }
    let bits = filter_bitvec(query, rel)?;
    Ok(bits.iter().filter(|b| **b).count() as f64 / rel.len() as f64)
}

/// Evaluate one physical aggregate component for one row (`Count`
/// contributes 1 per matching row).
fn phys_row_value(agg: &PhysAgg, rel: &Relation, row: usize) -> Result<u64, DbError> {
    match &agg.expr {
        None => Ok(1),
        Some(expr) => expr.eval(rel, row),
    }
}

/// Reference (row-at-a-time) execution of the query's *physical* plan:
/// one [`GroupedResult`] per deduplicated physical aggregate, in plan
/// order. This is what per-shard partials look like before merging.
///
/// # Errors
///
/// Propagates resolution and evaluation failures.
pub fn run_oracle_physical(query: &Query, rel: &Relation) -> Result<Vec<GroupedResult>, DbError> {
    let dnf = query.resolve_filter(rel.schema())?;
    let plan = query.physical_plan()?;
    let group_idx: Vec<usize> =
        query.group_by.iter().map(|name| rel.schema().index_of(name)).collect::<Result<_, _>>()?;
    let mut per_agg: Vec<GroupedResult> = vec![GroupedResult::new(); plan.aggs.len()];
    for row in 0..rel.len() {
        if !row_matches_dnf(&dnf, rel, row) {
            continue;
        }
        let key: Vec<u64> = group_idx.iter().map(|&i| rel.value(row, i)).collect();
        for (agg, grouped) in plan.aggs.iter().zip(per_agg.iter_mut()) {
            let v = phys_row_value(agg, rel, row)?;
            grouped
                .entry(key.clone())
                .and_modify(|acc| *acc = agg.func.merge(*acc, v))
                .or_insert(v);
        }
    }
    Ok(per_agg)
}

/// Reference (row-at-a-time) execution of a query.
///
/// Returns the grouped multi-column answer; a query without GROUP BY
/// yields one entry keyed by the empty vector. Groups with no matching
/// rows are absent (matching SQL semantics) — including for `COUNT`:
/// with nothing selected the answer is empty, not a zero row.
///
/// # Errors
///
/// Propagates resolution and evaluation failures.
pub fn run_oracle(query: &Query, rel: &Relation) -> Result<MultiGrouped, DbError> {
    let per_agg = run_oracle_physical(query, rel)?;
    Ok(query.physical_plan()?.finalize(&per_agg))
}

/// The paper's "total subgroups" (Table II): how many subgroups could
/// potentially exist given the query and database contents.
///
/// For each GROUP BY attribute, count the distinct values it takes among
/// rows satisfying the filter atoms *of the same dimension* (attributes
/// share a dimension when their names share the relation prefix before
/// the first `_`: `p_category` constrains `p_brand1`, but not `d_year`);
/// the result is the product across GROUP BY attributes. This captures
/// hierarchy implications — SSB Q2.1's `p_category = 'MFGR#12'` leaves
/// 40 potential brands, giving the paper's 7 × 40 = 280.
///
/// Disjunctive filters take the **union** over DNF branches (a row can
/// satisfy the filter through any branch, so its group values must be
/// covered) — a sound superset, which the PIM-side GROUP BY needs when
/// it aggregates *all* potential subgroups in PIM.
///
/// Returns 0 for a query without GROUP BY.
///
/// # Errors
///
/// Propagates resolution failures.
pub fn potential_subgroups(query: &Query, rel: &Relation) -> Result<u64, DbError> {
    if !query.has_group_by() {
        return Ok(0);
    }
    Ok(group_domains(query, rel)?
        .iter()
        .fold(1u64, |acc, d| acc.saturating_mul(d.len().max(1) as u64)))
}

/// Per GROUP BY attribute, the distinct values it can take under the
/// query's same-dimension constraints (see [`potential_subgroups`]);
/// their cross product enumerates every potential subgroup key — which
/// the PIM engine needs when it decides to aggregate *all* subgroups in
/// PIM, including ones the sample never saw.
///
/// This is the row-at-a-time reference: the engines answer it from a
/// [`crate::domain::DomainIndex`], which the equivalence tests hold
/// against this scan.
///
/// # Errors
///
/// Propagates resolution failures.
pub fn group_domains(query: &Query, rel: &Relation) -> Result<Vec<Vec<u64>>, DbError> {
    let prefix = |name: &str| crate::domain::prefix(name).to_owned();
    let dnf = query.filter.dnf();
    // Resolve each disjunct alongside its raw atoms (the raw names carry
    // the dimension prefix).
    let resolved: Vec<Vec<(String, ResolvedAtom)>> = dnf
        .iter()
        .map(|conj| {
            conj.iter()
                .map(|a| Ok((prefix(a.attr()), a.resolve(rel.schema())?)))
                .collect::<Result<Vec<_>, DbError>>()
        })
        .collect::<Result<_, _>>()?;
    let mut out = Vec::with_capacity(query.group_by.len());
    // One flag per row, reused: does the row pass the disjunct's
    // same-dimension atoms? Filled a constraint column at a time, so
    // each column's lane is selected once, not once per row.
    let mut passes = vec![true; rel.len()];
    for name in &query.group_by {
        let idx = rel.schema().index_of(name)?;
        let dim = prefix(name);
        let mut seen = std::collections::BTreeSet::new();
        for conj in &resolved {
            passes.fill(true);
            for (_, atom) in conj.iter().filter(|(p, _)| *p == dim) {
                rel.column(atom.attr_index())
                    .read(0..rel.len(), |row, v| passes[row] &= atom.matches_value(v));
            }
            rel.column(idx).read(0..rel.len(), |row, v| {
                if passes[row] {
                    seen.insert(v);
                }
            });
        }
        out.push(seen.into_iter().collect());
    }
    Ok(out)
}

/// Merge one partial grouped result into an accumulator with the given
/// physical component.
///
/// This is the reduce side of sharded (scatter–gather) execution: each
/// shard aggregates its own disjoint slice of the records, and because
/// SUM (wrapping), MIN, MAX and COUNT (addition) are commutative and
/// associative, folding the per-shard partials in any order reproduces
/// the single-engine answer bit-exactly. `AVG` never merges directly —
/// it is derived from merged SUM + COUNT components afterwards
/// ([`crate::plan::PhysicalPlan::finalize`]).
///
/// The partial is borrowed: only the keys that are new to the
/// accumulator are cloned, not the whole map — the cluster gather path
/// merges many shard partials per query and must not deep-copy each one
/// first.
pub fn merge_grouped_ref_into(acc: &mut GroupedResult, part: &GroupedResult, func: PhysFunc) {
    for (key, v) in part {
        match acc.get_mut(key) {
            Some(a) => *a = func.merge(*a, *v),
            None => {
                acc.insert(key.clone(), *v);
            }
        }
    }
}

/// Number of distinct group keys among rows matching the filter (the
/// non-empty subgroups; `run_oracle(..).len()` without the aggregates).
///
/// # Errors
///
/// Propagates resolution failures.
pub fn occupied_subgroups(query: &Query, rel: &Relation) -> Result<u64, DbError> {
    Ok(run_oracle(query, rel)?.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::col;
    use crate::plan::{AggExpr, AggFunc, Atom, SelectItem};
    use crate::schema::{Attribute, Schema};

    fn rel() -> Relation {
        let schema = Schema::new(
            "t",
            vec![
                Attribute::numeric("g", 4),
                Attribute::numeric("h", 4),
                Attribute::numeric("v", 8),
            ],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        // g in {0,1,2}, h in {0,1}, v = 10*row
        for row in 0..12u64 {
            rel.push_row(&[row % 3, row % 2, row * 10]).unwrap();
        }
        rel
    }

    fn query(filter: Vec<Atom>, group_by: Vec<&str>) -> Query {
        Query::single(
            "t",
            filter,
            group_by.into_iter().map(String::from).collect(),
            AggFunc::Sum,
            AggExpr::attr("v"),
        )
    }

    #[test]
    fn oracle_groups_and_sums() {
        let rel = rel();
        let q = query(vec![], vec!["g"]);
        let out = run_oracle(&q, &rel).unwrap();
        assert_eq!(out.len(), 3);
        // rows with g=0: 0,3,6,9 → v = 0+30+60+90
        assert_eq!(out[&vec![0u64]], vec![180]);
    }

    #[test]
    fn oracle_without_group_by_uses_empty_key() {
        let rel = rel();
        let q = query(vec![Atom::Lt { attr: "v".into(), value: 30u64.into() }], vec![]);
        let out = run_oracle(&q, &rel).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[&Vec::<u64>::new()], vec![10 + 20]);
        assert_eq!(column(&out, 0)[&Vec::<u64>::new()], 30);
    }

    #[test]
    fn selectivity_fraction() {
        let rel = rel();
        let q = query(vec![Atom::Eq { attr: "h".into(), value: 0u64.into() }], vec![]);
        assert!((selectivity(&q, &rel).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disjunctive_filter_matches_either_branch() {
        let rel = rel();
        let q = Query::select([SelectItem::count("n")])
            .filter(col("v").lt(20u64).or(col("v").gt(90u64)))
            .build_unchecked();
        // rows 0,1 (v=0,10) plus rows 10,11 (v=100,110)
        let out = run_oracle(&q, &rel).unwrap();
        assert_eq!(out[&Vec::<u64>::new()], vec![4]);
        assert!((selectivity(&q, &rel).unwrap() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn multi_aggregate_oracle_including_avg() {
        let rel = rel();
        let q = Query::select([
            SelectItem::sum("total", AggExpr::attr("v")),
            SelectItem::count("n"),
            SelectItem::avg("mean", AggExpr::attr("v")),
            SelectItem::min("lo", AggExpr::attr("v")),
            SelectItem::max("hi", AggExpr::attr("v")),
        ])
        .group_by(["h"])
        .build_unchecked();
        let out = run_oracle(&q, &rel).unwrap();
        // h=0: rows 0,2,4,6,8,10 → v = 0,20,…,100
        assert_eq!(out[&vec![0u64]], vec![300, 6, 50, 0, 100]);
        // h=1: rows 1,3,…,11 → v = 10,30,…,110
        assert_eq!(out[&vec![1u64]], vec![360, 6, 60, 10, 110]);
    }

    #[test]
    fn count_of_empty_selection_is_an_empty_answer() {
        let rel = rel();
        let q = Query::select([SelectItem::count("n")])
            .filter(col("v").gt(10_000u64))
            .build_unchecked();
        assert!(run_oracle(&q, &rel).unwrap().is_empty());
    }

    #[test]
    fn potential_subgroups_product_of_constrained_domains() {
        let rel = rel();
        // unconstrained: 3 g-values × 2 h-values
        assert_eq!(potential_subgroups(&query(vec![], vec!["g", "h"]), &rel).unwrap(), 6);
        // constrain g to {0,1}: 2 × 2
        let q = query(
            vec![Atom::In { attr: "g".into(), values: vec![0u64.into(), 1u64.into()] }],
            vec!["g", "h"],
        );
        assert_eq!(potential_subgroups(&q, &rel).unwrap(), 4);
        // no group-by → 0
        assert_eq!(potential_subgroups(&query(vec![], vec![]), &rel).unwrap(), 0);
    }

    #[test]
    fn group_domains_union_over_disjuncts() {
        let rel = rel();
        // (g = 0) OR (g = 2): the domain must cover both branches.
        let q = Query::select([SelectItem::sum("s", AggExpr::attr("v"))])
            .filter(col("g").eq(0u64).or(col("g").eq(2u64)))
            .group_by(["g"])
            .build_unchecked();
        assert_eq!(group_domains(&q, &rel).unwrap(), vec![vec![0, 2]]);
        assert_eq!(potential_subgroups(&q, &rel).unwrap(), 2);
        // every occupied group is inside the enumerated domain
        let occupied = run_oracle(&q, &rel).unwrap();
        for key in occupied.keys() {
            assert!([0u64, 2].contains(&key[0]));
        }
    }

    #[test]
    fn occupied_can_be_less_than_potential() {
        let rel = rel();
        // filter keeps only rows 0..2 → g keys {0,1,2}, h keys {0,1} but
        // only 3 (g,h) combos occupied
        let q = query(vec![Atom::Lt { attr: "v".into(), value: 30u64.into() }], vec!["g", "h"]);
        assert_eq!(occupied_subgroups(&q, &rel).unwrap(), 3);
        assert_eq!(potential_subgroups(&q, &rel).unwrap(), 6);
    }

    #[test]
    fn merged_partitions_equal_whole() {
        let rel = rel();
        for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count, AggFunc::Avg] {
            let mut q = query(vec![Atom::Gt { attr: "v".into(), value: 15u64.into() }], vec!["g"]);
            q.select[0].func = func;
            let whole = run_oracle(&q, &rel).unwrap();
            let plan = q.physical_plan().unwrap();
            let parts = rel.partition_by(3, |row| row % 3).unwrap();
            // merge each physical component across partitions, then derive
            let mut merged: Vec<GroupedResult> = vec![GroupedResult::new(); plan.aggs.len()];
            for p in &parts {
                let partial = run_oracle_physical(&q, p).unwrap();
                for (acc, (part, agg)) in merged.iter_mut().zip(partial.into_iter().zip(&plan.aggs))
                {
                    merge_grouped_ref_into(acc, &part, agg.func);
                }
            }
            assert_eq!(plan.finalize(&merged), whole, "{func:?}");
        }
    }

    #[test]
    fn merge_into_is_commutative() {
        let mut a = GroupedResult::new();
        a.insert(vec![1], 10);
        a.insert(vec![2], 5);
        let mut b = GroupedResult::new();
        b.insert(vec![2], 7);
        b.insert(vec![3], 1);
        let (mut ab, mut ba) = (a.clone(), b.clone());
        merge_grouped_ref_into(&mut ab, &b, PhysFunc::Sum);
        merge_grouped_ref_into(&mut ba, &a, PhysFunc::Sum);
        assert_eq!(ab, ba);
        assert_eq!(ab[&vec![2u64]], 12);
        assert_eq!(ab.len(), 3);
    }

    #[test]
    fn count_partials_merge_by_addition() {
        let mut a = GroupedResult::new();
        a.insert(vec![1], 4);
        let mut b = GroupedResult::new();
        b.insert(vec![1], 2);
        b.insert(vec![2], 9);
        let mut merged = a;
        merge_grouped_ref_into(&mut merged, &b, PhysFunc::Count);
        assert_eq!(merged[&vec![1u64]], 6);
        assert_eq!(merged[&vec![2u64]], 9);
    }

    #[test]
    fn min_max_oracle() {
        let rel = rel();
        let mut q = query(vec![], vec!["h"]);
        q.select[0].func = AggFunc::Min;
        let out = run_oracle(&q, &rel).unwrap();
        assert_eq!(out[&vec![0u64]], vec![0]);
        assert_eq!(out[&vec![1u64]], vec![10]);
        q.select[0].func = AggFunc::Max;
        let out = run_oracle(&q, &rel).unwrap();
        assert_eq!(out[&vec![0u64]], vec![100]);
        assert_eq!(out[&vec![1u64]], vec![110]);
    }
}
