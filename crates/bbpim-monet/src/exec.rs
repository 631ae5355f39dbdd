//! Physical operators: filter (conjunctive and DNF), positional star
//! join, hash GROUP-BY over the full multi-aggregate SELECT list.

use std::collections::HashMap;

use bbpim_db::plan::{AggExpr, PhysAgg, PhysFunc, ResolvedAtom};
use bbpim_db::stats::GroupedResult;
use bbpim_db::{DbError, Relation};

use crate::selection::{refine, select_all, SelectionVector};

/// Filter a relation with one resolved conjunction, producing a
/// selection vector.
pub fn filter(rel: &Relation, atoms: &[ResolvedAtom]) -> SelectionVector {
    let mut sel = select_all(rel.len());
    for atom in atoms {
        sel = refine(rel.column(atom.attr_index()), atom, &sel);
        if sel.is_empty() {
            break;
        }
    }
    sel
}

/// Refine a base selection with one resolved conjunction.
pub fn refine_conj(
    rel: &Relation,
    atoms: &[ResolvedAtom],
    base: &SelectionVector,
) -> SelectionVector {
    let mut sel = base.clone();
    for atom in atoms {
        sel = refine(rel.column(atom.attr_index()), atom, &sel);
        if sel.is_empty() {
            break;
        }
    }
    sel
}

/// Union sorted selection vectors (the OR of DNF disjunct selections).
pub fn union_selections(mut parts: Vec<SelectionVector>) -> SelectionVector {
    match parts.len() {
        0 => Vec::new(),
        1 => parts.pop().expect("one part"),
        _ => {
            let mut all: SelectionVector = parts.into_iter().flatten().collect();
            all.sort_unstable();
            all.dedup();
            all
        }
    }
}

/// Column-index-resolved aggregate expression.
#[derive(Debug, Clone, Copy)]
pub enum ExprCols {
    /// Single attribute.
    Attr(usize),
    /// Product.
    Mul(usize, usize),
    /// Difference.
    Sub(usize, usize),
}

impl ExprCols {
    /// Resolve names against a schema.
    ///
    /// # Errors
    ///
    /// Unknown attribute names.
    pub fn resolve(expr: &AggExpr, rel: &Relation) -> Result<Self, DbError> {
        Ok(match expr {
            AggExpr::Attr(a) => ExprCols::Attr(rel.schema().index_of(a)?),
            AggExpr::Mul(a, b) => {
                ExprCols::Mul(rel.schema().index_of(a)?, rel.schema().index_of(b)?)
            }
            AggExpr::Sub(a, b) => {
                ExprCols::Sub(rel.schema().index_of(a)?, rel.schema().index_of(b)?)
            }
        })
    }
}

/// Evaluate an aggregate expression for one row (columns pre-resolved).
#[inline]
pub fn eval_expr(rel: &Relation, expr_cols: &ExprCols, row: usize) -> u64 {
    match expr_cols {
        ExprCols::Attr(a) => rel.value(row, *a),
        ExprCols::Mul(a, b) => rel.value(row, *a).wrapping_mul(rel.value(row, *b)),
        ExprCols::Sub(a, b) => rel.value(row, *a).wrapping_sub(rel.value(row, *b)),
    }
}

/// The physical aggregates of a plan, resolved to column indices.
#[derive(Debug, Clone)]
pub struct ResolvedAggs {
    /// Per-aggregate merge component.
    pub funcs: Vec<PhysFunc>,
    /// Per-aggregate expression (`None` = COUNT, contributes 1).
    pub exprs: Vec<Option<ExprCols>>,
}

impl ResolvedAggs {
    /// Resolve a plan's aggregates against a schema.
    ///
    /// # Errors
    ///
    /// Unknown attribute names.
    pub fn resolve(aggs: &[PhysAgg], rel: &Relation) -> Result<Self, DbError> {
        let funcs = aggs.iter().map(|a| a.func).collect();
        let exprs = aggs
            .iter()
            .map(|a| a.expr.as_ref().map(|e| ExprCols::resolve(e, rel)).transpose())
            .collect::<Result<_, _>>()?;
        Ok(ResolvedAggs { funcs, exprs })
    }

    /// The per-aggregate contributions of one row.
    #[inline]
    pub fn row_values(&self, rel: &Relation, row: usize) -> Vec<u64> {
        self.exprs
            .iter()
            .map(|e| match e {
                None => 1,
                Some(expr) => eval_expr(rel, expr, row),
            })
            .collect()
    }
}

/// Fold one row's values into a multi-column hash-aggregation table.
#[inline]
pub fn fold_row(
    table: &mut HashMap<Vec<u64>, Vec<u64>>,
    key: Vec<u64>,
    values: Vec<u64>,
    funcs: &[PhysFunc],
) {
    table
        .entry(key)
        .and_modify(|accs| {
            for ((acc, v), func) in accs.iter_mut().zip(&values).zip(funcs) {
                *acc = func.merge(*acc, *v);
            }
        })
        .or_insert(values);
}

/// Merge a thread-local multi-column table into per-aggregate grouped
/// results (one [`GroupedResult`] per aggregate, plan order).
pub fn merge_table(
    per_agg: &mut [GroupedResult],
    from: HashMap<Vec<u64>, Vec<u64>>,
    funcs: &[PhysFunc],
) {
    for (key, values) in from {
        for ((grouped, v), func) in per_agg.iter_mut().zip(values).zip(funcs) {
            grouped.entry(key.clone()).and_modify(|acc| *acc = func.merge(*acc, v)).or_insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MonetEngine;
    use bbpim_db::builder::col;
    use bbpim_db::plan::{AggFunc, Atom, Query, SelectItem};
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_db::stats::MultiGrouped;

    fn rel() -> Relation {
        let schema = Schema::new(
            "t",
            vec![
                Attribute::numeric("g", 4),
                Attribute::numeric("v", 8),
                Attribute::numeric("w", 8),
            ],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..40u64 {
            rel.push_row(&[i % 4, i % 100, (i * 2) % 100]).unwrap();
        }
        rel
    }

    fn query(filter: Vec<Atom>, group: Vec<&str>, expr: AggExpr) -> Query {
        Query::single(
            "t",
            filter,
            group.into_iter().map(String::from).collect(),
            AggFunc::Sum,
            expr,
        )
    }

    /// The operators above as `MonetEngine::run` composes them over
    /// `threads` row partitions of the wide relation.
    fn run(rel: &Relation, q: &Query, threads: usize) -> MultiGrouped {
        MonetEngine::prejoined(rel, threads).run(q).unwrap().groups
    }

    #[test]
    fn filter_then_group_matches_oracle() {
        let rel = rel();
        let q = query(
            vec![Atom::Lt { attr: "v".into(), value: 30u64.into() }],
            vec!["g"],
            AggExpr::attr("v"),
        );
        assert_eq!(run(&rel, &q, 1), bbpim_db::stats::run_oracle(&q, &rel).unwrap());
    }

    #[test]
    fn disjunctive_selection_unions_branches() {
        let rel = rel();
        let q = Query::select([SelectItem::count("n")])
            .filter(col("v").lt(10u64).or(col("w").gt(80u64)))
            .group_by(["g"])
            .build(rel.schema())
            .unwrap();
        let dnf = q.resolve_filter(rel.schema()).unwrap();
        let base = select_all(rel.len());
        let sel = union_selections(dnf.iter().map(|c| refine_conj(&rel, c, &base)).collect());
        // rows are unique even when both branches select them
        let mut sorted = sel.clone();
        sorted.dedup();
        assert_eq!(sel, sorted);
        assert_eq!(run(&rel, &q, 1), bbpim_db::stats::run_oracle(&q, &rel).unwrap());
    }

    #[test]
    fn empty_filter_short_circuits() {
        let rel = rel();
        let q = query(
            vec![Atom::Gt { attr: "v".into(), value: 200u64.into() }],
            vec!["g"],
            AggExpr::attr("v"),
        );
        let dnf = q.resolve_filter(rel.schema()).unwrap();
        assert!(filter(&rel, &dnf[0]).is_empty());
        assert!(run(&rel, &q, 1).is_empty());
    }

    #[test]
    fn expression_aggregates() {
        let rel = rel();
        for expr in [AggExpr::mul("v", "w"), AggExpr::sub("w", "g")] {
            let q = query(vec![], vec!["g"], expr);
            assert_eq!(run(&rel, &q, 1), bbpim_db::stats::run_oracle(&q, &rel).unwrap(), "{q:?}");
        }
    }

    #[test]
    fn multi_aggregate_group_aggregate() {
        let rel = rel();
        let q = Query::select([
            SelectItem::sum("s", AggExpr::attr("v")),
            SelectItem::count("n"),
            SelectItem::avg("a", AggExpr::attr("v")),
            SelectItem::min("lo", AggExpr::attr("w")),
        ])
        .group_by(["g"])
        .build(rel.schema())
        .unwrap();
        // three partitions: the thread-local tables merge per column
        assert_eq!(run(&rel, &q, 3), bbpim_db::stats::run_oracle(&q, &rel).unwrap());
    }

    #[test]
    fn fold_row_merges_per_column() {
        let funcs = [PhysFunc::Sum, PhysFunc::Min, PhysFunc::Count];
        let mut t = HashMap::new();
        fold_row(&mut t, vec![1], vec![10, 5, 1], &funcs);
        fold_row(&mut t, vec![1], vec![7, 9, 1], &funcs);
        assert_eq!(t[&vec![1u64]], vec![17, 5, 2]);
        let mut per_agg = vec![GroupedResult::new(); 3];
        merge_table(&mut per_agg, t, &funcs);
        assert_eq!(per_agg[0][&vec![1u64]], 17);
        assert_eq!(per_agg[1][&vec![1u64]], 5);
        assert_eq!(per_agg[2][&vec![1u64]], 2);
    }

    #[test]
    fn union_selections_dedups_and_sorts() {
        let a = vec![1u32, 3, 5];
        let b = vec![2u32, 3, 8];
        assert_eq!(union_selections(vec![a, b]), vec![1, 2, 3, 5, 8]);
        assert!(union_selections(vec![]).is_empty());
    }
}
