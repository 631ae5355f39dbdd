//! The two MonetDB-stand-in configurations: `mnt_join` and `mnt_reg`.
//!
//! Queries arrive in the same logical form the PIM engine consumes
//! (attribute names of the *wide* schema) — including the v2 surface:
//! multi-aggregate SELECT lists and `AND`/`OR` filter trees. `mnt_join`
//! executes them directly on the pre-joined relation. `mnt_reg` runs on
//! the normalised star schema: per DNF disjunct, dimension predicates
//! filter their dimension first, producing dense-key bitmaps; the fact
//! scan probes the bitmaps through the foreign keys, the disjunct
//! selections are unioned, and dimension group keys are fetched
//! positionally (the invisible-join plan a column store uses for star
//! schemas — dimension keys are dense, so the "hash" lookup is an array
//! index). Which table owns an attribute, and each dimension's FK, key
//! and key base, come from [`bbpim_db::ssb::star::DIMENSIONS`]; a fact
//! row whose FK has no dimension row fails a GROUP BY probe with
//! [`DbError::DanglingKey`] and is never selected by a dimension filter.
//!
//! Latencies are wall-clock (`std::time::Instant`), measured around
//! execution only — plan resolution (the optimizer's job) is excluded,
//! matching the paper's "without SQL parsing and optimization".

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bbpim_db::plan::{PhysFunc, Query, ResolvedAtom};
use bbpim_db::ssb::star::{dim_of_attr, resolve_all, route_conjunct, DimMeta, DIMENSIONS};
use bbpim_db::ssb::SsbDb;
use bbpim_db::stats::{GroupedResult, MultiGrouped};
use bbpim_db::{DbError, Relation};

use crate::exec::{fold_row, merge_table, refine_conj, union_selections, ResolvedAggs};
use crate::selection::{KeyBitmap, SelectionVector};

/// Result of one baseline query.
#[derive(Debug, Clone)]
pub struct MonetResult {
    /// Grouped multi-column aggregates (empty-key entry for global
    /// aggregates), one value per SELECT item in SELECT order.
    pub groups: MultiGrouped,
    /// Wall-clock execution time.
    pub wall: Duration,
}

/// Which physical database the engine runs on.
enum PlanKind<'a> {
    Prejoined(&'a Relation),
    Star(&'a SsbDb),
}

/// The baseline engine.
pub struct MonetEngine<'a> {
    plan: PlanKind<'a>,
    threads: usize,
}

impl<'a> MonetEngine<'a> {
    /// `mnt_join`: run on the pre-joined relation.
    pub fn prejoined(wide: &'a Relation, threads: usize) -> Self {
        MonetEngine { plan: PlanKind::Prejoined(wide), threads: threads.max(1) }
    }

    /// `mnt_reg`: run on the normalised star schema.
    pub fn star(db: &'a SsbDb, threads: usize) -> Self {
        MonetEngine { plan: PlanKind::Star(db), threads: threads.max(1) }
    }

    /// Label as used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self.plan {
            PlanKind::Prejoined(_) => "mnt_join",
            PlanKind::Star(_) => "mnt_reg",
        }
    }

    /// Execute a query.
    ///
    /// # Errors
    ///
    /// Resolution failures (unknown attributes/constants), and on the
    /// star schema [`DbError::DanglingKey`] when a GROUP BY key is
    /// fetched through a FK with no dimension row.
    pub fn run(&self, query: &Query) -> Result<MonetResult, DbError> {
        match self.plan {
            PlanKind::Prejoined(rel) => self.run_prejoined(rel, query),
            PlanKind::Star(db) => self.run_star(db, query),
        }
    }

    fn run_prejoined(&self, rel: &Relation, query: &Query) -> Result<MonetResult, DbError> {
        let dnf = query.resolve_filter(rel.schema())?;
        let plan = query.physical_plan()?;
        let key_cols: Vec<usize> =
            query.group_by.iter().map(|g| rel.schema().index_of(g)).collect::<Result<_, _>>()?;
        let aggs = ResolvedAggs::resolve(&plan.aggs, rel)?;

        let start = Instant::now();
        let per_agg = scan_partitions(rel.len(), self.threads, &aggs.funcs, |lo, hi| {
            let base: SelectionVector = (lo as u32..hi as u32).collect();
            let sel =
                union_selections(dnf.iter().map(|conj| refine_conj(rel, conj, &base)).collect());
            let mut table: HashMap<Vec<u64>, Vec<u64>> = HashMap::new();
            for &row in &sel {
                let row = row as usize;
                let key: Vec<u64> = key_cols.iter().map(|&c| rel.value(row, c)).collect();
                fold_row(&mut table, key, aggs.row_values(rel, row), &aggs.funcs);
            }
            Ok(table)
        })?;
        let groups = plan.finalize(&per_agg);
        let wall = start.elapsed();
        Ok(MonetResult { groups, wall })
    }

    fn run_star(&self, db: &'a SsbDb, query: &Query) -> Result<MonetResult, DbError> {
        let fact = &db.lineorder;
        let plan = query.physical_plan()?;
        let dnf = query.filter.dnf();

        /// One DNF disjunct's star plan: fact-side atoms stay on the
        /// scan; each filtered dimension's atoms collapse into a key
        /// bitmap, probed through the fact FK column (catalog order).
        struct DisjunctPlan {
            fact_atoms: Vec<ResolvedAtom>,
            probes: Vec<(KeyBitmap, usize)>,
        }

        let mut disjuncts: Vec<DisjunctPlan> = Vec::with_capacity(dnf.len());
        for conj in &dnf {
            let (fact_atoms, dim_atoms) = route_conjunct(conj);
            let fact_atoms = resolve_all(&fact_atoms, fact.schema())?;
            let mut probes = Vec::new();
            for (d, atoms) in dim_atoms.iter().enumerate().filter(|(_, atoms)| !atoms.is_empty()) {
                let (meta, dim) = (&DIMENSIONS[d], db.dim(d));
                let sel = crate::exec::filter(dim, &resolve_all(atoms, dim.schema())?);
                let key_col = dim.column(dim.schema().index_of(meta.key)?);
                let bitmap = KeyBitmap::from_selection(key_col, &sel, dim.len(), meta.key_base);
                probes.push((bitmap, fact.schema().index_of(meta.fk)?));
            }
            disjuncts.push(DisjunctPlan { fact_atoms, probes });
        }

        // Group-key sources: fact column or positional dimension fetch.
        enum KeySource<'r> {
            Fact(usize),
            Dim { meta: &'static DimMeta, dim: &'r Relation, col: usize, fk_col: usize },
        }
        let mut key_sources = Vec::with_capacity(query.group_by.len());
        for g in &query.group_by {
            match dim_of_attr(g) {
                None => key_sources.push(KeySource::Fact(fact.schema().index_of(g)?)),
                Some(d) => key_sources.push(KeySource::Dim {
                    meta: &DIMENSIONS[d],
                    dim: db.dim(d),
                    col: db.dim(d).schema().index_of(g)?,
                    fk_col: fact.schema().index_of(DIMENSIONS[d].fk)?,
                }),
            }
        }
        let aggs = ResolvedAggs::resolve(&plan.aggs, fact)?;

        let start = Instant::now();

        // Fact scan: per disjunct refine + probe, union, then fold.
        let per_agg = scan_partitions(fact.len(), self.threads, &aggs.funcs, |lo, hi| {
            let base: SelectionVector = (lo as u32..hi as u32).collect();
            let sel = union_selections(
                disjuncts
                    .iter()
                    .map(|d| {
                        let mut sel = refine_conj(fact, &d.fact_atoms, &base);
                        for (bm, fk_col) in &d.probes {
                            let col = fact.column(*fk_col);
                            sel.retain(|&row| bm.contains(col.get(row as usize)));
                        }
                        sel
                    })
                    .collect(),
            );
            let mut table: HashMap<Vec<u64>, Vec<u64>> = HashMap::new();
            for &row in &sel {
                let row = row as usize;
                let key: Vec<u64> = key_sources
                    .iter()
                    .map(|src| match *src {
                        KeySource::Fact(c) => Ok(fact.value(row, c)),
                        KeySource::Dim { meta, dim, col, fk_col } => {
                            Ok(dim.value(meta.row(fact.value(row, fk_col), dim.len())?, col))
                        }
                    })
                    .collect::<Result<_, _>>()?;
                fold_row(&mut table, key, aggs.row_values(fact, row), &aggs.funcs);
            }
            Ok(table)
        })?;
        let groups = plan.finalize(&per_agg);
        let wall = start.elapsed();
        Ok(MonetResult { groups, wall })
    }
}

impl std::fmt::Debug for MonetEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonetEngine")
            .field("plan", &self.label())
            .field("threads", &self.threads)
            .finish()
    }
}

/// Run `work(lo, hi)` over `threads` row partitions and merge the
/// thread-local multi-column tables per physical aggregate (this is the
/// engine's parallel scan driver). The first partition's error, in
/// row order, fails the scan.
fn scan_partitions(
    len: usize,
    threads: usize,
    funcs: &[PhysFunc],
    work: impl Fn(usize, usize) -> Result<HashMap<Vec<u64>, Vec<u64>>, DbError> + Sync,
) -> Result<Vec<GroupedResult>, DbError> {
    let mut per_agg = vec![GroupedResult::new(); funcs.len()];
    if len == 0 {
        return Ok(per_agg);
    }
    let threads = threads.min(len).max(1);
    let chunk = len.div_ceil(threads);
    let tables: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(len);
                let work = &work;
                scope.spawn(move || work(lo, hi))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("scan worker panicked")).collect()
    });
    for table in tables {
        merge_table(&mut per_agg, table?, funcs);
    }
    Ok(per_agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_db::builder::col;
    use bbpim_db::plan::{AggExpr, AggFunc, Atom, SelectItem};
    use bbpim_db::ssb::{queries, SsbParams};
    use bbpim_db::stats;

    fn db() -> SsbDb {
        SsbDb::generate(&SsbParams::tiny_for_tests())
    }

    #[test]
    fn both_modes_match_oracle_on_all_13_queries() {
        let db = db();
        let wide = db.prejoin();
        let join_engine = MonetEngine::prejoined(&wide, 2);
        let star_engine = MonetEngine::star(&db, 2);
        for q in queries::standard_queries() {
            let expected = stats::run_oracle(&q, &wide).unwrap();
            let a = join_engine.run(&q).unwrap();
            let b = star_engine.run(&q).unwrap();
            assert_eq!(a.groups, expected, "mnt_join {}", q.id);
            assert_eq!(b.groups, expected, "mnt_reg {}", q.id);
        }
    }

    #[test]
    fn combined_variants_match_oracle_in_both_modes() {
        let db = db();
        let wide = db.prejoin();
        let join_engine = MonetEngine::prejoined(&wide, 2);
        let star_engine = MonetEngine::star(&db, 2);
        for q in queries::combined_queries() {
            let expected = stats::run_oracle(&q, &wide).unwrap();
            assert_eq!(join_engine.run(&q).unwrap().groups, expected, "mnt_join {}", q.id);
            assert_eq!(star_engine.run(&q).unwrap().groups, expected, "mnt_reg {}", q.id);
        }
    }

    #[test]
    fn disjunction_across_dimensions_matches_oracle() {
        // an OR spanning two different dimensions forces per-disjunct
        // bitmaps in the star plan
        let db = db();
        let wide = db.prejoin();
        let q = Query::select([
            SelectItem::sum("rev", AggExpr::attr("lo_revenue")),
            SelectItem::count("n"),
        ])
        .id("or-dims")
        .filter(col("c_region").eq("ASIA").or(col("s_region").eq("AMERICA")))
        .group_by(["d_year"])
        .build(wide.schema())
        .unwrap();
        let expected = stats::run_oracle(&q, &wide).unwrap();
        assert_eq!(MonetEngine::prejoined(&wide, 3).run(&q).unwrap().groups, expected);
        assert_eq!(MonetEngine::star(&db, 3).run(&q).unwrap().groups, expected);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let db = db();
        let wide = db.prejoin();
        let q = queries::standard_query("Q3.1").unwrap();
        let r1 = MonetEngine::prejoined(&wide, 1).run(&q).unwrap();
        let r8 = MonetEngine::prejoined(&wide, 8).run(&q).unwrap();
        assert_eq!(r1.groups, r8.groups);
        let s1 = MonetEngine::star(&db, 1).run(&q).unwrap();
        let s8 = MonetEngine::star(&db, 8).run(&q).unwrap();
        assert_eq!(s1.groups, s8.groups);
    }

    #[test]
    fn min_max_queries_merge_correctly_across_threads() {
        let db = db();
        let wide = db.prejoin();
        for func in [AggFunc::Min, AggFunc::Max, AggFunc::Avg, AggFunc::Count] {
            let q = Query::single(
                "t",
                vec![Atom::Eq { attr: "c_region".into(), value: "ASIA".into() }],
                vec!["d_year".into()],
                func,
                AggExpr::attr("lo_revenue"),
            );
            let expected = stats::run_oracle(&q, &wide).unwrap();
            assert_eq!(MonetEngine::prejoined(&wide, 4).run(&q).unwrap().groups, expected);
            assert_eq!(MonetEngine::star(&db, 4).run(&q).unwrap().groups, expected);
        }
    }

    #[test]
    fn dangling_foreign_key_is_a_typed_error() {
        // a fact row can reference a customer that does not exist: key 0
        // sits below the dimension's key base, the widest key past its
        // last row
        let clean = db();
        let fk = clean.lineorder.schema().index_of(DIMENSIONS[0].fk).unwrap();
        let widest = (1u64 << clean.lineorder.schema().attrs()[fk].bits) - 1;
        assert!(widest > clean.customer.len() as u64);
        for key in [0, widest] {
            let mut db = clean.clone();
            let mut row = db.lineorder.row(0);
            row[fk] = key;
            db.lineorder.push_row(&row).unwrap();
            let engine = MonetEngine::star(&db, 2);
            let q = Query::select([SelectItem::sum("revenue", AggExpr::attr("lo_revenue"))])
                .filter(col("lo_quantity").lt(60u64))
                .group_by(["c_nation"])
                .build_unchecked();
            let dangling = DbError::DanglingKey { relation: "customer".into(), key };
            assert_eq!(engine.run(&q).unwrap_err(), dangling);
            // the fact-only grouping of the same selection still answers
            let by_discount = Query { group_by: vec!["lo_discount".into()], ..q.clone() };
            assert!(!engine.run(&by_discount).unwrap().groups.is_empty());
            // a customer filter leaves the dangling row unselected
            let asia = Query { filter: col("c_region").eq("ASIA"), ..by_discount };
            let expected = MonetEngine::star(&clean, 2).run(&asia).unwrap().groups;
            assert_eq!(engine.run(&asia).unwrap().groups, expected);
        }
    }

    #[test]
    fn labels() {
        let db = db();
        let wide = db.prejoin();
        assert_eq!(MonetEngine::prejoined(&wide, 1).label(), "mnt_join");
        assert_eq!(MonetEngine::star(&db, 1).label(), "mnt_reg");
    }

    #[test]
    fn wall_clock_is_positive() {
        let db = db();
        let wide = db.prejoin();
        let q = queries::standard_query("Q1.1").unwrap();
        let r = MonetEngine::prejoined(&wide, 2).run(&q).unwrap();
        assert!(r.wall.as_nanos() > 0);
    }

    #[test]
    fn empty_relation_yields_empty_groups() {
        let db = db();
        let wide = db.prejoin();
        let q = Query::single(
            "t",
            vec![Atom::Gt { attr: "lo_quantity".into(), value: 63u64.into() }],
            vec!["d_year".into()],
            AggFunc::Sum,
            AggExpr::attr("lo_revenue"),
        );
        assert!(MonetEngine::prejoined(&wide, 2).run(&q).unwrap().groups.is_empty());
        assert!(MonetEngine::star(&db, 2).run(&q).unwrap().groups.is_empty());
    }
}
