//! The star storage model: sharded normalized fact table plus four
//! shared dimension modules, joined by PIM-side semijoin bitmaps.
//!
//! ## Execution model
//!
//! A query's filter is routed per DNF disjunct: atoms on `lo_*` stay
//! fact-local; atoms on a dimension's attributes run *on the dimension
//! module* as one bulk-bitwise conjunction, leaving a key bitmap in
//! its mask column (dimension keys are dense, so the mask **is** the
//! key bitmap). That bitmap crosses the host channel exactly twice per
//! disjunct-dimension — one compressed read off the dimension module,
//! one broadcast write shared by *all* fact shards in a single grant —
//! and is then AND-ed into each shard's fact mask *through the FK
//! column*: the bitmap's runs compile to range predicates in one
//! microprogram ([`bbpim_core::semijoin`]), so no per-fact-row mask
//! bits ever ride the bus. Everything around that — shard admission,
//! the threaded scatter, partial merging, mutation routing — is the
//! one [`Cluster`], and answers are bit-identical to the pre-joined
//! oracle.
//!
//! GROUP BY keys naming dimension attributes are joined at gather time
//! by [`bbpim_core::Scan::host_gb`], the one host gather of both storage
//! models, given a [`DimProbe`] per dimension a key names: the host
//! reads the selected fact records' FK chunks off the fact shards and
//! the referenced dimension chunks off the dimension modules (both with
//! exact unique-line accounting — hot dimension rows amortise across
//! fact records), then hash-aggregates.
//!
//! ## Planning
//!
//! Shard admission and page planning stay host-side and free of PIM
//! work: the planner evaluates each dimension conjunction on the
//! dimension table's stored bits (the unpriced [`PimTable::decode`] the
//! GROUP-BY domain index also reads through; UPDATEs write those bits,
//! so this is sound) and turns the selected-key hull into a BETWEEN
//! bound on the fact FK attribute — selective dimension filters prune
//! fact shards and pages *through the join*. The host keeps no row of
//! any table, so a filter on an attribute a dimension keeps host-side
//! is rejected by planning, `EXPLAIN` and execution alike.
//!
//! ## Accounting approximations
//!
//! The dimension-filter phases of a query (its *join prelude*) are
//! charged once per query, prepended to the lead shard's log. The
//! cluster decides which shard leads: [`Cluster::run`] and
//! [`Cluster::run_batch`] compile every plan afresh and lead with each
//! query's first dispatched shard;
//! [`StreamEngine::run_on_shard`](crate::StreamEngine::run_on_shard)
//! leads with the call that compiles the plan its cache lacked, so
//! stepwise execution charges what `run` does. Under the contention model the
//! prelude's bus slices serialise like any other host transfer. Other
//! shards may in reality overlap the dimension filter with their own
//! dispatch — the model keeps the whole prelude on one timeline, a
//! conservative simplification.
//!
//! ```
//! use bbpim_cluster::{Partitioner, StarCluster};
//! use bbpim_core::modes::EngineMode;
//! use bbpim_db::ssb::{queries, SsbDb, SsbParams};
//! use bbpim_sim::SimConfig;
//!
//! let db = SsbDb::generate(&SsbParams::tiny_for_tests());
//! let mut star = StarCluster::new(
//!     SimConfig::small_for_tests(), &db, EngineMode::OneXb, 2, Partitioner::RoundRobin)?;
//! let q = queries::standard_query("Q1.1").unwrap();
//! let out = star.run(&q)?;
//! println!("{}: {} records joined+selected", q.id, out.report.selected);
//! # Ok::<(), bbpim_cluster::ClusterError>(())
//! ```

use std::collections::HashSet;
use std::ops::ControlFlow;

use bbpim_core::error::CoreError;
use bbpim_core::filter_exec::RangeTerm;
use bbpim_core::groupby::host_gb::DimProbe;
use bbpim_core::groupby::GroupByOutcome;
use bbpim_core::layout::{RecordLayout, MASK_COL};
use bbpim_core::modes::EngineMode;
use bbpim_core::result::QueryExecution;
use bbpim_core::PimTable;
use bbpim_db::plan::{Atom, Pred, Query, ResolvedAtom};
use bbpim_db::schema::Schema;
use bbpim_db::ssb::star::{
    self, dim_of_attr, resolve_all, route_conjunct, TableFootprint, DIMENSIONS,
};
use bbpim_db::ssb::SsbDb;
use bbpim_db::stats::GroupedResult;
use bbpim_db::Relation;
use bbpim_sim::compiler::ColRange;
use bbpim_sim::maskwire::PackedBits;
use bbpim_sim::timeline::RunLog;
use bbpim_sim::SimConfig;

pub use crate::bitmap::KeyBitmap;
use crate::engine::{Cluster, Storage};
use crate::explain::JoinTransfer;
use crate::{ClusterError, Partitioner};

/// The normalized star storage model. It holds nothing: the cluster
/// owns the tables and caches the join plans, and the planner reads
/// dimension key bitmaps off the dimension images (`image_dim_bitmap`),
/// for free.
#[derive(Debug)]
pub struct Star;

/// A sharded PIM OLAP engine over the *normalized* SSB star schema:
/// the one [`Cluster`] with the four dimensions as its auxiliary
/// tables. Same surface and bit-identical answers as
/// [`crate::ClusterEngine`] — only the storage model and the bytes on
/// the host channel differ.
pub type StarCluster = Cluster<Star>;

/// A query's compiled join: the fact-side semijoin program inputs, the
/// FK-hull bounds the planner derived from the bitmaps, and the
/// dimension-side phase log (charged once per query, by the lead
/// shard). The transfer ledger lives on [`crate::PlanExplain`] —
/// [`Cluster::explain`] rebuilds it from the dimension images, which the
/// executed bitmaps provably match.
#[derive(Debug)]
pub struct JoinPlan {
    disjuncts: Vec<Vec<RangeTerm>>,
    bounds_dnf: Vec<Vec<ResolvedAtom>>,
    prelude: RunLog,
}

/// An attribute's column range, erroring on cold (host-resident)
/// attributes.
fn col_range(table: &PimTable, attr: &str) -> Result<ColRange, ClusterError> {
    Ok(table.layout().placement(attr)?.range)
}

/// Host-side evaluation of one dimension conjunction on the dimension
/// table's stored bits — the planner's (free) twin of the on-module
/// filter; both read the same image, so both produce the same bitmap.
fn image_dim_bitmap(dim: &PimTable, d: usize, atoms: &[Atom]) -> Result<KeyBitmap, ClusterError> {
    let resolved = resolve_all(atoms, dim.schema())?;
    let projection = dim.layout().project(atoms.iter().map(Atom::attr))?;
    let (mut bits, mut row) = (PackedBits::zeros(dim.records()), 0);
    dim.decode(&projection, &mut |values| {
        if resolved.iter().zip(values).all(|(a, &v)| a.matches_value(v)) {
            bits.set(row);
        }
        row += 1;
        ControlFlow::Continue(())
    })?;
    Ok(KeyBitmap::new(DIMENSIONS[d].key_base, bits))
}

/// Run one conjunctive filter on a dimension's module — dispatch, then
/// the bulk-bitwise mask program — and return the per-record mask as
/// it sits in the mask column, charging `log`.
fn filter_conjunction(
    dim: &mut PimTable,
    atoms: &[Atom],
    log: &mut RunLog,
) -> Result<PackedBits, ClusterError> {
    let conj = [resolve_all(atoms, dim.schema())?];
    let mut scan = dim.begin(dim.plan_dnf(&conj), None);
    scan.filter(&conj)?;
    log.extend(&scan.take_log());
    Ok(scan.mask(0, MASK_COL))
}

/// One surviving disjunct of a routed star filter.
struct RoutedDisjunct {
    /// The fact-local atoms.
    fact_atoms: Vec<Atom>,
    /// The (non-empty) key bitmap of every filtered dimension, catalog
    /// order.
    bitmaps: Vec<(usize, KeyBitmap)>,
}

impl RoutedDisjunct {
    /// What the disjunct bounds on the fact table: its fact atoms
    /// resolved, then one FK-hull BETWEEN per filtered dimension.
    fn bounds(&self, fact: &Schema) -> Result<Vec<ResolvedAtom>, ClusterError> {
        let mut bounds = resolve_all(&self.fact_atoms, fact)?;
        for (d, keys) in &self.bitmaps {
            let (lo, hi) = keys.hull().expect("the walk drops empty bitmaps");
            bounds.push(ResolvedAtom::Between { idx: fact.index_of(DIMENSIONS[*d].fk)?, lo, hi });
        }
        Ok(bounds)
    }
}

/// The one walk over a star filter. Per DNF disjunct the atoms are
/// routed by owning table; per filtered dimension (catalog order)
/// `bitmap(disjunct, d, atoms)` supplies the key bitmap of that
/// dimension's conjunction — decoded off the dimension's image when
/// planning, run on the dimension's module when executing. An empty bitmap
/// makes the disjunct false: it is dropped (it can match no fact
/// record) and its later dimensions are never visited.
fn route_filter(
    filter: &Pred,
    mut bitmap: impl FnMut(usize, usize, &[Atom]) -> Result<KeyBitmap, ClusterError>,
) -> Result<Vec<RoutedDisjunct>, ClusterError> {
    let mut routed = Vec::new();
    'disjuncts: for (disjunct, conj) in filter.dnf().iter().enumerate() {
        let (fact_atoms, dim_atoms) = route_conjunct(conj);
        let mut bitmaps = Vec::new();
        for (d, atoms) in dim_atoms.iter().enumerate().filter(|(_, atoms)| !atoms.is_empty()) {
            let keys = bitmap(disjunct, d, atoms)?;
            if keys.hull().is_none() {
                continue 'disjuncts;
            }
            bitmaps.push((d, keys));
        }
        routed.push(RoutedDisjunct { fact_atoms, bitmaps });
    }
    Ok(routed)
}

/// The dimensions a GROUP BY joins at gather time, catalog order: each
/// one that serves a key, probed through its fact FK.
fn dim_probes<'d>(dims: &'d [PimTable], group_by: &'d [String]) -> Vec<DimProbe<'d>> {
    let served = DIMENSIONS.iter().zip(dims).enumerate().map(|(d, (meta, table))| {
        let keys = group_by.iter().map(String::as_str);
        let keys: Vec<&str> = keys.filter(|g| dim_of_attr(g) == Some(d)).collect();
        DimProbe { table, meta, keys }
    });
    served.filter(|probe| !probe.keys.is_empty()).collect()
}

impl Storage for Star {
    type Plan = JoinPlan;

    /// Per surviving disjunct, the fact atoms plus one FK-hull BETWEEN
    /// per filtered dimension, and the transfer ledger of every bitmap
    /// the walk asked for: its sizes and the descriptor bytes its
    /// dimension filter dispatches as part of the join prelude.
    fn bounds(
        &self,
        fact: &Schema,
        dims: &[PimTable],
        filter: &Pred,
        broadcast: usize,
    ) -> Result<(Vec<Vec<ResolvedAtom>>, Vec<JoinTransfer>), ClusterError> {
        let mut transfers = Vec::new();
        let routed = route_filter(filter, |disjunct, d, atoms| {
            let dim = &dims[d];
            let bitmap = image_dim_bitmap(dim, d, atoms)?;
            let pages = dim.plan_dnf(&[resolve_all(atoms, dim.schema())?]);
            transfers.push(JoinTransfer {
                dimension: DIMENSIONS[d].name.to_string(),
                disjunct,
                keys_selected: bitmap.keys_selected(),
                key_space: bitmap.key_space(),
                raw_bytes: bitmap.raw_bytes(),
                wire_bytes: bitmap.wire_bytes(),
                broadcast_shards: broadcast,
                dispatch_bytes: dim.dispatch_bytes(&pages),
            });
            Ok(bitmap)
        })?;
        let dnf = routed.iter().map(|r| r.bounds(fact)).collect::<Result<_, _>>()?;
        Ok((dnf, transfers))
    }

    /// Compile a query's join: run each disjunct's dimension filters on
    /// their modules, decompose the bitmaps into semijoin runs, and
    /// charge the dimension phases plus the two bitmap transfers (read +
    /// one broadcast grant) to the plan's prelude log.
    fn plan(
        &self,
        fact: &PimTable,
        dims: &mut [PimTable],
        query: &Query,
    ) -> Result<JoinPlan, ClusterError> {
        let mut prelude = RunLog::new();
        let routed = route_filter(&query.filter, |_, d, atoms| {
            let dim = &mut dims[d];
            let bits = filter_conjunction(dim, atoms, &mut prelude)?;
            let bitmap = KeyBitmap::new(DIMENSIONS[d].key_base, bits);
            // the bitmap crosses the channel twice (a read and one
            // broadcast grant), at the dimension module's price
            let wire_lines = |line_bytes| bitmap.wire_lines(line_bytes);
            for phase in dim.module().key_bitmap_phases(bitmap.raw_bytes(), wire_lines) {
                prelude.push(phase);
            }
            Ok(bitmap)
        })?;
        let mut disjuncts = Vec::with_capacity(routed.len());
        let mut bounds_dnf = Vec::with_capacity(routed.len());
        for r in routed {
            let bounds = r.bounds(fact.schema())?;
            // the fact atoms' terms, then one FK term per filtered
            // dimension, catalog order
            let mut terms = Vec::with_capacity(r.fact_atoms.len() + r.bitmaps.len());
            for (a, resolved) in r.fact_atoms.iter().zip(&bounds) {
                let range = col_range(fact, a.attr())?;
                terms.push(RangeTerm { range, runs: resolved.runs(range.width) });
            }
            for (d, bitmap) in &r.bitmaps {
                let range = col_range(fact, DIMENSIONS[*d].fk)?;
                terms.push(RangeTerm { range, runs: bitmap.runs().collect() });
            }
            disjuncts.push(terms);
            bounds_dnf.push(bounds);
        }
        Ok(JoinPlan { disjuncts, bounds_dnf, prelude })
    }

    fn exec_shard(
        &self,
        plan: &JoinPlan,
        table: &mut PimTable,
        dims: &[PimTable],
        query: &Query,
        lead: bool,
    ) -> Result<QueryExecution, ClusterError> {
        let qplan = query.physical_plan()?;
        // aggregate operands must be fact-resident: dimension values are
        // joined for grouping, never materialised per fact row
        for agg in &qplan.aggs {
            for a in agg.attrs() {
                if dim_of_attr(a).is_some() {
                    return Err(ClusterError::Core(CoreError::Unsupported(format!(
                        "aggregating dimension attribute {a} on the normalized schema"
                    ))));
                }
            }
        }
        let pages = table.plan_dnf(&plan.bounds_dnf);
        let mut scan = table.begin(pages, lead.then_some(&plan.prelude));
        let selected = scan.filter_joined(&plan.disjuncts)?;
        let grouped = match query.has_group_by() {
            true => {
                let probes = dim_probes(dims, &query.group_by);
                let per_agg =
                    scan.host_gb(&query.group_by, &qplan.aggs, &HashSet::new(), &probes)?;
                let kmax = per_agg.first().map_or(0, GroupedResult::len);
                Some(GroupByOutcome { per_agg, k: 0, kmax, sampled: 0 })
            }
            false => None,
        };
        Ok(scan.finish(query, &qplan, selected, grouped)?)
    }
}

impl StarCluster {
    /// Build the normalized cluster from a generated SSB instance: the
    /// four dimensions each on their own module, the fact table
    /// partitioned into `shards` (empty slices dropped, as in
    /// [`crate::ClusterEngine::new`]). Residency is workload-derived
    /// ([`star::ssb_cold_attrs`]): attributes no SSB query touches stay
    /// host-side, dimension keys are positional.
    ///
    /// `mode` labels reports and selects the aggregation circuit;
    /// normalized records are single-partition either way (the two-xb
    /// fact/dimension split *is* the normalization now).
    ///
    /// # Errors
    ///
    /// Partitioning or per-table load failures.
    pub fn new(
        cfg: SimConfig,
        db: &SsbDb,
        mode: EngineMode,
        shards: usize,
        partitioner: Partitioner,
    ) -> Result<Self, ClusterError> {
        let cold = star::ssb_cold_attrs(db);
        let layout =
            |rel: &Relation, cold| RecordLayout::build_custom(rel.schema(), &cfg, 1, |_| 0, cold);
        let mut aux = Vec::with_capacity(4);
        for (d, cold) in cold[1..].iter().enumerate() {
            let rel = db.dim(d);
            aux.push(PimTable::load(cfg.clone(), rel, mode, layout(rel, cold)?)?);
        }
        let fact_layout = layout(&db.lineorder, &cold[0])?;
        let mut cluster =
            Cluster::build(&cfg, &db.lineorder, fact_layout, mode, shards, partitioner, Star)?;
        cluster.aux = aux;
        Ok(cluster)
    }

    /// Per-table PIM-resident footprints: the (cluster-wide) fact
    /// table first — zero records when no shard holds any — then the
    /// four dimensions, each without what its layout keeps host-side.
    pub fn footprints(&self) -> Vec<TableFootprint> {
        let footprint = |schema: &Schema, layout: &RecordLayout, records| {
            let names = schema.attrs().iter().map(|a| &a.name);
            let cold: Vec<String> =
                names.filter(|name| layout.is_excluded(name)).cloned().collect();
            star::schema_footprint(schema, records, &cold)
        };
        let dims = self.aux.iter().map(|dim| footprint(dim.schema(), dim.layout(), dim.records()));
        std::iter::once(footprint(&self.fact, &self.layout, self.records())).chain(dims).collect()
    }

    /// Total PIM-resident data bytes across the five tables.
    pub fn total_data_bytes(&self) -> u64 {
        self.footprints().iter().map(|f| f.data_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamEngine;
    use bbpim_core::mutation::Mutation;
    use bbpim_db::ssb::{queries, SsbParams};
    use bbpim_db::stats;
    use bbpim_db::DbError;

    fn db() -> SsbDb {
        SsbDb::generate(&SsbParams::tiny_for_tests())
    }

    fn cluster(db: &SsbDb, shards: usize) -> StarCluster {
        StarCluster::new(
            SimConfig::small_for_tests(),
            db,
            EngineMode::OneXb,
            shards,
            Partitioner::RoundRobin,
        )
        .unwrap()
    }

    /// The oracle runs on the pre-joined relation; attribute names are
    /// globally unique, so the same query text answers both models.
    fn oracle(db: &SsbDb, q: &Query) -> bbpim_db::stats::MultiGrouped {
        stats::run_oracle(q, &db.prejoin()).unwrap()
    }

    #[test]
    fn a_configuration_that_fails_validate_is_a_typed_error() {
        use bbpim_sim::SimError;
        let cfg = SimConfig { chips: 3, ..SimConfig::default() };
        let err = StarCluster::new(cfg, &db(), EngineMode::OneXb, 2, Partitioner::RoundRobin)
            .unwrap_err();
        assert!(
            matches!(err, ClusterError::Core(CoreError::Sim(SimError::InvalidConfig(_)))),
            "{err}"
        );
    }

    #[test]
    fn q1_matches_prejoined_oracle() {
        let db = db();
        let mut c = cluster(&db, 2);
        let q = queries::standard_query("Q1.1").unwrap();
        let out = c.run(&q).unwrap();
        assert_eq!(out.groups, oracle(&db, &q));
        assert!(out.report.selected > 0);
        assert!(out.report.time_ns > 0.0);
    }

    #[test]
    fn grouped_query_with_dimension_keys_matches_oracle() {
        use bbpim_db::plan::{AggExpr, SelectItem};
        let db = db();
        let mut c = cluster(&db, 2);
        // Q2.1 groups by d_year, p_brand1 — both dimension attributes;
        // the second query puts a fact key between two dimension keys,
        // each read off its own table and placed in GROUP BY order
        let mixed = Query::select([SelectItem::sum("revenue", AggExpr::attr("lo_revenue"))])
            .filter(bbpim_db::builder::col("lo_quantity").lt(25u64))
            .group_by(["c_nation", "lo_discount", "d_year"])
            .build_unchecked();
        for q in [queries::standard_query("Q2.1").unwrap(), mixed] {
            let out = c.run(&q).unwrap();
            assert!(!out.groups.is_empty());
            assert_eq!(out.groups, oracle(&db, &q), "GROUP BY {:?}", q.group_by);
        }
    }

    #[test]
    fn dangling_foreign_key_is_a_typed_error() {
        // INSERT validates arity and bit width only, so a fact row can
        // reference a customer that does not exist: key 0 sits below
        // the dimension's key base, the widest key past its last row
        let db = db();
        let fk = db.lineorder.schema().index_of("lo_custkey").unwrap();
        let widest = (1u64 << db.lineorder.schema().attrs()[fk].bits) - 1;
        assert!(widest > db.customer.len() as u64);
        for key in [0, widest] {
            let mut c = cluster(&db, 2);
            let mut row = db.lineorder.row(0);
            row[fk] = key;
            c.mutate(&Mutation::Insert { rows: vec![row] }).unwrap();
            let q = Query::select([bbpim_db::plan::SelectItem::sum(
                "revenue",
                bbpim_db::plan::AggExpr::attr("lo_revenue"),
            )])
            .filter(bbpim_db::builder::col("lo_quantity").lt(60u64))
            .group_by(["c_nation"])
            .build_unchecked();
            let dangling = DbError::DanglingKey { relation: "customer".into(), key };
            assert_eq!(c.run(&q).unwrap_err(), ClusterError::Core(CoreError::Db(dangling)));
            // the fact-only grouping of the same selection still answers
            let q = Query { group_by: vec!["lo_discount".into()], ..q };
            assert!(!c.run(&q).unwrap().groups.is_empty());
        }
    }

    #[test]
    fn gather_charges_the_unique_lines_of_fact_and_dimension_reads() {
        // the reference: touch every attribute the gather reads — on the
        // fact shard and, through the FK, on each dimension module — in
        // a deduplicating line set per module, record by record
        use bbpim_sim::hostmem::LineSet;
        fn touch(lines: &mut LineSet, t: &PimTable, record: usize, attr: &str) {
            let p = t.layout().placement(attr).unwrap();
            let (pg, slot) = t.loaded().locate(record);
            let page_id = t.loaded().pages(p.partition)[pg];
            let row = t.module().page(page_id).record_slot(slot).unwrap().row;
            lines.touch_bit_range(t.config(), page_id.0, row, p.range.lo, p.range.width);
        }
        let db = db();
        for id in ["Q2.1", "Q3.1"] {
            let mut c = cluster(&db, 2);
            let q = queries::standard_query(id).unwrap();
            let out = c.run(&q).unwrap();
            assert_eq!(out.report.per_shard.len(), 2, "{id}: round-robin prunes no shard");
            let operands: Vec<&str> =
                q.select.iter().flat_map(|item| item.expr.iter().flat_map(|e| e.attrs())).collect();
            for (shard, report) in out.report.per_shard.iter().enumerate() {
                let fact = c.shard_table(shard).unwrap();
                // fact lines first, then one set per dimension module
                let mut lines: [LineSet; 5] = Default::default();
                for record in 0..fact.loaded().records() {
                    // the query's mask is still in the shard's mask column
                    let (pg, slot) = fact.loaded().locate(record);
                    let page = fact.module().page(fact.loaded().pages(0)[pg]);
                    if page.read_record_bits(slot, MASK_COL, 1).unwrap() == 0 {
                        continue;
                    }
                    for attr in &operands {
                        touch(&mut lines[0], fact, record, attr);
                    }
                    for g in &q.group_by {
                        let Some(d) = dim_of_attr(g) else {
                            touch(&mut lines[0], fact, record, g);
                            continue;
                        };
                        touch(&mut lines[0], fact, record, DIMENSIONS[d].fk);
                        let fk = fact.read_attr(record, DIMENSIONS[d].fk).unwrap();
                        let row = DIMENSIONS[d].row(fk, c.aux[d].records()).unwrap();
                        touch(&mut lines[1 + d], &c.aux[d], row, g);
                    }
                }
                let dims_read = lines[1..].iter().filter(|l| !l.is_empty()).count();
                assert_eq!(dims_read, q.group_by.len(), "{id}: every key is a dimension's");
                let total = lines.iter().map(LineSet::len).sum();
                let fetch = fact.module().host_read_scattered_phase(total);
                assert!(report.phases.phases().contains(&fetch), "{id} shard {shard}: {total}");
            }
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let db = db();
        let mut c = cluster(&db, 2);
        let q = queries::standard_query("Q1.2").unwrap();
        let a = c.run(&q).unwrap();
        let b = c.run(&q).unwrap();
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.report.time_ns, b.report.time_ns, "prelude must recharge per run");
    }

    #[test]
    fn explain_reports_join_transfers_and_hull_bounds() {
        let db = db();
        let c = cluster(&db, 2);
        let q = queries::standard_query("Q1.1").unwrap(); // d_year = 1993
        let ex = c.explain(&q).unwrap();
        assert_eq!(ex.join_transfers.len(), 1);
        let t = &ex.join_transfers[0];
        assert_eq!(t.dimension, "date");
        assert_eq!(t.keys_selected, 365);
        assert_eq!(t.key_space, 2556);
        assert!(t.wire_bytes < t.raw_bytes, "one-year run must compress");
        assert_eq!(t.broadcast_shards, 2);
        // the join hull appears as a bound on the FK attribute
        assert!(ex.filter_bounds.iter().any(|(a, _)| a == "lo_orderdate"));
    }

    #[test]
    fn empty_dimension_selection_prunes_everything() {
        let db = db();
        let mut c = cluster(&db, 2);
        let mut q = queries::standard_query("Q1.1").unwrap();
        q.filter = Pred::all(vec![Atom::Eq {
            attr: "d_year".into(),
            value: bbpim_db::plan::Const::from(2050u64),
        }]);
        assert!(c.plan_shards(&q.filter).unwrap().iter().all(|d| !d));
        let out = c.run(&q).unwrap();
        assert_eq!(out.report.selected, 0);
        assert!(out.groups.is_empty());
    }

    #[test]
    fn footprints_stay_below_a_third_of_prejoin() {
        let db = db();
        let c = cluster(&db, 2);
        // the loaded layouts keep exactly the catalog's derivation
        // host-side
        assert_eq!(c.footprints(), star::footprints(&db));
        assert!(c.total_data_bytes() > 0);
    }

    #[test]
    fn a_cluster_without_fact_rows_still_reports_every_table() {
        let mut db = db();
        let loaded = cluster(&db, 2).footprints();
        db.lineorder = Relation::new(db.lineorder.schema().clone());
        let mut c = cluster(&db, 2);
        assert_eq!(c.active_shards(), 0);
        c.set_pruning(false);
        assert!(!c.pruning());
        assert!((0..4).all(|d| !c.aux_table(d).unwrap().pruning()));
        let fps = c.footprints();
        assert_eq!(fps.len(), 5);
        assert_eq!((fps[0].table.as_str(), fps[0].records, fps[0].data_bytes), ("lineorder", 0, 0));
        assert_eq!(fps[0].resident_bits, loaded[0].resident_bits);
        assert_eq!(fps[1..], loaded[1..]);
    }

    #[test]
    fn a_failed_shard_run_leaves_no_charged_plan() {
        let db = db();
        let q = queries::standard_query("Q1.1").unwrap();
        // same (id, filter), but its aggregate names a dimension attribute
        let bad = Query {
            select: vec![bbpim_db::plan::SelectItem::sum(
                "year",
                bbpim_db::plan::AggExpr::attr("d_year"),
            )],
            ..q.clone()
        };
        let mut c = cluster(&db, 2);
        assert!(c.run_on_shard(0, &bad).is_err());
        // the next call compiles the plan again and charges its prelude
        let want = cluster(&db, 2).run_on_shard(0, &q).unwrap();
        assert_eq!(c.run_on_shard(0, &q).unwrap(), want);
    }

    #[test]
    fn dimension_update_invalidates_plans_and_changes_answers() {
        let db = db();
        let mut c = cluster(&db, 2);
        let q = queries::standard_query("Q1.1").unwrap();
        let before = c.run(&q).unwrap();
        // move 1994 into 1993: Q1.1's d_year = 1993 filter now selects
        // twice the days
        let m = Mutation::update()
            .filter(bbpim_db::builder::col("d_year").eq(1994u64))
            .set("d_year", 1993u64)
            .build_unchecked();
        let rep = c.mutate(&m).unwrap();
        assert_eq!(rep.records_updated, 365);
        let after = c.run(&q).unwrap();
        assert!(after.report.selected > before.report.selected);
        // oracle agreement on the updated data
        let mut wide = db.prejoin();
        let widx = wide.schema().index_of("d_year").unwrap();
        for row in 0..wide.len() {
            if wide.value(row, widx) == 1994 {
                wide.set_value(row, widx, 1993).unwrap();
            }
        }
        assert_eq!(after.groups, stats::run_oracle(&q, &wide).unwrap());
    }

    #[test]
    fn cross_table_update_rejected() {
        let db = db();
        let mut c = cluster(&db, 1);
        let m = Mutation::update()
            .filter(bbpim_db::builder::col("d_year").eq(1993u64))
            .set("lo_discount", 0u64)
            .build_unchecked();
        assert!(matches!(c.mutate(&m), Err(ClusterError::InvalidCluster(_))));
    }

    /// The date dimension (catalog index 3) of a one-shard cluster.
    const DATE: usize = 3;

    #[test]
    fn dimension_filter_yields_key_bitmap() {
        let db = db();
        let mut c = cluster(&db, 1);
        let t = &mut c.aux[DATE];
        let atom = Atom::Eq { attr: "d_year".into(), value: 1993u64.into() };
        let mut log = RunLog::new();
        let mask = filter_conjunction(t, std::slice::from_ref(&atom), &mut log).unwrap();
        let year = db.date.schema().index_of("d_year").unwrap();
        for (row, got) in mask.iter().enumerate() {
            assert_eq!(got, db.date.value(row, year) == 1993, "row {row}");
        }
        assert_eq!(mask.count_ones(), 365);
        assert!(log.total_time_ns() > 0.0);
        // the planner's image-side twin is the same bitmap
        let executed = KeyBitmap::new(DIMENSIONS[DATE].key_base, mask);
        assert_eq!(image_dim_bitmap(&c.aux[DATE], DATE, &[atom]).unwrap(), executed);
    }

    #[test]
    fn the_planner_sees_a_dimension_update_in_the_image() {
        let db = db();
        let mut c = cluster(&db, 1);
        let m = Mutation::update()
            .filter(bbpim_db::builder::col("d_year").eq(1995u64))
            .set("d_weeknuminyear", 53u64)
            .build_unchecked();
        assert_eq!(c.mutate(&m).unwrap().records_updated, 365);
        // week 53 now holds every day of 1995 beside the days it held
        let schema = db.date.schema();
        let (year, week) =
            (schema.index_of("d_year").unwrap(), schema.index_of("d_weeknuminyear").unwrap());
        let mut want = PackedBits::zeros(db.date.len());
        for row in 0..db.date.len() {
            if db.date.value(row, year) == 1995 || db.date.value(row, week) == 53 {
                want.set(row);
            }
        }
        let atom = Atom::Eq { attr: "d_weeknuminyear".into(), value: 53u64.into() };
        let planned = image_dim_bitmap(&c.aux[DATE], DATE, &[atom]).unwrap();
        assert_eq!(planned, KeyBitmap::new(DIMENSIONS[DATE].key_base, want));
    }

    #[test]
    fn cold_attributes_stay_host_side() {
        let c = cluster(&db(), 1);
        let t = &c.aux[DATE];
        assert!(col_range(t, "d_datekey").is_err(), "dim keys are positional, not stored");
        assert!(col_range(t, "d_year").is_ok());
    }
}
