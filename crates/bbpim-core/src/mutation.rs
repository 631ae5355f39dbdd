//! Mutations: INSERT/UPDATE as first-class logical operations.
//!
//! Section III of the paper: with pre-joined relations an UPDATE
//! duplicates one datum into many records (a customer's city appears
//! in every one of their purchases). In bulk-bitwise PIM the
//! maintenance is cheap: a filter selects the affected records, and the
//! Algorithm 1 MUX overwrites the attribute wherever the select bit is
//! set — *PIM operations only, no reads*, eliminating data movement
//! almost entirely. The paper's shape is a conjunctive WHERE clause and
//! a single SET column; HTAP streaming needs more — OR-filters,
//! multi-column SET (one filter pass, several MUX rewrites), and INSERT
//! (append rows to the PIM-resident image so write-heavy streams grow
//! the data online). [`Mutation`] captures all of it:
//!
//! * [`Mutation::Update`] — full [`Pred`] filter tree plus a SET list.
//!   Execution reuses the query filter path (zone-planned, DNF mask
//!   program), then applies Algorithm 1's MUX once per target column
//!   under the *shared* select mask; every candidate page's zone map is
//!   widened per written attribute, so OR-filter mutations keep pruning
//!   sound (the bounds of a DNF plan are the per-attribute interval
//!   *union* of its disjuncts, and every page that union admits gets
//!   widened). Every SET constant is checked against its attribute's
//!   width before anything is written, and the table's GROUP-BY domain
//!   index forgets the prefixes the SET list writes (the next GROUP BY
//!   rebuilds them from the image), so the UPDATE reads no record.
//! * [`Mutation::Insert`] — encoded rows appended behind the loaded
//!   image ([`crate::loader::append_rows`]): byte-tagged host writes,
//!   fresh pages reserved when the image is full, zone maps grown to
//!   cover the new rows. Capacity is all-or-nothing: an INSERT the
//!   module cannot hold fails with the table unchanged.
//!
//! Mutations are built fluently through [`Mutation::update`] /
//! [`Mutation::insert`] (schema-validated, mirroring
//! [`bbpim_db::builder::QueryBuilder`]).

use std::sync::PoisonError;

use bbpim_db::plan::{Const, Pred};
use bbpim_db::schema::Schema;
use bbpim_db::stats::row_matches_dnf;
use bbpim_db::{DbError, Relation};
use bbpim_sim::compiler::{mux, CodeBuilder, ScratchPool};
use bbpim_sim::timeline::RunLog;

use crate::error::CoreError;
use crate::layout::{MASK_COL, TRANSFER_COL};
use crate::loader::append_rows;
use crate::result::run_endurance;
use crate::table::PimTable;

/// One logical mutation against a PIM-resident relation.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Append rows (already dictionary-encoded, one `u64` per
    /// attribute in schema order). Built via [`Mutation::insert`],
    /// which resolves string constants at build time.
    Insert {
        /// Encoded rows to append.
        rows: Vec<Vec<u64>>,
    },
    /// `UPDATE t SET a₁ = c₁ [, a₂ = c₂…] WHERE filter` with a full
    /// `And`/`Or` filter tree.
    Update {
        /// WHERE clause (any [`Pred`] shape; normalised to DNF at
        /// execution).
        filter: Pred,
        /// SET list: `(attribute, constant)` pairs, applied under one
        /// shared select mask.
        set: Vec<(String, Const)>,
    },
}

impl Mutation {
    /// Start a fluent UPDATE builder (mirrors
    /// [`bbpim_db::plan::Query::select`]).
    pub fn update() -> MutationBuilder {
        MutationBuilder { filter: None, set: Vec::new() }
    }

    /// Start a fluent INSERT builder.
    pub fn insert() -> InsertBuilder {
        InsertBuilder { rows: Vec::new() }
    }

    /// Short label for traces and reports.
    pub fn label(&self) -> String {
        match self {
            Mutation::Insert { rows } => format!("insert[{} rows]", rows.len()),
            Mutation::Update { set, .. } => {
                let attrs: Vec<&str> = set.iter().map(|(a, _)| a.as_str()).collect();
                format!("update[{}]", attrs.join(","))
            }
        }
    }

    /// Validate against a schema: SET attributes exist with encodable,
    /// in-range constants and no duplicates, the filter resolves, INSERT
    /// rows have the right arity and in-range values.
    ///
    /// # Errors
    ///
    /// [`CoreError::Db`] / [`CoreError::Unsupported`] describing the
    /// first problem found.
    pub fn validate(&self, schema: &Schema) -> Result<(), CoreError> {
        match self {
            Mutation::Insert { rows } => {
                Ok(rows.iter().try_for_each(|row| schema.check_row(row))?)
            }
            Mutation::Update { filter, set } => {
                if set.is_empty() {
                    return Err(CoreError::Unsupported("UPDATE with an empty SET list".into()));
                }
                filter.resolve_dnf(schema)?;
                let mut seen: Vec<&str> = Vec::new();
                for (attr, value) in set {
                    if seen.contains(&attr.as_str()) {
                        return Err(CoreError::Unsupported(format!(
                            "duplicate SET attribute {attr}"
                        )));
                    }
                    seen.push(attr);
                    resolve_const(schema, attr, value)?;
                }
                Ok(())
            }
        }
    }

    /// Apply this mutation to a host-side [`Relation`] — the replay
    /// oracle's half of snapshot consistency: a replayed prefix of
    /// admitted mutations applied here must leave the relation
    /// bit-identical to what the PIM engines hold. No engine calls it;
    /// their tables are the only copy of the rows. Returns the records
    /// rewritten or appended.
    ///
    /// # Errors
    ///
    /// Resolution failures; arity/domain violations on INSERT rows.
    pub fn apply_to(&self, rel: &mut Relation) -> Result<u64, CoreError> {
        match self {
            Mutation::Insert { rows } => {
                for row in rows {
                    rel.push_row(row)?;
                }
                Ok(rows.len() as u64)
            }
            Mutation::Update { filter, set } => {
                let schema = rel.schema();
                let resolve = |(attr, value): &(String, Const)| resolve_const(schema, attr, value);
                let targets = set.iter().map(resolve).collect::<Result<Vec<_>, _>>()?;
                let dnf = filter.resolve_dnf(schema)?;
                let hits: Vec<usize> =
                    (0..rel.len()).filter(|&row| row_matches_dnf(&dnf, rel, row)).collect();
                for &row in &hits {
                    for &(attr_idx, imm) in &targets {
                        rel.set_value(row, attr_idx, imm)?;
                    }
                }
                Ok(hits.len() as u64)
            }
        }
    }
}

/// Fluent UPDATE builder (schema-validated at [`MutationBuilder::build`]).
#[derive(Debug, Clone)]
pub struct MutationBuilder {
    filter: Option<Pred>,
    set: Vec<(String, Const)>,
}

impl MutationBuilder {
    /// Set the WHERE clause; calling again ANDs the predicates, exactly
    /// like [`bbpim_db::builder::QueryBuilder::filter`].
    #[must_use]
    pub fn filter(mut self, pred: Pred) -> Self {
        self.filter = Some(match self.filter.take() {
            None => pred,
            Some(existing) => existing.and(pred),
        });
        self
    }

    /// Append one SET column.
    #[must_use]
    pub fn set(mut self, attr: impl Into<String>, value: impl Into<Const>) -> Self {
        self.set.push((attr.into(), value.into()));
        self
    }

    /// Finish without validation.
    pub fn build_unchecked(self) -> Mutation {
        Mutation::Update { filter: self.filter.unwrap_or_else(Pred::always), set: self.set }
    }

    /// Finish and validate against `schema`.
    ///
    /// # Errors
    ///
    /// See [`Mutation::validate`].
    pub fn build(self, schema: &Schema) -> Result<Mutation, CoreError> {
        let m = self.build_unchecked();
        m.validate(schema)?;
        Ok(m)
    }
}

/// Fluent INSERT builder: rows are given as [`Const`]s and resolved
/// (dictionary strings encoded) against the schema at build time.
#[derive(Debug, Clone, Default)]
pub struct InsertBuilder {
    rows: Vec<Vec<Const>>,
}

impl InsertBuilder {
    /// Append one row (schema attribute order).
    #[must_use]
    pub fn row<I, C>(mut self, values: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: Into<Const>,
    {
        self.rows.push(values.into_iter().map(Into::into).collect());
        self
    }

    /// Finish: encode every constant against `schema` and validate.
    ///
    /// # Errors
    ///
    /// Arity mismatches, unknown dictionary strings, out-of-range
    /// numerics.
    pub fn build(self, schema: &Schema) -> Result<Mutation, CoreError> {
        let mut rows = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            // before encoding: `zip` would drop a long row's extra values
            let (got, expected) = (row.len(), schema.arity());
            if got != expected {
                return Err(DbError::ArityMismatch { got, expected }.into());
            }
            let encoded = schema.attrs().iter().zip(row).map(|(attr, value)| attr.encode(value));
            rows.push(encoded.collect::<Result<Vec<u64>, DbError>>()?);
        }
        let m = Mutation::Insert { rows };
        m.validate(schema)?;
        Ok(m)
    }
}

/// Outcome of one executed mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationReport {
    /// Records rewritten (UPDATE).
    pub records_updated: u64,
    /// Records appended (INSERT).
    pub records_inserted: u64,
    /// Pages the planner let the mutation touch (per partition).
    pub pages_scanned: usize,
    /// Simulated time, nanoseconds.
    pub time_ns: f64,
    /// Shared host-channel occupancy (dispatch + transfer bandwidth),
    /// nanoseconds — the slice of `time_ns` serialised across shards
    /// (see `QueryReport::host_bus_ns`).
    pub host_bus_ns: f64,
    /// PIM energy, picojoules.
    pub energy_pj: f64,
    /// Worst-row cell writes this mutation caused over the pages it
    /// touched (the counters reset when it starts, as for a query) —
    /// the endurance model's input (Fig. 9), surfaced so write-heavy
    /// streams report device wear, not just latency.
    pub max_row_cell_writes: u64,
    /// Cells per crossbar row (the endurance model's write-spread
    /// denominator).
    pub row_cells: usize,
    /// Phase log.
    pub phases: RunLog,
}

impl MutationReport {
    /// Required cell endurance (write cycles) to sustain this mutation
    /// back-to-back for `years` (Fig. 9's metric).
    pub fn required_endurance(&self, years: f64) -> f64 {
        run_endurance(self.max_row_cell_writes, self.row_cells, self.time_ns, years)
    }
}

/// Resolve one SET target: attribute index plus encoded immediate,
/// which must fit the attribute's width.
fn resolve_const(schema: &Schema, attr: &str, value: &Const) -> Result<(usize, u64), CoreError> {
    let attr_idx = schema.index_of(attr)?;
    let attr = &schema.attrs()[attr_idx];
    let imm = attr.encode(value)?;
    attr.check(imm)?;
    Ok((attr_idx, imm))
}

/// Execute a mutation against one table, as the module docs describe:
/// an UPDATE is planned like a query filter (every page when the
/// table's pruning is off) and rewrites each SET column under the one
/// shared select mask, which travels to a target's partition at most
/// once; an INSERT is [`append_rows`].
///
/// Both arms keep the table's domain index in step with the image: an
/// INSERT adds its rows' tuples once the image holds them, and an UPDATE
/// forgets every built prefix its SET list writes before it writes
/// anything, so the next GROUP BY that names one builds it again from
/// the image and the UPDATE reads no record. A mutation refused before
/// it writes leaves the index as it was.
///
/// # Errors
///
/// Propagates resolution/compiler/simulator failures.
pub fn run_mutation(
    table: &mut PimTable,
    mutation: &Mutation,
) -> Result<MutationReport, CoreError> {
    let (updated, inserted, touched, log) = match mutation {
        Mutation::Insert { rows } => {
            let PimTable { module, schema, layout, loaded, domains, .. } = &mut *table;
            // like a scan, report the wear of this mutation alone
            module.reset_endurance(&loaded.all_pages());
            let (log, touched) = append_rows(module, layout, loaded, schema, rows)?;
            let index = domains.get_mut().unwrap_or_else(PoisonError::into_inner);
            index.insert(rows, loaded.records());
            (0, rows.len() as u64, touched, log)
        }
        Mutation::Update { filter, set } => {
            let (updated, touched, log) = run_update(table, filter, set)?;
            (updated, 0, touched, log)
        }
    };
    let PimTable { module, layout, loaded, .. } = &*table;
    let touched_ids: Vec<_> = (0..layout.partitions())
        .flat_map(|p| touched.iter().map(move |&pg| loaded.pages(p)[pg]))
        .collect();
    Ok(MutationReport {
        records_updated: updated,
        records_inserted: inserted,
        pages_scanned: touched.len(),
        time_ns: log.total_time_ns(),
        host_bus_ns: bbpim_sim::hostbus::log_occupancy_ns(&module.config().host, &log),
        energy_pj: log.total_energy_pj(),
        max_row_cell_writes: module.max_row_cell_writes(&touched_ids),
        row_cells: module.config().crossbar_cols,
        phases: log,
    })
}

/// The UPDATE arm: `(records rewritten, page indices touched, phases)`.
fn run_update(
    table: &mut PimTable,
    filter: &Pred,
    set: &[(String, Const)],
) -> Result<(u64, Vec<usize>, RunLog), CoreError> {
    // Resolve every SET target up front: placement, then attribute
    // index and immediate.
    let place = |(attr, _): &(String, Const)| table.layout.placement(attr);
    let placements = set.iter().map(place).collect::<Result<Vec<_>, _>>()?;
    let resolve = |(attr, value): &(String, Const)| resolve_const(&table.schema, attr, value);
    let assigned = set.iter().map(resolve).collect::<Result<Vec<_>, _>>()?;
    // Filter (the query path, zone maps included): the resolved DNF may
    // have several disjuncts; planning unions their bounds.
    let dnf = filter.resolve_dnf(&table.schema)?;
    // Resolved, and before the first write: the next GROUP BY that
    // names a written prefix builds it again from the image.
    let domains = table.domains.get_mut().unwrap_or_else(PoisonError::into_inner);
    domains.forget(assigned.iter().map(|&(attr, _)| attr));
    let mut scan = table.begin(table.plan_dnf(&dnf), None);
    let updated = scan.filter(&dnf)?;

    if !scan.pages.is_empty() {
        // The select bit lives in partition 0's mask column; transfer
        // it at most once per other partition a target lives in, then
        // rewrite each SET column under the shared mask (Algorithm 1).
        let mut transferred: Vec<usize> = Vec::new();
        for (&placement, &(_, imm)) in placements.iter().zip(&assigned) {
            let select_col = if placement.partition == 0 {
                MASK_COL
            } else {
                if !transferred.contains(&placement.partition) {
                    scan.move_mask(0, MASK_COL, Some(placement.partition))?;
                    transferred.push(placement.partition);
                }
                TRANSFER_COL
            };
            let mut pool = ScratchPool::new(scan.table().layout().scratch(placement.partition));
            let mut b = CodeBuilder::new(&mut pool);
            mux::compile_mux_update(&mut b, placement.range, imm, select_col)?;
            scan.exec(placement.partition, &b.finish())?;
        }
    }
    let (touched, log) = (scan.pages.indices().to_vec(), scan.take_log());

    // Zone maintenance: every candidate page may now hold each written
    // immediate.
    for &(attr_idx, imm) in &assigned {
        table.loaded.widen_zones(&touched, attr_idx, imm);
    }
    Ok((updated, touched, log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use crate::modes::EngineMode;
    use bbpim_db::builder::col;
    use bbpim_db::plan::{Query, SelectItem};
    use bbpim_db::stats;
    use bbpim_sim::timeline::PhaseKind;

    fn table(mode: EngineMode) -> (PimTable, Relation) {
        fixture::table(mode, &[("lo_v", 8), ("d_city", 6)], (0..500).map(|i| vec![i % 256, i % 40]))
    }

    /// `SELECT COUNT(*) WHERE filter GROUP BY keys`.
    fn grouped(filter: Pred, keys: &[&str]) -> Query {
        let q = Query::select([SelectItem::count("n")]).filter(filter);
        q.group_by(keys.iter().copied()).build_unchecked()
    }

    /// The table's GROUP-BY domains of every probe equal the row scan
    /// of the replayed relation.
    fn assert_domains(t: &mut PimTable, rel: &Relation, probes: &[Query], what: &str) {
        for q in probes {
            let want = stats::group_domains(q, rel).unwrap();
            assert_eq!(
                t.group_domains(q).unwrap(),
                want,
                "{what}: {} by {:?}",
                q.filter,
                q.group_by
            );
        }
    }

    /// UPDATE rewrites only the matching records — under a single
    /// equality (the paper's shape) and under an OR of two — exactly as
    /// the replayed relation does.
    #[test]
    fn update_rewrites_only_matching_records() {
        let cities = |hits: &'static [u64]| {
            hits.iter().map(|&c| col("d_city").eq(c)).reduce(|a, b| a.or(b)).unwrap()
        };
        for hits in [&[7u64][..], &[7, 11]] {
            let (mut t, mut rel) = table(EngineMode::OneXb);
            let m = Mutation::update()
                .filter(cities(hits))
                .set("d_city", 39u64)
                .build(t.schema())
                .unwrap();
            let before: Vec<u64> = (0..rel.len()).map(|r| rel.value(r, 1)).collect();
            let rep = t.mutate(&m).unwrap();
            let expected_hits = before.iter().filter(|v| hits.contains(v)).count() as u64;
            assert_eq!(rep.records_updated, expected_hits);
            assert_eq!(m.apply_to(&mut rel).unwrap(), expected_hits);
            for (record, prior) in before.iter().enumerate() {
                let got = t.read_attr(record, "d_city").unwrap();
                let expected = if hits.contains(prior) { 39 } else { *prior };
                assert_eq!(got, expected, "record {record}");
                assert_eq!(rel.value(record, 1), expected);
            }
        }
    }

    #[test]
    fn multi_column_set_shares_one_filter_pass() {
        let (mut t, rel) = table(EngineMode::OneXb);
        let m = Mutation::update()
            .filter(col("lo_v").lt(10u64))
            .set("lo_v", 255u64)
            .set("d_city", 3u64)
            .build(t.schema())
            .unwrap();
        let hit: Vec<bool> = (0..rel.len()).map(|r| rel.value(r, 0) < 10).collect();
        let rep = t.mutate(&m).unwrap();
        assert_eq!(rep.records_updated, hit.iter().filter(|h| **h).count() as u64);
        for (record, was_hit) in hit.iter().enumerate() {
            if *was_hit {
                assert_eq!(t.read_attr(record, "lo_v").unwrap(), 255);
                assert_eq!(t.read_attr(record, "d_city").unwrap(), 3);
            }
        }
        // one shared mask: exactly one filter's worth of PIM programs
        // before the two MUX rewrites — the mask is computed once.
        assert!(rep.phases.time_in(PhaseKind::PimLogic) > 0.0);
        // the paper's point: a one-xb UPDATE uses PIM ops only — no
        // data movement
        assert_eq!(rep.phases.time_in(PhaseKind::HostRead), 0.0);
        assert_eq!(rep.phases.time_in(PhaseKind::HostWrite), 0.0);
    }

    #[test]
    fn insert_appends_rows_and_widens_zones() {
        let (mut t, _) = table(EngineMode::OneXb);
        let before = t.records();
        let zone_before = t.loaded().zone_map();
        assert!(zone_before.range(1).unwrap().1 < 63);
        let m = Mutation::insert()
            .row(vec![200u64, 63u64])
            .row(vec![201u64, 62u64])
            .build(t.schema())
            .unwrap();
        let rep = t.mutate(&m).unwrap();
        assert_eq!(rep.records_inserted, 2);
        assert_eq!(t.records(), before + 2);
        assert_eq!(t.read_attr(before, "d_city").unwrap(), 63);
        assert_eq!(t.read_attr(before + 1, "lo_v").unwrap(), 201);
        // zones grew to cover the new value
        assert_eq!(t.loaded().zone_map().range(1).unwrap().1, 63);
        // inserts cross the host channel as byte-tagged writes
        assert!(rep.phases.time_in(PhaseKind::HostWrite) > 0.0);
        assert!(rep.phases.host_bytes_in(PhaseKind::HostWrite) > 0);
    }

    #[test]
    fn insert_allocates_fresh_pages_when_the_image_is_full() {
        let (mut t, rel) = table(EngineMode::OneXb);
        let rpp = t.config().records_per_page();
        let pages_before = t.loaded().page_count();
        let free = pages_before * rpp - t.records();
        let mut b = Mutation::insert();
        for i in 0..(free + 3) as u64 {
            b = b.row(vec![i % 256, i % 40]);
        }
        let m = b.build(t.schema()).unwrap();
        t.mutate(&m).unwrap();
        assert_eq!(t.loaded().page_count(), pages_before + 1);
        assert_eq!(t.records(), rel.len() + free + 3);
        // new rows are readable from the fresh page
        let last = t.records() - 1;
        assert_eq!(t.read_attr(last, "lo_v").unwrap(), ((free + 2) % 256) as u64);
    }

    /// A refused INSERT — a batch the module cannot hold — leaves the
    /// image, the zones and the domain index exactly as they were: the
    /// rows carry a `d_city` no record holds, so a count taken before
    /// the refusal would show in the domains.
    #[test]
    fn insert_out_of_capacity_leaves_the_table_unchanged() {
        use bbpim_sim::{SimConfig, SimError};
        let probes = [
            grouped(col("d_city").gt(5u64), &["d_city"]),
            grouped(col("lo_v").lt(100u64), &["lo_v"]),
        ];
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            // a three-page module holding one full page per partition
            let mut cfg = SimConfig::small_for_tests();
            cfg.module_capacity_bytes = 3 * cfg.page_bytes as u64;
            let rpp = cfg.records_per_page();
            let mut rel = Relation::new(table(mode).1.schema().clone());
            for i in 0..rpp as u64 {
                rel.push_row(&[i % 256, i % 40]).unwrap();
            }
            let layout = crate::layout::RecordLayout::build(rel.schema(), &cfg, mode, &[]).unwrap();
            let mut t = PimTable::load(cfg, &rel, mode, layout).unwrap();
            let insert = |rows: usize| Mutation::Insert { rows: vec![vec![9, 41]; rows] };
            let consistent = |t: &mut PimTable, rel: &Relation, pages: usize| {
                let records = rel.len();
                assert_eq!(t.records(), records);
                for partition in 0..t.layout().partitions() {
                    assert_eq!(t.loaded().pages(partition).len(), pages, "{mode:?}: aligned");
                }
                assert_eq!(t.loaded().page_zones.len(), pages);
                let count = Query::select([SelectItem::count("n")]).build_unchecked();
                let out = crate::engine::run_query(t, &count).unwrap();
                assert_eq!(out.groups[&vec![]], vec![records as u64], "{mode:?}: COUNT answers");
                assert_domains(t, rel, &probes, &format!("{mode:?}, {records} records"));
            };
            consistent(&mut t, &rel, 1);
            // a batch that only partly fits is refused whole
            let err = t.mutate(&insert(2 * rpp + 1)).unwrap_err();
            assert!(matches!(err, CoreError::Sim(SimError::OutOfCapacity { .. })), "{err}");
            consistent(&mut t, &rel, 1);
            // one row at a time until the module is full: two more pages
            // under one-xb, none under two-xb (one free page, two needed)
            let mut inserted = 0;
            let err = loop {
                let one = insert(1);
                match t.mutate(&one) {
                    Ok(_) => inserted += one.apply_to(&mut rel).unwrap(),
                    Err(err) => break err,
                }
            };
            assert!(matches!(err, CoreError::Sim(SimError::OutOfCapacity { .. })), "{err}");
            let fits = if mode == EngineMode::OneXb { 2 } else { 0 };
            assert_eq!(inserted as usize, fits * rpp, "{mode:?}");
            consistent(&mut t, &rel, 1 + fits);
            // and the refusal repeats, the table still whole
            assert!(t.mutate(&insert(1)).is_err());
            consistent(&mut t, &rel, 1 + fits);
        }
    }

    /// An UPDATE whose SET list falls in an indexed prefix forgets the
    /// prefix, and the next GROUP BY builds it again from the rewritten
    /// image. Kept instead, the tuples of `d_year = 2` would never leave
    /// the index, and `2` would stay in the year domain.
    #[test]
    fn an_update_of_an_indexed_prefix_moves_its_domains() {
        let probes = [
            grouped(col("d_city").lt(25u64), &["d_year"]),
            grouped(col("d_year").eq(7u64).or(col("lo_v").gt(200u64)), &["d_city"]),
            grouped(col("lo_v").lt(100u64), &["d_city", "d_year"]),
        ];
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let attrs = [("lo_v", 8), ("d_city", 6), ("d_year", 3)];
            let rows = (0..600).map(|i| vec![i % 256, i % 40, (i % 40) / 6]);
            let (mut t, mut rel) = fixture::table(mode, &attrs, rows);
            assert_domains(&mut t, &rel, &probes, "loaded");
            let schema = t.schema().clone();
            let updates = [
                Mutation::update().filter(col("d_year").eq(2u64)).set("d_year", 7u64),
                // a cross-prefix filter moves part of city 3 only
                Mutation::update()
                    .filter(col("lo_v").lt(128u64).and(col("d_city").eq(3u64)))
                    .set("d_city", 63u64)
                    .set("d_year", 5u64),
                // a fact-side SET moves no dimension tuple
                Mutation::update().filter(col("d_city").eq(4u64)).set("lo_v", 1u64),
            ];
            for m in updates {
                let m = m.build(&schema).unwrap();
                assert!(t.mutate(&m).unwrap().records_updated > 0, "{}", m.label());
                m.apply_to(&mut rel).unwrap();
                assert_domains(&mut t, &rel, &probes, &format!("{mode:?}, {}", m.label()));
            }
            let years = t.group_domains(&probes[0]).unwrap();
            assert!(!years[0].contains(&2), "{mode:?}: year 2 left every record");
        }
    }

    #[test]
    fn inserted_rows_are_selected_by_later_filters() {
        let (mut t, _) = table(EngineMode::OneXb);
        // no existing row has d_city == 63
        let m = Mutation::insert().row(vec![9u64, 63u64]).build(t.schema()).unwrap();
        t.mutate(&m).unwrap();
        let upd = Mutation::update()
            .filter(col("d_city").eq(63u64))
            .set("lo_v", 77u64)
            .build(t.schema())
            .unwrap();
        let rep = t.mutate(&upd).unwrap();
        assert_eq!(rep.records_updated, 1);
        assert_eq!(t.read_attr(t.records() - 1, "lo_v").unwrap(), 77);
    }

    #[test]
    fn builder_validates_against_schema() {
        let (t, _) = table(EngineMode::OneXb);
        let schema = t.schema();
        assert!(Mutation::update().set("nope", 1u64).build(schema).is_err());
        assert!(Mutation::update().filter(col("lo_v").eq(1u64)).build(schema).is_err());
        assert!(Mutation::update().set("lo_v", 1u64).set("lo_v", 2u64).build(schema).is_err());
        assert!(Mutation::insert().row(vec![1u64]).build(schema).is_err());
        assert!(Mutation::insert().row(vec![1u64, 999u64]).build(schema).is_err());
        assert!(Mutation::update()
            .filter(col("lo_v").eq(1u64))
            .set("d_city", 5u64)
            .build(schema)
            .is_ok());
    }

    #[test]
    fn insert_builder_rejects_wrong_arity_like_a_raw_insert() {
        let (t, _) = table(EngineMode::OneXb);
        let schema = t.schema();
        for row in [vec![1u64], vec![1, 2, 3]] {
            let want = DbError::ArityMismatch { got: row.len(), expected: 2 };
            let built = Mutation::insert().row(row.clone()).build(schema);
            assert!(matches!(built, Err(CoreError::Db(ref e)) if *e == want), "{built:?}");
            let raw = Mutation::Insert { rows: vec![row] }.validate(schema);
            assert!(matches!(raw, Err(CoreError::Db(ref e)) if *e == want), "{raw:?}");
        }
    }

    #[test]
    fn two_xb_update_of_dimension_attr_transfers_mask() {
        let (mut t, _) = table(EngineMode::TwoXb);
        // fact-side filter, dimension-side target: mask must travel
        let m = Mutation::update()
            .filter(col("lo_v").lt(50u64))
            .set("d_city", 1u64)
            .build(t.schema())
            .unwrap();
        let report = t.mutate(&m).unwrap();
        assert!(report.phases.time_in(PhaseKind::HostWrite) > 0.0);
        for record in 0..t.records() {
            let v = t.read_attr(record, "lo_v").unwrap();
            let city = t.read_attr(record, "d_city").unwrap();
            if v < 50 {
                assert_eq!(city, 1);
            }
        }
    }

    #[test]
    fn update_cost_independent_of_matched_count() {
        let zero_city = |filter| {
            let (mut t, _) = table(EngineMode::OneXb);
            let m = Mutation::update().filter(filter).set("d_city", 0u64);
            t.mutate(&m.build(t.schema()).unwrap()).unwrap()
        };
        let t1 = zero_city(col("lo_v").eq(3u64));
        let t2 = zero_city(col("lo_v").lt(250u64));
        assert!(t2.records_updated > 50 * t1.records_updated.max(1));
        // The MUX pass itself is selection-size independent: the last
        // PIM-logic phase (the rewrite) takes identical time for 2 and
        // for 480 matched records. (Total times differ only because the
        // two filter *programs* compile to different cycle counts.)
        let mux_time = |rep: &MutationReport| {
            rep.phases
                .phases()
                .iter()
                .rev()
                .find(|p| p.kind == PhaseKind::PimLogic)
                .map(|p| p.time_ns)
                .unwrap()
        };
        assert!((mux_time(&t1) - mux_time(&t2)).abs() < 1e-9);
    }

    #[test]
    fn identical_mutations_report_equal_wear() {
        // wear is measured per mutation, not accumulated since the last
        // query: the same work must report the same cell writes and the
        // same required endurance every time
        for mode in [EngineMode::OneXb, EngineMode::TwoXb] {
            let (mut t, _) = table(mode);
            let update = Mutation::update()
                .filter(col("lo_v").lt(10u64))
                .set("d_city", 3u64)
                .build(t.schema())
                .unwrap();
            let insert = Mutation::insert().row([7u64, 7u64]).build(t.schema()).unwrap();
            for m in [&update, &insert] {
                let reports: Vec<_> = (0..3).map(|_| t.mutate(m).unwrap()).collect();
                assert!(reports[0].max_row_cell_writes > 0, "{mode:?} {}", m.label());
                for r in &reports[1..] {
                    assert_eq!(r.max_row_cell_writes, reports[0].max_row_cell_writes, "{mode:?}");
                    assert_eq!(r.required_endurance(10.0), reports[0].required_endurance(10.0));
                }
            }
        }
    }

    #[test]
    fn oracle_apply_matches_pim_state() {
        let (mut t, mut oracle) = table(EngineMode::OneXb);
        let probes = [grouped(col("lo_v").gt(20u64), &["d_city"])];
        assert_domains(&mut t, &oracle, &probes, "loaded");
        let ms = vec![
            Mutation::update()
                .filter(col("d_city").eq(5u64).or(col("lo_v").gt(250u64)))
                .set("d_city", 1u64)
                .build(t.schema())
                .unwrap(),
            Mutation::insert().row(vec![130u64, 22u64]).build(t.schema()).unwrap(),
            Mutation::update()
                .filter(col("lo_v").eq(130u64))
                .set("lo_v", 131u64)
                .set("d_city", 2u64)
                .build(t.schema())
                .unwrap(),
        ];
        for m in &ms {
            t.mutate(m).unwrap();
            m.apply_to(&mut oracle).unwrap();
            assert_domains(&mut t, &oracle, &probes, &m.label());
        }
        // the PIM image agrees with the replayed relation
        assert_eq!(t.records(), oracle.len());
        for row in 0..oracle.len() {
            assert_eq!(t.read_attr(row, "lo_v").unwrap(), oracle.value(row, 0));
            assert_eq!(t.read_attr(row, "d_city").unwrap(), oracle.value(row, 1));
        }
    }
}
