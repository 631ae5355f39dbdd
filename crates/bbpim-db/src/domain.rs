//! The GROUP-BY domain index: what the host keeps instead of a catalog
//! to enumerate a query's potential subgroups.
//!
//! The paper's `k_MAX` (Table II) is the product over GROUP BY keys of
//! the distinct values each key takes among the records that pass the
//! filter atoms *of the key's own dimension* — attributes share a
//! dimension when their names share the [`prefix`] before the first `_`
//! ([`crate::stats::group_domains`] is the row-at-a-time reference).
//! Within one dimension the records repeat a small set of tuples (every
//! purchase of one part carries that part's brand, category and
//! colour), so a [`DomainIndex`] keeps, per prefix, the set of distinct
//! tuples of the prefix's indexed attributes, and the domain filter
//! walks those tuples instead of the records: at most one dimension's
//! cardinality, whatever the fact row count.
//!
//! The index does not read the records itself: a prefix is built the
//! first time a GROUP BY names one of its attributes, through a
//! `decode` callback that walks the named attributes of every record
//! (the PIM engine decodes them from the stored bits). An INSERT adds
//! its rows' tuples ([`DomainIndex::insert`]); an UPDATE that writes an
//! attribute of a built prefix forgets the prefix
//! ([`DomainIndex::forget`]), and the next GROUP BY that names it builds
//! it again from the image, so the UPDATE itself reads no record.
//!
//! **Threshold.** A prefix is kept only while it holds at most half as
//! many distinct tuples as the table has records. A build that finds
//! more stops early and marks the prefix *decoded*, and so does an
//! INSERT that pushes a kept prefix past the bound; the decision is
//! final for that table. A GROUP BY key of a decoded prefix decodes the
//! key's and its constraints' columns afresh on every query and runs
//! the same filter over what it read. The fact prefix (`lo_`), nearly
//! one tuple per record, is the case the rule exists for: kept, it
//! would cost a catalog's memory and every UPDATE of a fact attribute
//! would rebuild it.
//!
//! **Memo.** A kept prefix remembers the domains it answered, keyed by
//! the GROUP BY key and each disjunct's atoms on the prefix, so a query
//! asked again is a lookup instead of a walk over every tuple. A domain
//! depends only on *which* tuples exist, so the memo is dropped when an
//! INSERT adds a new tuple, and it goes with a prefix that an UPDATE
//! forgets or that settles to decoded. An INSERT of a tuple the prefix
//! already holds, or an UPDATE of other prefixes' attributes, keeps it.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;

use crate::error::DbError;
use crate::plan::{Query, ResolvedAtom};
use crate::schema::Schema;

/// The dimension an attribute belongs to: its name up to the first `_`
/// (`p_category` and `p_brand1` share `p`; a name without `_` is its own
/// prefix).
pub fn prefix(name: &str) -> &str {
    name.split('_').next().unwrap_or("")
}

/// The sink a `decode` callback feeds: one record's values in the order
/// of the attributes asked for; [`ControlFlow::Break`] stops the walk.
pub type RecordSink<'a> = dyn FnMut(&[u64]) -> ControlFlow<()> + 'a;

/// The memo's key: a GROUP BY key (schema index) and, per disjunct,
/// its atoms on the key's prefix.
type MemoKey = (usize, Vec<Vec<ResolvedAtom>>);

/// Memo entries a prefix keeps at most; a key past them is answered
/// by the walk, so queries with ever new constants cannot grow it
/// without bound.
const MEMO_CAP: usize = 256;

/// The distinct tuples of a fixed attribute list. A tuple is bit-packed
/// LSB-first at the attributes' declared widths into as many words as
/// it needs, so a tuple wider than 64 bits is two words, not one word
/// per attribute.
#[derive(Debug, Clone)]
struct TupleSet {
    /// Schema indices of the attributes, in tuple order.
    attrs: Vec<usize>,
    /// Declared width of each attribute, bits.
    widths: Vec<usize>,
    /// Bit offset of each attribute in the packed tuple.
    offsets: Vec<usize>,
    tuples: HashSet<Box<[u64]>>,
    /// The packed form of the tuple being added.
    key: Vec<u64>,
    /// The ascending domains [`TupleSet::memoised`] answered since the
    /// tuple set last changed (see the module docs).
    memo: HashMap<MemoKey, Vec<u64>>,
}

impl TupleSet {
    fn new(attrs: Vec<usize>, schema: &Schema) -> Self {
        let widths: Vec<usize> = attrs.iter().map(|&a| schema.attrs()[a].bits).collect();
        let offsets = widths.iter().scan(0, |at, w| Some(std::mem::replace(at, *at + w))).collect();
        let words = widths.iter().sum::<usize>().div_ceil(64);
        let (tuples, memo) = (HashSet::new(), HashMap::new());
        TupleSet { attrs, widths, offsets, tuples, key: vec![0; words], memo }
    }

    /// Distinct tuples held.
    fn len(&self) -> usize {
        self.tuples.len()
    }

    /// The value at tuple position `i` of a packed tuple.
    fn value(&self, packed: &[u64], i: usize) -> u64 {
        let (at, width) = (self.offsets[i], self.widths[i]);
        let (word, shift) = (at / 64, at % 64);
        let mut v = packed[word] >> shift;
        if shift + width > 64 {
            v |= packed[word + 1] << (64 - shift);
        }
        if width < 64 {
            v &= (1 << width) - 1;
        }
        v
    }

    /// Hold the tuple `values` (tuple order); a new one drops the memo.
    fn add(&mut self, values: impl IntoIterator<Item = u64>) {
        self.key.fill(0);
        for ((v, &at), &width) in values.into_iter().zip(&self.offsets).zip(&self.widths) {
            let (word, shift) = (at / 64, at % 64);
            self.key[word] |= v << shift;
            if shift + width > 64 {
                self.key[word + 1] |= v >> (64 - shift);
            }
        }
        if !self.tuples.contains(&self.key[..]) {
            self.tuples.insert(self.key.clone().into_boxed_slice());
            self.memo.clear();
        }
    }

    /// The tuple position of schema attribute `attr`.
    fn position(&self, attr: usize, schema: &Schema) -> Result<usize, DbError> {
        self.attrs.iter().position(|&a| a == attr).ok_or_else(|| {
            DbError::InvalidQuery(format!(
                "`{}` is host-only: no domain index covers it",
                schema.attrs()[attr].name
            ))
        })
    }

    /// The filter: the values, ascending, attribute `group` takes in the
    /// tuples whose values satisfy all atoms of at least one of
    /// `constraints`.
    fn filter(
        &self,
        schema: &Schema,
        group: usize,
        constraints: &[Vec<ResolvedAtom>],
    ) -> Result<Vec<u64>, DbError> {
        let at = self.position(group, schema)?;
        let mut seen = BTreeSet::new();
        for conj in constraints {
            let checks: Vec<(usize, &ResolvedAtom)> = conj
                .iter()
                .map(|a| Ok((self.position(a.attr_index(), schema)?, a)))
                .collect::<Result<_, DbError>>()?;
            for packed in &self.tuples {
                if checks.iter().all(|(i, atom)| atom.matches_value(self.value(packed, *i))) {
                    seen.insert(self.value(packed, at));
                }
            }
        }
        Ok(seen.into_iter().collect())
    }

    /// [`TupleSet::filter`] through the memo: a key answered since the
    /// tuple set last changed is not walked again.
    fn memoised(
        &mut self,
        schema: &Schema,
        group: usize,
        constraints: Vec<Vec<ResolvedAtom>>,
    ) -> Result<Vec<u64>, DbError> {
        let key = (group, constraints);
        if let Some(domain) = self.memo.get(&key) {
            return Ok(domain.clone());
        }
        let domain = self.filter(schema, group, &key.1)?;
        if self.memo.len() < MEMO_CAP {
            self.memo.insert(key, domain.clone());
        }
        Ok(domain)
    }

    /// Collect the tuples `decode` yields over `attrs`, stopping as soon
    /// as they pass the threshold of a `records`-record table.
    fn read<E>(
        attrs: Vec<usize>,
        schema: &Schema,
        records: usize,
        decode: &mut impl FnMut(&[usize], &mut RecordSink<'_>) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut tuples = TupleSet::new(attrs.clone(), schema);
        decode(&attrs, &mut |values| {
            tuples.add(values.iter().copied());
            match over_threshold(tuples.len(), records) {
                true => ControlFlow::Break(()),
                false => ControlFlow::Continue(()),
            }
        })?;
        Ok(tuples)
    }
}

/// The index threshold: more distinct tuples than half the records.
fn over_threshold(tuples: usize, records: usize) -> bool {
    tuples.saturating_mul(2) > records
}

/// Where one prefix stands.
#[derive(Debug, Clone)]
enum State {
    /// No GROUP BY has named the prefix since the table was loaded or
    /// an UPDATE last wrote one of its attributes.
    Unbuilt,
    /// Kept, and grown by INSERTs.
    Built(TupleSet),
    /// Past the threshold: read from the records on every use.
    Decoded,
}

#[derive(Debug, Clone)]
struct Prefix {
    /// Schema indices of the prefix's indexed attributes.
    attrs: Vec<usize>,
    state: State,
}

/// Per attribute prefix, the set of distinct tuples of the prefix's
/// indexed attributes — built on first use, grown by INSERTs, forgotten
/// by UPDATEs that write it, dropped past the threshold (see the module
/// docs).
#[derive(Debug, Clone, Default)]
pub struct DomainIndex {
    prefixes: Vec<Prefix>,
    /// The prefix of each schema attribute; `None` for one not indexed.
    prefix_of: Vec<Option<usize>>,
}

impl DomainIndex {
    /// An index over the attributes of `schema` that `indexed` admits
    /// (the ones a query may filter or group on), nothing built yet.
    pub fn new(schema: &Schema, indexed: impl Fn(&str) -> bool) -> Self {
        let mut names: Vec<&str> = Vec::new();
        let mut prefixes: Vec<Prefix> = Vec::new();
        let mut prefix_of = Vec::with_capacity(schema.arity());
        for (idx, attr) in schema.attrs().iter().enumerate() {
            if !indexed(&attr.name) {
                prefix_of.push(None);
                continue;
            }
            let name = prefix(&attr.name);
            let p = names.iter().position(|n| *n == name).unwrap_or_else(|| {
                names.push(name);
                prefixes.push(Prefix { attrs: Vec::new(), state: State::Unbuilt });
                prefixes.len() - 1
            });
            prefixes[p].attrs.push(idx);
            prefix_of.push(Some(p));
        }
        DomainIndex { prefixes, prefix_of }
    }

    /// Per GROUP BY key of `query`, the distinct values it takes among
    /// the records passing any one disjunct's atoms on the key's prefix
    /// (ascending) — [`crate::stats::group_domains`]'s answer, from the
    /// index. A key's prefix is built here on first use; `decode(attrs,
    /// sink)` walks the attributes `attrs` (schema indices) of each of
    /// the table's `records` records.
    ///
    /// # Errors
    ///
    /// Resolution failures, a key or constraint on an attribute the
    /// index does not cover, and `decode`'s.
    pub fn domains<E: From<DbError>>(
        &mut self,
        query: &Query,
        schema: &Schema,
        records: usize,
        mut decode: impl FnMut(&[usize], &mut RecordSink<'_>) -> Result<(), E>,
    ) -> Result<Vec<Vec<u64>>, E> {
        let dnf = query.resolve_filter(schema)?;
        let mut out = Vec::with_capacity(query.group_by.len());
        for name in &query.group_by {
            let group = schema.index_of(name)?;
            let p = self.prefix_of[group].ok_or_else(|| {
                DbError::InvalidQuery(format!("`{name}` is host-only: no domain index covers it"))
            })?;
            // each disjunct's atoms on the key's prefix
            let same =
                |a: &&ResolvedAtom| prefix(&schema.attrs()[a.attr_index()].name) == prefix(name);
            let constraints: Vec<Vec<ResolvedAtom>> =
                dnf.iter().map(|conj| conj.iter().filter(same).cloned().collect()).collect();
            if let State::Unbuilt = self.prefixes[p].state {
                let attrs = self.prefixes[p].attrs.clone();
                let tuples = TupleSet::read(attrs, schema, records, &mut decode)?;
                self.prefixes[p].state = match over_threshold(tuples.len(), records) {
                    true => State::Decoded,
                    false => State::Built(tuples),
                };
            }
            let domain = match &mut self.prefixes[p].state {
                State::Built(tuples) => tuples.memoised(schema, group, constraints)?,
                _ => {
                    // past the threshold: the key's and its constraints'
                    // columns, afresh and whole
                    let mut attrs: Vec<usize> =
                        constraints.iter().flatten().map(|a| a.attr_index()).collect();
                    attrs.push(group);
                    attrs.sort_unstable();
                    attrs.dedup();
                    let read = TupleSet::read(attrs, schema, usize::MAX, &mut decode)?;
                    read.filter(schema, group, &constraints)?
                }
            };
            out.push(domain);
        }
        Ok(out)
    }

    /// Add appended rows' tuples (full rows, schema order) to every
    /// built prefix; `records` is the table's record count after the
    /// append.
    pub fn insert(&mut self, rows: &[Vec<u64>], records: usize) {
        for prefix in &mut self.prefixes {
            if let State::Built(tuples) = &mut prefix.state {
                for row in rows {
                    tuples.add(prefix.attrs.iter().map(|&a| row[a]));
                }
                if over_threshold(tuples.len(), records) {
                    prefix.state = State::Decoded;
                }
            }
        }
    }

    /// Forget every built prefix holding one of `attrs` (schema indices:
    /// an UPDATE's SET attributes). It goes back to unbuilt, memo and
    /// all, and the next GROUP BY that names it builds it again from the
    /// records; decoded and unbuilt prefixes stay as they are.
    pub fn forget(&mut self, attrs: impl IntoIterator<Item = usize>) {
        for attr in attrs {
            if let Some(&Some(p)) = self.prefix_of.get(attr) {
                if let State::Built(_) = self.prefixes[p].state {
                    self.prefixes[p].state = State::Unbuilt;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::col;
    use crate::plan::{AggExpr, SelectItem};
    use crate::relation::Relation;
    use crate::schema::Attribute;
    use crate::stats::group_domains;

    /// `d_g` / `d_h` (one prefix, 13 bits), a 60-bit-plus-9-bit `w_`
    /// prefix (its tuples straddle a word), a fact value and a host-only
    /// `d_phone`.
    fn rel(rows: u64) -> Relation {
        let schema = Schema::new(
            "t",
            vec![
                Attribute::numeric("lo_v", 16),
                Attribute::numeric("d_g", 6),
                Attribute::numeric("d_phone", 30),
                Attribute::numeric("d_h", 7),
                Attribute::numeric("w_big", 60),
                Attribute::numeric("w_small", 9),
            ],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..rows {
            let big = (1u64 << 59) | (i % 5) << 40 | (i % 3);
            rel.push_row(&[i, i % 7, i * 977, (i % 7) * 3 + i % 2, big, (i % 4) + 500]).unwrap();
        }
        rel
    }

    /// The decode callback a catalog would give: the named columns of
    /// every row.
    fn decode(
        rel: &Relation,
    ) -> impl FnMut(&[usize], &mut RecordSink<'_>) -> Result<(), DbError> + '_ {
        |attrs, sink| {
            for row in 0..rel.len() {
                let values: Vec<u64> = attrs.iter().map(|&a| rel.value(row, a)).collect();
                if sink(&values).is_break() {
                    break;
                }
            }
            Ok(())
        }
    }

    fn index(rel: &Relation) -> DomainIndex {
        DomainIndex::new(rel.schema(), |name| !name.ends_with("_phone"))
    }

    fn queries() -> Vec<Query> {
        let q = |filter, keys: &[&str]| {
            Query::select([SelectItem::sum("s", AggExpr::attr("lo_v"))])
                .filter(filter)
                .group_by(keys.iter().copied())
                .build_unchecked()
        };
        vec![
            q(col("d_g").lt(3u64), &["d_h"]),
            q(col("d_g").eq(2u64).or(col("lo_v").gt(5u64).and(col("d_h").gt(12u64))), &["d_h"]),
            q(col("w_small").between(501u64, 502u64), &["w_big", "d_g"]),
            q(col("lo_v").lt(40u64), &["lo_v", "w_small"]),
            q(col("d_g").eq(9u64), &["d_g"]),
        ]
    }

    #[test]
    fn domains_equal_the_row_scan() {
        for rows in [0, 1, 2, 40, 300] {
            let rel = rel(rows);
            let mut idx = index(&rel);
            for q in queries() {
                let got = idx.domains(&q, rel.schema(), rel.len(), decode(&rel)).unwrap();
                assert_eq!(got, group_domains(&q, &rel).unwrap(), "{rows} rows, {}", q.filter);
            }
        }
    }

    #[test]
    fn the_threshold_keeps_dimensions_and_decodes_the_fact_prefix() {
        let rel = rel(300);
        let mut idx = index(&rel);
        for q in queries() {
            idx.domains(&q, rel.schema(), rel.len(), decode(&rel)).unwrap();
        }
        let kept: Vec<bool> =
            idx.prefixes.iter().map(|p| matches!(p.state, State::Built(_))).collect();
        // lo (300 tuples) is decoded; d (14) and w (60) are kept
        assert_eq!(kept, [false, true, true]);
        // a key on the host-only attribute is refused, not answered
        let q = Query { group_by: vec!["d_phone".into()], ..queries().remove(0) };
        assert!(idx.domains(&q, rel.schema(), rel.len(), decode(&rel)).is_err());
    }

    /// Memo entries over every kept prefix.
    fn memo_entries(idx: &DomainIndex) -> usize {
        let memo = |p: &Prefix| match &p.state {
            State::Built(tuples) => tuples.memo.len(),
            _ => 0,
        };
        idx.prefixes.iter().map(memo).sum()
    }

    #[test]
    fn ever_new_constants_do_not_grow_the_memo_past_its_cap() {
        let rel = rel(60);
        let mut idx = index(&rel);
        for c in 0..MEMO_CAP as u64 + 40 {
            let q = Query::select([SelectItem::sum("s", AggExpr::attr("lo_v"))])
                .filter(col("d_h").lt(c % 128).and(col("d_g").gt(c / 128)))
                .group_by(["d_g"])
                .build_unchecked();
            let got = idx.domains(&q, rel.schema(), rel.len(), decode(&rel)).unwrap();
            assert_eq!(got, group_domains(&q, &rel).unwrap(), "{}", q.filter);
        }
        assert_eq!(memo_entries(&idx), MEMO_CAP);
    }

    #[test]
    fn the_memo_lives_until_the_tuple_set_changes() {
        let mut rel = rel(60);
        let mut idx = index(&rel);
        // two keys of the `d` prefix: d_h under `d_g < 3`, and under
        // `d_g = 2 OR (lo_v > 5 AND d_h > 12)`
        let probes = || queries().into_iter().take(2);
        let check = |idx: &mut DomainIndex, rel: &Relation, what: &str| {
            for q in probes() {
                let got = idx.domains(&q, rel.schema(), rel.len(), decode(rel)).unwrap();
                assert_eq!(got, group_domains(&q, rel).unwrap(), "{what}: {}", q.filter);
            }
        };
        check(&mut idx, &rel, "built");
        assert_eq!(memo_entries(&idx), 2);
        // a repeated query is the memo's answer: mark every entry, ask again
        let State::Built(d) = &mut idx.prefixes[1].state else { panic!("d is kept") };
        d.memo.values_mut().for_each(|domain| domain.push(u64::MAX));
        for q in probes() {
            let got = idx.domains(&q, rel.schema(), rel.len(), decode(&rel)).unwrap();
            assert_eq!(got.concat().last(), Some(&u64::MAX), "{} walked the tuples", q.filter);
        }
        let State::Built(d) = &mut idx.prefixes[1].state else { panic!("d is kept") };
        for domain in d.memo.values_mut() {
            domain.pop();
        }

        // INSERT of an existing tuple: counts move, the memo stays
        let row = rel.row(3);
        rel.push_row(&row).unwrap();
        idx.insert(&[row], rel.len());
        assert_eq!(memo_entries(&idx), 2, "a count-only INSERT dropped the memo");
        check(&mut idx, &rel, "existing tuple inserted");

        // INSERT of a new tuple (d_g 1, d_h 100): dropped
        let row = vec![1, 1, 0, 100, 1, 3];
        rel.push_row(&row).unwrap();
        idx.insert(&[row], rel.len());
        assert_eq!(memo_entries(&idx), 0, "a new tuple kept the memo");
        check(&mut idx, &rel, "new tuple inserted");
        assert_eq!(memo_entries(&idx), 2);

        // UPDATE d_h = 6 WHERE d_g = 2 AND d_h = 7: (2, 7) empties into
        // the existing (2, 6); the UPDATE forgets `d`, memo and all, and
        // the next GROUP BY builds it again without (2, 7)
        let (g, h) = (1, 3);
        let selected = (0..rel.len()).filter(|&r| rel.value(r, g) == 2 && rel.value(r, h) == 7);
        for row in selected.collect::<Vec<_>>() {
            rel.set_value(row, h, 6).unwrap();
        }
        idx.forget([h]);
        assert!(matches!(idx.prefixes[1].state, State::Unbuilt));
        assert_eq!(memo_entries(&idx), 0, "an emptied tuple kept the memo");
        check(&mut idx, &rel, "tuple emptied");
        assert_eq!(memo_entries(&idx), 2);

        // 35 new tuples push `d` past the threshold: decoded, no memo
        let rows: Vec<Vec<u64>> = (0..35).map(|j| vec![9, 3, 0, 60 + j, 1, 3]).collect();
        for row in &rows {
            rel.push_row(row).unwrap();
        }
        idx.insert(&rows, rel.len());
        assert!(matches!(idx.prefixes[1].state, State::Decoded));
        assert_eq!(memo_entries(&idx), 0);
        check(&mut idx, &rel, "settled to decoded");
    }

    #[test]
    fn maintained_counts_follow_a_replayed_relation() {
        let mut rel = rel(60);
        let mut idx = index(&rel);
        let q = || queries().remove(1);
        idx.domains(&q(), rel.schema(), rel.len(), decode(&rel)).unwrap();
        // UPDATE d_h = 99 WHERE d_g = 2: `d` is forgotten and built
        // again by the next GROUP BY
        let (g, h) = (1, 3);
        let selected: Vec<usize> = (0..rel.len()).filter(|&r| rel.value(r, g) == 2).collect();
        for row in selected {
            rel.set_value(row, h, 99).unwrap();
        }
        idx.forget([h]);
        assert!(matches!(idx.prefixes[1].state, State::Unbuilt));
        idx.forget([0]);
        assert!(matches!(idx.prefixes[0].state, State::Unbuilt), "lo is not built");
        idx.domains(&q(), rel.schema(), rel.len(), decode(&rel)).unwrap();
        assert!(matches!(idx.prefixes[1].state, State::Built(_)));
        // INSERT two rows, one with a fresh d tuple
        let rows = vec![vec![1, 6, 0, 100, 1, 3], rel.row(0)];
        for row in &rows {
            rel.push_row(row).unwrap();
        }
        idx.insert(&rows, rel.len());
        for q in queries() {
            let got = idx.domains(&q, rel.schema(), rel.len(), decode(&rel)).unwrap();
            assert_eq!(got, group_domains(&q, &rel).unwrap(), "{}", q.filter);
        }
    }

    /// Ask every probe, each answer held against the row scan; returns
    /// how many times the index called `decode`.
    fn decodes(idx: &mut DomainIndex, rel: &Relation, probes: &[Query]) -> usize {
        let mut calls = 0;
        for q in probes {
            let mut inner = decode(rel);
            let counted = |attrs: &[usize], sink: &mut RecordSink<'_>| {
                calls += 1;
                inner(attrs, sink)
            };
            let got = idx.domains(q, rel.schema(), rel.len(), counted).unwrap();
            assert_eq!(got, group_domains(q, rel).unwrap(), "{}", q.filter);
        }
        calls
    }

    #[test]
    fn an_update_forgets_only_the_prefixes_it_writes() {
        let mut rel = rel(300);
        let mut idx = index(&rel);
        // keys on `d` and `w` only: both prefixes are kept
        let probes: Vec<Query> = queries().into_iter().take(3).collect();
        assert_eq!(decodes(&mut idx, &rel, &probes), 2, "one build per prefix");
        assert_eq!(decodes(&mut idx, &rel, &probes), 0, "a repeat is the memo's");
        let memo = memo_entries(&idx);
        // UPDATE `attr` = `value` WHERE `d_g` = `g`, on the relation
        let set = |rel: &mut Relation, attr: usize, value: u64, g: u64| {
            let rows: Vec<usize> = (0..rel.len()).filter(|&r| rel.value(r, 1) == g).collect();
            rows.iter().for_each(|&r| rel.set_value(r, attr, value).unwrap());
        };

        // UPDATE lo_v = 1 WHERE d_g = 4 names no attribute of a kept
        // prefix: both stay, memo and all, and nothing is decoded
        set(&mut rel, 0, 1, 4);
        idx.forget([0]);
        assert!(idx.prefixes[1..].iter().all(|p| matches!(p.state, State::Built(_))));
        assert_eq!(memo_entries(&idx), memo);
        assert_eq!(decodes(&mut idx, &rel, &probes), 0, "a fact-side UPDATE cost a decode");

        // UPDATE d_h = 99 WHERE d_g = 2 costs one rebuild of `d` on the
        // next GROUP BY, and none after it; `w` keeps its memo
        set(&mut rel, 3, 99, 2);
        idx.forget([3]);
        assert!(matches!(idx.prefixes[1].state, State::Unbuilt));
        assert!(matches!(idx.prefixes[2].state, State::Built(_)));
        assert_eq!(decodes(&mut idx, &rel, &probes), 1, "one rebuild of d");
        assert_eq!(decodes(&mut idx, &rel, &probes), 0);
        assert_eq!(memo_entries(&idx), memo);

        // an INSERT of a tuple every kept prefix already holds keeps the memo
        let row = rel.row(5);
        rel.push_row(&row).unwrap();
        idx.insert(&[row], rel.len());
        assert_eq!(memo_entries(&idx), memo, "an existing tuple dropped the memo");
        assert_eq!(decodes(&mut idx, &rel, &probes), 0);
    }
}
