//! Logical query plans (v2 surface).
//!
//! The analytical queries this system runs (all 13 SSB queries among
//! them) share the shape `SELECT agg₁(expr₁) [, agg₂(expr₂)…] FROM wide
//! WHERE pred [GROUP BY keys]`, captured by [`Query`]:
//!
//! * a **SELECT list** of named aggregates ([`SelectItem`]) — several
//!   aggregates share one planned filter pass, the crossbar-dominant
//!   stage, instead of re-filtering per aggregate;
//! * a **filter tree** ([`Pred`]): atoms combined with `AND`/`OR`,
//!   normalised to disjunctive normal form for execution and for
//!   zone-map pruning (the bounds of an `OR` are the per-attribute
//!   interval union of its branches);
//! * optional **GROUP BY** attribute names.
//!
//! [`AggFunc::Avg`] is *derived*: the engine computes mergeable
//! sum + count components and divides at the host, so sharded partials
//! still merge bit-exactly. [`Query::physical_plan`] performs that
//! decomposition (and deduplicates shared components — `SUM(x)`,
//! `COUNT(*)` and `AVG(x)` in one SELECT list cost two physical
//! aggregates, not four).
//!
//! String constants are written as strings and resolved to dictionary
//! codes against a concrete schema. Queries are built fluently through
//! [`crate::builder`] (`Query::select(...).filter(col("d_year").eq(1993))…`)
//! or directly as struct literals; [`Query::single`] is the shorthand
//! for the paper's single-aggregate, conjunctive-filter shape.

use crate::error::DbError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::stats::{GroupedResult, MultiGrouped};

/// A query constant: numeric, or a string to be dictionary-encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Const {
    /// Plain number.
    Num(u64),
    /// Dictionary string (resolved at plan time).
    Str(String),
}

impl From<u64> for Const {
    fn from(v: u64) -> Self {
        Const::Num(v)
    }
}

impl From<&str> for Const {
    fn from(v: &str) -> Self {
        Const::Str(v.into())
    }
}

impl std::fmt::Display for Const {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Const::Num(v) => write!(f, "{v}"),
            Const::Str(s) => write!(f, "'{s}'"),
        }
    }
}

/// One atomic predicate over a single attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// `attr = c`
    Eq {
        /// Attribute name.
        attr: String,
        /// Constant.
        value: Const,
    },
    /// `lo <= attr <= hi` (inclusive)
    Between {
        /// Attribute name.
        attr: String,
        /// Lower bound.
        lo: Const,
        /// Upper bound.
        hi: Const,
    },
    /// `attr < c`
    Lt {
        /// Attribute name.
        attr: String,
        /// Constant.
        value: Const,
    },
    /// `attr > c`
    Gt {
        /// Attribute name.
        attr: String,
        /// Constant.
        value: Const,
    },
    /// `attr IN (c…)`
    In {
        /// Attribute name.
        attr: String,
        /// Members.
        values: Vec<Const>,
    },
}

impl Atom {
    /// The attribute this atom constrains.
    pub fn attr(&self) -> &str {
        match self {
            Atom::Eq { attr, .. }
            | Atom::Between { attr, .. }
            | Atom::Lt { attr, .. }
            | Atom::Gt { attr, .. }
            | Atom::In { attr, .. } => attr,
        }
    }

    /// Resolve against a schema: attribute index + encoded constants.
    ///
    /// # Errors
    ///
    /// Unknown attribute, unknown dictionary string, empty `IN`, or
    /// inverted `BETWEEN` bounds.
    pub fn resolve(&self, schema: &Schema) -> Result<ResolvedAtom, DbError> {
        let idx = schema.index_of(self.attr())?;
        let enc = |c: &Const| schema.attrs()[idx].encode(c);
        Ok(match self {
            Atom::Eq { value, .. } => ResolvedAtom::Eq { idx, value: enc(value)? },
            Atom::Between { lo, hi, .. } => {
                let (lo, hi) = (enc(lo)?, enc(hi)?);
                if lo > hi {
                    return Err(DbError::InvalidQuery(format!(
                        "BETWEEN bounds inverted on `{}`",
                        self.attr()
                    )));
                }
                ResolvedAtom::Between { idx, lo, hi }
            }
            Atom::Lt { value, .. } => ResolvedAtom::Lt { idx, value: enc(value)? },
            Atom::Gt { value, .. } => ResolvedAtom::Gt { idx, value: enc(value)? },
            Atom::In { values, .. } => {
                if values.is_empty() {
                    return Err(DbError::InvalidQuery(format!("empty IN on `{}`", self.attr())));
                }
                let mut vs = values.iter().map(enc).collect::<Result<Vec<_>, _>>()?;
                vs.sort_unstable();
                vs.dedup();
                ResolvedAtom::In { idx, values: vs }
            }
        })
    }
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Atom::Eq { attr, value } => write!(f, "{attr} = {value}"),
            Atom::Between { attr, lo, hi } => write!(f, "{attr} BETWEEN {lo} AND {hi}"),
            Atom::Lt { attr, value } => write!(f, "{attr} < {value}"),
            Atom::Gt { attr, value } => write!(f, "{attr} > {value}"),
            Atom::In { attr, values } => {
                write!(f, "{attr} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A filter tree: atoms combined with `AND` / `OR`.
///
/// Execution and pruning work on the disjunctive normal form
/// ([`Pred::dnf`]): an OR of conjunctions. `And(vec![])` is the trivial
/// `TRUE` filter; `Or(vec![])` is `FALSE` (matches nothing).
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// A single atomic predicate.
    Atom(Atom),
    /// Every child must hold (empty = `TRUE`).
    And(Vec<Pred>),
    /// At least one child must hold (empty = `FALSE`).
    Or(Vec<Pred>),
}

impl From<Atom> for Pred {
    fn from(atom: Atom) -> Self {
        Pred::Atom(atom)
    }
}

impl Pred {
    /// The trivial filter that matches every record.
    pub fn always() -> Pred {
        Pred::And(Vec::new())
    }

    /// A conjunction of atoms — the pre-v2 filter shape.
    pub fn all(atoms: Vec<Atom>) -> Pred {
        Pred::And(atoms.into_iter().map(Pred::Atom).collect())
    }

    /// `self AND other` (flattens nested ANDs).
    pub fn and(self, other: impl Into<Pred>) -> Pred {
        let other = other.into();
        match self {
            Pred::And(mut children) => {
                children.push(other);
                Pred::And(children)
            }
            me => Pred::And(vec![me, other]),
        }
    }

    /// `self OR other` (flattens nested ORs).
    pub fn or(self, other: impl Into<Pred>) -> Pred {
        let other = other.into();
        match self {
            Pred::Or(mut children) => {
                children.push(other);
                Pred::Or(children)
            }
            me => Pred::Or(vec![me, other]),
        }
    }

    /// Is this the trivial always-true filter?
    pub fn is_always(&self) -> bool {
        match self {
            Pred::And(children) => children.iter().all(Pred::is_always),
            _ => false,
        }
    }

    /// Normalise to disjunctive normal form: an OR of conjunctions of
    /// atoms. One empty conjunction means `TRUE`; zero disjuncts means
    /// `FALSE`. Distribution can multiply terms (`(a OR b) AND (c OR
    /// d)` → 4 conjunctions) — fine for analytical filters, which have
    /// a handful of branches.
    pub fn dnf(&self) -> Vec<Vec<Atom>> {
        match self {
            Pred::Atom(atom) => vec![vec![atom.clone()]],
            Pred::And(children) => {
                let mut acc: Vec<Vec<Atom>> = vec![Vec::new()];
                for child in children {
                    let child_dnf = child.dnf();
                    let mut next = Vec::with_capacity(acc.len() * child_dnf.len().max(1));
                    for conj in &acc {
                        for extra in &child_dnf {
                            let mut joined = conj.clone();
                            joined.extend(extra.iter().cloned());
                            next.push(joined);
                        }
                    }
                    acc = next; // an unsatisfiable child empties the product
                }
                acc
            }
            Pred::Or(children) => children.iter().flat_map(Pred::dnf).collect(),
        }
    }

    /// Resolve the DNF against a schema (per-disjunct resolved
    /// conjunctions).
    ///
    /// # Errors
    ///
    /// Propagates atom resolution failures.
    pub fn resolve_dnf(&self, schema: &Schema) -> Result<Vec<Vec<ResolvedAtom>>, DbError> {
        self.dnf().iter().map(|conj| conj.iter().map(|a| a.resolve(schema)).collect()).collect()
    }

    /// Every atom anywhere in the tree (duplicates possible when a DNF
    /// expansion would repeat them).
    pub fn atoms(&self) -> Vec<&Atom> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a Atom>) {
        match self {
            Pred::Atom(atom) => out.push(atom),
            Pred::And(children) | Pred::Or(children) => {
                for c in children {
                    c.collect_atoms(out);
                }
            }
        }
    }

    /// Mutable access to every atom in the tree (e.g. for constant
    /// re-picking against a concrete instance).
    pub fn atoms_mut(&mut self) -> Vec<&mut Atom> {
        let mut out = Vec::new();
        self.collect_atoms_mut(&mut out);
        out
    }

    fn collect_atoms_mut<'a>(&'a mut self, out: &mut Vec<&'a mut Atom>) {
        match self {
            Pred::Atom(atom) => out.push(atom),
            Pred::And(children) | Pred::Or(children) => {
                for c in children {
                    c.collect_atoms_mut(out);
                }
            }
        }
    }

    /// Does `row` of `rel` satisfy the filter? (Oracle semantics.)
    ///
    /// # Errors
    ///
    /// Propagates resolution failures.
    pub fn matches_row(&self, rel: &Relation, row: usize) -> Result<bool, DbError> {
        Ok(match self {
            Pred::Atom(atom) => atom.resolve(rel.schema())?.matches(rel, row),
            Pred::And(children) => {
                for c in children {
                    if !c.matches_row(rel, row)? {
                        return Ok(false);
                    }
                }
                true
            }
            Pred::Or(children) => {
                for c in children {
                    if c.matches_row(rel, row)? {
                        return Ok(true);
                    }
                }
                false
            }
        })
    }
}

impl std::fmt::Display for Pred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn join(
            f: &mut std::fmt::Formatter<'_>,
            children: &[Pred],
            sep: &str,
            empty: &str,
        ) -> std::fmt::Result {
            if children.is_empty() {
                return write!(f, "{empty}");
            }
            if children.len() == 1 {
                return write!(f, "{}", children[0]);
            }
            write!(f, "(")?;
            for (i, c) in children.iter().enumerate() {
                if i > 0 {
                    write!(f, " {sep} ")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, ")")
        }
        match self {
            Pred::Atom(atom) => write!(f, "{atom}"),
            Pred::And(children) => join(f, children, "AND", "TRUE"),
            Pred::Or(children) => join(f, children, "OR", "FALSE"),
        }
    }
}

/// An atom with the attribute index and constants resolved.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ResolvedAtom {
    /// `attr = value`
    Eq {
        /// Attribute index in the schema.
        idx: usize,
        /// Encoded constant.
        value: u64,
    },
    /// `lo <= attr <= hi`
    Between {
        /// Attribute index.
        idx: usize,
        /// Encoded lower bound.
        lo: u64,
        /// Encoded upper bound.
        hi: u64,
    },
    /// `attr < value`
    Lt {
        /// Attribute index.
        idx: usize,
        /// Encoded constant.
        value: u64,
    },
    /// `attr > value`
    Gt {
        /// Attribute index.
        idx: usize,
        /// Encoded constant.
        value: u64,
    },
    /// `attr IN values` (sorted, deduplicated)
    In {
        /// Attribute index.
        idx: usize,
        /// Encoded members.
        values: Vec<u64>,
    },
}

impl ResolvedAtom {
    /// The constrained attribute's index.
    pub fn attr_index(&self) -> usize {
        match self {
            ResolvedAtom::Eq { idx, .. }
            | ResolvedAtom::Between { idx, .. }
            | ResolvedAtom::Lt { idx, .. }
            | ResolvedAtom::Gt { idx, .. }
            | ResolvedAtom::In { idx, .. } => *idx,
        }
    }

    /// Does `value` satisfy this atom?
    pub fn matches_value(&self, v: u64) -> bool {
        match self {
            ResolvedAtom::Eq { value, .. } => v == *value,
            ResolvedAtom::Between { lo, hi, .. } => (*lo..=*hi).contains(&v),
            ResolvedAtom::Lt { value, .. } => v < *value,
            ResolvedAtom::Gt { value, .. } => v > *value,
            ResolvedAtom::In { values, .. } => values.binary_search(&v).is_ok(),
        }
    }

    /// Does row `row` of `rel` satisfy this atom?
    pub fn matches(&self, rel: &Relation, row: usize) -> bool {
        self.matches_value(rel.value(row, self.attr_index()))
    }

    /// The inclusive `[lo, hi]` interval every satisfying value lies in,
    /// or `None` when the atom is unsatisfiable (`< 0`, `> u64::MAX`).
    ///
    /// For `In` the interval is the envelope of the member set — a sound
    /// over-approximation; [`ResolvedAtom::can_match_range`] is exact.
    pub fn bounds(&self) -> Option<(u64, u64)> {
        match self {
            ResolvedAtom::Eq { value, .. } => Some((*value, *value)),
            ResolvedAtom::Between { lo, hi, .. } => Some((*lo, *hi)),
            ResolvedAtom::Lt { value, .. } => value.checked_sub(1).map(|hi| (0, hi)),
            ResolvedAtom::Gt { value, .. } => value.checked_add(1).map(|lo| (lo, u64::MAX)),
            ResolvedAtom::In { values, .. } => {
                // resolve() guarantees a sorted, non-empty member list
                Some((*values.first()?, *values.last()?))
            }
        }
    }

    /// The values of a `width`-bit attribute this atom selects, as
    /// sorted, disjoint, inclusive runs — the one input of the mask
    /// programs' range emitter. Constants clip to the domain `[0,
    /// 2^width − 1]` (on 6 bits `< 1000` is the run `(0, 63)`, `> 1000`
    /// no run at all), and adjacent `In` members merge into one run.
    /// Empty when no value of the domain matches.
    pub fn runs(&self, width: usize) -> Vec<(u64, u64)> {
        let max = if width >= 64 { u64::MAX } else { (1 << width) - 1 };
        let clip = |(lo, hi): (u64, u64)| (lo <= hi.min(max)).then_some((lo, hi.min(max)));
        match self {
            ResolvedAtom::In { values, .. } => {
                let mut runs: Vec<(u64, u64)> = Vec::with_capacity(values.len());
                for &v in values.iter().filter(|&&v| v <= max) {
                    match runs.last_mut() {
                        Some(last) if v <= last.1.saturating_add(1) => last.1 = last.1.max(v),
                        _ => runs.push((v, v)),
                    }
                }
                runs
            }
            _ => self.bounds().and_then(clip).into_iter().collect(),
        }
    }

    /// Could *any* value in the inclusive `[lo, hi]` range satisfy this
    /// atom? Exact (for `In`, checks actual membership in the range) —
    /// the zone-pruning primitive: `false` proves a zone whose attribute
    /// spans `[lo, hi]` holds no matching record.
    pub fn can_match_range(&self, lo: u64, hi: u64) -> bool {
        match self {
            ResolvedAtom::Eq { value, .. } => (lo..=hi).contains(value),
            ResolvedAtom::Between { lo: alo, hi: ahi, .. } => *alo <= hi && *ahi >= lo,
            ResolvedAtom::Lt { value, .. } => lo < *value,
            ResolvedAtom::Gt { value, .. } => hi > *value,
            ResolvedAtom::In { values, .. } => {
                let first_ge = values.partition_point(|v| *v < lo);
                values.get(first_ge).is_some_and(|v| *v <= hi)
            }
        }
    }
}

use crate::zonemap::ZoneMap;

/// One DNF disjunct's per-attribute bound intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctBounds {
    atoms: Vec<ResolvedAtom>,
    satisfiable: bool,
    /// Per-attribute intersected `[lo, hi]` intervals (empty when
    /// unsatisfiable).
    intervals: std::collections::BTreeMap<usize, (u64, u64)>,
}

impl ConjunctBounds {
    /// Extract the bounds of one resolved conjunction.
    pub fn from_atoms(atoms: &[ResolvedAtom]) -> Self {
        let mut intervals = std::collections::BTreeMap::new();
        let mut satisfiable = true;
        for atom in atoms {
            let Some((lo, hi)) = atom.bounds() else {
                satisfiable = false;
                break;
            };
            let entry = intervals.entry(atom.attr_index()).or_insert((lo, hi));
            entry.0 = entry.0.max(lo);
            entry.1 = entry.1.min(hi);
            if entry.0 > entry.1 {
                satisfiable = false;
                break;
            }
        }
        if !satisfiable {
            intervals.clear();
        }
        ConjunctBounds { atoms: atoms.to_vec(), satisfiable, intervals }
    }

    /// False when the interval analysis proved the conjunction can never
    /// hold.
    pub fn satisfiable(&self) -> bool {
        self.satisfiable
    }

    /// Could a zone summarised by `zone` hold a record satisfying this
    /// conjunction?
    pub fn can_match(&self, zone: &ZoneMap) -> bool {
        if !self.satisfiable {
            return false;
        }
        self.atoms.iter().all(|atom| match zone.range(atom.attr_index()) {
            // empty zone: no record can match (nothing to scan either)
            None => false,
            Some((lo, hi)) => atom.can_match_range(lo, hi),
        })
    }
}

/// A filter's per-attribute bound intervals in DNF — the logical side of
/// the physical planner.
///
/// Each disjunct's atom bounds are intersected
/// ([`ConjunctBounds::from_atoms`]); the whole filter can match a zone
/// when *any* satisfiable disjunct can ([`FilterBounds::can_match`]) —
/// i.e. the bounds of an OR are the per-attribute interval **union** of
/// its branches. `false` remains a proof of absence, so zone-map pruning
/// stays sound under disjunctions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterBounds {
    disjuncts: Vec<ConjunctBounds>,
}

impl FilterBounds {
    /// Bounds of a resolved DNF (zero disjuncts = `FALSE`).
    pub fn from_dnf(dnf: &[Vec<ResolvedAtom>]) -> Self {
        FilterBounds { disjuncts: dnf.iter().map(|c| ConjunctBounds::from_atoms(c)).collect() }
    }

    /// False when the interval analysis proved no value assignment can
    /// satisfy the filter (every zone may be pruned).
    pub fn satisfiable(&self) -> bool {
        self.disjuncts.iter().any(ConjunctBounds::satisfiable)
    }

    /// Could a zone summarised by `zone` hold a matching record?
    /// `false` is a proof of absence (sound to skip); `true` means the
    /// zone must be scanned.
    pub fn can_match(&self, zone: &ZoneMap) -> bool {
        self.disjuncts.iter().any(|d| d.can_match(zone))
    }

    /// Per-attribute interval union across satisfiable disjuncts
    /// (overlapping/adjacent intervals coalesced) — the `EXPLAIN`
    /// rendering of the pruning bounds. Only attributes constrained in
    /// **every** satisfiable disjunct appear: an attribute left free by
    /// some branch admits any value through that branch, so no union
    /// bound on it is actually enforced (reporting one would overstate
    /// the pruning).
    pub fn intervals(&self) -> std::collections::BTreeMap<usize, Vec<(u64, u64)>> {
        let live: Vec<&ConjunctBounds> =
            self.disjuncts.iter().filter(|d| d.satisfiable()).collect();
        let mut union: std::collections::BTreeMap<usize, Vec<(u64, u64)>> =
            std::collections::BTreeMap::new();
        for disjunct in &live {
            for (&idx, &iv) in &disjunct.intervals {
                union.entry(idx).or_default().push(iv);
            }
        }
        // keep attributes every live disjunct constrains
        union.retain(|idx, _| live.iter().all(|d| d.intervals.contains_key(idx)));
        for intervals in union.values_mut() {
            intervals.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
            for &(lo, hi) in intervals.iter() {
                match merged.last_mut() {
                    Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
                    _ => merged.push((lo, hi)),
                }
            }
            *intervals = merged;
        }
        union
    }
}

/// The aggregate's input expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggExpr {
    /// A single attribute.
    Attr(String),
    /// Product of two attributes (e.g. `lo_extendedprice * lo_discount`).
    Mul(String, String),
    /// Difference of two attributes (e.g. `lo_revenue - lo_supplycost`).
    Sub(String, String),
}

impl AggExpr {
    /// A single attribute.
    pub fn attr(name: impl Into<String>) -> AggExpr {
        AggExpr::Attr(name.into())
    }

    /// Product of two attributes.
    pub fn mul(a: impl Into<String>, b: impl Into<String>) -> AggExpr {
        AggExpr::Mul(a.into(), b.into())
    }

    /// Difference of two attributes.
    pub fn sub(a: impl Into<String>, b: impl Into<String>) -> AggExpr {
        AggExpr::Sub(a.into(), b.into())
    }

    /// The attribute names the expression reads.
    pub fn attrs(&self) -> Vec<&str> {
        match self {
            AggExpr::Attr(a) => vec![a],
            AggExpr::Mul(a, b) | AggExpr::Sub(a, b) => vec![a, b],
        }
    }

    /// Evaluate on one row (used by oracles and host-side aggregation).
    ///
    /// # Errors
    ///
    /// Unknown attribute names.
    pub fn eval(&self, rel: &Relation, row: usize) -> Result<u64, DbError> {
        Ok(match self {
            AggExpr::Attr(a) => rel.value_by_name(row, a)?,
            AggExpr::Mul(a, b) => {
                rel.value_by_name(row, a)?.wrapping_mul(rel.value_by_name(row, b)?)
            }
            AggExpr::Sub(a, b) => {
                rel.value_by_name(row, a)?.wrapping_sub(rel.value_by_name(row, b)?)
            }
        })
    }
}

impl std::fmt::Display for AggExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggExpr::Attr(a) => write!(f, "{a}"),
            AggExpr::Mul(a, b) => write!(f, "{a} * {b}"),
            AggExpr::Sub(a, b) => write!(f, "{a} - {b}"),
        }
    }
}

/// The logical aggregate function of one SELECT item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum (wrapping at 64 bits).
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Count of records in the group — needs no input expression (it is
    /// read off the filter mask / aggregation count register).
    Count,
    /// Average = `SUM / COUNT`, integer division at the host; *derived*
    /// from mergeable sum + count components so sharded partials still
    /// merge bit-exactly.
    Avg,
}

impl AggFunc {
    /// SQL-ish label.
    pub fn label(&self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Count => "COUNT",
            AggFunc::Avg => "AVG",
        }
    }
}

/// A *physical*, mergeable aggregate component. `Avg` never appears
/// here — [`Query::physical_plan`] decomposes it into `Sum` + `Count`,
/// and the host derives the quotient after all partials merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysFunc {
    /// Wrapping sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Record count (merges by addition, like `Sum`).
    Count,
}

impl PhysFunc {
    /// Merge two partials of this component (commutative and
    /// associative, so shard partials fold in any order bit-exactly).
    pub fn merge(self, a: u64, b: u64) -> u64 {
        match self {
            PhysFunc::Sum | PhysFunc::Count => a.wrapping_add(b),
            PhysFunc::Min => a.min(b),
            PhysFunc::Max => a.max(b),
        }
    }

    /// The merge identity (the value of an empty partial).
    pub fn identity(self) -> u64 {
        match self {
            PhysFunc::Sum | PhysFunc::Count => 0,
            PhysFunc::Min => u64::MAX,
            PhysFunc::Max => 0,
        }
    }
}

/// One physical aggregate the engine actually computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysAgg {
    /// The mergeable component.
    pub func: PhysFunc,
    /// Input expression; `None` for `Count` (it reads only the filter /
    /// group mask).
    pub expr: Option<AggExpr>,
}

impl PhysAgg {
    /// The attribute names this component reads (empty for `Count`).
    pub fn attrs(&self) -> Vec<&str> {
        self.expr.as_ref().map(AggExpr::attrs).unwrap_or_default()
    }
}

/// How one SELECT item's value derives from the physical aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Derivation {
    /// The value of physical aggregate `i`, as computed.
    Direct(usize),
    /// `AVG`: physical sum `i` over physical count `j` (integer
    /// division, performed only after every partial merged).
    Ratio(usize, usize),
}

/// The physical decomposition of a SELECT list: the deduplicated
/// mergeable components plus, per output column, how its value derives
/// from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalPlan {
    /// Deduplicated physical aggregates, in first-use order.
    pub aggs: Vec<PhysAgg>,
    /// `(output name, derivation)` in SELECT order.
    pub outputs: Vec<(String, Derivation)>,
}

impl PhysicalPlan {
    /// Derive the final per-group output rows from fully merged
    /// per-component grouped values (one [`GroupedResult`] per entry of
    /// [`PhysicalPlan::aggs`], same order). Missing entries take the
    /// component's merge identity — all components run over the same
    /// filtered rows, so in practice every key is present in every
    /// component.
    ///
    /// # Panics
    ///
    /// Panics when `per_agg` has the wrong arity (caller bug).
    pub fn finalize(&self, per_agg: &[GroupedResult]) -> MultiGrouped {
        assert_eq!(per_agg.len(), self.aggs.len(), "one grouped result per physical aggregate");
        let keys: std::collections::BTreeSet<&Vec<u64>> =
            per_agg.iter().flat_map(|g| g.keys()).collect();
        let mut out = MultiGrouped::new();
        for key in keys {
            let row: Vec<u64> = self
                .outputs
                .iter()
                .map(|(_, derivation)| match derivation {
                    Derivation::Direct(i) => {
                        per_agg[*i].get(key).copied().unwrap_or(self.aggs[*i].func.identity())
                    }
                    Derivation::Ratio(sum, count) => {
                        let s = per_agg[*sum].get(key).copied().unwrap_or(0);
                        let c = per_agg[*count].get(key).copied().unwrap_or(0);
                        s.checked_div(c).unwrap_or(0)
                    }
                })
                .collect();
            out.insert(key.clone(), row);
        }
        out
    }
}

/// One named aggregate of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// Output column name (unique within the query).
    pub name: String,
    /// Aggregate function.
    pub func: AggFunc,
    /// Input expression; `None` only for [`AggFunc::Count`].
    pub expr: Option<AggExpr>,
}

impl SelectItem {
    /// `SUM(expr) AS name`
    pub fn sum(name: impl Into<String>, expr: AggExpr) -> SelectItem {
        SelectItem { name: name.into(), func: AggFunc::Sum, expr: Some(expr) }
    }

    /// `MIN(expr) AS name`
    pub fn min(name: impl Into<String>, expr: AggExpr) -> SelectItem {
        SelectItem { name: name.into(), func: AggFunc::Min, expr: Some(expr) }
    }

    /// `MAX(expr) AS name`
    pub fn max(name: impl Into<String>, expr: AggExpr) -> SelectItem {
        SelectItem { name: name.into(), func: AggFunc::Max, expr: Some(expr) }
    }

    /// `AVG(expr) AS name` (derived as sum + count, divided at the host).
    pub fn avg(name: impl Into<String>, expr: AggExpr) -> SelectItem {
        SelectItem { name: name.into(), func: AggFunc::Avg, expr: Some(expr) }
    }

    /// `COUNT(*) AS name`
    pub fn count(name: impl Into<String>) -> SelectItem {
        SelectItem { name: name.into(), func: AggFunc::Count, expr: None }
    }
}

/// A complete analytical query (v2): named multi-aggregate SELECT list,
/// `AND`/`OR` filter tree, optional GROUP BY.
///
/// Execution computes the planned filter mask **once** and reuses it
/// across every SELECT item, so extra aggregates cost aggregate
/// passes — not extra filter passes (the crossbar-dominant stage).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Identifier (e.g. `"Q2.1"`).
    pub id: String,
    /// Filter tree ([`Pred::always`] for no filter).
    pub filter: Pred,
    /// GROUP BY attribute names (empty = global aggregates).
    pub group_by: Vec<String>,
    /// Named aggregates, in output order (at least one).
    pub select: Vec<SelectItem>,
}

impl Query {
    /// Start a fluent builder from a SELECT list — see
    /// [`crate::builder`].
    pub fn select(items: impl IntoIterator<Item = SelectItem>) -> crate::builder::QueryBuilder {
        crate::builder::QueryBuilder::new(items)
    }

    /// A query in the pre-v2 shape: one aggregate (output column named
    /// `"value"`) over a conjunctive filter.
    pub fn single(
        id: impl Into<String>,
        filter: Vec<Atom>,
        group_by: Vec<String>,
        func: AggFunc,
        expr: AggExpr,
    ) -> Query {
        Query {
            id: id.into(),
            filter: Pred::all(filter),
            group_by,
            select: vec![SelectItem { name: "value".into(), func, expr: Some(expr) }],
        }
    }

    /// Resolve the filter to DNF against a schema.
    ///
    /// # Errors
    ///
    /// Propagates atom resolution failures.
    pub fn resolve_filter(&self, schema: &Schema) -> Result<Vec<Vec<ResolvedAtom>>, DbError> {
        self.filter.resolve_dnf(schema)
    }

    /// Does this query have a GROUP BY?
    pub fn has_group_by(&self) -> bool {
        !self.group_by.is_empty()
    }

    /// Decompose the SELECT list into deduplicated mergeable physical
    /// aggregates (`AVG` → sum + count; identical components shared).
    ///
    /// # Errors
    ///
    /// [`DbError::InvalidQuery`] on an empty SELECT list, a duplicate
    /// output name, or a non-`COUNT` aggregate without an expression.
    pub fn physical_plan(&self) -> Result<PhysicalPlan, DbError> {
        if self.select.is_empty() {
            return Err(DbError::InvalidQuery(format!(
                "query `{}` has an empty SELECT list",
                self.id
            )));
        }
        let mut aggs: Vec<PhysAgg> = Vec::new();
        let index_of = |aggs: &mut Vec<PhysAgg>, agg: PhysAgg| -> usize {
            aggs.iter().position(|a| *a == agg).unwrap_or_else(|| {
                aggs.push(agg);
                aggs.len() - 1
            })
        };
        let mut outputs: Vec<(String, Derivation)> = Vec::with_capacity(self.select.len());
        for item in &self.select {
            if outputs.iter().any(|(n, _)| *n == item.name) {
                return Err(DbError::InvalidQuery(format!(
                    "duplicate output column `{}` in query `{}`",
                    item.name, self.id
                )));
            }
            let expr = |item: &SelectItem| -> Result<AggExpr, DbError> {
                item.expr.clone().ok_or_else(|| {
                    DbError::InvalidQuery(format!(
                        "aggregate `{}` ({}) needs an input expression",
                        item.name,
                        item.func.label()
                    ))
                })
            };
            let derivation = match item.func {
                AggFunc::Sum => Derivation::Direct(index_of(
                    &mut aggs,
                    PhysAgg { func: PhysFunc::Sum, expr: Some(expr(item)?) },
                )),
                AggFunc::Min => Derivation::Direct(index_of(
                    &mut aggs,
                    PhysAgg { func: PhysFunc::Min, expr: Some(expr(item)?) },
                )),
                AggFunc::Max => Derivation::Direct(index_of(
                    &mut aggs,
                    PhysAgg { func: PhysFunc::Max, expr: Some(expr(item)?) },
                )),
                AggFunc::Count => Derivation::Direct(index_of(
                    &mut aggs,
                    PhysAgg { func: PhysFunc::Count, expr: None },
                )),
                AggFunc::Avg => {
                    let sum = index_of(
                        &mut aggs,
                        PhysAgg { func: PhysFunc::Sum, expr: Some(expr(item)?) },
                    );
                    let count = index_of(&mut aggs, PhysAgg { func: PhysFunc::Count, expr: None });
                    Derivation::Ratio(sum, count)
                }
            };
            outputs.push((item.name.clone(), derivation));
        }
        Ok(PhysicalPlan { aggs, outputs })
    }

    /// Every attribute name the query reads (filter, group keys,
    /// aggregate operands), deduplicated.
    pub fn referenced_attrs(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.filter.atoms().iter().map(|a| a.attr()).collect();
        out.extend(self.group_by.iter().map(String::as_str));
        for item in &self.select {
            if let Some(expr) = &item.expr {
                out.extend(expr.attrs());
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Validate the whole query against a schema: filter atoms resolve,
    /// group keys and aggregate operands exist, the SELECT list is
    /// non-empty with unique names and complete expressions.
    ///
    /// # Errors
    ///
    /// [`DbError::InvalidQuery`] / resolution errors describing the
    /// first problem found.
    pub fn validate(&self, schema: &Schema) -> Result<(), DbError> {
        self.resolve_filter(schema)?;
        self.physical_plan()?;
        for name in &self.group_by {
            schema.index_of(name)?;
        }
        for item in &self.select {
            if let Some(expr) = &item.expr {
                for attr in expr.attrs() {
                    schema.index_of(attr)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::Dictionary;
    use crate::schema::Attribute;

    fn schema_and_rel() -> Relation {
        let d = Dictionary::from_sorted(vec!["AFRICA".into(), "ASIA".into()]).unwrap();
        let schema =
            Schema::new("t", vec![Attribute::numeric("q", 8), Attribute::dict("region", d)])
                .unwrap();
        let mut rel = Relation::new(schema);
        for (q, r) in [(5u64, 0u64), (20, 1), (30, 1), (40, 0)] {
            rel.push_row(&[q, r]).unwrap();
        }
        rel
    }

    /// Bounds of a single resolved conjunction.
    fn bounds_of(atoms: &[ResolvedAtom]) -> FilterBounds {
        FilterBounds::from_dnf(&[atoms.to_vec()])
    }

    #[test]
    fn atom_resolution_encodes_strings() {
        let rel = schema_and_rel();
        let atom = Atom::Eq { attr: "region".into(), value: "ASIA".into() };
        let r = atom.resolve(rel.schema()).unwrap();
        assert!(matches!(r, ResolvedAtom::Eq { idx: 1, value: 1 }));
        assert!(!r.matches(&rel, 0));
        assert!(r.matches(&rel, 1));
    }

    #[test]
    fn between_atom_inclusive() {
        let rel = schema_and_rel();
        let atom = Atom::Between { attr: "q".into(), lo: 20u64.into(), hi: 30u64.into() };
        let r = atom.resolve(rel.schema()).unwrap();
        let hits: Vec<bool> = (0..4).map(|i| r.matches(&rel, i)).collect();
        assert_eq!(hits, vec![false, true, true, false]);
    }

    #[test]
    fn in_atom_sorted_and_deduped() {
        let rel = schema_and_rel();
        let atom =
            Atom::In { attr: "q".into(), values: vec![40u64.into(), 5u64.into(), 40u64.into()] };
        match atom.resolve(rel.schema()).unwrap() {
            ResolvedAtom::In { values, .. } => assert_eq!(values, vec![5, 40]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_in_rejected() {
        let rel = schema_and_rel();
        let atom = Atom::In { attr: "q".into(), values: vec![] };
        assert!(atom.resolve(rel.schema()).is_err());
    }

    #[test]
    fn inverted_between_rejected() {
        let rel = schema_and_rel();
        let atom = Atom::Between { attr: "q".into(), lo: 30u64.into(), hi: 20u64.into() };
        assert!(atom.resolve(rel.schema()).is_err());
    }

    #[test]
    fn unknown_string_rejected() {
        let rel = schema_and_rel();
        let atom = Atom::Eq { attr: "region".into(), value: "MARS".into() };
        assert!(matches!(atom.resolve(rel.schema()), Err(DbError::NotInDictionary { .. })));
    }

    #[test]
    fn agg_expr_eval() {
        let rel = schema_and_rel();
        assert_eq!(AggExpr::attr("q").eval(&rel, 1).unwrap(), 20);
        assert_eq!(AggExpr::mul("q", "region").eval(&rel, 2).unwrap(), 30);
        assert_eq!(AggExpr::sub("q", "region").eval(&rel, 3).unwrap(), 40);
    }

    #[test]
    fn atom_bounds_intervals() {
        assert_eq!(ResolvedAtom::Eq { idx: 0, value: 9 }.bounds(), Some((9, 9)));
        assert_eq!(ResolvedAtom::Between { idx: 0, lo: 2, hi: 5 }.bounds(), Some((2, 5)));
        assert_eq!(ResolvedAtom::Lt { idx: 0, value: 4 }.bounds(), Some((0, 3)));
        assert_eq!(ResolvedAtom::Lt { idx: 0, value: 0 }.bounds(), None);
        assert_eq!(ResolvedAtom::Gt { idx: 0, value: 4 }.bounds(), Some((5, u64::MAX)));
        assert_eq!(ResolvedAtom::Gt { idx: 0, value: u64::MAX }.bounds(), None);
        assert_eq!(ResolvedAtom::In { idx: 0, values: vec![3, 8, 20] }.bounds(), Some((3, 20)));
    }

    /// Every atom on widths 0–4 with constants to `2^(w+1) + 1`: its runs
    /// are sorted, disjoint and inside the domain, and hold exactly the
    /// domain values `matches_value` accepts.
    #[test]
    fn runs_hold_exactly_the_matching_values_of_the_domain() {
        for width in 0..=4usize {
            let max = (1u64 << width) - 1;
            let top = (1u64 << (width + 1)) + 1;
            let mut atoms = Vec::new();
            for c in 0..=top {
                atoms.push(ResolvedAtom::Eq { idx: 0, value: c });
                atoms.push(ResolvedAtom::Lt { idx: 0, value: c });
                atoms.push(ResolvedAtom::Gt { idx: 0, value: c });
                for d in 0..=top {
                    atoms.push(ResolvedAtom::Between { idx: 0, lo: c, hi: d });
                    let mut values = vec![c, c + 1, d];
                    values.sort_unstable();
                    values.dedup();
                    atoms.push(ResolvedAtom::In { idx: 0, values });
                }
            }
            if top < 10 {
                for set in 1u64..1 << (top + 1) {
                    let values = (0..=top).filter(|v| set >> v & 1 == 1).collect();
                    atoms.push(ResolvedAtom::In { idx: 0, values });
                }
            }
            for atom in atoms {
                let runs = atom.runs(width);
                let sorted = runs.windows(2).all(|p| p[0].1 + 1 < p[1].0);
                let inside = runs.iter().all(|&(lo, hi)| lo <= hi && hi <= max);
                assert!(sorted && inside, "{atom:?} on {width} bits: {runs:?}");
                for v in 0..=max {
                    let held = runs.iter().any(|&(lo, hi)| (lo..=hi).contains(&v));
                    assert_eq!(held, atom.matches_value(v), "{atom:?} on {width} bits: {v}");
                }
            }
        }
    }

    #[test]
    fn in_members_merge_into_runs_and_clip_to_the_domain() {
        let a = ResolvedAtom::In { idx: 0, values: vec![2, 3, 4, 7, 9, 10, 1000] };
        assert_eq!(a.runs(4), vec![(2, 4), (7, 7), (9, 10)]);
        assert_eq!(a.runs(3), vec![(2, 4), (7, 7)]);
        assert_eq!(ResolvedAtom::In { idx: 0, values: vec![64, 1000] }.runs(6), vec![]);
        assert_eq!(ResolvedAtom::Lt { idx: 0, value: 1000 }.runs(6), vec![(0, 63)]);
        assert_eq!(ResolvedAtom::Gt { idx: 0, value: 1000 }.runs(6), vec![]);
        assert_eq!(ResolvedAtom::Between { idx: 0, lo: 3, hi: 1000 }.runs(6), vec![(3, 63)]);
        assert_eq!(ResolvedAtom::Gt { idx: 0, value: 5 }.runs(64), vec![(6, u64::MAX)]);
    }

    #[test]
    fn can_match_range_is_exact_for_in() {
        let a = ResolvedAtom::In { idx: 0, values: vec![5, 40] };
        assert!(a.can_match_range(0, 5));
        assert!(a.can_match_range(30, 50));
        // envelope overlaps but no member inside
        assert!(!a.can_match_range(10, 20));
        assert!(!a.can_match_range(41, u64::MAX));
    }

    #[test]
    fn can_match_range_comparisons() {
        assert!(ResolvedAtom::Lt { idx: 0, value: 10 }.can_match_range(9, 100));
        assert!(!ResolvedAtom::Lt { idx: 0, value: 10 }.can_match_range(10, 100));
        assert!(ResolvedAtom::Gt { idx: 0, value: 10 }.can_match_range(0, 11));
        assert!(!ResolvedAtom::Gt { idx: 0, value: 10 }.can_match_range(0, 10));
        assert!(ResolvedAtom::Between { idx: 0, lo: 3, hi: 6 }.can_match_range(6, 9));
        assert!(!ResolvedAtom::Between { idx: 0, lo: 3, hi: 6 }.can_match_range(7, 9));
    }

    /// The zone of one row.
    fn zone_of(row: &[u64]) -> ZoneMap {
        let mut zone = ZoneMap::empty(row.len());
        for (attr, &v) in row.iter().enumerate() {
            zone.widen(attr, v);
        }
        zone
    }

    #[test]
    fn filter_bounds_intersection_and_zone_test() {
        let atoms = vec![
            ResolvedAtom::Gt { idx: 0, value: 10 },
            ResolvedAtom::Lt { idx: 0, value: 20 },
            ResolvedAtom::Eq { idx: 1, value: 3 },
        ];
        let b = bounds_of(&atoms);
        assert!(b.satisfiable());
        assert!(b.can_match(&zone_of(&[15, 3])));
        // zone outside the idx-0 window
        assert!(!b.can_match(&zone_of(&[25, 3])));
        // zone missing the idx-1 constant
        assert!(!b.can_match(&zone_of(&[15, 4])));
        // empty zone never matches a constrained filter
        assert!(!b.can_match(&ZoneMap::empty(2)));
        // the empty conjunction matches any zone
        assert!(bounds_of(&[]).can_match(&ZoneMap::empty(2)));
    }

    #[test]
    fn contradictory_bounds_are_unsatisfiable() {
        let b = bounds_of(&[
            ResolvedAtom::Gt { idx: 0, value: 20 },
            ResolvedAtom::Lt { idx: 0, value: 10 },
        ]);
        assert!(!b.satisfiable());
        assert!(!b.can_match(&zone_of(&[15])));
        assert!(!bounds_of(&[ResolvedAtom::Lt { idx: 0, value: 0 }]).satisfiable());
    }

    #[test]
    fn or_bounds_are_the_interval_union() {
        // (x BETWEEN 0..10) OR (x BETWEEN 100..110): a zone in the gap is
        // pruned, zones overlapping either branch are kept.
        let dnf = vec![
            vec![ResolvedAtom::Between { idx: 0, lo: 0, hi: 10 }],
            vec![ResolvedAtom::Between { idx: 0, lo: 100, hi: 110 }],
        ];
        let b = FilterBounds::from_dnf(&dnf);
        assert!(b.satisfiable());
        let zone_at = |v: u64| zone_of(&[v]);
        assert!(b.can_match(&zone_at(5)));
        assert!(b.can_match(&zone_at(105)));
        assert!(!b.can_match(&zone_at(50)), "the gap between the branches must prune");
        let intervals = b.intervals();
        assert_eq!(intervals[&0], vec![(0, 10), (100, 110)]);
        // a disjunction with one unsatisfiable branch keeps the other
        let half = FilterBounds::from_dnf(&[
            vec![ResolvedAtom::Lt { idx: 0, value: 0 }],
            vec![ResolvedAtom::Eq { idx: 0, value: 7 }],
        ]);
        assert!(half.satisfiable());
        assert!(half.can_match(&zone_at(7)));
        assert!(!half.can_match(&zone_at(8)));
        // zero disjuncts = FALSE
        assert!(!FilterBounds::from_dnf(&[]).satisfiable());
    }

    #[test]
    fn adjacent_intervals_coalesce() {
        let dnf = vec![
            vec![ResolvedAtom::Between { idx: 0, lo: 0, hi: 10 }],
            vec![ResolvedAtom::Between { idx: 0, lo: 11, hi: 20 }],
        ];
        assert_eq!(FilterBounds::from_dnf(&dnf).intervals()[&0], vec![(0, 20)]);
    }

    #[test]
    fn intervals_drop_attrs_a_branch_leaves_free() {
        // (a = 1 AND b = 2) OR (a = 5): b is unconstrained through the
        // second branch, so no union bound on b is enforced — and none
        // may be reported.
        let dnf = vec![
            vec![ResolvedAtom::Eq { idx: 0, value: 1 }, ResolvedAtom::Eq { idx: 1, value: 2 }],
            vec![ResolvedAtom::Eq { idx: 0, value: 5 }],
        ];
        let b = FilterBounds::from_dnf(&dnf);
        let intervals = b.intervals();
        assert_eq!(intervals.get(&0), Some(&vec![(1, 1), (5, 5)]));
        assert!(!intervals.contains_key(&1), "b admits any value via the second branch");
        // an unsatisfiable branch does not suppress the others' attrs
        let with_dead = FilterBounds::from_dnf(&[
            vec![ResolvedAtom::Eq { idx: 1, value: 2 }],
            vec![ResolvedAtom::Lt { idx: 0, value: 0 }], // FALSE
        ]);
        assert_eq!(with_dead.intervals().get(&1), Some(&vec![(2, 2)]));
    }

    #[test]
    fn pred_dnf_distributes() {
        let a = || Atom::Eq { attr: "a".into(), value: 1u64.into() };
        let b = || Atom::Eq { attr: "b".into(), value: 2u64.into() };
        let c = || Atom::Eq { attr: "c".into(), value: 3u64.into() };
        // a AND (b OR c) → [a,b] | [a,c]
        let p = Pred::Atom(a()).and(Pred::Atom(b()).or(Pred::Atom(c())));
        let dnf = p.dnf();
        assert_eq!(dnf, vec![vec![a(), b()], vec![a(), c()]]);
        // TRUE and FALSE corner cases
        assert_eq!(Pred::always().dnf(), vec![Vec::<Atom>::new()]);
        assert!(Pred::Or(vec![]).dnf().is_empty());
        assert!(Pred::always().is_always());
        assert!(!p.is_always());
        assert_eq!(p.atoms().len(), 3);
        assert_eq!(Pred::all(vec![a(), b()]).dnf(), vec![vec![a(), b()]]);
    }

    #[test]
    fn pred_matches_row_follows_dnf() {
        let rel = schema_and_rel();
        let p = Pred::Atom(Atom::Lt { attr: "q".into(), value: 10u64.into() })
            .or(Pred::Atom(Atom::Gt { attr: "q".into(), value: 35u64.into() }));
        let hits: Vec<bool> = (0..4).map(|r| p.matches_row(&rel, r).unwrap()).collect();
        assert_eq!(hits, vec![true, false, false, true]);
        // matches_row must agree with evaluating the DNF per disjunct
        let dnf = p.resolve_dnf(rel.schema()).unwrap();
        for (row, hit) in hits.iter().enumerate() {
            let via_dnf = dnf.iter().any(|conj| conj.iter().all(|a| a.matches(&rel, row)));
            assert_eq!(via_dnf, *hit);
        }
    }

    #[test]
    fn pred_pretty_prints() {
        let p = Pred::Atom(Atom::Eq { attr: "d_year".into(), value: 1993u64.into() }).and(
            Pred::Atom(Atom::Between {
                attr: "lo_discount".into(),
                lo: 1u64.into(),
                hi: 3u64.into(),
            })
            .or(Pred::Atom(Atom::Eq { attr: "region".into(), value: "ASIA".into() })),
        );
        assert_eq!(
            p.to_string(),
            "(d_year = 1993 AND (lo_discount BETWEEN 1 AND 3 OR region = 'ASIA'))"
        );
        assert_eq!(Pred::always().to_string(), "TRUE");
        assert_eq!(Pred::Or(vec![]).to_string(), "FALSE");
    }

    #[test]
    fn filter_bounds_of_query_resolves_strings() {
        let rel = schema_and_rel();
        let q = Query::single(
            "t",
            vec![Atom::Eq { attr: "region".into(), value: "ASIA".into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::attr("q"),
        );
        let b = FilterBounds::from_dnf(&q.resolve_filter(rel.schema()).unwrap());
        let zone = ZoneMap::of(&rel);
        assert!(b.can_match(&zone));
    }

    #[test]
    fn query_resolution() {
        let rel = schema_and_rel();
        let q = Query::single(
            "t1",
            vec![
                Atom::Gt { attr: "q".into(), value: 10u64.into() },
                Atom::Eq { attr: "region".into(), value: "ASIA".into() },
            ],
            vec!["region".into()],
            AggFunc::Sum,
            AggExpr::attr("q"),
        );
        assert!(q.has_group_by());
        let dnf = q.resolve_filter(rel.schema()).unwrap();
        assert_eq!(dnf.len(), 1);
        assert_eq!(dnf[0].len(), 2);
        q.validate(rel.schema()).unwrap();
    }

    #[test]
    fn physical_plan_dedups_shared_components() {
        // SUM(x), COUNT, AVG(x) → two physical aggregates.
        let q = Query {
            id: "t".into(),
            filter: Pred::always(),
            group_by: vec![],
            select: vec![
                SelectItem::sum("total", AggExpr::attr("q")),
                SelectItem::count("n"),
                SelectItem::avg("mean", AggExpr::attr("q")),
            ],
        };
        let plan = q.physical_plan().unwrap();
        assert_eq!(plan.aggs.len(), 2);
        assert_eq!(plan.aggs[0], PhysAgg { func: PhysFunc::Sum, expr: Some(AggExpr::attr("q")) });
        assert_eq!(plan.aggs[1], PhysAgg { func: PhysFunc::Count, expr: None });
        assert_eq!(
            plan.outputs,
            vec![
                ("total".into(), Derivation::Direct(0)),
                ("n".into(), Derivation::Direct(1)),
                ("mean".into(), Derivation::Ratio(0, 1)),
            ]
        );
    }

    #[test]
    fn physical_plan_rejects_bad_select_lists() {
        let empty =
            Query { id: "t".into(), filter: Pred::always(), group_by: vec![], select: vec![] };
        assert!(empty.physical_plan().is_err());
        let dup = Query {
            id: "t".into(),
            filter: Pred::always(),
            group_by: vec![],
            select: vec![SelectItem::count("n"), SelectItem::count("n")],
        };
        assert!(dup.physical_plan().is_err());
        let missing_expr = Query {
            id: "t".into(),
            filter: Pred::always(),
            group_by: vec![],
            select: vec![SelectItem { name: "x".into(), func: AggFunc::Sum, expr: None }],
        };
        assert!(missing_expr.physical_plan().is_err());
    }

    #[test]
    fn finalize_derives_avg_after_merge() {
        let q = Query {
            id: "t".into(),
            filter: Pred::always(),
            group_by: vec![],
            select: vec![
                SelectItem::sum("s", AggExpr::attr("q")),
                SelectItem::count("n"),
                SelectItem::avg("a", AggExpr::attr("q")),
            ],
        };
        let plan = q.physical_plan().unwrap();
        let mut sums = GroupedResult::new();
        sums.insert(vec![1], 10);
        let mut counts = GroupedResult::new();
        counts.insert(vec![1], 4);
        let out = plan.finalize(&[sums, counts]);
        assert_eq!(out[&vec![1u64]], vec![10, 4, 2]);
    }

    #[test]
    fn phys_func_merge_and_identity() {
        assert_eq!(PhysFunc::Sum.merge(u64::MAX, 1), 0, "sums wrap");
        assert_eq!(PhysFunc::Count.merge(2, 3), 5);
        assert_eq!(PhysFunc::Min.merge(4, 9), 4);
        assert_eq!(PhysFunc::Max.merge(4, 9), 9);
        for f in [PhysFunc::Sum, PhysFunc::Min, PhysFunc::Max, PhysFunc::Count] {
            assert_eq!(f.merge(f.identity(), 7), 7, "{f:?}");
        }
    }

    #[test]
    fn single_is_one_value_column_over_a_conjunction() {
        let filter = vec![Atom::Gt { attr: "q".into(), value: 10u64.into() }];
        let q = Query::single(
            "q",
            filter.clone(),
            vec!["region".into()],
            AggFunc::Sum,
            AggExpr::attr("q"),
        );
        assert_eq!(q.select, vec![SelectItem::sum("value", AggExpr::attr("q"))]);
        assert_eq!(q.filter, Pred::all(filter));
    }

    #[test]
    fn referenced_attrs_deduplicates() {
        let q = Query::single(
            "t",
            vec![
                Atom::Gt { attr: "q".into(), value: 1u64.into() },
                Atom::Eq { attr: "region".into(), value: 0u64.into() },
            ],
            vec!["region".into()],
            AggFunc::Sum,
            AggExpr::attr("q"),
        );
        assert_eq!(q.referenced_attrs(), vec!["q", "region"]);
    }
}
