//! Fluent query construction.
//!
//! ```
//! use bbpim_db::builder::col;
//! use bbpim_db::plan::{AggExpr, Query, SelectItem};
//!
//! let q = Query::select([
//!         SelectItem::sum("revenue", AggExpr::mul("lo_extendedprice", "lo_discount")),
//!         SelectItem::count("orders"),
//!         SelectItem::avg("avg_discount", AggExpr::attr("lo_discount")),
//!     ])
//!     .id("Q1.1-combined")
//!     .filter(
//!         col("d_year")
//!             .eq(1993u64)
//!             .and(col("lo_discount").between(1u64, 3u64))
//!             .and(col("lo_quantity").lt(25u64)),
//!     )
//!     .build_unchecked();
//! assert_eq!(q.select.len(), 3);
//! ```
//!
//! [`QueryBuilder::build`] validates against a concrete [`Schema`]
//! (attribute existence, dictionary strings, SELECT-list sanity);
//! [`QueryBuilder::build_unchecked`] defers validation to the engines —
//! useful when queries are defined before any schema exists (the SSB
//! catalog does this).

use crate::error::DbError;
use crate::plan::{Atom, Const, Pred, Query, SelectItem};
use crate::schema::Schema;

/// Start a predicate on a column: `col("d_year").eq(1993)`.
pub fn col(name: impl Into<String>) -> ColRef {
    ColRef { name: name.into() }
}

/// A column reference waiting for a comparison — see [`col`].
#[derive(Debug, Clone)]
pub struct ColRef {
    name: String,
}

impl ColRef {
    /// `col = value`
    pub fn eq(self, value: impl Into<Const>) -> Pred {
        Pred::Atom(Atom::Eq { attr: self.name, value: value.into() })
    }

    /// `lo <= col <= hi` (inclusive)
    pub fn between(self, lo: impl Into<Const>, hi: impl Into<Const>) -> Pred {
        Pred::Atom(Atom::Between { attr: self.name, lo: lo.into(), hi: hi.into() })
    }

    /// `col < value`
    pub fn lt(self, value: impl Into<Const>) -> Pred {
        Pred::Atom(Atom::Lt { attr: self.name, value: value.into() })
    }

    /// `col > value`
    pub fn gt(self, value: impl Into<Const>) -> Pred {
        Pred::Atom(Atom::Gt { attr: self.name, value: value.into() })
    }

    /// `col IN (values…)`
    pub fn is_in<I, C>(self, values: I) -> Pred
    where
        I: IntoIterator<Item = C>,
        C: Into<Const>,
    {
        Pred::Atom(Atom::In {
            attr: self.name,
            values: values.into_iter().map(Into::into).collect(),
        })
    }
}

/// Fluent [`Query`] builder — start with [`Query::select`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    id: String,
    select: Vec<SelectItem>,
    filter: Option<Pred>,
    group_by: Vec<String>,
}

impl QueryBuilder {
    /// A builder over a SELECT list (normally via [`Query::select`]).
    pub fn new(items: impl IntoIterator<Item = SelectItem>) -> QueryBuilder {
        QueryBuilder {
            id: "query".into(),
            select: items.into_iter().collect(),
            filter: None,
            group_by: Vec::new(),
        }
    }

    /// Set the query identifier (defaults to `"query"`).
    #[must_use]
    pub fn id(mut self, id: impl Into<String>) -> Self {
        self.id = id.into();
        self
    }

    /// Set the filter; calling again ANDs the predicates together.
    #[must_use]
    pub fn filter(mut self, pred: Pred) -> Self {
        self.filter = Some(match self.filter.take() {
            None => pred,
            Some(existing) => existing.and(pred),
        });
        self
    }

    /// Append GROUP BY attributes (in key order).
    #[must_use]
    pub fn group_by<I, S>(mut self, keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.group_by.extend(keys.into_iter().map(Into::into));
        self
    }

    /// Finish without schema validation (the engines validate at
    /// resolution time anyway).
    pub fn build_unchecked(self) -> Query {
        Query {
            id: self.id,
            filter: self.filter.unwrap_or_else(Pred::always),
            group_by: self.group_by,
            select: self.select,
        }
    }

    /// Finish and validate against a schema: every filter atom resolves
    /// (attributes exist, dictionary strings encode, `BETWEEN` bounds
    /// ordered, `IN` non-empty), group keys and aggregate operands
    /// exist, and the SELECT list is non-empty with unique names.
    ///
    /// # Errors
    ///
    /// [`DbError`] describing the first problem found.
    pub fn build(self, schema: &Schema) -> Result<Query, DbError> {
        let query = self.build_unchecked();
        query.validate(schema)?;
        Ok(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggExpr, AggFunc};
    use crate::schema::Attribute;

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                Attribute::numeric("lo_price", 8),
                Attribute::numeric("lo_disc", 4),
                Attribute::numeric("d_year", 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn builder_assembles_the_query() {
        let q = Query::select([
            SelectItem::sum("rev", AggExpr::mul("lo_price", "lo_disc")),
            SelectItem::count("n"),
        ])
        .id("combo")
        .filter(col("d_year").eq(3u64).and(col("lo_disc").between(1u64, 3u64)))
        .group_by(["d_year"])
        .build(&schema())
        .unwrap();
        assert_eq!(q.id, "combo");
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.group_by, vec!["d_year"]);
        assert_eq!(q.filter.atoms().len(), 2);
    }

    #[test]
    fn repeated_filter_calls_and_together() {
        let q = Query::select([SelectItem::count("n")])
            .filter(col("d_year").eq(1u64))
            .filter(col("lo_price").gt(10u64).or(col("lo_price").lt(2u64)))
            .build(&schema())
            .unwrap();
        // (year AND (gt OR lt)) → two disjuncts, each containing the year atom
        let dnf = q.filter.dnf();
        assert_eq!(dnf.len(), 2);
        assert!(dnf.iter().all(|conj| conj.len() == 2));
    }

    #[test]
    fn empty_filter_is_always_true() {
        let q = Query::select([SelectItem::count("n")]).build(&schema()).unwrap();
        assert!(q.filter.is_always());
    }

    #[test]
    fn build_validates_against_the_schema() {
        let bad_attr =
            Query::select([SelectItem::count("n")]).filter(col("nope").eq(1u64)).build(&schema());
        assert!(bad_attr.is_err());
        let bad_operand =
            Query::select([SelectItem::sum("s", AggExpr::attr("nope"))]).build(&schema());
        assert!(bad_operand.is_err());
        let bad_group = Query::select([SelectItem::count("n")]).group_by(["nope"]).build(&schema());
        assert!(bad_group.is_err());
        let empty_select = Query::select([]).build(&schema());
        assert!(empty_select.is_err());
        let dup = Query::select([SelectItem::count("n"), SelectItem::count("n")]).build(&schema());
        assert!(dup.is_err());
        let missing_expr =
            Query::select([SelectItem { name: "x".into(), func: AggFunc::Avg, expr: None }])
                .build(&schema());
        assert!(missing_expr.is_err());
    }

    #[test]
    fn in_list_builder() {
        let q = Query::select([SelectItem::count("n")])
            .filter(col("d_year").is_in([1u64, 3u64]))
            .build(&schema())
            .unwrap();
        assert_eq!(q.filter.to_string(), "d_year IN (1, 3)");
    }
}
