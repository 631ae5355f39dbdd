//! # bbpim-db — relational substrate for bulk-bitwise PIM OLAP
//!
//! This crate supplies everything the PIM engine and the column-store
//! baseline consume:
//!
//! * [`schema`] / [`relation`] / [`column`](mod@column) / [`dict`] — a minimal
//!   columnar relational model. Every attribute is a bit-width-minimal
//!   unsigned integer; strings are dictionary-encoded with order
//!   chosen so that lexicographic predicates (`BETWEEN 'MFGR#2221' AND
//!   'MFGR#2228'`) become integer range predicates.
//! * [`ssb`] — a deterministic, scale-factor-parameterised Star Schema
//!   Benchmark generator (O'Neil et al.), with the data-skew variant of
//!   Rabl et al. the paper evaluates, pre-joining (denormalisation) of
//!   the fact relation with all four dimensions, and the 13 SSB queries
//!   as logical plans.
//! * [`plan`] — the logical query form shared by both engines: a named
//!   multi-aggregate SELECT list (`SUM`/`MIN`/`MAX`/`COUNT`/derived
//!   `AVG`), an `AND`/`OR` filter tree normalised to DNF, and GROUP BY
//!   keys — plus [`plan::FilterBounds`], the per-attribute bound
//!   intervals (interval *union* across OR branches) the physical
//!   planner extracts from a resolved filter.
//! * [`builder`] — the fluent surface:
//!   `Query::select(...).filter(col("d_year").eq(1993)).build(&schema)`.
//! * [`zonemap`] — per-zone (shard / page) min-max summaries; together
//!   with [`plan::FilterBounds`] they let the execution layers prove a
//!   zone holds no matching record and skip it untouched.
//! * [`stats`] — oracles for selectivity and subgroup counts (Table II).
//! * [`domain`] — the GROUP-BY domain index: per attribute prefix, the
//!   distinct tuples of its attributes with counts, which the engines
//!   enumerate potential subgroups from instead of scanning records.
//!
//! ## Quick start
//!
//! ```
//! use bbpim_db::ssb::{SsbDb, SsbParams};
//!
//! let db = SsbDb::generate(&SsbParams::tiny_for_tests());
//! assert!(db.lineorder.len() > 0);
//! let wide = db.prejoin();
//! assert_eq!(wide.len(), db.lineorder.len()); // keys are unique: no fan-out
//! ```

pub mod builder;
pub mod column;
pub mod dict;
pub mod domain;
pub mod error;
pub mod plan;
pub mod relation;
pub mod schema;
pub mod ssb;
pub mod stats;
pub mod zonemap;

pub use builder::{col, QueryBuilder};
pub use error::DbError;
pub use plan::{AggExpr, AggFunc, Pred, Query, SelectItem};
pub use relation::Relation;
pub use schema::{Attribute, Schema};
pub use zonemap::ZoneMap;
