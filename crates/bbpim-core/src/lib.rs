//! # bbpim-core — the bulk-bitwise PIM OLAP engine
//!
//! This crate implements the contribution of *"Enabling Relational
//! Database Analytical Processing in Bulk-Bitwise Processing-In-Memory"*
//! (Perach, Ronen, Kvatinsky — SOCC 2023) on top of the
//! [`bbpim_sim`] hardware substrate and the [`bbpim_db`] relational
//! substrate:
//!
//! * **Pre-joined relations in PIM** — [`layout`] maps the wide
//!   (denormalised) relation onto crossbar rows, either whole
//!   (`one-xb`) or vertically partitioned fact/dimension (`two-xb`,
//!   Section III), and [`loader`] installs it bit-exactly.
//! * **Full-query execution** — [`engine::PimQueryEngine`] runs SSB-style
//!   queries end to end: compiled bulk-bitwise filters
//!   ([`filter_exec`]), in-crossbar arithmetic for aggregate
//!   expressions, and aggregation through the peripheral circuit or the
//!   pure bulk-bitwise PIMDB baseline ([`agg_exec`], [`modes`]).
//! * **One query path** — [`PimTable::begin`] opens a [`scan::Scan`]
//!   (table, page plan, phase log) and the stages are its methods:
//!
//!   ```text
//!   begin → filter → ( sample → choose k → pim-gb / host-gb | aggregate ) → finish
//!   ```
//!
//!   which is the paper's Section IV read top to bottom: the
//!   bulk-bitwise filter, then for GROUP BY the one-page sample and the
//!   Eq. (3) choice of `k`, else one aggregation through the
//!   per-crossbar circuit; UPDATE (Algorithm 1) opens the same scan for
//!   its select bit.
//! * **One record path** — wherever the host touches stored records it
//!   goes through a [`layout::Projection`]: a set of attributes resolved
//!   once per request to their placements and the 16-bit chunks they
//!   span (the paper's `s`). Load and INSERT are the callers of one
//!   column-at-a-time writer ([`loader`]); the sample and host-gb of
//!   one reader and one fold ([`record`]) — one host-gb for both
//!   storage models, probing a star join's dimensions through their
//!   foreign keys ([`groupby::host_gb::DimProbe`]) — charged by one
//!   rule — a scattered read costs `distinct(record /
//!   crossbars-per-page) × chunks per row` lines, Section V-B's "reading
//!   a single record brings 32 records" counted exactly.
//! * **Hybrid GROUP-BY** (Section IV) — [`groupby`] samples one 2 MB
//!   page, estimates subgroup sizes, fits/evaluates the empirical
//!   latency model (Eqs. 1–3), assigns the k largest subgroups to
//!   *pim-gb* and the tail to *host-gb*.
//! * **Mutations via the PIM multiplexer** (Algorithm 1) — [`mutation`]
//!   maintains PIM-resident data with no priced read: UPDATE with full
//!   `And`/`Or` filter trees and multi-column SET, plus INSERT
//!   appending rows online.
//! * **Zone-map-driven physical planning** — [`planner`] tests a
//!   query's bound intervals ([`bbpim_db::plan::FilterBounds`]) against
//!   per-page min/max zone maps built at load time, and every execution
//!   stage (filter, aggregation, GROUP BY, UPDATE) runs only over the
//!   planned [`planner::PageSet`]; pruned pages are never activated and
//!   cost no per-page host orchestration.
//! * **The headline numbers** — [`headline`] computes the paper's
//!   geo-mean ratios once, over the three modes' reports.
//!
//! ```no_run
//! use bbpim_core::engine::PimQueryEngine;
//! use bbpim_core::modes::EngineMode;
//! use bbpim_db::ssb::{queries, SsbDb, SsbParams};
//! use bbpim_sim::SimConfig;
//!
//! let db = SsbDb::generate(&SsbParams::uniform(0.01));
//! let wide = db.prejoin();
//! let mut engine = PimQueryEngine::new(SimConfig::default(), wide, EngineMode::OneXb)?;
//! let q = bbpim_db::ssb::queries::standard_query("Q1.1").unwrap();
//! let out = engine.run(&q)?;
//! println!("{} in {:.3} ms", q.id, out.report.time_ns / 1e6);
//! # Ok::<(), bbpim_core::CoreError>(())
//! ```

pub mod agg_exec;
pub mod engine;
pub mod error;
pub mod filter_exec;
#[cfg(test)]
pub(crate) mod fixture;
pub mod groupby;
pub mod headline;
pub mod layout;
pub mod loader;
pub mod modes;
pub mod mutation;
pub mod planner;
pub mod record;
pub mod result;
pub mod scan;
pub mod semijoin;
pub mod table;

pub use engine::PimQueryEngine;
pub use error::CoreError;
pub use modes::EngineMode;
pub use mutation::{Mutation, MutationBuilder, MutationReport};
pub use scan::Scan;
pub use table::PimTable;
