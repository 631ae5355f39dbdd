//! # bbpim-cluster — sharded multi-module PIM execution
//!
//! The paper evaluates a single 32 GB PIM module, but its memory
//! system is explicitly built from many independent modules, and
//! bulk-bitwise PIM throughput comes from exploiting that module-level
//! parallelism. This crate scales the single-module
//! [`bbpim_core::PimQueryEngine`] horizontally, with one sharded
//! cluster over two storage models:
//!
//! * [`partition::Partitioner`] — round-robin, hash-by-group-key and
//!   range-by-attribute horizontal partitioning of the fact relation
//!   into `n` record shards, each paired with its
//!   [`bbpim_db::zonemap::ZoneMap`].
//! * [`engine::Cluster`] — one [`bbpim_core::PimTable`] (its own
//!   `PimModule`) per non-empty shard, generic over a
//!   [`engine::Storage`] model. `run(&Query)` first tests the filter's
//!   bound intervals against every shard's zone map and *prunes* shards
//!   that provably hold no match, scatters the query to the survivors
//!   on scoped OS threads, gathers the per-shard
//!   [`bbpim_core::result::PartialGroups`], and merges them — wrapping
//!   SUM addition, MIN/MAX folding, and map union for GROUP BY — into
//!   an answer bit-identical to the single-module engine's. Simulated
//!   wall clock serialises the host's channel occupancy across shards
//!   and overlaps the PIM phases (real modules run concurrently);
//!   energy sums over modules. Each table owns its zone-map pruning
//!   switch ([`bbpim_core::PimTable::set_pruning`]);
//!   [`engine::Cluster::set_pruning`] sets it on every table.
//! * Two storage models instantiate it: [`ClusterEngine`] shards the
//!   paper's wide pre-joined relation; [`StarCluster`] ([`star`]) keeps
//!   the SSB star *normalized* — sharded fact table, four dimension
//!   modules as auxiliary tables — and joins through PIM-side semijoin
//!   bitmaps that cross the host channel compressed
//!   ([`bitmap::KeyBitmap`]). Same surface, bit-identical answers.
//! * [`engine::Cluster::run_batch`] — a small batch scheduler: every
//!   shard drains its own zone-pruned query queue without cluster-wide
//!   barriers, so batch wall clock is host dispatch plus
//!   max-over-shards of PIM queue time.
//! * [`engine::Cluster::mutate`] — cluster-wide mutation fan-out: an
//!   UPDATE goes to the one auxiliary table it names or to the fact
//!   shards admitting the WHERE clause, where each shard's PIM
//!   multiplexer rewrites the records it owns; INSERT rows route
//!   round-robin. The touched shards' zone maps widen so pruning stays
//!   sound after writes.
//! * [`StreamEngine`] — the one scatter/gather surface, implemented by
//!   the cluster: [`StreamEngine::run_on_shard`] executes one query on
//!   one shard and [`StreamEngine::merge_executions`] folds partials
//!   into a cluster answer, so the streaming scheduler in `bbpim-sched`
//!   can interleave different queries' shard slices instead of
//!   scattering whole queries. [`engine::Cluster::explain`] dumps the
//!   zone-map plan (shards/pages candidate vs pruned, dispatch bytes,
//!   the join ledger) without executing.
//!
//! ```
//! use bbpim_cluster::{ClusterEngine, Partitioner};
//! use bbpim_core::modes::EngineMode;
//! use bbpim_db::ssb::{queries, SsbDb, SsbParams};
//! use bbpim_sim::SimConfig;
//!
//! let wide = SsbDb::generate(&SsbParams::tiny_for_tests()).prejoin();
//! let mut cluster = ClusterEngine::new(
//!     SimConfig::default(), wide, EngineMode::OneXb, 4, Partitioner::RoundRobin)?;
//! let q = queries::standard_query("Q1.1").unwrap();
//! let out = cluster.run(&q)?;
//! println!("{} on {} shards in {:.3} ms", q.id, out.report.shards, out.report.time_ns / 1e6);
//! # Ok::<(), bbpim_cluster::ClusterError>(())
//! ```

pub mod bitmap;
pub mod engine;
pub mod error;
pub mod explain;
mod fold;
pub mod partition;
pub mod star;

pub use bitmap::KeyBitmap;
pub use engine::{
    BatchExecution, Cluster, ClusterEngine, ClusterExecution, ClusterReport, PreJoined, Storage,
    StreamEngine,
};
pub use error::ClusterError;
pub use explain::{JoinTransfer, PlanExplain, ShardPlan};
pub use partition::Partitioner;
pub use star::{Star, StarCluster};
