//! # bbpim — bulk-bitwise processing-in-memory for relational OLAP
//!
//! Facade crate for the `bbpim` workspace, a clean-room Rust
//! reproduction of *"Enabling Relational Database Analytical Processing
//! in Bulk-Bitwise Processing-In-Memory"* (Perach, Ronen, Kvatinsky —
//! SOCC 2023).
//!
//! The workspace members (and the scheduler's `serve` module) are
//! re-exported under short names:
//!
//! * [`sim`] — the bit-accurate PIM hardware simulator (crossbars,
//!   MAGIC-NOR microprograms, aggregation circuit, timing / energy /
//!   endurance / area models).
//! * [`db`] — the relational substrate: columnar relations, the Star
//!   Schema Benchmark generator (uniform and skewed), pre-joining, and
//!   the 13 SSB queries as logical plans.
//! * [`engine`] — the paper's contribution: the PIM OLAP engine with
//!   one-crossbar / two-crossbar layouts, the hybrid GROUP-BY with its
//!   empirical cost model, and UPDATE via the PIM multiplexer.
//! * [`cluster`] — sharded multi-module execution on top of [`engine`]:
//!   one `Cluster<S>` partitions the fact relation over `n` PIM
//!   modules (round-robin, hash-by-group-key, or range-by-attr),
//!   consults per-shard zone maps to skip shards a filter provably
//!   cannot match, scatters each query to the survivors on scoped
//!   threads, and merges the per-shard partial aggregates — same
//!   `run(&Query)` surface, bit-identical answers, host-serial channel
//!   occupancy + max-of-shards simulated wall clock. Includes a batch
//!   scheduler and cluster-wide mutation fan-out with zone widening.
//!   Two storage models instantiate it: `ClusterEngine` shards the
//!   paper's wide pre-joined relation, `StarCluster` the normalized
//!   star.
//! * [`join`] — the cluster's star storage model (`cluster::star`
//!   under its historical name): `lineorder` plus the four dimensions
//!   stay separate PIM tables (a fraction of the pre-join's capacity),
//!   dimension filters run on their own modules, and the resulting key
//!   bitmaps cross the host channel compressed — once — before
//!   compiling into fact-side range programs through the FK columns.
//!   Same query surface, answers bit-identical to the pre-joined path.
//! * [`sched`] — streaming service on top of [`cluster`]: timestamped
//!   query arrivals (seeded Poisson traces), admission control with
//!   backpressure (FIFO or shortest-candidate-set-first), per-shard
//!   queues, a shared host dispatch bus, out-of-order completion, and
//!   p50/p95/p99 latency + throughput + utilisation accounting —
//!   deterministic per seed, answers bit-identical to `run_batch`.
//! * [`serve`] — SLO-aware multi-tenant serving (`bbpim_sched::serve`),
//!   the second front-end of [`sched`]'s one admission loop: named
//!   tenants (seeded open Poisson / burst arrivals and closed-loop
//!   think-time clients) multiplexed into one deterministic event stream, per-tenant token-bucket rate
//!   limits and SLO specs, weighted fair sharing across tenant admission
//!   queues, deadline-aware shedding at admission, and a closed-loop
//!   AIMD controller that adapts the global in-flight window from the
//!   windowed SLO-normalised p95 — per-tenant latency/goodput/drop
//!   reports, every answer bit-identical to a replay of the writes
//!   admitted before it.
//! * [`monet`] — the in-memory column-store baseline (`mnt-reg` /
//!   `mnt-join`).
//! * [`trace`] — the tracing substrate: a structured span/event
//!   recorder on the simulated clock that the scheduler and serving
//!   loops report into, with Chrome/Perfetto + JSONL exporters.
//!
//! The query path is physically planned end to end: `db`'s
//! `FilterBounds` + `ZoneMap` feed `engine`'s per-page `PageSet`
//! planner and `cluster`'s pre-scatter shard pruning, so selective
//! queries only activate the pages that can matter.
//!
//! See `README.md` for a walkthrough, `examples/quickstart.rs` for a
//! complete end-to-end query, `examples/cluster_scaling.rs` for
//! shard-count scaling, `examples/star_join.rs` for the normalized
//! star-join path, and `examples/multi_tenant.rs` for the serving
//! layer's per-tenant SLO report.

pub use bbpim_cluster as cluster;
pub use bbpim_cluster::star as join;
pub use bbpim_core as engine;
pub use bbpim_db as db;
pub use bbpim_monet as monet;
pub use bbpim_sched as sched;
pub use bbpim_sched::serve;
pub use bbpim_sim as sim;
pub use bbpim_trace as trace;
