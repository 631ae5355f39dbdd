//! The sharded cluster: scatter a query to per-shard [`PimTable`]s on
//! OS threads, gather and merge the partials.
//!
//! The paper evaluates one PIM module, but its memory system is built
//! from many independent modules; this layer models a rank of `n` such
//! modules. Each shard owns a horizontal slice of the fact relation
//! (see [`crate::partition`]) inside its own `PimModule`.
//!
//! ## One cluster, two storage models
//!
//! [`Cluster`] is generic over a [`Storage`] model. Everything *around*
//! per-shard execution — shard bookkeeping, the pruning / contention /
//! transfer-policy toggles, shard admission, `EXPLAIN`, the threaded
//! scatter, the report folds, mutation routing — exists once. The
//! storage model supplies what genuinely differs: [`PreJoined`]
//! ([`ClusterEngine`]) shards the paper's wide pre-joined relation and
//! runs its cost-model GROUP BY; [`crate::star::Star`]
//! ([`crate::StarCluster`]) shards the normalized fact table, keeps the
//! dimensions on auxiliary modules and joins through PIM-side semijoin
//! bitmaps. Answers are bit-identical between the two.
//!
//! ## Zone-map shard pruning
//!
//! Every shard carries a [`ZoneMap`] (per-attribute min/max, built
//! during partitioning and widened by mutation fan-out). Before the
//! scatter, the query's [`FilterBounds`] are tested against each
//! shard's map: shards that provably hold no matching record are
//! *pruned pre-scatter* — no thread, no per-page host dispatch, no PIM
//! activity. With [`Partitioner::RangeByAttr`] placement, selective
//! filters on the split attribute touch one or two shards instead of
//! all of them.
//!
//! ## Wall-clock model
//!
//! Real modules execute concurrently, but the *host* is one resource.
//! Under the default **contention model**, *everything* that crosses
//! the host↔module channel serialises across shards: per-page dispatch
//! ([`bbpim_sim::timeline::PhaseKind::HostDispatch`]) *and* the
//! bandwidth term of every byte-tagged transfer (mask transfers, result-line reads, host-gb
//! record fetches — `QueryReport::host_bus_ns`). The wall clock for
//! one query is `Σ host-bus occupancy + max over shards of (shard time
//! − its occupancy) + host merge`; energy — drawn by every module — is
//! the *sum*. [`Cluster::set_contention`]`(false)` restores the
//! pre-contention optimistic model (only dispatch serialises, every
//! transfer rides a free per-module channel) for A/B studies; answers
//! are bit-identical either way.

use std::borrow::Cow;

use bbpim_core::engine::run_query;
use bbpim_core::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim_core::groupby::cost_model::GroupByModel;
use bbpim_core::layout::RecordLayout;
use bbpim_core::modes::EngineMode;
use bbpim_core::mutation::{Mutation, MutationReport};
use bbpim_core::planner::PageSet;
use bbpim_core::result::{QueryExecution, QueryReport};
use bbpim_core::PimTable;
use bbpim_db::plan::{FilterBounds, Pred, Query, ResolvedAtom};
use bbpim_db::schema::Schema;
use bbpim_db::stats::MultiGrouped;
use bbpim_db::zonemap::ZoneMap;
use bbpim_db::Relation;
use bbpim_sim::config::SimConfig;
use bbpim_sim::XferPolicy;

use crate::error::ClusterError;
use crate::explain::{HostBytes, JoinTransfer, PlanExplain, ShardPlan};
use crate::fold::{fold_mutation, serial_slice_ns};
use crate::partition::Partitioner;

/// One fact shard: its position in the cluster plus its table and zone
/// map.
pub(crate) struct Shard {
    /// Shard index in `0..shard_count` (empty shards have no entry).
    index: usize,
    pub(crate) table: PimTable,
    /// Per-attribute min/max over this shard's records; refreshed after
    /// mutation fan-out so pre-scatter pruning stays sound.
    zone: ZoneMap,
}

/// What a storage model contributes to the one [`Cluster`]: how a
/// filter bounds the fact table, how one shard executes a query, and
/// the per-query state its shards share. Auxiliary tables (the star's
/// dimension modules; none for the pre-joined model) are owned by the
/// cluster and handed in.
pub trait Storage: Sync {
    /// Per-query state compiled once and shared by every shard (the
    /// star's join plan; nothing for the pre-joined model).
    type Plan: Sync;

    /// The planner's view of `filter`: a DNF resolved against the
    /// `fact` schema that every matching fact record satisfies — what
    /// shard and page zone maps are tested against — plus the ledger of
    /// join transfers it implies (each broadcast to `broadcast` shards).
    ///
    /// # Errors
    ///
    /// Attribute resolution failures.
    fn bounds(
        &self,
        fact: &Schema,
        filter: &Pred,
        broadcast: usize,
    ) -> Result<(Vec<Vec<ResolvedAtom>>, Vec<JoinTransfer>), ClusterError>;

    /// `EXPLAIN`'s estimate of the host-channel bytes the join work of
    /// `filter` moves, beyond what the fact shards move themselves.
    ///
    /// # Errors
    ///
    /// Attribute resolution failures.
    fn join_host_bytes(
        &self,
        aux: &[PimTable],
        filter: &Pred,
        transfers: &[JoinTransfer],
        policy: XferPolicy,
        prune: bool,
    ) -> Result<HostBytes, ClusterError>;

    /// Take `query`'s shared plan out of the plan cache, compiling it
    /// when there is none or a `fresh` one is asked for.
    ///
    /// # Errors
    ///
    /// Resolution or substrate failures.
    fn take_plan(
        &mut self,
        fact: &PimTable,
        aux: &mut [PimTable],
        prune: bool,
        query: &Query,
        fresh: bool,
    ) -> Result<Self::Plan, ClusterError>;

    /// Execute `query` on one fact shard. The `lead` shard — the first
    /// one dispatched — carries whatever the plan still has to charge
    /// once per query.
    ///
    /// # Errors
    ///
    /// Resolution or substrate failures.
    #[allow(clippy::too_many_arguments)]
    fn exec_shard(
        &self,
        plan: &Self::Plan,
        table: &mut PimTable,
        aux: &[PimTable],
        mode: EngineMode,
        prune: bool,
        query: &Query,
        lead: bool,
    ) -> Result<QueryExecution, ClusterError>;

    /// Put `query`'s plan back once a lead shard has executed under it
    /// (its once-per-query charges are spent).
    fn keep_plan(&mut self, query: &Query, plan: Self::Plan);

    /// Bring the model's host-side state in step with `m`, just applied
    /// to auxiliary table `d` (the star's dimension catalogs).
    ///
    /// # Errors
    ///
    /// Resolution failures.
    fn aux_mutated(&mut self, d: usize, m: &Mutation) -> Result<(), ClusterError>;

    /// Drop every cached plan: a toggle or a landed write may change
    /// any of them.
    fn invalidate(&mut self);
}

/// The paper's storage model: one wide pre-joined relation, sharded.
/// Nothing joins at query time, so there is no shared plan; GROUP BY
/// runs the cost model the shards share.
#[derive(Debug, Default)]
pub struct PreJoined {
    model: Option<GroupByModel>,
}

impl Storage for PreJoined {
    type Plan = ();

    fn bounds(
        &self,
        fact: &Schema,
        filter: &Pred,
        _broadcast: usize,
    ) -> Result<(Vec<Vec<ResolvedAtom>>, Vec<JoinTransfer>), ClusterError> {
        Ok((filter.resolve_dnf(fact)?, Vec::new()))
    }

    fn join_host_bytes(
        &self,
        _aux: &[PimTable],
        _filter: &Pred,
        _transfers: &[JoinTransfer],
        _policy: XferPolicy,
        _prune: bool,
    ) -> Result<HostBytes, ClusterError> {
        Ok(HostBytes::default())
    }

    fn take_plan(
        &mut self,
        _fact: &PimTable,
        _aux: &mut [PimTable],
        _prune: bool,
        _query: &Query,
        _fresh: bool,
    ) -> Result<(), ClusterError> {
        Ok(())
    }

    fn exec_shard(
        &self,
        _plan: &(),
        table: &mut PimTable,
        _aux: &[PimTable],
        mode: EngineMode,
        prune: bool,
        query: &Query,
        _lead: bool,
    ) -> Result<QueryExecution, ClusterError> {
        Ok(run_query(table, mode, self.model.as_ref(), prune, query)?)
    }

    fn keep_plan(&mut self, _query: &Query, _plan: ()) {}

    fn aux_mutated(&mut self, _d: usize, _m: &Mutation) -> Result<(), ClusterError> {
        Ok(())
    }

    fn invalidate(&mut self) {}
}

/// A sharded PIM OLAP engine: `n` fact shards, each a [`PimTable`] on
/// its own module, plus the storage model's auxiliary tables.
///
/// Presents the same `run(&Query)` surface as the single-module
/// [`bbpim_core::PimQueryEngine`], returning bit-identical grouped
/// results.
pub struct Cluster<S> {
    pub(crate) shards: Vec<Shard>,
    /// Auxiliary tables on modules of their own (the star's four
    /// dimensions); table `d` is ingest lane `shards.len() + d`.
    pub(crate) aux: Vec<PimTable>,
    pub(crate) storage: S,
    shard_count: usize,
    partitioner: Partitioner,
    mode: EngineMode,
    records: usize,
    pruning: bool,
    contention: bool,
}

/// The sharded engine over the paper's wide pre-joined relation.
pub type ClusterEngine = Cluster<PreJoined>;

/// Everything the cluster reports per query.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Query identifier.
    pub query_id: String,
    /// Engine mode every shard ran.
    pub mode: EngineMode,
    /// Configured shard count (including shards that received no
    /// records).
    pub shards: usize,
    /// Shards that hold records and could have executed.
    pub active_shards: usize,
    /// Active shards skipped pre-scatter because their zone map proves
    /// they hold no matching record.
    pub shards_pruned: usize,
    /// Partitioning strategy label.
    pub partitioner: &'static str,
    /// Simulated wall clock: host-serial channel occupancy plus max
    /// over shards of the overlappable time plus the host-side merge,
    /// nanoseconds (see the module docs for the contention model).
    pub time_ns: f64,
    /// Host-side per-page orchestration summed over dispatched shards
    /// (serialised on the one host), nanoseconds.
    pub dispatch_time_ns: f64,
    /// Total shared host-channel occupancy summed over dispatched
    /// shards (dispatch + the bandwidth term of every byte-tagged
    /// transfer), nanoseconds. Under the contention model this whole
    /// slice serialises; the optimistic model serialises only
    /// `dispatch_time_ns`.
    pub host_bus_time_ns: f64,
    /// Host-side gather/merge slice of `time_ns`.
    pub merge_time_ns: f64,
    /// Total busy time summed over shards (the work the cluster did).
    pub total_shard_time_ns: f64,
    /// Total PIM energy over all modules, picojoules.
    pub energy_pj: f64,
    /// Peak per-chip power over all modules, watts.
    pub peak_chip_power_w: f64,
    /// Records across the cluster.
    pub records: usize,
    /// Pages across all active shards (per partition).
    pub pages_total: usize,
    /// Pages the dispatched shards' planners actually activated.
    pub pages_scanned: usize,
    /// Records passing the filter across the cluster.
    pub selected: u64,
    /// Cluster-wide selectivity.
    pub selectivity: f64,
    /// Largest per-shard potential-subgroup count (`k_MAX` of the
    /// busiest shard).
    pub max_shard_subgroups: u64,
    /// Full per-shard reports of the dispatched shards, in shard order.
    pub per_shard: Vec<QueryReport>,
}

impl ClusterReport {
    /// Speedup of this cluster run over a single-module time.
    pub fn speedup_over(&self, single_time_ns: f64) -> f64 {
        if self.time_ns <= 0.0 {
            return f64::INFINITY;
        }
        single_time_ns / self.time_ns
    }
}

/// A cluster query's merged answer plus its report.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterExecution {
    /// Merged grouped multi-column aggregates (same shape as the
    /// single-module engine's answer: one value per SELECT item).
    /// Derived outputs (`AVG`) are computed only after every shard's
    /// mergeable components folded, so sharding stays bit-exact.
    pub groups: MultiGrouped,
    /// The cluster report.
    pub report: ClusterReport,
}

/// Outcome of [`ClusterEngine::run_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchExecution {
    /// Per-query merged executions, in admission order.
    pub executions: Vec<ClusterExecution>,
    /// Pipelined wall clock: every shard drains its own (pruned) queue
    /// without waiting for stragglers on other shards, so the batch
    /// finishes at host-serial dispatch plus max-over-shards of the
    /// per-shard PIM queue time (plus merges).
    pub wall_time_ns: f64,
    /// Reference wall clock if queries ran one at a time with a
    /// cluster-wide barrier between them (sum of per-query maxima).
    pub serial_time_ns: f64,
}

impl BatchExecution {
    /// How much the pipelined schedule saves over per-query barriers.
    pub fn pipelining_speedup(&self) -> f64 {
        if self.wall_time_ns <= 0.0 {
            return 1.0;
        }
        self.serial_time_ns / self.wall_time_ns
    }
}

/// Outcome of a cluster-wide mutation fan-out (UPDATE or INSERT).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMutationReport {
    /// Records rewritten across all shards.
    pub records_updated: u64,
    /// Records appended across all shards.
    pub records_inserted: u64,
    /// Active shards the mutation never touched (UPDATE: their zone
    /// maps prove the WHERE clause matches nothing they hold; INSERT:
    /// the row routing sent them nothing).
    pub shards_pruned: usize,
    /// Simulated wall clock (host-serial channel occupancy + max over
    /// shards of the overlappable PIM-side time), nanoseconds.
    pub time_ns: f64,
    /// Host-side per-page orchestration summed over dispatched shards.
    pub dispatch_time_ns: f64,
    /// Total busy time summed over shards.
    pub total_shard_time_ns: f64,
    /// Total PIM energy over all modules, picojoules.
    pub energy_pj: f64,
    /// Full per-shard reports of the dispatched shards, in shard order.
    pub per_shard: Vec<MutationReport>,
}

impl ClusterEngine {
    /// Partition `relation` with `partitioner` into `shards` slices and
    /// load each non-empty slice into its own module (same `cfg`), each
    /// paired with the slice's zone map. Empty slices — common when a
    /// range split has more buckets than distinct values — are dropped:
    /// they own no module, and [`Cluster::active_shards`] excludes them
    /// while [`Cluster::shard_count`] keeps reporting the configured
    /// count.
    ///
    /// Every shard gets `cfg` unchanged: a cluster of full-size modules.
    /// For an iso-capacity scaling experiment divide
    /// `module_capacity_bytes` by the shard count first (whole pages, at
    /// least one).
    ///
    /// # Errors
    ///
    /// A `cfg` that fails [`SimConfig::validate`], partitioning failures
    /// and per-shard load failures.
    pub fn new(
        cfg: SimConfig,
        relation: Relation,
        mode: EngineMode,
        shards: usize,
        partitioner: Partitioner,
    ) -> Result<Self, ClusterError> {
        let layout = RecordLayout::build(relation.schema(), &cfg, mode, &[])?;
        Cluster::build(&cfg, &relation, layout, mode, shards, partitioner, PreJoined::default())
    }

    /// Run the GROUP-BY calibration once for every shard (all shards
    /// have identical hardware, so one sweep suffices).
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn calibrate(&mut self, cal: &CalibrationConfig) -> Result<(), ClusterError> {
        if let Some(first) = self.shards.first() {
            let (_, model) = run_calibration(first.table.config(), self.mode, cal)?;
            self.set_model(model);
        }
        Ok(())
    }

    /// Install a pre-fitted model. The calibration is a pure function
    /// of the hardware configuration and engine mode — not of the data
    /// — so a model fitted once (by any engine or cluster with the same
    /// `SimConfig` + [`EngineMode`]) is valid for every cluster
    /// instance: fit once, share everywhere.
    pub fn set_model(&mut self, model: GroupByModel) {
        self.storage.model = Some(model);
    }
}

impl<S: Storage> Cluster<S> {
    /// Partition `fact` into `shards` slices and load each non-empty
    /// one into its own module under `layout`; no auxiliary tables yet.
    pub(crate) fn build(
        cfg: &SimConfig,
        fact: &Relation,
        layout: RecordLayout,
        mode: EngineMode,
        shards: usize,
        partitioner: Partitioner,
        storage: S,
    ) -> Result<Self, ClusterError> {
        let mut built = Vec::with_capacity(shards);
        for (index, (part, zone)) in partitioner.split_zoned(fact, shards)?.into_iter().enumerate()
        {
            if part.is_empty() {
                continue;
            }
            built.push(Shard {
                index,
                table: PimTable::new(cfg.clone(), &part, layout.clone())?,
                zone,
            });
        }
        Ok(Cluster {
            shards: built,
            aux: Vec::new(),
            storage,
            shard_count: shards,
            partitioner,
            mode,
            records: fact.len(),
            pruning: true,
            contention: true,
        })
    }

    /// Configured shard count (including empty shards).
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Fact shards actually holding records.
    pub fn active_shards(&self) -> usize {
        self.shards.len()
    }

    /// Fact records across the cluster.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The engine mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// The fact partitioning strategy.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Is zone-map pruning (shard-level pre-scatter skip + page
    /// planning on every table) enabled? Defaults to `true`.
    pub fn pruning(&self) -> bool {
        self.pruning
    }

    /// Enable or disable zone-map pruning cluster-wide. Answers are
    /// bit-identical either way.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.pruning = enabled;
        self.storage.invalidate();
    }

    /// Is the shared-host-channel contention model enabled (default)?
    /// When on, every host↔module transfer serialises across shards in
    /// the wall clock; when off, only per-page dispatch does (the
    /// pre-contention optimistic model). Answers are bit-identical
    /// either way — only time accounting changes.
    pub fn contention(&self) -> bool {
        self.contention
    }

    /// Enable or disable the shared-host-channel contention model for
    /// A/B studies. Propagates to the streaming scheduler, which reads
    /// this flag to decide whether tagged transfer phases ride the
    /// shared bus.
    pub fn set_contention(&mut self, enabled: bool) {
        self.contention = enabled;
    }

    /// The host-transfer policy the tables run under (compressed mask
    /// transfers, batched dispatch descriptors, module-side result
    /// reduction). Defaults to all levers on.
    pub fn xfer_policy(&self) -> XferPolicy {
        self.shards.first().map(|s| s.table.module().policy()).unwrap_or_default()
    }

    /// Set the host-transfer policy cluster-wide — fact shards and
    /// auxiliary tables — for A/B attribution studies (like
    /// [`Cluster::set_contention`]). Answers are bit-identical under
    /// every lever combination — only the bytes on the channel (and
    /// hence contended wall clock) change.
    pub fn set_xfer_policy(&mut self, policy: XferPolicy) {
        for table in self.shards.iter_mut().map(|s| &mut s.table).chain(&mut self.aux) {
            table.set_xfer_policy(policy);
        }
        self.storage.invalidate();
    }

    /// Borrow an active shard's table (inspection in tests/benches);
    /// `i` indexes active shards, not configured slots.
    pub fn shard_table(&self, i: usize) -> Option<&PimTable> {
        self.shards.get(i).map(|s| &s.table)
    }

    /// Borrow auxiliary table `d` (a star dimension; inspection in
    /// tests/benches).
    pub fn aux_table(&self, d: usize) -> Option<&PimTable> {
        self.aux.get(d)
    }

    /// Total ingest lanes the scheduler sees: one per active fact shard
    /// plus one per auxiliary table (table `d` is lane
    /// `active_shards() + d`).
    pub fn ingest_lanes(&self) -> usize {
        self.shards.len() + self.aux.len()
    }

    /// The storage model's bounds of `filter` on the fact table (empty
    /// for a cluster with no active shard).
    fn bounds(
        &self,
        filter: &Pred,
    ) -> Result<(Vec<Vec<ResolvedAtom>>, Vec<JoinTransfer>), ClusterError> {
        match self.shards.first() {
            None => Ok((Vec::new(), Vec::new())),
            Some(first) => self.storage.bounds(first.table.schema(), filter, self.shards.len()),
        }
    }

    /// The pre-scatter plan of a filter tree: `true` per active shard
    /// that must be dispatched, `false` where the shard's zone map
    /// proves no record can match any DNF branch (the bounds of an OR
    /// are the per-attribute interval union of its branches; a star
    /// filter bounds the fact table through its FK hulls, so dimension
    /// selectivity prunes fact shards through the join). With pruning
    /// disabled every shard is dispatched.
    ///
    /// # Errors
    ///
    /// Propagates filter resolution failures.
    pub fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        if !self.pruning || filter.is_always() {
            return Ok(vec![true; self.shards.len()]);
        }
        let bounds = FilterBounds::from_dnf(&self.bounds(filter)?.0);
        Ok(self.shards.iter().map(|s| bounds.can_match(&s.zone)).collect())
    }

    /// The physical plan of `query` without executing anything: the
    /// resolved filter (pretty-printed tree + per-attribute pruning
    /// intervals), which shards the zone maps admit, how many pages
    /// each admitted shard's page-level planner would activate, the
    /// join-transfer ledger and the estimated host-channel bytes (the
    /// `EXPLAIN` dump).
    ///
    /// # Errors
    ///
    /// Propagates filter resolution failures.
    pub fn explain(&self, query: &Query) -> Result<PlanExplain, ClusterError> {
        // the filter is evaluated once: its bounds admit the shards
        // (as in `plan_shards`), render below and plan every shard's pages
        let (dnf, join_transfers) = self.bounds(&query.filter)?;
        let bounds = FilterBounds::from_dnf(&dnf);
        let admit_all = !self.pruning || query.filter.is_always();
        // Per-attribute interval union of the filter bounds, rendered
        // with attribute names (what the zone maps are tested against).
        let filter_bounds = match self.shards.first() {
            None => Vec::new(),
            Some(first) => {
                let attrs = first.table.schema().attrs();
                bounds
                    .intervals()
                    .into_iter()
                    .map(|(idx, intervals)| (attrs[idx].name.clone(), intervals))
                    .collect()
            }
        };
        let mut host_bytes = self.storage.join_host_bytes(
            &self.aux,
            &query.filter,
            &join_transfers,
            self.xfer_policy(),
            self.pruning,
        )?;
        let aggs = query.physical_plan()?.aggs.len() as u64;
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let dispatched = admit_all || bounds.can_match(&shard.zone);
            let mut candidate_pages = 0;
            if dispatched {
                let plan = shard.table.plan_dnf(&dnf, self.pruning);
                candidate_pages = plan.len();
                host_bytes.absorb(&shard_host_bytes(&shard.table, &dnf, aggs, &plan));
            }
            shards.push(ShardPlan {
                shard_index: shard.index,
                records: shard.table.records(),
                pages: shard.table.page_count(),
                candidate_pages,
                dispatched,
            });
        }
        Ok(PlanExplain {
            query_id: query.id.clone(),
            filter: query.filter.to_string(),
            filter_bounds,
            shards,
            join_transfers,
            host_bytes,
        })
    }

    /// Execute `query` on one active shard alone and return that
    /// shard's partial execution — the scatter half of
    /// [`Cluster::run`] as a reusable building block. The streaming
    /// scheduler (`bbpim-sched`) uses it to interleave *different*
    /// queries' shard slices on different modules; folding the
    /// per-shard partials through [`Cluster::merge_executions`] in
    /// shard order yields answers bit-identical to [`Cluster::run`].
    /// The first shard to execute a given (query, filter) is its lead
    /// (a star join's prelude rides in its log); later shards reuse the
    /// cached plan for free.
    ///
    /// `i` indexes active shards (like [`Cluster::shard_table`]).
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidCluster`] for an unknown shard index;
    /// shard failures otherwise.
    pub fn run_on_shard(
        &mut self,
        i: usize,
        query: &Query,
    ) -> Result<QueryExecution, ClusterError> {
        let active = self.shards.len();
        if i >= active {
            return Err(ClusterError::InvalidCluster(format!("no active shard {i}/{active}")));
        }
        let plan = self.storage.take_plan(
            &self.shards[0].table,
            &mut self.aux,
            self.pruning,
            query,
            false,
        )?;
        let exec = self.storage.exec_shard(
            &plan,
            &mut self.shards[i].table,
            &self.aux,
            self.mode,
            self.pruning,
            query,
            true,
        )?;
        self.storage.keep_plan(query, plan);
        Ok(exec)
    }

    /// Scatter: every shard drains *its own* queue — the queries whose
    /// mask admits it, in admission order — on its own OS thread, under
    /// per-query plans compiled up front (a query no shard admits
    /// compiles nothing). Returns each shard's `(query index,
    /// execution)` list in shard order. The first shard error aborts
    /// the cluster operation.
    fn scatter(
        &mut self,
        queries: &[Query],
        masks: &[Vec<bool>],
    ) -> Result<Vec<Vec<(usize, QueryExecution)>>, ClusterError> {
        let mut plans = Vec::with_capacity(queries.len());
        for (query, mask) in queries.iter().zip(masks) {
            plans.push(match mask.contains(&true) {
                false => None,
                true => Some(self.storage.take_plan(
                    &self.shards[0].table,
                    &mut self.aux,
                    self.pruning,
                    query,
                    true,
                )?),
            });
        }
        let (storage, aux, plans_ref) = (&self.storage, &self.aux[..], &plans);
        let (mode, prune) = (self.mode, self.pruning);
        let per_shard = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(s, shard)| {
                    let queue: Vec<usize> = (0..queries.len()).filter(|&qi| masks[qi][s]).collect();
                    (!queue.is_empty()).then(|| {
                        scope.spawn(move || {
                            queue
                                .into_iter()
                                .map(|qi| {
                                    let plan =
                                        plans_ref[qi].as_ref().expect("dispatched queries plan");
                                    let lead = !masks[qi][..s].contains(&true);
                                    let (table, query) = (&mut shard.table, &queries[qi]);
                                    storage
                                        .exec_shard(plan, table, aux, mode, prune, query, lead)
                                        .map(|exec| (qi, exec))
                                })
                                .collect::<Result<Vec<_>, ClusterError>>()
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.map_or(Ok(Vec::new()), |h| h.join().expect("shard worker panicked")))
                .collect::<Result<Vec<_>, ClusterError>>()
        })?;
        for (query, plan) in queries.iter().zip(plans) {
            if let Some(plan) = plan {
                self.storage.keep_plan(query, plan);
            }
        }
        Ok(per_shard)
    }

    /// Execute one query: consult the shard zone maps, scatter to the
    /// surviving shards in parallel, and merge the per-shard partial
    /// aggregates. Pruned shards contribute nothing — provably the same
    /// nothing they would have computed. The query's shared plan is
    /// compiled afresh per call, so repeated runs charge the same work.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure.
    pub fn run(&mut self, query: &Query) -> Result<ClusterExecution, ClusterError> {
        let mask = self.plan_shards(&query.filter)?;
        let per_shard = self.scatter(std::slice::from_ref(query), std::slice::from_ref(&mask))?;
        let refs: Vec<&QueryExecution> = per_shard.iter().flatten().map(|(_, e)| e).collect();
        let pruned = mask.iter().filter(|d| !**d).count();
        Ok(self.merge_executions(query, &refs, pruned))
    }

    /// Admit a queue of queries: every shard drains *its own* queue —
    /// the queries its zone map cannot refuse — on its own module
    /// without cluster-wide barriers (shard `a` may be on query 3 while
    /// shard `b` is still on query 1). The batch's wall clock is the
    /// host-serial dispatch total plus max-over-shards of the PIM queue
    /// time rather than the sum of per-query maxima.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure.
    pub fn run_batch(&mut self, queries: &[Query]) -> Result<BatchExecution, ClusterError> {
        let masks: Vec<Vec<bool>> = queries
            .iter()
            .map(|q| self.plan_shards(&q.filter))
            .collect::<Result<_, ClusterError>>()?;
        let per_shard = self.scatter(queries, &masks)?;

        let mut rows: Vec<Vec<&QueryExecution>> = vec![Vec::new(); queries.len()];
        for shard_execs in &per_shard {
            for (qi, exec) in shard_execs {
                rows[*qi].push(exec);
            }
        }
        let executions: Vec<ClusterExecution> = queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let pruned = masks[qi].iter().filter(|d| !**d).count();
                self.merge_executions(q, &rows[qi], pruned)
            })
            .collect();

        let serial = |e: &QueryExecution| {
            serial_slice_ns(self.contention, e.report.host_bus_ns, &e.report.phases)
        };
        let serial_total: f64 =
            per_shard.iter().flat_map(|execs| execs.iter().map(|(_, e)| serial(e))).sum();
        let pim_queue = |shard_execs: &Vec<(usize, QueryExecution)>| -> f64 {
            shard_execs.iter().map(|(_, e)| e.report.time_ns - serial(e)).sum()
        };
        let merge_time: f64 = executions.iter().map(|e| e.report.merge_time_ns).sum();
        let wall_time_ns =
            serial_total + per_shard.iter().map(pim_queue).fold(0.0, f64::max) + merge_time;
        let serial_time_ns = executions.iter().map(|e| e.report.time_ns).sum();
        Ok(BatchExecution { executions, wall_time_ns, serial_time_ns })
    }

    /// Which single table an UPDATE routes to: `Some(d)` for auxiliary
    /// table `d`, `None` for the fact shards. Every SET attribute and
    /// every filter atom must name the same table — cross-table UPDATE
    /// semantics are not defined.
    fn route_update(
        &self,
        filter: &Pred,
        set: &[(String, bbpim_db::plan::Const)],
    ) -> Result<Option<usize>, ClusterError> {
        let owner = |attr: &str| self.aux.iter().position(|t| t.schema().index_of(attr).is_ok());
        let target = set.first().and_then(|(attr, _)| owner(attr));
        let filtered = filter.atoms().into_iter().map(|a| a.attr());
        for attr in set.iter().map(|(attr, _)| attr.as_str()).chain(filtered) {
            if owner(attr) != target {
                return Err(ClusterError::InvalidCluster(format!("UPDATE mixes tables at {attr}")));
            }
        }
        Ok(target)
    }

    /// The ingest *lanes* a mutation will touch, in lane order — the
    /// scheduler's ingest-buffer admission check. An UPDATE of an
    /// auxiliary table occupies that table's lane; a fact UPDATE the
    /// shards whose zone maps admit the WHERE clause (the full DNF: the
    /// bounds of an OR are the per-attribute interval union of its
    /// branches); an INSERT (fact rows only) the lanes its
    /// deterministic round-robin row routing — cursor
    /// `records % active` — will land the rows on.
    ///
    /// # Errors
    ///
    /// Cross-table UPDATEs and filter resolution failures.
    pub fn plan_mutation_lanes(&self, m: &Mutation) -> Result<Vec<usize>, ClusterError> {
        let active = self.shards.len();
        match m {
            Mutation::Update { filter, set } => match self.route_update(filter, set)? {
                Some(d) => Ok(vec![active + d]),
                None => {
                    let mask = self.plan_shards(filter)?;
                    Ok(mask.iter().enumerate().filter_map(|(i, &d)| d.then_some(i)).collect())
                }
            },
            Mutation::Insert { rows } => {
                if active == 0 {
                    return Ok(Vec::new());
                }
                let start = self.records % active;
                let mut lanes: Vec<usize> =
                    (0..rows.len().min(active)).map(|k| (start + k) % active).collect();
                lanes.sort_unstable();
                Ok(lanes)
            }
        }
    }

    /// Lane-indexed mutation fan-out: execute `m` on each involved lane
    /// *serially* and return the per-lane reports in lane order — the
    /// scheduler's building block (each lane's write phases then
    /// serialise independently on the shared bus). An UPDATE runs on
    /// the one auxiliary table it names (cost proportional to that
    /// table's cardinality — the normalization win over rewriting a
    /// denormalized column on every fact shard) or on every
    /// zone-admitted fact shard; an INSERT routes fact rows round-robin
    /// from the deterministic cursor `records % active`, so a given
    /// cluster history always lands rows on the same lanes. Touched
    /// shards' zone maps are refreshed afterwards so later pruning
    /// decisions account for the written values, and the storage
    /// model's cached plans are dropped.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidCluster`] for a cross-table UPDATE or an
    /// INSERT into a cluster with no active shards; shard failures
    /// otherwise. Mutations are not atomic: on a mid-fan-out error
    /// earlier lanes have applied.
    pub fn mutate_on_lanes(
        &mut self,
        m: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        self.storage.invalidate();
        let active = self.shards.len();
        let parts: Vec<(usize, Cow<'_, Mutation>)> = match m {
            Mutation::Update { .. } => {
                self.plan_mutation_lanes(m)?.into_iter().map(|l| (l, Cow::Borrowed(m))).collect()
            }
            Mutation::Insert { rows } => {
                if active == 0 {
                    return Err(ClusterError::InvalidCluster(
                        "INSERT into a cluster with no active shards".into(),
                    ));
                }
                let start = self.records % active;
                let mut per_lane: Vec<Vec<Vec<u64>>> = vec![Vec::new(); active];
                for (k, row) in rows.iter().enumerate() {
                    per_lane[(start + k) % active].push(row.clone());
                }
                per_lane
                    .into_iter()
                    .enumerate()
                    .filter(|(_, rows)| !rows.is_empty())
                    .map(|(l, rows)| (l, Cow::Owned(Mutation::Insert { rows })))
                    .collect()
            }
        };
        let mut out = Vec::with_capacity(parts.len());
        for (lane, part) in parts {
            let report = match lane.checked_sub(active) {
                Some(d) => {
                    let report = self.aux[d].mutate(&part, self.pruning)?;
                    self.storage.aux_mutated(d, &part)?;
                    report
                }
                None => {
                    let shard = &mut self.shards[lane];
                    let report = shard.table.mutate(&part, self.pruning)?;
                    shard.zone = shard.table.zone_map();
                    self.records += report.records_inserted as usize;
                    report
                }
            };
            out.push((lane, report));
        }
        Ok(out)
    }

    /// Fan a mutation out across the cluster and aggregate one report
    /// (same wall-clock model as [`Cluster::run`]: host-serial channel
    /// occupancy plus max-over-lanes of the overlappable PIM-side
    /// time).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Cluster::mutate_on_lanes`].
    pub fn mutate(&mut self, m: &Mutation) -> Result<ClusterMutationReport, ClusterError> {
        let lanes = self.mutate_on_lanes(m)?;
        let active = self.shards.len();
        let on_aux = lanes.iter().any(|(lane, _)| *lane >= active);
        let shards_pruned = if on_aux { 0 } else { active - lanes.len() };
        let reports = lanes.into_iter().map(|(_, r)| r).collect();
        Ok(fold_mutation(self.contention, reports, shards_pruned))
    }
}

/// Planner estimate of one dispatched shard's host-channel bytes under
/// its module's transfer policy, given the resolved filter `dnf`, the
/// physical aggregate count and the shard's page plan (see
/// [`HostBytes`] for the category semantics and the estimate's
/// assumptions).
fn shard_host_bytes(
    table: &PimTable,
    dnf: &[Vec<ResolvedAtom>],
    aggs: u64,
    plan: &PageSet,
) -> HostBytes {
    let mut out = HostBytes::default();
    if plan.is_empty() {
        return out;
    }
    let cfg = table.config();
    let host = &cfg.host;
    let policy = table.module().policy();
    let partitions = table.layout().partitions();
    out.dispatch_bytes = plan.dispatch_bytes(host, policy, partitions);
    if partitions > 1 {
        // one transfer pair per disjunct that touches a dimension
        // partition (the two-xb inter-partition traffic)
        let attrs = table.schema().attrs();
        let in_dim_partition = |a: &ResolvedAtom| {
            table.layout().placement(&attrs[a.attr_index()].name).is_ok_and(|p| p.partition != 0)
        };
        let dim_disjuncts =
            dnf.iter().filter(|conj| conj.iter().any(in_dim_partition)).count() as u64;
        let raw_bytes = plan.len() as u64 * cfg.crossbar_rows as u64 * host.line_bytes as u64;
        let records_per_page = (table.records() as u64).div_ceil(table.page_count().max(1) as u64);
        let packed = bbpim_sim::maskwire::WIRE_HEADER_BYTES
            + (plan.len() as u64 * records_per_page).div_ceil(8);
        let per_transfer = if policy.compress_masks { packed.min(raw_bytes) } else { raw_bytes };
        out.mask_wire_bytes = dim_disjuncts * 2 * per_transfer;
    }
    let chunk_lines = 64u64.div_ceil(cfg.read_width_bits as u64);
    let per_agg = chunk_lines * host.line_bytes as u64;
    out.result_bytes = aggs * per_agg * if policy.module_reduce { 1 } else { plan.len() as u64 };
    out
}

impl<S> std::fmt::Debug for Cluster<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.shard_count)
            .field("active", &self.shards.len())
            .field("aux", &self.aux.len())
            .field("partitioner", &self.partitioner.label())
            .field("mode", &self.mode)
            .field("records", &self.records)
            .field("pruning", &self.pruning)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbpim_core::{CoreError, PimQueryEngine};
    use bbpim_db::builder::col;
    use bbpim_db::plan::{AggExpr, AggFunc, Atom};
    use bbpim_db::schema::{Attribute, Schema};
    use bbpim_db::stats;
    use bbpim_sim::timeline::PhaseKind;

    fn relation(rows: u64) -> Relation {
        let schema = Schema::new(
            "t",
            vec![
                Attribute::numeric("lo_price", 8),
                Attribute::numeric("lo_disc", 4),
                Attribute::numeric("d_year", 3),
                Attribute::numeric("d_brand", 5),
            ],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        for i in 0..rows {
            rel.push_row(&[(3 * i + 1) % 251, i % 11, i % 7, (i * i) % 30]).unwrap();
        }
        rel
    }

    fn q1_like() -> Query {
        Query::single(
            "q1",
            vec![
                Atom::Eq { attr: "d_year".into(), value: 3u64.into() },
                Atom::Between { attr: "lo_disc".into(), lo: 1u64.into(), hi: 3u64.into() },
            ],
            vec![],
            AggFunc::Sum,
            AggExpr::Mul("lo_price".into(), "lo_disc".into()),
        )
    }

    fn q2_like(func: AggFunc) -> Query {
        Query::single(
            "q2",
            vec![Atom::Gt { attr: "lo_price".into(), value: 60u64.into() }],
            vec!["d_year".into(), "d_brand".into()],
            func,
            AggExpr::Attr("lo_price".into()),
        )
    }

    fn cluster(shards: usize, p: Partitioner) -> ClusterEngine {
        let mut c = ClusterEngine::new(
            SimConfig::small_for_tests(),
            relation(1500),
            EngineMode::OneXb,
            shards,
            p,
        )
        .unwrap();
        c.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        c
    }

    #[test]
    fn a_configuration_that_fails_validate_is_a_typed_error() {
        use bbpim_sim::SimError;
        let cfg = SimConfig { chips: 3, ..SimConfig::default() };
        let err =
            ClusterEngine::new(cfg, relation(10), EngineMode::OneXb, 2, Partitioner::RoundRobin)
                .unwrap_err();
        assert!(
            matches!(err, ClusterError::Core(CoreError::Sim(SimError::InvalidConfig(_)))),
            "{err}"
        );
    }

    #[test]
    fn matches_oracle_all_partitioners_all_funcs() {
        let rel = relation(1500);
        for p in [
            Partitioner::RoundRobin,
            Partitioner::hash_by_group_keys(&["d_year".into(), "d_brand".into()]),
            Partitioner::range_by_attr("d_year"),
        ] {
            for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
                let q = q2_like(func);
                let mut c = cluster(3, p.clone());
                let out = c.run(&q).unwrap();
                let oracle = stats::run_oracle(&q, &rel).unwrap();
                assert_eq!(out.groups, oracle, "{} {func:?}", p.label());
                assert_eq!(out.report.active_shards, 3);
            }
        }
    }

    #[test]
    fn q1_style_partial_sums_merge() {
        let rel = relation(1500);
        let q = q1_like();
        let mut c = cluster(4, Partitioner::RoundRobin);
        let out = c.run(&q).unwrap();
        assert_eq!(out.groups, stats::run_oracle(&q, &rel).unwrap());
        assert_eq!(out.report.selected, out.report.per_shard.iter().map(|r| r.selected).sum());
    }

    #[test]
    fn wall_clock_serialises_host_bus_and_overlaps_pim() {
        let mut c = cluster(3, Partitioner::RoundRobin);
        let out = c.run(&q2_like(AggFunc::Sum)).unwrap();
        let d_total: f64 =
            out.report.per_shard.iter().map(|r| r.phases.time_in(PhaseKind::HostDispatch)).sum();
        let bus_total: f64 = out.report.per_shard.iter().map(|r| r.host_bus_ns).sum();
        let pim_max =
            out.report.per_shard.iter().map(|r| r.time_ns - r.host_bus_ns).fold(0.0, f64::max);
        let sum_t: f64 = out.report.per_shard.iter().map(|r| r.time_ns).sum();
        let sum_e: f64 = out.report.per_shard.iter().map(|r| r.energy_pj).sum();
        assert!((out.report.dispatch_time_ns - d_total).abs() < 1e-9);
        assert!((out.report.host_bus_time_ns - bus_total).abs() < 1e-9);
        assert!(
            bus_total > d_total,
            "result-line reads must add channel occupancy beyond dispatch"
        );
        assert!(
            (out.report.time_ns - (bus_total + pim_max + out.report.merge_time_ns)).abs() < 1e-9
        );
        assert!((out.report.total_shard_time_ns - sum_t).abs() < 1e-9);
        assert!((out.report.energy_pj - sum_e).abs() < 1e-9);
        assert!(out.report.merge_time_ns > 0.0);
        assert!(out.report.dispatch_time_ns > 0.0);
        assert!(out.report.time_ns < sum_t, "parallel shards must beat serial execution");
    }

    #[test]
    fn contention_off_restores_optimistic_model_with_identical_answers() {
        let q = q2_like(AggFunc::Sum);
        let mut c = cluster(3, Partitioner::RoundRobin);
        let contended = c.run(&q).unwrap();
        c.set_contention(false);
        assert!(!c.contention());
        let optimistic = c.run(&q).unwrap();
        assert_eq!(contended.groups, optimistic.groups, "answers are accounting-independent");
        assert_eq!(contended.report.selected, optimistic.report.selected);
        // the optimistic model serialises only dispatch
        let d_total = optimistic.report.dispatch_time_ns;
        let pim_max = optimistic
            .report
            .per_shard
            .iter()
            .map(|r| r.time_ns - r.phases.time_in(PhaseKind::HostDispatch))
            .fold(0.0, f64::max);
        assert!(
            (optimistic.report.time_ns - (d_total + pim_max + optimistic.report.merge_time_ns))
                .abs()
                < 1e-9
        );
        // contention can only lengthen the wall clock; energy is identical
        assert!(contended.report.time_ns >= optimistic.report.time_ns - 1e-9);
        assert!((contended.report.energy_pj - optimistic.report.energy_pj).abs() < 1e-9);
    }

    #[test]
    fn range_partitioning_prunes_shards_pre_scatter() {
        let rel = relation(1400); // d_year uniform over 0..7
        let q = Query::single(
            "year3",
            vec![Atom::Eq { attr: "d_year".into(), value: 3u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::Attr("lo_price".into()),
        );
        let mut c = ClusterEngine::new(
            SimConfig::small_for_tests(),
            rel.clone(),
            EngineMode::OneXb,
            7,
            Partitioner::range_by_attr("d_year"),
        )
        .unwrap();
        let out = c.run(&q).unwrap();
        assert_eq!(out.groups, stats::run_oracle(&q, &rel).unwrap());
        assert_eq!(out.report.shards_pruned, 6, "only the d_year=3 shard may survive");
        assert_eq!(out.report.per_shard.len(), 1);
        // exhaustive dispatch runs every shard and costs more wall clock
        c.set_pruning(false);
        let exhaustive = c.run(&q).unwrap();
        assert_eq!(exhaustive.groups, out.groups);
        assert_eq!(exhaustive.report.shards_pruned, 0);
        assert_eq!(exhaustive.report.per_shard.len(), 7);
        assert!(exhaustive.report.time_ns > out.report.time_ns);
        assert!(exhaustive.report.energy_pj > out.report.energy_pj);
    }

    #[test]
    fn all_shards_pruned_returns_empty_answer() {
        let rel = relation(700);
        let q = Query::single(
            "none",
            vec![Atom::Gt { attr: "lo_price".into(), value: 254u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::Attr("lo_price".into()),
        );
        let mut c = ClusterEngine::new(
            SimConfig::small_for_tests(),
            rel.clone(),
            EngineMode::OneXb,
            3,
            Partitioner::RoundRobin,
        )
        .unwrap();
        let out = c.run(&q).unwrap();
        assert_eq!(out.groups, stats::run_oracle(&q, &rel).unwrap());
        assert!(out.groups.is_empty());
        assert_eq!(out.report.shards_pruned, out.report.active_shards);
        assert_eq!(out.report.time_ns, 0.0);
        assert_eq!(out.report.selected, 0);
    }

    #[test]
    fn empty_shards_are_dropped_but_counted() {
        // 7 hash shards over a key with few distinct values: some
        // shards receive nothing and must not break execution.
        let rel = relation(200);
        let q = q2_like(AggFunc::Sum);
        let mut c = ClusterEngine::new(
            SimConfig::small_for_tests(),
            rel.clone(),
            EngineMode::OneXb,
            7,
            Partitioner::hash_by_group_keys(&["d_year".into()]),
        )
        .unwrap();
        c.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        assert!(c.active_shards() <= 7);
        assert_eq!(c.shard_count(), 7);
        assert!(c.shards.iter().all(|s| s.index < 7));
        let out = c.run(&q).unwrap();
        assert_eq!(out.groups, stats::run_oracle(&q, &rel).unwrap());
        assert_eq!(out.report.shards, 7);
    }

    #[test]
    fn range_split_with_more_shards_than_values_drops_empties() {
        // d_year has 7 distinct values; 16 range buckets leave gaps.
        let rel = relation(400);
        let q = q2_like(AggFunc::Sum);
        let mut c = ClusterEngine::new(
            SimConfig::small_for_tests(),
            rel.clone(),
            EngineMode::OneXb,
            16,
            Partitioner::range_by_attr("d_year"),
        )
        .unwrap();
        assert_eq!(c.shard_count(), 16);
        assert!(c.active_shards() < 16, "some buckets must be empty");
        c.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        let out = c.run(&q).unwrap();
        assert_eq!(out.groups, stats::run_oracle(&q, &rel).unwrap());
        assert_eq!(out.report.shards, 16);
        assert_eq!(out.report.active_shards, c.active_shards());
    }

    #[test]
    fn update_fans_out_to_every_shard() {
        let rel = relation(1500);
        let m = Mutation::update()
            .filter(col("d_year").eq(3u64))
            .set("d_brand", 29u64)
            .build_unchecked();
        let mut c = cluster(4, Partitioner::RoundRobin);
        let rep = c.mutate(&m).unwrap();
        // reference: host-side rewrite of the unsharded relation
        let mut reference = rel.clone();
        let (b, y) = (
            reference.schema().index_of("d_brand").unwrap(),
            reference.schema().index_of("d_year").unwrap(),
        );
        let mut expected = 0u64;
        for row in 0..reference.len() {
            if reference.value(row, y) == 3 {
                reference.set_value(row, b, 29).unwrap();
                expected += 1;
            }
        }
        assert_eq!(rep.records_updated, expected);
        assert!(rep.time_ns < rep.total_shard_time_ns);
        // post-update queries reflect the write on every shard
        let q = q2_like(AggFunc::Sum);
        let out = c.run(&q).unwrap();
        assert_eq!(out.groups, stats::run_oracle(&q, &reference).unwrap());
    }

    #[test]
    fn update_widens_shard_zones_for_later_pruning() {
        // range split on d_year, then move year-3 records to year 6:
        // the year-3 shard's zone must widen so a d_year=6 query still
        // dispatches it.
        let rel = relation(1400);
        let mut c = ClusterEngine::new(
            SimConfig::small_for_tests(),
            rel.clone(),
            EngineMode::OneXb,
            7,
            Partitioner::range_by_attr("d_year"),
        )
        .unwrap();
        let m =
            Mutation::update().filter(col("d_year").eq(3u64)).set("d_year", 6u64).build_unchecked();
        let rep = c.mutate(&m).unwrap();
        assert!(rep.records_updated > 0);
        assert!(rep.shards_pruned >= 5, "the update itself must skip unrelated shards");
        let probe = Query::single(
            "year6",
            vec![Atom::Eq { attr: "d_year".into(), value: 6u64.into() }],
            vec![],
            AggFunc::Sum,
            AggExpr::Attr("lo_price".into()),
        );
        let mut reference = rel.clone();
        let y = reference.schema().index_of("d_year").unwrap();
        for row in 0..reference.len() {
            if reference.value(row, y) == 3 {
                reference.set_value(row, y, 6).unwrap();
            }
        }
        let out = c.run(&probe).unwrap();
        assert_eq!(out.groups, stats::run_oracle(&probe, &reference).unwrap());
        // both the original year-6 shard and the widened year-3 shard run
        assert_eq!(out.report.per_shard.len(), 2);
    }

    #[test]
    fn batch_pipelines_across_shards() {
        let mut c = cluster(3, Partitioner::RoundRobin);
        let queries = vec![q1_like(), q2_like(AggFunc::Sum), q2_like(AggFunc::Max)];
        let batch = c.run_batch(&queries).unwrap();
        assert_eq!(batch.executions.len(), 3);
        // pipelined wall clock can never exceed the barrier schedule
        assert!(batch.wall_time_ns <= batch.serial_time_ns + 1e-9);
        assert!(batch.pipelining_speedup() >= 1.0);
        // answers identical to one-at-a-time runs
        let rel = relation(1500);
        for (q, e) in queries.iter().zip(&batch.executions) {
            assert_eq!(e.groups, stats::run_oracle(q, &rel).unwrap(), "{}", q.id);
        }
    }

    #[test]
    fn batch_prunes_per_query() {
        let rel = relation(1400);
        let year_probe = |y: u64| {
            Query::single(
                format!("y{y}"),
                vec![Atom::Eq { attr: "d_year".into(), value: y.into() }],
                vec![],
                AggFunc::Sum,
                AggExpr::Attr("lo_price".into()),
            )
        };
        let queries = vec![year_probe(1), year_probe(5)];
        let mut c = ClusterEngine::new(
            SimConfig::small_for_tests(),
            rel.clone(),
            EngineMode::OneXb,
            7,
            Partitioner::range_by_attr("d_year"),
        )
        .unwrap();
        let batch = c.run_batch(&queries).unwrap();
        for (q, e) in queries.iter().zip(&batch.executions) {
            assert_eq!(e.groups, stats::run_oracle(q, &rel).unwrap(), "{}", q.id);
            assert_eq!(e.report.shards_pruned, 6, "{}", q.id);
        }
        assert!(batch.wall_time_ns <= batch.serial_time_ns + 1e-9);
    }

    #[test]
    fn single_shard_cluster_equals_single_engine() {
        let rel = relation(900);
        let q = q2_like(AggFunc::Sum);
        let mut single =
            PimQueryEngine::new(SimConfig::small_for_tests(), rel.clone(), EngineMode::OneXb)
                .unwrap();
        single.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        let s = single.run(&q).unwrap();
        let mut c = ClusterEngine::new(
            SimConfig::small_for_tests(),
            rel,
            EngineMode::OneXb,
            1,
            Partitioner::RoundRobin,
        )
        .unwrap();
        c.calibrate(&CalibrationConfig::tiny_for_tests()).unwrap();
        let out = c.run(&q).unwrap();
        assert_eq!(out.groups, s.groups);
        // one shard: wall clock is that shard plus the merge pass
        assert!((out.report.time_ns - out.report.merge_time_ns - s.report.time_ns).abs() < 1e-9);
    }

    #[test]
    fn group_by_needs_calibration_like_single_engine() {
        let mut c = ClusterEngine::new(
            SimConfig::small_for_tests(),
            relation(300),
            EngineMode::OneXb,
            2,
            Partitioner::RoundRobin,
        )
        .unwrap();
        assert!(matches!(
            c.run(&q2_like(AggFunc::Sum)),
            Err(ClusterError::Core(CoreError::NotCalibrated))
        ));
        // Q1-style works uncalibrated
        assert!(c.run(&q1_like()).is_ok());
    }

    /// An installed model without fits is no model: every shard's worker
    /// returns the typed error instead of panicking inside the join.
    #[test]
    fn a_model_without_fits_is_no_model_on_every_shard() {
        let mut c = ClusterEngine::new(
            SimConfig::small_for_tests(),
            relation(300),
            EngineMode::OneXb,
            2,
            Partitioner::RoundRobin,
        )
        .unwrap();
        c.set_model(GroupByModel::default());
        assert!(matches!(
            c.run(&q2_like(AggFunc::Sum)),
            Err(ClusterError::Core(CoreError::NotCalibrated))
        ));
    }
}
