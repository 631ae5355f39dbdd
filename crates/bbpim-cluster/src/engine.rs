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
//! per-shard execution — shard bookkeeping, the pruning and
//! transfer-policy switches of every table, shard
//! admission, `EXPLAIN`, the threaded scatter, the report folds,
//! mutation routing, the cache of compiled per-query plans and which
//! shard charges a plan's once-per-query work — exists once. The
//! storage model supplies what genuinely differs, and holds no state:
//! every table owns its mode and GROUP-BY model, as it owns its pruning
//! switch. [`PreJoined`] ([`ClusterEngine`]) shards the paper's wide
//! pre-joined relation and runs its cost-model GROUP BY;
//! [`crate::star::Star`] ([`crate::StarCluster`]) shards the
//! normalized fact table, keeps the dimensions on auxiliary modules and
//! joins through PIM-side semijoin bitmaps. Answers are bit-identical
//! between the two.
//!
//! ## One scatter/gather surface
//!
//! [`StreamEngine`] is declared here and implemented once, by
//! [`Cluster`], for both storage models: shard admission
//! ([`StreamEngine::plan_shards`]), one shard's slice of a query
//! ([`StreamEngine::run_on_shard`]), the gather
//! ([`StreamEngine::merge_executions`]) and the lane-indexed mutation
//! fan-out ([`StreamEngine::plan_mutation_lanes`],
//! [`StreamEngine::apply_mutation`]). [`Cluster::run`],
//! [`Cluster::run_batch`] and [`Cluster::mutate`] are built from these
//! pieces; the streaming scheduler in `bbpim-sched` drives them to
//! interleave different queries' shard slices. Calling them needs the
//! trait in scope (`use bbpim_cluster::StreamEngine`).
//!
//! ## Zone-map shard pruning
//!
//! Every shard's table keeps the zone maps of its pages (per-attribute
//! min/max, written by the loader and widened by every mutation), and
//! [`PimTable::zone_map`] is their merge. Before the scatter, the
//! query's [`FilterBounds`] are tested against each shard's map: shards
//! that provably hold no matching record are
//! *pruned pre-scatter* — no thread, no per-page host dispatch, no PIM
//! activity. With [`Partitioner::RangeByAttr`] placement, selective
//! filters on the split attribute touch one or two shards instead of
//! all of them. Each table owns its pruning switch
//! ([`PimTable::set_pruning`]); [`Cluster::set_pruning`] sets it on
//! every fact shard and auxiliary table, and the pre-scatter test reads
//! it from them.
//!
//! ## Wall-clock model
//!
//! Real modules execute concurrently, but the *host* is one resource,
//! and there is one model of its channel: *everything* that crosses
//! the host↔module channel serialises across shards — per-page dispatch
//! ([`bbpim_sim::timeline::PhaseKind::HostDispatch`]) *and* the
//! bandwidth term of every byte-tagged transfer (mask transfers, result-line reads, host-gb
//! record fetches — `QueryReport::host_bus_ns`). The wall clock for
//! one query is `Σ host-bus occupancy + max over shards of (shard time
//! − its occupancy) + host merge`; energy — drawn by every module — is
//! the *sum*. A free-channel A/B (only dispatch serialises) needs no
//! second model: it refolds from the per-shard phase logs a report
//! already carries.

use std::borrow::{Borrow, Cow};

use bbpim_core::engine::run_query;
use bbpim_core::groupby::calibration::{run_calibration, CalibrationConfig};
use bbpim_core::groupby::cost_model::GroupByModel;
use bbpim_core::layout::RecordLayout;
use bbpim_core::modes::EngineMode;
use bbpim_core::mutation::{Mutation, MutationReport};
use bbpim_core::result::{PartialGroups, QueryExecution, QueryReport};
use bbpim_core::PimTable;
use bbpim_db::plan::{FilterBounds, Pred, Query, ResolvedAtom};
use bbpim_db::schema::Schema;
use bbpim_db::stats::{GroupedResult, MultiGrouped};
use bbpim_db::Relation;
use bbpim_sim::config::{HostConfig, SimConfig};
use bbpim_sim::XferPolicy;

use crate::error::ClusterError;
use crate::explain::{JoinTransfer, PlanExplain, ShardPlan};
use crate::fold::{dispatch_ns, fold_mutation, one_host_ns};
use crate::partition::Partitioner;

/// One fact shard: its position in the cluster plus its table.
pub(crate) struct Shard {
    /// Shard index in `0..shard_count` (empty shards have no entry).
    index: usize,
    pub(crate) table: PimTable,
}

/// What a storage model contributes to the one [`Cluster`]: how a
/// filter bounds the fact table, how a query's shared plan compiles and
/// how one shard executes under it. Auxiliary tables (the star's
/// dimension modules; none for the pre-joined model) are owned by the
/// cluster and handed in, and so is the plan: the cluster decides when
/// a plan is compiled, cached and charged. Every table plans its pages
/// under its own pruning switch ([`PimTable::plan_dnf`]).
pub trait Storage: Sync {
    /// Per-query state compiled once and shared by every shard (the
    /// star's join plan; nothing for the pre-joined model).
    type Plan: Sync;

    /// The planner's view of `filter`: a DNF resolved against the
    /// `fact` schema that every matching fact record satisfies — what
    /// shard and page zone maps are tested against — plus the ledger of
    /// join transfers it implies (each broadcast to `broadcast` shards,
    /// with the dispatch bytes of its dimension filter), its dimension
    /// bitmaps read off the `aux` tables' stored bits.
    ///
    /// # Errors
    ///
    /// Attribute resolution failures, host-only attributes included.
    fn bounds(
        &self,
        fact: &Schema,
        aux: &[PimTable],
        filter: &Pred,
        broadcast: usize,
    ) -> Result<(Vec<Vec<ResolvedAtom>>, Vec<JoinTransfer>), ClusterError>;

    /// Compile `query`'s shared plan against the `fact` layout and the
    /// `aux` tables (the star runs its dimension filters there and logs
    /// them as the plan's once-per-query prelude).
    ///
    /// # Errors
    ///
    /// Resolution or substrate failures.
    fn plan(
        &self,
        fact: &PimTable,
        aux: &mut [PimTable],
        query: &Query,
    ) -> Result<Self::Plan, ClusterError>;

    /// Execute `query` on one fact shard under `plan`, in the shard
    /// table's mode. The `lead` shard carries whatever the plan charges
    /// once per query.
    ///
    /// # Errors
    ///
    /// Resolution or substrate failures.
    fn exec_shard(
        &self,
        plan: &Self::Plan,
        table: &mut PimTable,
        aux: &[PimTable],
        query: &Query,
        lead: bool,
    ) -> Result<QueryExecution, ClusterError>;
}

/// The paper's storage model: one wide pre-joined relation, sharded.
/// Nothing joins at query time, so there is no shared plan; GROUP BY
/// runs the cost model each shard's table holds.
#[derive(Debug)]
pub struct PreJoined;

impl Storage for PreJoined {
    type Plan = ();

    fn bounds(
        &self,
        fact: &Schema,
        _aux: &[PimTable],
        filter: &Pred,
        _broadcast: usize,
    ) -> Result<(Vec<Vec<ResolvedAtom>>, Vec<JoinTransfer>), ClusterError> {
        Ok((filter.resolve_dnf(fact)?, Vec::new()))
    }

    fn plan(&self, _: &PimTable, _: &mut [PimTable], _: &Query) -> Result<(), ClusterError> {
        Ok(())
    }

    fn exec_shard(
        &self,
        _plan: &(),
        table: &mut PimTable,
        _aux: &[PimTable],
        query: &Query,
        _lead: bool,
    ) -> Result<QueryExecution, ClusterError> {
        Ok(run_query(table, query)?)
    }
}

/// A sharded PIM OLAP engine: `n` fact shards, each a [`PimTable`] on
/// its own module, plus the storage model's auxiliary tables.
///
/// Presents the same `run(&Query)` surface as the single-module
/// [`bbpim_core::PimQueryEngine`], returning bit-identical grouped
/// results.
pub struct Cluster<S: Storage> {
    pub(crate) shards: Vec<Shard>,
    /// Auxiliary tables on modules of their own (the star's four
    /// dimensions); table `d` is ingest lane `shards.len() + d`.
    pub(crate) aux: Vec<PimTable>,
    pub(crate) storage: S,
    /// The fact schema and the layout every fact shard is loaded under
    /// (what the cluster plans and reports against, shards or none).
    pub(crate) fact: Schema,
    pub(crate) layout: RecordLayout,
    /// Shared plans by (query id, filter). The one
    /// [`StreamEngine::run_on_shard`] call that compiled a plan charged
    /// its prelude; every toggle and write drops them all.
    plans: Vec<(String, Pred, S::Plan)>,
    shard_count: usize,
    partitioner: Partitioner,
    /// The mode the tables were built with — what [`Cluster::mode`]
    /// reports for a cluster without a shard; execution reads each
    /// table's own.
    mode: EngineMode,
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
    /// nanoseconds (see the module docs for the wall-clock model).
    pub time_ns: f64,
    /// Host-side per-page orchestration summed over dispatched shards
    /// (serialised on the one host), nanoseconds.
    pub dispatch_time_ns: f64,
    /// Total shared host-channel occupancy summed over dispatched
    /// shards (dispatch + the bandwidth term of every byte-tagged
    /// transfer), nanoseconds. This whole slice serialises on the one
    /// host channel.
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
    /// finishes at host-serial channel occupancy plus max-over-shards
    /// of the per-shard PIM queue time (plus merges).
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
    /// load each non-empty slice into its own module (same `cfg`). Empty
    /// slices — common when a range split has more buckets than distinct
    /// values — are dropped: they own no module, and
    /// [`StreamEngine::active_shards`] excludes them while
    /// [`Cluster::shard_count`] keeps reporting the configured count.
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
        Cluster::build(&cfg, &relation, layout, mode, shards, partitioner, PreJoined)
    }

    /// Run the GROUP-BY calibration once and install the model on every
    /// fact shard (all shards have identical hardware, so one sweep
    /// suffices).
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn calibrate(&mut self, cal: &CalibrationConfig) -> Result<(), ClusterError> {
        if let Some(first) = self.shards.first() {
            let (_, model) = run_calibration(first.table.config(), first.table.mode(), cal)?;
            self.set_model(model);
        }
        Ok(())
    }

    /// Install a pre-fitted model on every fact shard. The calibration
    /// is a pure function of the hardware configuration and engine mode
    /// — not of the data — so a model fitted once (by any engine or
    /// cluster with the same `SimConfig` + [`EngineMode`]) is valid for
    /// every cluster instance: fit once, share everywhere.
    pub fn set_model(&mut self, model: GroupByModel) {
        self.tables_mut().for_each(|table| table.set_model(model.clone()));
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
        for (index, part) in partitioner.split(fact, shards)?.into_iter().enumerate() {
            if !part.is_empty() {
                let table = PimTable::load(cfg.clone(), &part, mode, layout.clone())?;
                built.push(Shard { index, table });
            }
        }
        Ok(Cluster {
            shards: built,
            aux: Vec::new(),
            storage,
            fact: fact.schema().clone(),
            layout,
            plans: Vec::new(),
            shard_count: shards,
            partitioner,
            mode,
        })
    }

    /// Configured shard count (including empty shards).
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Fact records across the cluster.
    pub fn records(&self) -> usize {
        self.shards.iter().map(|s| s.table.records()).sum()
    }

    /// The engine mode the tables were built with.
    pub fn mode(&self) -> EngineMode {
        self.shards.first().map_or(self.mode, |s| s.table.mode())
    }

    /// The fact partitioning strategy.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Is zone-map pruning (shard-level pre-scatter skip + page
    /// planning on every table) enabled? Defaults to `true`; read from
    /// every fact shard and auxiliary table, which
    /// [`Cluster::set_pruning`] keeps in step.
    pub fn pruning(&self) -> bool {
        self.shards.iter().map(|s| &s.table).chain(&self.aux).all(PimTable::pruning)
    }

    /// Enable or disable zone-map pruning cluster-wide — fact shards and
    /// auxiliary tables. Answers are bit-identical either way.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.tables_mut().for_each(|table| table.set_pruning(enabled));
        self.plans.clear();
    }

    /// Set the host-transfer policy (compressed mask transfers, batched
    /// dispatch descriptors, module-side result reduction; all on by
    /// default) cluster-wide — fact shards and auxiliary tables — for
    /// A/B attribution studies.
    /// Answers are bit-identical under every lever combination — only
    /// the bytes on the channel (and hence contended wall clock) change.
    pub fn set_xfer_policy(&mut self, policy: XferPolicy) {
        self.tables_mut().for_each(|table| table.set_xfer_policy(policy));
        self.plans.clear();
    }

    /// Every table of the cluster: the fact shards, then the auxiliary
    /// tables.
    fn tables_mut(&mut self) -> impl Iterator<Item = &mut PimTable> {
        self.shards.iter_mut().map(|s| &mut s.table).chain(&mut self.aux)
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

    /// The storage model's bounds of `filter` on the fact table.
    fn bounds(
        &self,
        filter: &Pred,
    ) -> Result<(Vec<Vec<ResolvedAtom>>, Vec<JoinTransfer>), ClusterError> {
        self.storage.bounds(&self.fact, &self.aux, filter, self.shards.len())
    }

    /// The one shard-admission test: every active shard with pruning off
    /// or an always-true filter, otherwise each shard whose zone map the
    /// filter's `bounds` — only then asked for — can match.
    fn admit<B: Borrow<FilterBounds>>(
        &self,
        filter: &Pred,
        bounds: impl FnOnce() -> Result<B, ClusterError>,
    ) -> Result<Vec<bool>, ClusterError> {
        if !self.pruning() || filter.is_always() {
            return Ok(vec![true; self.shards.len()]);
        }
        let bounds = bounds()?;
        Ok(self.shards.iter().map(|s| bounds.borrow().can_match(&s.table.zone_map())).collect())
    }

    /// The physical plan of `query` without executing anything: the
    /// resolved filter (pretty-printed tree + per-attribute pruning
    /// intervals), which shards the zone maps admit, how many pages
    /// each admitted shard's page-level planner would activate, the
    /// join-transfer ledger and the dispatch bytes those plans put on
    /// the channel (the `EXPLAIN` dump). The bytes a run actually moves
    /// are in its phase log.
    ///
    /// # Errors
    ///
    /// Propagates filter resolution failures and an invalid SELECT list.
    pub fn explain(&self, query: &Query) -> Result<PlanExplain, ClusterError> {
        // the filter is evaluated once: its bounds admit the shards
        // (as in `plan_shards`), render below and plan every shard's pages
        let (dnf, join_transfers) = self.bounds(&query.filter)?;
        let bounds = FilterBounds::from_dnf(&dnf);
        let admitted = self.admit(&query.filter, || Ok(&bounds))?;
        // Per-attribute interval union of the filter bounds, rendered
        // with attribute names (what the zone maps are tested against).
        let attrs = self.fact.attrs();
        let filter_bounds = bounds
            .intervals()
            .into_iter()
            .map(|(idx, intervals)| (attrs[idx].name.clone(), intervals))
            .collect();
        let mut dispatch_bytes = join_transfers.iter().map(|t| t.dispatch_bytes).sum();
        query.physical_plan()?;
        let mut shards = Vec::with_capacity(self.shards.len());
        for (shard, dispatched) in self.shards.iter().zip(admitted) {
            let mut candidate_pages = 0;
            if dispatched {
                let plan = shard.table.plan_dnf(&dnf);
                candidate_pages = plan.len();
                dispatch_bytes += shard.table.dispatch_bytes(&plan);
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
            dispatch_bytes,
        })
    }

    /// Scatter: every shard drains *its own* queue — the queries whose
    /// mask admits it, in admission order — on its own OS thread, under
    /// per-query plans compiled afresh up front (a query no shard admits
    /// compiles nothing; the plan cache is neither read nor written).
    /// Each query's first dispatched shard leads. Returns each shard's
    /// `(query index, execution)` list in shard order. The first shard
    /// error aborts the cluster operation.
    fn scatter(
        &mut self,
        queries: &[Query],
        masks: &[Vec<bool>],
    ) -> Result<Vec<Vec<(usize, QueryExecution)>>, ClusterError> {
        let mut plans = Vec::with_capacity(queries.len());
        for (query, mask) in queries.iter().zip(masks) {
            plans.push(match mask.contains(&true) {
                false => None,
                true => Some(self.storage.plan(&self.shards[0].table, &mut self.aux, query)?),
            });
        }
        let (storage, aux, plans_ref) = (&self.storage, &self.aux[..], &plans);
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
                                        .exec_shard(plan, table, aux, query, lead)
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
    /// An invalid SELECT list, before anything is dispatched (so also
    /// when every shard is pruned); otherwise the first shard failure.
    pub fn run(&mut self, query: &Query) -> Result<ClusterExecution, ClusterError> {
        query.physical_plan()?;
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
    /// host-serial channel occupancy total plus max-over-shards of the
    /// PIM queue time rather than the sum of per-query maxima.
    ///
    /// # Errors
    ///
    /// Any query's invalid SELECT list, before anything is dispatched;
    /// otherwise the first shard failure.
    pub fn run_batch(&mut self, queries: &[Query]) -> Result<BatchExecution, ClusterError> {
        let masks: Vec<Vec<bool>> = queries
            .iter()
            .map(|q| {
                q.physical_plan()?;
                self.plan_shards(&q.filter)
            })
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

        let serial_total: f64 = per_shard
            .iter()
            .flat_map(|execs| execs.iter().map(|(_, e)| e.report.host_bus_ns))
            .sum();
        let pim_queue = |shard_execs: &Vec<(usize, QueryExecution)>| -> f64 {
            shard_execs.iter().map(|(_, e)| e.report.time_ns - e.report.host_bus_ns).sum()
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

    /// INSERT's row routing, decided here alone: fact rows go
    /// round-robin from the deterministic cursor `records % active`, so
    /// a given cluster history always lands rows on the same lanes.
    /// Yields the lane of each of the first `rows` INSERT rows, in row
    /// order; `None` without an active shard.
    fn insert_lanes(&self, rows: usize) -> Option<impl Iterator<Item = usize>> {
        let active = self.shards.len();
        let start = self.records().checked_rem(active)?;
        Some((0..rows).map(move |k| (start + k) % active))
    }

    /// Fan a mutation out across the cluster and aggregate one report
    /// (same wall-clock model as [`Cluster::run`]: host-serial channel
    /// occupancy plus max-over-lanes of the overlappable PIM-side
    /// time).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`StreamEngine::apply_mutation`].
    pub fn mutate(&mut self, m: &Mutation) -> Result<ClusterMutationReport, ClusterError> {
        let lanes = self.apply_mutation(m)?;
        let active = self.shards.len();
        let on_aux = lanes.iter().any(|(lane, _)| *lane >= active);
        let shards_pruned = if on_aux { 0 } else { active - lanes.len() };
        let reports = lanes.into_iter().map(|(_, r)| r).collect();
        Ok(fold_mutation(reports, shards_pruned))
    }
}

/// The scatter/gather surface the streaming scheduler needs from a
/// sharded engine. [`Cluster`] implements it once for every storage
/// model — the scheduler interleaves shard slices identically on the
/// pre-joined and the star store, so streamed answers stay
/// bit-identical to batch runs whichever one is underneath.
pub trait StreamEngine {
    /// Always `true`: there is one host-channel model, in which every
    /// host↔module transfer serialises across shards. Nothing in the
    /// workspace reads it; it stays only because the benchmark
    /// harness's engine wrapper forwards it, and ROADMAP item 22's
    /// `[benchmark]` change deletes it with that wrapper.
    fn contention(&self) -> bool {
        true
    }

    /// The host-channel parameters (`None` only for a cluster with no
    /// table of either kind, which has no candidate shard and applies
    /// no mutation).
    fn host_config(&self) -> Option<HostConfig>;

    /// Fact shards actually holding records.
    fn active_shards(&self) -> usize;

    /// Every lane a mutation may occupy: the fact shards plus any
    /// auxiliary ingest lanes (the star cluster adds one per dimension
    /// table). Lane indices in [`StreamEngine::apply_mutation`] reports
    /// are always below this; fact-shard lanes share indices — and
    /// per-module queues — with query shard slices.
    fn ingest_lanes(&self) -> usize;

    /// The lanes a mutation would occupy *right now* — the
    /// ingest-buffer admission check. Re-planned on every admission
    /// attempt: earlier admissions widen zone maps and advance insert
    /// cursors, so a stalled mutation's lane set may shrink or move by
    /// the time it clears the buffer.
    ///
    /// # Errors
    ///
    /// Attribute resolution / routing failures.
    fn plan_mutation_lanes(&self, mutation: &Mutation) -> Result<Vec<usize>, ClusterError>;

    /// Apply `mutation` to the engine state (zone maps widen, domain
    /// indexes follow, cached plans invalidate) and return the per-lane
    /// reports whose phase logs become the mutation's slice chains.
    ///
    /// Implementers must report **every lane they changed**, including
    /// lanes where zero records matched (an UPDATE may still rewrite
    /// page zones there): the scheduler re-runs cached shard executions
    /// only on the lanes this list names.
    ///
    /// # Errors
    ///
    /// Validation or substrate failures.
    fn apply_mutation(
        &mut self,
        mutation: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError>;

    /// Zone-map shard admission: one flag per active shard.
    ///
    /// # Errors
    ///
    /// Attribute resolution failures.
    fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError>;

    /// Execute one query on one active shard (the scatter half).
    ///
    /// # Errors
    ///
    /// Unknown shard index or substrate failures.
    fn run_on_shard(&mut self, shard: usize, query: &Query)
        -> Result<QueryExecution, ClusterError>;

    /// Fold per-shard partials into a cluster answer (the gather half).
    fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution;
}

/// Both storage models are the one [`Cluster`]: a star join's prelude
/// is ordinary phases in its lead shard's log, so dimension filters and
/// bitmap broadcasts queue on the shared channel like any transfer.
impl<S: Storage> StreamEngine for Cluster<S> {
    fn host_config(&self) -> Option<HostConfig> {
        let table = self.shard_table(0).or_else(|| self.aux_table(0));
        table.map(|t| t.config().host.clone())
    }

    fn active_shards(&self) -> usize {
        self.shards.len()
    }

    /// One lane per active fact shard plus one per auxiliary table
    /// (table `d` is lane `active_shards() + d`).
    fn ingest_lanes(&self) -> usize {
        self.shards.len() + self.aux.len()
    }

    /// In lane order. An UPDATE of an auxiliary table occupies that
    /// table's lane; a fact UPDATE the shards whose zone maps admit the
    /// WHERE clause (the full DNF: the bounds of an OR are the
    /// per-attribute interval union of its branches); an INSERT (fact
    /// rows only) the lanes its deterministic round-robin row routing —
    /// cursor `records % active` — will land the rows on. A cross-table
    /// UPDATE is an error.
    fn plan_mutation_lanes(&self, m: &Mutation) -> Result<Vec<usize>, ClusterError> {
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
                let first = self.insert_lanes(rows.len().min(active));
                let mut lanes: Vec<usize> = first.into_iter().flatten().collect();
                lanes.sort_unstable();
                Ok(lanes)
            }
        }
    }

    /// Executes `m` on each involved lane *serially*, in lane order
    /// (each lane's write phases then serialise independently on the
    /// shared bus). An UPDATE runs on the one auxiliary table it names
    /// (cost proportional to that table's cardinality — the
    /// normalization win over rewriting a denormalized column on every
    /// fact shard) or on every zone-admitted fact shard; an INSERT
    /// routes fact rows round-robin from the cursor `records % active`.
    /// Each table widens its own zone maps as it writes; the cached
    /// plans are dropped.
    ///
    /// A cross-table UPDATE or an INSERT into a cluster with no active
    /// shards is [`ClusterError::InvalidCluster`]. Mutations are not
    /// atomic: on a mid-fan-out error earlier lanes have applied.
    fn apply_mutation(
        &mut self,
        m: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        self.plans.clear();
        let active = self.shards.len();
        let parts: Vec<(usize, Cow<'_, Mutation>)> = match m {
            Mutation::Update { .. } => {
                self.plan_mutation_lanes(m)?.into_iter().map(|l| (l, Cow::Borrowed(m))).collect()
            }
            Mutation::Insert { rows } => {
                let lanes = self.insert_lanes(rows.len()).ok_or_else(|| {
                    ClusterError::InvalidCluster(
                        "INSERT into a cluster with no active shards".into(),
                    )
                })?;
                let mut per_lane: Vec<Vec<Vec<u64>>> = vec![Vec::new(); active];
                for (lane, row) in lanes.zip(rows) {
                    per_lane[lane].push(row.clone());
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
            let table = match lane.checked_sub(active) {
                Some(d) => &mut self.aux[d],
                None => &mut self.shards[lane].table,
            };
            out.push((lane, table.mutate(&part)?));
        }
        Ok(out)
    }

    /// `false` where the shard's zone map proves no record can match
    /// any DNF branch (the bounds of an OR are the per-attribute
    /// interval union of its branches; a star filter bounds the fact
    /// table through its FK hulls, so dimension selectivity prunes fact
    /// shards through the join). With pruning disabled every shard is
    /// dispatched.
    fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        self.admit(filter, || Ok(FilterBounds::from_dnf(&self.bounds(filter)?.0)))
    }

    /// The scatter half of [`Cluster::run`] as a reusable building
    /// block: folding the per-shard partials through
    /// [`StreamEngine::merge_executions`] in shard order yields answers
    /// bit-identical to `run`. The call that finds no cached plan for
    /// the (query id, filter) compiles one, leads with it (a star
    /// join's prelude rides in its log) and caches it once the shard
    /// ran; later calls reuse it for free. A failed call caches nothing
    /// it compiled. `i` indexes active shards (like
    /// [`Cluster::shard_table`]); an unknown one is
    /// [`ClusterError::InvalidCluster`].
    fn run_on_shard(&mut self, i: usize, query: &Query) -> Result<QueryExecution, ClusterError> {
        let active = self.shards.len();
        if i >= active {
            return Err(ClusterError::InvalidCluster(format!("no active shard {i}/{active}")));
        }
        let cached = self.plans.iter().position(|(id, f, _)| *id == query.id && *f == query.filter);
        let at = match cached {
            Some(at) => at,
            None => {
                let plan = self.storage.plan(&self.shards[0].table, &mut self.aux, query)?;
                self.plans.push((query.id.clone(), query.filter.clone(), plan));
                self.plans.len() - 1
            }
        };
        let (plan, table) = (&self.plans[at].2, &mut self.shards[i].table);
        let lead = cached.is_none();
        let exec = self.storage.exec_shard(plan, table, &self.aux, query, lead);
        if exec.is_err() && lead {
            self.plans.pop();
        }
        exec
    }

    /// The gather half of [`Cluster::run`]; `shards_pruned` is
    /// reporting-only. Each *physical* component (sum / min / max /
    /// count) merges per named output column; derived outputs (`AVG`)
    /// are computed only afterwards, so they stay bit-exact under
    /// sharding. Merging commutes with how the partials were obtained,
    /// so a scheduler that executed the shard slices out of order still
    /// gets the bit-identical merged result.
    ///
    /// # Panics
    ///
    /// Panics on a query whose SELECT list is invalid — impossible for
    /// executions the shards produced (they validate at run time).
    fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution {
        let plan = query.physical_plan().expect("executed queries have a valid SELECT list");
        let mut partials: Vec<PartialGroups> =
            plan.aggs.iter().map(|a| PartialGroups::new(a.func)).collect();
        let mut merged_entries = 0u64;
        for exec in executions {
            for (acc, part) in partials.iter_mut().zip(&exec.partials) {
                merged_entries += part.groups.len() as u64;
                acc.absorb_ref(part);
            }
        }
        // Host-side gather cost: the host folds every (shard, group)
        // partial into the final table, at its hash-aggregation rate.
        let host_agg_ns_per_entry =
            self.shards.first().map_or(0.0, |s| s.table.config().host.host_agg_ns_per_record);
        let merge_time_ns = merged_entries as f64 * host_agg_ns_per_entry;

        let shards = executions.iter().map(|e| (e.report.time_ns, e.report.host_bus_ns));
        let wall_ns = one_host_ns(shards);
        let selected: u64 = executions.iter().map(|e| e.report.selected).sum();
        let records = self.records();
        let report = ClusterReport {
            query_id: query.id.clone(),
            mode: self.mode(),
            shards: self.shard_count(),
            active_shards: self.shards.len(),
            shards_pruned,
            partitioner: self.partitioner().label(),
            time_ns: wall_ns + merge_time_ns,
            dispatch_time_ns: executions.iter().map(|e| dispatch_ns(&e.report.phases)).sum(),
            host_bus_time_ns: executions.iter().map(|e| e.report.host_bus_ns).sum(),
            merge_time_ns,
            total_shard_time_ns: executions.iter().map(|e| e.report.time_ns).sum(),
            energy_pj: executions.iter().map(|e| e.report.energy_pj).sum(),
            peak_chip_power_w: executions
                .iter()
                .map(|e| e.report.peak_chip_power_w)
                .fold(0.0, f64::max),
            records,
            pages_total: self.shards.iter().map(|s| s.table.page_count()).sum(),
            pages_scanned: executions.iter().map(|e| e.report.pages_scanned).sum(),
            selected,
            selectivity: if records == 0 { 0.0 } else { selected as f64 / records as f64 },
            per_shard: executions.iter().map(|e| e.report.clone()).collect(),
        };
        let per_agg: Vec<GroupedResult> =
            partials.into_iter().map(PartialGroups::into_groups).collect();
        ClusterExecution { groups: plan.finalize(&per_agg), report }
    }
}

impl<S: Storage> std::fmt::Debug for Cluster<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.shard_count)
            .field("active", &self.shards.len())
            .field("aux", &self.aux.len())
            .field("partitioner", &self.partitioner.label())
            .field("mode", &self.mode())
            .field("records", &self.records())
            .field("pruning", &self.pruning())
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
