//! The sharded cluster engine: scatter a query to per-shard
//! [`PimQueryEngine`]s on OS threads, gather and merge the partials.
//!
//! The paper evaluates one PIM module, but its memory system is built
//! from many independent modules; this layer models a rank of `n` such
//! modules. Each shard owns a horizontal slice of the wide pre-joined
//! relation (see [`crate::partition`]) inside its own `PimModule`.
//!
//! ## Zone-map shard pruning
//!
//! Every shard carries a [`ZoneMap`] (per-attribute min/max, built
//! during partitioning and widened by UPDATE fan-out). Before the
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
//! the *sum*. [`ClusterEngine::set_contention`]`(false)` restores the
//! pre-contention optimistic model (only dispatch serialises, every
//! transfer rides a free per-module channel) for A/B studies; answers
//! are bit-identical either way.

use bbpim_core::engine::PimQueryEngine;
use bbpim_core::groupby::calibration::CalibrationConfig;
use bbpim_core::groupby::cost_model::GroupByModel;
use bbpim_core::modes::EngineMode;
use bbpim_core::mutation::{Mutation, MutationReport};
use bbpim_core::result::{QueryExecution, QueryReport};
use bbpim_core::CoreError;
use bbpim_db::plan::{FilterBounds, Pred, Query};
use bbpim_db::stats::MultiGrouped;
use bbpim_db::zonemap::ZoneMap;
use bbpim_db::Relation;
use bbpim_sim::config::SimConfig;

use crate::error::ClusterError;
use crate::explain::{HostBytes, PlanExplain, ShardPlan};
use crate::fold::{self, fold_mutation, serial_slice_ns, ClusterShape};
use crate::partition::Partitioner;

/// One shard: its position in the cluster plus its engine and zone map.
struct Shard {
    /// Shard index in `0..shard_count` (empty shards have no entry).
    index: usize,
    engine: PimQueryEngine,
    /// Per-attribute min/max over this shard's records; widened after
    /// UPDATE fan-out so pre-scatter pruning stays sound.
    zone: ZoneMap,
}

/// A sharded PIM OLAP engine over one (pre-joined) relation.
///
/// Presents the same `run(&Query)` surface as the single-module
/// [`PimQueryEngine`], returning bit-identical grouped results.
pub struct ClusterEngine {
    shards: Vec<Shard>,
    shard_count: usize,
    partitioner: Partitioner,
    mode: EngineMode,
    records: usize,
    pruning: bool,
    contention: bool,
}

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
    /// build one [`PimQueryEngine`] (its own `PimModule`, same `cfg`)
    /// per non-empty slice, each paired with the slice's zone map.
    /// Empty slices — common when a range split has more buckets than
    /// distinct values — are dropped: they own no engine and no module,
    /// and [`ClusterEngine::active_shards`] excludes them while
    /// [`ClusterEngine::shard_count`] keeps reporting the configured
    /// count.
    ///
    /// Use [`SimConfig::per_module_of`] on `cfg` first for iso-capacity
    /// scaling experiments; pass `cfg` unchanged to model a cluster of
    /// full-size modules.
    ///
    /// # Errors
    ///
    /// Partitioning failures and per-shard engine construction
    /// failures.
    pub fn new(
        cfg: SimConfig,
        relation: Relation,
        mode: EngineMode,
        shards: usize,
        partitioner: Partitioner,
    ) -> Result<Self, ClusterError> {
        let records = relation.len();
        let parts = partitioner.split_zoned(&relation, shards)?;
        let mut built = Vec::with_capacity(shards);
        for (index, (part, zone)) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let engine = PimQueryEngine::new(cfg.clone(), part, mode)?;
            built.push(Shard { index, engine, zone });
        }
        Ok(ClusterEngine {
            shards: built,
            shard_count: shards,
            partitioner,
            mode,
            records,
            pruning: true,
            contention: true,
        })
    }

    /// Configured shard count (including empty shards).
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Shards actually holding records.
    pub fn active_shards(&self) -> usize {
        self.shards.len()
    }

    /// Configured indices of the shards that hold records (hash and
    /// range partitioning can leave some of `0..shard_count` empty).
    pub fn active_shard_indices(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.index).collect()
    }

    /// Records across the cluster.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The engine mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// The partitioning strategy.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Is zone-map pruning (shard-level pre-scatter skip + per-shard
    /// page pruning) enabled? Defaults to `true`.
    pub fn pruning(&self) -> bool {
        self.pruning
    }

    /// Enable or disable zone-map pruning cluster-wide (propagates to
    /// every shard engine's page-level pruning). Answers are
    /// bit-identical either way.
    pub fn set_pruning(&mut self, enabled: bool) {
        self.pruning = enabled;
        for shard in &mut self.shards {
            shard.engine.set_pruning(enabled);
        }
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

    /// The host-transfer policy the shards run under (compressed mask
    /// transfers, batched dispatch descriptors, module-side result
    /// reduction). Defaults to all levers on.
    pub fn xfer_policy(&self) -> bbpim_sim::XferPolicy {
        self.shards.first().map(|s| s.engine.xfer_policy()).unwrap_or_default()
    }

    /// Set the host-transfer policy cluster-wide for A/B attribution
    /// studies (like [`ClusterEngine::set_contention`]). Answers are
    /// bit-identical under every lever combination — only the bytes on
    /// the channel (and hence contended wall clock) change.
    pub fn set_xfer_policy(&mut self, policy: bbpim_sim::XferPolicy) {
        for shard in &mut self.shards {
            shard.engine.set_xfer_policy(policy);
        }
    }

    /// An active shard's zone map; `i` indexes active shards.
    pub fn shard_zone(&self, i: usize) -> Option<&ZoneMap> {
        self.shards.get(i).map(|s| &s.zone)
    }

    /// Borrow an active shard's engine (inspection in tests/benches);
    /// `i` indexes active shards, not configured slots.
    pub fn shard_engine(&self, i: usize) -> Option<&PimQueryEngine> {
        self.shards.get(i).map(|s| &s.engine)
    }

    /// Run the GROUP-BY calibration once and share the fitted model
    /// with every shard (all shards have identical hardware, so one
    /// sweep suffices — this is `n`× cheaper than calibrating each).
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn calibrate(&mut self, cal: &CalibrationConfig) -> Result<(), ClusterError> {
        let Some(first) = self.shards.first_mut() else {
            return Ok(());
        };
        first.engine.calibrate(cal)?;
        let model = first.engine.model().cloned().expect("calibrate() installs a model");
        self.set_model(model);
        Ok(())
    }

    /// The fitted GROUP-BY model the shards share, if any.
    pub fn model(&self) -> Option<&GroupByModel> {
        self.shards.first().and_then(|s| s.engine.model())
    }

    /// Install a pre-fitted model on every shard. The calibration is a
    /// pure function of the hardware configuration and engine mode —
    /// not of the data — so a model fitted once (by any engine or
    /// cluster with the same `SimConfig` + [`EngineMode`]) is valid for
    /// every cluster instance: fit once, share everywhere.
    pub fn set_model(&mut self, model: GroupByModel) {
        for shard in &mut self.shards {
            shard.engine.set_model(model.clone());
        }
    }

    /// The pre-scatter plan of a filter tree: `true` per active shard
    /// that must be dispatched, `false` where the shard's zone map
    /// proves no record can match any DNF branch (the bounds of an OR
    /// are the per-attribute interval union of its branches). With
    /// pruning disabled every shard is dispatched.
    ///
    /// # Errors
    ///
    /// Propagates filter resolution failures.
    pub fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        if !self.pruning || filter.is_always() {
            return Ok(vec![true; self.shards.len()]);
        }
        let Some(first) = self.shards.first() else {
            return Ok(Vec::new());
        };
        let schema = first.engine.relation().schema();
        let dnf = filter.resolve_dnf(schema).map_err(ClusterError::Db)?;
        let bounds = FilterBounds::from_dnf(&dnf);
        Ok(self.shards.iter().map(|s| bounds.can_match(&s.zone)).collect())
    }

    /// The physical plan of `query` without executing anything: the
    /// resolved filter (pretty-printed tree + per-attribute pruning
    /// intervals), which shards the zone maps admit, and how many pages
    /// each admitted shard's page-level planner would activate (the
    /// `EXPLAIN` dump).
    ///
    /// # Errors
    ///
    /// Propagates filter resolution failures.
    pub fn explain(&self, query: &Query) -> Result<PlanExplain, ClusterError> {
        let mask = self.plan_shards(&query.filter)?;
        // Per-attribute interval union of the filter bounds, rendered
        // with attribute names (what the zone maps are tested against).
        let filter_bounds = match self.shards.first() {
            None => Vec::new(),
            Some(first) => {
                let schema = first.engine.relation().schema();
                let dnf = query.filter.resolve_dnf(schema).map_err(ClusterError::Db)?;
                FilterBounds::from_dnf(&dnf)
                    .intervals()
                    .into_iter()
                    .map(|(idx, intervals)| (schema.attrs()[idx].name.clone(), intervals))
                    .collect()
            }
        };
        let mut host_bytes = HostBytes::default();
        let mut shards = Vec::with_capacity(self.shards.len());
        for (shard, &dispatched) in self.shards.iter().zip(&mask) {
            let mut candidate_pages = 0;
            if dispatched {
                let plan = shard.engine.plan(query).map_err(ClusterError::Core)?;
                candidate_pages = plan.len();
                host_bytes.absorb(&shard_host_bytes(&shard.engine, query, &plan)?);
            }
            shards.push(ShardPlan {
                shard_index: shard.index,
                records: shard.engine.relation().len(),
                pages: shard.engine.page_count(),
                candidate_pages,
                dispatched,
            });
        }
        Ok(PlanExplain {
            query_id: query.id.clone(),
            filter: query.filter.to_string(),
            filter_bounds,
            shards,
            // the pre-joined model never joins: nothing crosses the bus
            join_transfers: Vec::new(),
            host_bytes,
            actuals: None,
        })
    }

    /// `EXPLAIN ANALYZE`: plan `query`, execute it, and return the
    /// plan with the run's recorded actuals attached (plus the
    /// execution itself, so the answer is not thrown away). The
    /// planned pages/shards/bytes sit next to what the run actually
    /// did — [`PlanExplain::consistency_errors`] checks the recorded
    /// run never exceeded the plan on pruned paths.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ClusterEngine::explain`] and
    /// [`ClusterEngine::run`].
    pub fn explain_analyze(
        &mut self,
        query: &Query,
    ) -> Result<(PlanExplain, ClusterExecution), ClusterError> {
        let mut plan = self.explain(query)?;
        let exec = self.run(query)?;
        plan.attach_actuals(&exec.report);
        Ok((plan, exec))
    }

    /// Execute `query` on one active shard alone and return that
    /// shard's partial execution — the scatter half of
    /// [`ClusterEngine::run`] as a reusable building block. The
    /// streaming scheduler (`bbpim-sched`) uses it to interleave
    /// *different* queries' shard slices on different modules; folding
    /// the per-shard partials through
    /// [`ClusterEngine::merge_executions`] in shard order yields
    /// answers bit-identical to [`ClusterEngine::run`].
    ///
    /// `i` indexes active shards (like [`ClusterEngine::shard_engine`]).
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidCluster`] for an unknown shard index;
    /// shard engine failures otherwise.
    pub fn run_on_shard(
        &mut self,
        i: usize,
        query: &Query,
    ) -> Result<QueryExecution, ClusterError> {
        let active = self.shards.len();
        let shard = self
            .shards
            .get_mut(i)
            .ok_or_else(|| ClusterError::InvalidCluster(format!("no active shard {i}/{active}")))?;
        shard.engine.run(query).map_err(ClusterError::from)
    }

    /// Run `f` on the masked shard engines concurrently (one OS thread
    /// per dispatched shard — the scatter phase) and gather the results
    /// in shard order (`None` for pruned shards). The first shard error
    /// aborts the cluster operation.
    fn scatter_planned<T, F>(&mut self, mask: &[bool], f: F) -> Result<Vec<Option<T>>, ClusterError>
    where
        T: Send,
        F: Fn(&mut PimQueryEngine) -> Result<T, CoreError> + Sync,
    {
        let results: Vec<Option<Result<T, CoreError>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .zip(mask)
                .map(|(shard, &dispatched)| {
                    dispatched.then(|| {
                        let f = &f;
                        scope.spawn(move || f(&mut shard.engine))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.map(|h| h.join().expect("shard worker panicked")))
                .collect()
        });
        results.into_iter().map(|r| r.transpose().map_err(ClusterError::from)).collect()
    }

    /// Execute one query: consult the shard zone maps, scatter to the
    /// surviving shards in parallel, and merge the per-shard partial
    /// aggregates. Pruned shards contribute nothing — provably the same
    /// nothing they would have computed.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure.
    pub fn run(&mut self, query: &Query) -> Result<ClusterExecution, ClusterError> {
        let mask = self.plan_shards(&query.filter)?;
        let results = self.scatter_planned(&mask, |engine| engine.run(query))?;
        let refs: Vec<&QueryExecution> = results.iter().flatten().collect();
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
        let shard_lists: Vec<Vec<usize>> = (0..self.shards.len())
            .map(|s| (0..queries.len()).filter(|&qi| masks[qi][s]).collect())
            .collect();

        let per_shard: Vec<Vec<(usize, QueryExecution)>> = {
            let joined: Vec<Result<Vec<(usize, QueryExecution)>, CoreError>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = self
                        .shards
                        .iter_mut()
                        .zip(&shard_lists)
                        .map(|(shard, list)| {
                            scope.spawn(move || {
                                list.iter()
                                    .map(|&qi| shard.engine.run(&queries[qi]).map(|e| (qi, e)))
                                    .collect::<Result<Vec<_>, _>>()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
                });
            joined.into_iter().collect::<Result<_, _>>().map_err(ClusterError::from)?
        };

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

    /// The active-shard *lanes* a mutation will touch, in lane order —
    /// the scheduler's ingest-buffer admission check. UPDATE lanes are
    /// the shards whose zone maps admit the WHERE clause (the full DNF:
    /// the bounds of an OR are the per-attribute interval union of its
    /// branches); INSERT lanes are where the deterministic round-robin
    /// row routing — cursor `records % active` — will land the rows.
    ///
    /// # Errors
    ///
    /// Propagates filter resolution failures.
    pub fn plan_mutation_lanes(&self, m: &Mutation) -> Result<Vec<usize>, ClusterError> {
        match m {
            Mutation::Update { filter, .. } => {
                let mask = self.plan_shards(filter)?;
                Ok(mask.iter().enumerate().filter_map(|(i, &d)| d.then_some(i)).collect())
            }
            Mutation::Insert { rows } => {
                let active = self.shards.len();
                if active == 0 || rows.is_empty() {
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

    /// Lane-indexed mutation fan-out: execute `m` on each involved
    /// active shard *serially* and return the per-lane reports in lane
    /// order — the scheduler's building block (each lane's write phases
    /// then serialise independently on the shared bus). UPDATE runs on
    /// every zone-admitted shard; INSERT routes rows round-robin from
    /// the deterministic cursor `records % active`, so a given cluster
    /// history always lands rows on the same lanes. Touched shards'
    /// zone maps are refreshed afterwards so later pruning decisions
    /// account for the written values.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidCluster`] for an INSERT into a cluster
    /// with no active shards; shard failures otherwise. Mutations are
    /// not atomic: on a mid-fan-out error earlier lanes have applied.
    pub fn mutate_on_lanes(
        &mut self,
        m: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        match m {
            Mutation::Update { .. } => {
                let lanes = self.plan_mutation_lanes(m)?;
                let mut out = Vec::with_capacity(lanes.len());
                for lane in lanes {
                    let report = self.shards[lane].engine.mutate(m).map_err(ClusterError::from)?;
                    self.shards[lane].zone = self.shards[lane].engine.zone_map();
                    out.push((lane, report));
                }
                Ok(out)
            }
            Mutation::Insert { rows } => {
                let active = self.shards.len();
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
                let mut out = Vec::new();
                for (lane, lane_rows) in per_lane.into_iter().enumerate() {
                    if lane_rows.is_empty() {
                        continue;
                    }
                    let part = Mutation::Insert { rows: lane_rows };
                    let report =
                        self.shards[lane].engine.mutate(&part).map_err(ClusterError::from)?;
                    self.shards[lane].zone = self.shards[lane].engine.zone_map();
                    self.records += report.records_inserted as usize;
                    out.push((lane, report));
                }
                Ok(out)
            }
        }
    }

    /// Fan a mutation out across the cluster and aggregate one report
    /// (same wall-clock model as [`ClusterEngine::run`]: host-serial
    /// channel occupancy plus max-over-shards of the overlappable
    /// PIM-side time).
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure.
    pub fn mutate(&mut self, m: &Mutation) -> Result<ClusterMutationReport, ClusterError> {
        let reports: Vec<MutationReport> =
            self.mutate_on_lanes(m)?.into_iter().map(|(_, r)| r).collect();
        let shards_pruned = self.shards.len() - reports.len();
        Ok(fold_mutation(self.contention, reports, shards_pruned))
    }

    /// Gather: merge per-shard partial executions (in shard order, as
    /// produced by [`ClusterEngine::run_on_shard`]) into one cluster
    /// execution — the gather half of [`ClusterEngine::run`], folded by
    /// [`fold::merge_executions`].
    ///
    /// # Panics
    ///
    /// Panics on a query whose SELECT list is invalid — impossible for
    /// executions the engines produced (they validate at run time).
    pub fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution {
        let shape = ClusterShape {
            mode: self.mode,
            shards: self.shard_count,
            active_shards: self.shards.len(),
            partitioner: self.partitioner.label(),
            records: self.records,
            pages_total: self.shards.iter().map(|s| s.engine.page_count()).sum(),
            contention: self.contention,
            host_agg_ns_per_entry: self
                .shards
                .first()
                .map_or(0.0, |s| s.engine.config().host.host_agg_ns_per_record),
        };
        fold::merge_executions(&shape, query, executions, shards_pruned)
    }
}

/// Planner estimate of one dispatched shard's host-channel bytes under
/// its engine's transfer policy (see [`HostBytes`] for the category
/// semantics and the estimate's assumptions).
fn shard_host_bytes(
    engine: &PimQueryEngine,
    query: &Query,
    plan: &bbpim_core::planner::PageSet,
) -> Result<HostBytes, ClusterError> {
    let mut out = HostBytes::default();
    if plan.is_empty() {
        return Ok(out);
    }
    let cfg = engine.config();
    let host = &cfg.host;
    let policy = engine.xfer_policy();
    let partitions = engine.layout().partitions();
    if policy.batch_dispatch {
        out.dispatch_bytes = partitions as u64
            * (host.dispatch_header_bytes + plan.run_count() as u64 * host.dispatch_run_bytes);
    }
    if partitions > 1 {
        // one transfer pair per disjunct that touches a dimension
        // partition (the two-xb inter-partition traffic)
        let schema = engine.relation().schema();
        let dnf = query.filter.resolve_dnf(schema).map_err(ClusterError::Db)?;
        let dim_disjuncts = dnf
            .iter()
            .filter(|conj| {
                conj.iter().any(|a| {
                    let name = &schema.attrs()[a.attr_index()].name;
                    engine.layout().placement(name).map(|p| p.partition != 0).unwrap_or(false)
                })
            })
            .count() as u64;
        let raw_bytes = plan.len() as u64 * cfg.crossbar_rows as u64 * host.line_bytes as u64;
        let records_per_page =
            (engine.relation().len() as u64).div_ceil(engine.page_count().max(1) as u64);
        let packed = bbpim_sim::maskwire::WIRE_HEADER_BYTES
            + (plan.len() as u64 * records_per_page).div_ceil(8);
        let per_transfer = if policy.compress_masks { packed.min(raw_bytes) } else { raw_bytes };
        out.mask_wire_bytes = dim_disjuncts * 2 * per_transfer;
    }
    let aggs = query.physical_plan().map_err(ClusterError::Db)?.aggs.len() as u64;
    let chunk_lines = 64u64.div_ceil(cfg.read_width_bits as u64);
    let per_agg = chunk_lines * host.line_bytes as u64;
    out.result_bytes = aggs * per_agg * if policy.module_reduce { 1 } else { plan.len() as u64 };
    Ok(out)
}

impl std::fmt::Debug for ClusterEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterEngine")
            .field("shards", &self.shard_count)
            .field("active", &self.shards.len())
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
        );
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
        let indices = c.active_shard_indices();
        assert_eq!(indices.len(), c.active_shards());
        assert!(indices.iter().all(|&i| i < 7));
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
        assert_eq!(c.active_shard_indices().len(), c.active_shards());
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
}
