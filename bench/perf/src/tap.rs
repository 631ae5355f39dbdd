//! A `StreamEngine` tap: the benchmark-side boundary around every call
//! the scheduler, the serving tier or the benchmark itself makes into a
//! sharded engine (`ClusterEngine` or `StarCluster`).
//!
//! It always counts calls and keeps each applied mutation's per-lane
//! reports (the only place a streamed mutation's energy and channel
//! bytes surface); with an enabled recorder it also wraps each call in
//! a span. The untraced run pays a counter bump per call.

use std::cell::Cell;

use bbpim::cluster::{ClusterError, ClusterExecution};
use bbpim::db::plan::{Pred, Query};
use bbpim::engine::mutation::{Mutation, MutationReport};
use bbpim::engine::result::QueryExecution;
use bbpim::sched::StreamEngine;
use bbpim::sim::config::HostConfig;

use crate::span::Recorder;

/// Span names of one engine layer.
#[derive(Debug, Clone, Copy)]
pub struct Names {
    pub plan_shards: &'static str,
    pub run_on_shard: &'static str,
    pub merge: &'static str,
    pub mutate: &'static str,
}

/// The pre-joined `ClusterEngine`.
pub const CLUSTER: Names = Names {
    plan_shards: "cluster.plan_shards",
    run_on_shard: "cluster.run_on_shard",
    merge: "cluster.merge",
    mutate: "cluster.mutate",
};

/// The normalized `StarCluster`.
pub const JOIN: Names = Names {
    plan_shards: "join.plan_shards",
    run_on_shard: "join.run_on_shard",
    merge: "join.merge",
    mutate: "join.mutate",
};

pub struct Tap<'r, E> {
    inner: &'r mut E,
    rec: &'r Recorder,
    names: Names,
    /// `(query, snapshot)` resolutions: one merge closes each.
    merges: Cell<u64>,
    pub shard_runs: u64,
    /// Per-lane reports of every applied mutation, in admission order.
    pub mutation_reports: Vec<MutationReport>,
}

impl<'r, E: StreamEngine> Tap<'r, E> {
    pub fn new(inner: &'r mut E, rec: &'r Recorder, names: Names) -> Self {
        Tap { inner, rec, names, merges: Cell::new(0), shard_runs: 0, mutation_reports: Vec::new() }
    }

    pub fn merges(&self) -> u64 {
        self.merges.get()
    }

    /// One query through the public building blocks `run` is made of —
    /// plan, each admitted shard in turn, merge — so every step gets
    /// its own span (shards run sequentially here for clean
    /// attribution).
    ///
    /// # Errors
    ///
    /// The first planning or shard failure.
    pub fn run_stepwise(&mut self, query: &Query) -> Result<ClusterExecution, ClusterError> {
        let mask = self.plan_shards(&query.filter)?;
        let mut executions = Vec::new();
        for (shard, _) in mask.iter().enumerate().filter(|(_, &d)| d) {
            executions.push(self.run_on_shard(shard, query)?);
        }
        let refs: Vec<&QueryExecution> = executions.iter().collect();
        Ok(self.merge_executions(query, &refs, mask.len() - executions.len()))
    }
}

impl<E: StreamEngine> StreamEngine for Tap<'_, E> {
    fn contention(&self) -> bool {
        self.inner.contention()
    }

    fn host_config(&self) -> Option<HostConfig> {
        self.inner.host_config()
    }

    fn active_shards(&self) -> usize {
        self.inner.active_shards()
    }

    fn ingest_lanes(&self) -> usize {
        self.inner.ingest_lanes()
    }

    fn plan_mutation_lanes(&self, mutation: &Mutation) -> Result<Vec<usize>, ClusterError> {
        self.rec.scope(self.names.plan_shards, None, || self.inner.plan_mutation_lanes(mutation))
    }

    fn apply_mutation(
        &mut self,
        mutation: &Mutation,
    ) -> Result<Vec<(usize, MutationReport)>, ClusterError> {
        let open = self.rec.enter(self.names.mutate, None);
        let out = self.inner.apply_mutation(mutation);
        if let Ok(lanes) = &out {
            self.rec.count("lanes", lanes.len() as f64);
            self.mutation_reports.extend(lanes.iter().map(|(_, r)| r.clone()));
        }
        self.rec.exit(open);
        out
    }

    fn plan_shards(&self, filter: &Pred) -> Result<Vec<bool>, ClusterError> {
        self.rec.scope(self.names.plan_shards, None, || self.inner.plan_shards(filter))
    }

    fn run_on_shard(
        &mut self,
        shard: usize,
        query: &Query,
    ) -> Result<QueryExecution, ClusterError> {
        self.shard_runs += 1;
        let open = self.rec.enter(self.names.run_on_shard, None);
        let out = self.inner.run_on_shard(shard, query);
        if let Ok(e) = &out {
            self.rec.count("pages_scanned", e.report.pages_scanned as f64);
        }
        self.rec.exit(open);
        out
    }

    fn merge_executions(
        &self,
        query: &Query,
        executions: &[&QueryExecution],
        shards_pruned: usize,
    ) -> ClusterExecution {
        self.merges.set(self.merges.get() + 1);
        self.rec.scope(self.names.merge, None, || {
            self.rec.count("partials", executions.len() as f64);
            self.inner.merge_executions(query, executions, shards_pruned)
        })
    }
}
