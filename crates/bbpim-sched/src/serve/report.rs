//! Per-tenant serving reports: latency percentiles, goodput, drops,
//! and the SLO verdict.

use super::{ServeOutcome, TenantSpec};
use crate::report::LatencySummary;

/// One tenant's session summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Requests generated.
    pub submitted: usize,
    /// Requests completed (queries and writes).
    pub completed: usize,
    /// Write requests durably applied (a subset of `completed`).
    pub writes_completed: usize,
    /// Requests shed at admission.
    pub dropped: usize,
    /// Requests delayed by the tenant's token bucket.
    pub throttled: usize,
    /// Latency percentiles over the tenant's completions (its drop
    /// count rides in [`LatencySummary::count_dropped`]).
    pub latency: LatencySummary,
    /// Deadline-met completions per second of session makespan (all
    /// completions count when the tenant has no deadline).
    pub goodput_qps: f64,
    /// Shed requests over submitted requests.
    pub drop_rate: f64,
    /// The tenant's promised p95, nanoseconds.
    pub p95_target_ns: f64,
    /// The per-request deadline, if the SLO set one.
    pub deadline_ns: Option<f64>,
    /// Did the observed p95 stay within the promise? (False when
    /// nothing completed: a tenant starved out of every answer did
    /// not get its SLO.)
    pub slo_met: bool,
}

/// Summarise one serve session per tenant, in tenant order.
pub fn tenant_reports(tenants: &[TenantSpec], outcome: &ServeOutcome) -> Vec<TenantReport> {
    let makespan_s = outcome.makespan_ns / 1e9;
    tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            let mut latencies = Vec::new();
            let mut waits = Vec::new();
            let mut services = Vec::new();
            let mut in_time = 0usize;
            for c in outcome.completions.iter().filter(|c| c.tenant == t) {
                latencies.push(c.latency_ns());
                waits.push(c.wait_ns());
                services.push(c.service_ns());
                if c.met_deadline() {
                    in_time += 1;
                }
            }
            // Write completions count against the same latency promise
            // and goodput (writes carry no deadline to miss).
            let mut writes_completed = 0usize;
            for c in outcome.write_completions.iter().filter(|c| c.tenant == t) {
                latencies.push(c.latency_ns());
                waits.push(c.wait_ns());
                services.push(c.service_ns());
                in_time += 1;
                writes_completed += 1;
            }
            let dropped = outcome.drops.iter().filter(|d| d.tenant == t).count();
            let completed = latencies.len();
            let submitted = outcome.submitted[t];
            let latency = LatencySummary::from_parts(latencies, &waits, &services, dropped);
            TenantReport {
                name: spec.name.clone(),
                weight: spec.weight,
                submitted,
                completed,
                writes_completed,
                dropped,
                throttled: outcome.throttled[t],
                goodput_qps: if makespan_s > 0.0 { in_time as f64 / makespan_s } else { 0.0 },
                drop_rate: if submitted > 0 { dropped as f64 / submitted as f64 } else { 0.0 },
                p95_target_ns: spec.slo.p95_target_ns,
                deadline_ns: spec.slo.deadline_ns,
                slo_met: completed > 0 && latency.p95_ns <= spec.slo.p95_target_ns,
                latency,
            }
        })
        .collect()
}
