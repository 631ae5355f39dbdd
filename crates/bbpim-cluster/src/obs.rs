//! Metrics glue for `EXPLAIN ANALYZE` plans.
//!
//! The cluster layer is where planner estimates meet recorded actuals,
//! so this module records both sides of an analyzed query: the bytes
//! the planner estimated and the bytes the run moved.

use bbpim_trace::MetricsRegistry;

use crate::explain::PlanExplain;

/// Planner-estimated host-channel bytes over analyzed queries,
/// counter.
pub const PLANNED_BYTES: &str = "bbpim_planned_host_bytes_total";
/// Recorded host-channel bytes over analyzed queries, counter.
pub const ACTUAL_BYTES: &str = "bbpim_actual_host_bytes_total";

/// Record an `EXPLAIN ANALYZE` plan: the planner's byte estimate next
/// to the recorded bytes (no-op for a plain `EXPLAIN` with no
/// actuals).
pub fn record_explain_analyze(
    reg: &mut MetricsRegistry,
    plan: &PlanExplain,
    labels: &[(&str, &str)],
) {
    let Some(actuals) = &plan.actuals else {
        return;
    };
    reg.counter_add(PLANNED_BYTES, labels, plan.host_bytes.total() as f64);
    reg.counter_add(ACTUAL_BYTES, labels, actuals.total_bytes() as f64);
}
