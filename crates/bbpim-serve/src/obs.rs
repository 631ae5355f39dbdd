//! Fold a [`ServeOutcome`] into the metrics registry.
//!
//! One call turns a serve session into named series: per-tenant
//! latency percentiles, goodput, drop/throttle counts and the SLO
//! verdict (all labelled `tenant=<name>`), plus the controller's
//! window trajectory bounds. Bench bins and the CI gate read this
//! surface instead of scraping printed tables.

use bbpim_sched::obs::record_lane_wear;
use bbpim_trace::MetricsRegistry;

use crate::report::tenant_reports;
use crate::serve::ServeOutcome;
use crate::tenant::TenantSpec;

pub use bbpim_trace::phases::{CELL_WRITES, REQUIRED_ENDURANCE};

/// Per-tenant end-to-end latency histogram (ns) plus
/// `_p50/_p95/_p99/_p999/_mean/_max` gauges, labelled `tenant=<name>`.
pub const TENANT_LATENCY_NS: &str = "bbpim_tenant_latency_ns";
/// Per-tenant deadline-met completions per simulated second, gauge.
pub const TENANT_GOODPUT_QPS: &str = "bbpim_tenant_goodput_qps";
/// Per-tenant completed requests, counter.
pub const TENANT_COMPLETIONS: &str = "bbpim_tenant_completions_total";
/// Per-tenant write requests durably applied, counter.
pub const TENANT_WRITES: &str = "bbpim_tenant_writes_total";
/// Per-tenant requests shed at admission, counter.
pub const TENANT_DROPS: &str = "bbpim_tenant_drops_total";
/// Per-tenant requests delayed by the token bucket, counter.
pub const TENANT_THROTTLED: &str = "bbpim_tenant_throttled_total";
/// Per-tenant drop rate (sheds over submissions), gauge.
pub const TENANT_DROP_RATE: &str = "bbpim_tenant_drop_rate";
/// 1.0 when the tenant's observed p95 stayed within its promise, gauge.
pub const TENANT_SLO_MET: &str = "bbpim_tenant_slo_p95_met";
/// The in-flight window after the last controller decision, gauge.
pub const WINDOW_FINAL: &str = "bbpim_serve_window_final";
/// The smallest window the session ran under, gauge.
pub const WINDOW_MIN: &str = "bbpim_serve_window_min";
/// The largest window the session ran under, gauge.
pub const WINDOW_MAX: &str = "bbpim_serve_window_max";
/// Controller decisions taken, counter.
pub const WINDOW_DECISIONS: &str = "bbpim_serve_window_decisions_total";

/// Record everything one serve session measured into `reg`. Per-tenant
/// series carry `tenant=<name>` on top of `labels` (typically
/// `run=<study row>`); window series carry `labels` alone.
pub fn record_serve_metrics(
    reg: &mut MetricsRegistry,
    tenants: &[TenantSpec],
    outcome: &ServeOutcome,
    labels: &[(&str, &str)],
) {
    for report in tenant_reports(tenants, outcome) {
        let mut with_tenant = labels.to_vec();
        with_tenant.push(("tenant", report.name.as_str()));
        let s = &report.latency;
        for (suffix, v) in [
            ("_p50", s.p50_ns),
            ("_p95", s.p95_ns),
            ("_p99", s.p99_ns),
            ("_p999", s.p999_ns),
            ("_mean", s.mean_ns),
            ("_max", s.max_ns),
        ] {
            reg.gauge_set(&format!("{TENANT_LATENCY_NS}{suffix}"), &with_tenant, v);
        }
        reg.gauge_set(TENANT_GOODPUT_QPS, &with_tenant, report.goodput_qps);
        reg.counter_add(TENANT_COMPLETIONS, &with_tenant, report.completed as f64);
        if report.writes_completed > 0 {
            reg.counter_add(TENANT_WRITES, &with_tenant, report.writes_completed as f64);
        }
        reg.counter_add(TENANT_DROPS, &with_tenant, report.dropped as f64);
        reg.counter_add(TENANT_THROTTLED, &with_tenant, report.throttled as f64);
        reg.gauge_set(TENANT_DROP_RATE, &with_tenant, report.drop_rate);
        reg.gauge_set(TENANT_SLO_MET, &with_tenant, if report.slo_met { 1.0 } else { 0.0 });
    }
    for c in &outcome.completions {
        let mut with_tenant = labels.to_vec();
        with_tenant.push(("tenant", tenants[c.tenant].name.as_str()));
        reg.observe(TENANT_LATENCY_NS, &with_tenant, c.latency_ns());
    }
    for c in &outcome.write_completions {
        let mut with_tenant = labels.to_vec();
        with_tenant.push(("tenant", tenants[c.tenant].name.as_str()));
        reg.observe(TENANT_LATENCY_NS, &with_tenant, c.latency_ns());
    }
    // The serving layer wears the same modules the scheduler does.
    record_lane_wear(reg, &outcome.lane_cell_writes, &outcome.lane_required_endurance, labels);
    let (lo, hi) = outcome.window_bounds();
    reg.gauge_set(WINDOW_FINAL, labels, outcome.final_window() as f64);
    reg.gauge_set(WINDOW_MIN, labels, lo as f64);
    reg.gauge_set(WINDOW_MAX, labels, hi as f64);
    reg.counter_add(WINDOW_DECISIONS, labels, outcome.decisions.len() as f64);
}
