//! Fold a [`StreamOutcome`] into the metrics registry.
//!
//! One call turns everything a streamed run measured — latency
//! distribution, host-channel utilisation *and* raw demand, queue
//! behaviour, per-phase-kind time/energy/bytes, per-module cell wear —
//! into named registry series, so bench bins and the CI gate read one
//! surface instead of scraping ad-hoc printouts.

use bbpim_trace::phases::record_run_log;
use bbpim_trace::MetricsRegistry;

use crate::sched::StreamOutcome;
use crate::EventKind;

/// Completed queries, counter.
pub const COMPLETIONS: &str = "bbpim_stream_completions_total";
/// Queries that finished after a later arrival (out-of-order), counter.
pub const OVERTAKEN: &str = "bbpim_stream_overtaken_total";
/// Saturated host-channel utilisation over the makespan, gauge.
pub const HOST_UTILISATION: &str = "bbpim_host_bus_utilisation";
/// Raw (unclamped) host-channel demand ratio, gauge.
pub const HOST_DEMAND: &str = "bbpim_host_bus_demand_ratio";
/// Mean per-shard PIM utilisation, gauge.
pub const SHARD_UTILISATION: &str = "bbpim_shard_utilisation_mean";
/// Completed queries per simulated second, gauge.
pub const THROUGHPUT_QPS: &str = "bbpim_stream_throughput_qps";
/// Simulated makespan, gauge (ns).
pub const MAKESPAN_NS: &str = "bbpim_stream_makespan_ns";
/// Peak admission-queue depth, gauge.
pub const QUEUE_PEAK: &str = "bbpim_admission_queue_peak";
/// End-to-end latency histogram (ns) plus
/// `_p50/_p95/_p99/_p999/_mean/_max` gauges.
pub const LATENCY_NS: &str = "bbpim_stream_latency_ns";
/// Pre-service wait histogram (ns).
pub const WAIT_NS: &str = "bbpim_stream_wait_ns";
/// Service-time histogram (ns).
pub const SERVICE_NS: &str = "bbpim_stream_service_ns";
/// Mutations durably applied, counter (absent for pure-query runs).
pub const INGEST_COMPLETIONS: &str = "bbpim_ingest_completions_total";
/// Backpressure stall episodes at the ingest-queue head, counter.
pub const INGEST_STALLS: &str = "bbpim_ingest_stalls_total";
/// Total simulated time the ingest-queue head spent stalled, gauge (ns).
pub const INGEST_STALL_NS: &str = "bbpim_ingest_stall_ns";
/// Mutation arrival→durable latency histogram (ns) plus
/// `_p50/_p95/_p99/_mean/_max` gauges.
pub const INGEST_LATENCY_NS: &str = "bbpim_ingest_latency_ns";
/// Mutation ingest-queue wait histogram (ns), backpressure included.
pub const INGEST_WAIT_NS: &str = "bbpim_ingest_wait_ns";
/// Records rewritten in place by admitted UPDATEs, counter.
pub const INGEST_RECORDS_UPDATED: &str = "bbpim_ingest_records_updated_total";
/// Records appended by admitted INSERTs, counter.
pub const INGEST_RECORDS_INSERTED: &str = "bbpim_ingest_records_inserted_total";
pub use bbpim_trace::phases::{CELL_WRITES, REQUIRED_ENDURANCE};

/// Record everything `outcome` measured into `reg`, labelling every
/// series with `labels` (typically `run=<study row>`); per-module
/// series additionally carry `module=<active shard index>`.
pub fn record_stream_metrics(
    reg: &mut MetricsRegistry,
    outcome: &StreamOutcome,
    labels: &[(&str, &str)],
) {
    reg.counter_add(COMPLETIONS, labels, outcome.completions.len() as f64);
    reg.counter_add(OVERTAKEN, labels, outcome.overtaken() as f64);
    reg.gauge_set(HOST_UTILISATION, labels, outcome.host_utilisation());
    reg.gauge_set(HOST_DEMAND, labels, outcome.host_demand());
    reg.gauge_set(SHARD_UTILISATION, labels, outcome.mean_shard_utilisation());
    reg.gauge_set(THROUGHPUT_QPS, labels, outcome.throughput_qps());
    reg.gauge_set(MAKESPAN_NS, labels, outcome.makespan_ns);

    let s = outcome.latency_summary();
    for (suffix, v) in [
        ("_p50", s.p50_ns),
        ("_p95", s.p95_ns),
        ("_p99", s.p99_ns),
        ("_p999", s.p999_ns),
        ("_mean", s.mean_ns),
        ("_max", s.max_ns),
    ] {
        reg.gauge_set(&format!("{LATENCY_NS}{suffix}"), labels, v);
    }
    for c in &outcome.completions {
        reg.observe(LATENCY_NS, labels, c.latency_ns());
        reg.observe(WAIT_NS, labels, c.wait_ns());
        reg.observe(SERVICE_NS, labels, c.service_ns());
    }

    // Ingest series only when the run actually streamed mutations —
    // pure-query runs keep exactly the metric surface they always had.
    if !outcome.mutation_completions.is_empty() || outcome.ingest_stalls > 0 {
        reg.counter_add(INGEST_COMPLETIONS, labels, outcome.mutation_completions.len() as f64);
        reg.counter_add(INGEST_STALLS, labels, outcome.ingest_stalls as f64);
        reg.gauge_set(INGEST_STALL_NS, labels, outcome.ingest_stall_ns);
        let m = outcome.mutation_latency_summary();
        for (suffix, v) in [
            ("_p50", m.p50_ns),
            ("_p95", m.p95_ns),
            ("_p99", m.p99_ns),
            ("_mean", m.mean_ns),
            ("_max", m.max_ns),
        ] {
            reg.gauge_set(&format!("{INGEST_LATENCY_NS}{suffix}"), labels, v);
        }
        let mut updated = 0u64;
        let mut inserted = 0u64;
        for c in &outcome.mutation_completions {
            reg.observe(INGEST_LATENCY_NS, labels, c.latency_ns());
            reg.observe(INGEST_WAIT_NS, labels, c.wait_ns());
            updated += c.records_updated;
            inserted += c.records_inserted;
        }
        reg.counter_add(INGEST_RECORDS_UPDATED, labels, updated as f64);
        reg.counter_add(INGEST_RECORDS_INSERTED, labels, inserted as f64);
    }

    // Peak admission-queue depth, replayed from the event timeline.
    let mut depth = 0i64;
    let mut peak = 0i64;
    for ev in &outcome.timeline {
        match ev.kind {
            EventKind::Arrive => {
                depth += 1;
                peak = peak.max(depth);
            }
            EventKind::Admit => depth -= 1,
            _ => {}
        }
    }
    reg.gauge_set(QUEUE_PEAK, labels, peak as f64);

    // Per-phase-kind time / energy / host bytes over every executed
    // shard slice (per arrival: repeated queries cost the channel each
    // time they run).
    for exec in &outcome.executions {
        for shard in &exec.report.per_shard {
            record_run_log(reg, &shard.phases, labels);
        }
    }

    record_lane_wear(reg, &outcome.shard_cell_writes, &outcome.shard_required_endurance, labels);
}

/// Per-lane cell wear (the endurance model, surfaced): accumulated
/// worst-row cell writes and required endurance, one `module=<lane>`
/// series per lane that wrote. Shared by every front-end of the
/// [`kernel`](crate::kernel), whose lane tallies these are.
pub fn record_lane_wear(
    reg: &mut MetricsRegistry,
    cell_writes: &[u64],
    required_endurance: &[f64],
    labels: &[(&str, &str)],
) {
    for (lane, (&writes, &required)) in cell_writes.iter().zip(required_endurance).enumerate() {
        let module = lane.to_string();
        let mut with_module = labels.to_vec();
        with_module.push(("module", module.as_str()));
        if writes > 0 {
            reg.counter_add(CELL_WRITES, &with_module, writes as f64);
        }
        if required > 0.0 {
            reg.gauge_max(REQUIRED_ENDURANCE, &with_module, required);
        }
    }
}
