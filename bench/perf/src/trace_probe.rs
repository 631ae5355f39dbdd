//! The `trace.*` layer metrics: what `bbpim-trace`'s recorder costs on
//! the host clock, how much it records, and whether recording changed
//! the simulation.

use std::time::Instant;

use bbpim::trace::export::{jsonl, perfetto_json};
use bbpim::trace::TraceRecorder;

use crate::workloads::Layers;

/// `f`'s result and its wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Set the `trace.*` metrics from an untraced outcome and the outcome
/// of the same call with `recorder` enabled (each with its wall
/// seconds).
pub fn record<O: PartialEq>(
    layers: &mut Layers,
    plain: (&O, f64),
    recorded: (&O, f64),
    recorder: &TraceRecorder,
) {
    layers.set("trace.overhead_ratio", recorded.1 / plain.1);
    layers.set("trace.events", recorder.len() as f64);
    let (bytes, export_s) = timed(|| perfetto_json(recorder).len() + jsonl(recorder).len());
    layers.set("trace.export_s", export_s);
    layers.set("trace.export_bytes", bytes as f64);
    layers.set("trace.identical", if recorded.0 == plain.0 { 1.0 } else { 0.0 });
}
