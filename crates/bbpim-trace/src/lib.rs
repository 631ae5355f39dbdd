//! Tracing substrate for the bulk-bitwise PIM stack.
//!
//! The paper's evaluation attributes end-to-end time and energy to
//! phases (Figs. 6–9), and the journal extension shows host
//! orchestration and channel occupancy dominating selective queries.
//! This crate records those observations as one timeline:
//!
//! * [`TraceRecorder`] — a zero-cost-when-disabled structured span /
//!   instant / counter recorder on the *simulated* clock. Tracks are
//!   named lanes (one per PIM module, one for the host bus, one for
//!   the scheduler) so bus serialisation vs module overlap is visible.
//! * [`export`] — Chrome/Perfetto `trace_event` JSON and a flat JSONL
//!   event stream, both byte-deterministic for a deterministic input.
//!
//! Everything here is pure data: no I/O, no wall clock, no threads —
//! recording the same simulation twice yields byte-identical exports.
//! Numbers per run and per layer are `bbpim-perf`'s per-layer catalogue
//! (`bench/perf`), not a registry here.

pub mod export;
pub mod trace;

pub use trace::{ArgValue, EventShape, TraceEvent, TraceRecorder, TrackId};
