//! Trace exporters: Chrome/Perfetto `trace_event` JSON and flat JSONL.
//!
//! Both exports are hand-rolled (the workspace carries no JSON
//! library) and byte-deterministic: event order is recording order,
//! track ids are registration order, and floats print through Rust's
//! shortest-roundtrip `Display`, which is itself deterministic.

use crate::trace::{ArgValue, EventShape, TraceRecorder};

/// JSON-escape a string into `out` (quotes, backslashes, control
/// characters; everything else passes through verbatim as UTF-8).
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Deterministic JSON number rendering: integral values print without
/// a fractional part, everything else through `f64`'s
/// shortest-roundtrip `Display`. Non-finite values (which a
/// well-formed simulation never produces) degrade to 0.
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn push_args_object(args: &[(&'static str, ArgValue)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(k);
        out.push_str("\":");
        match v {
            ArgValue::U64(n) => out.push_str(&n.to_string()),
            ArgValue::F64(f) => out.push_str(&fmt_num(*f)),
            ArgValue::Str(s) => {
                out.push('"');
                escape_json(s, out);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// Render the trace as Chrome/Perfetto `trace_event` JSON
/// (`chrome://tracing` / <https://ui.perfetto.dev> both load it).
///
/// One metadata event names each track (pid 1, tid = track id), then
/// every recorded event follows in recording order: spans as `ph:"X"`
/// complete events, instants as `ph:"i"`, counters as `ph:"C"`.
/// Timestamps and durations are microseconds (the format's unit),
/// converted from the recorder's simulated nanoseconds.
pub fn perfetto_json(trace: &TraceRecorder) -> String {
    let mut out = String::with_capacity(256 + trace.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (tid, name) in trace.tracks().iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"ph\":\"M\",\"pid\":1,\"tid\":");
        out.push_str(&tid.to_string());
        out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
        escape_json(name, &mut out);
        out.push_str("\"}}");
    }
    for ev in trace.events() {
        if !first {
            out.push(',');
        }
        first = false;
        let ts_us = ev.ts_ns / 1e3;
        match ev.shape {
            EventShape::Span { dur_ns } => {
                out.push_str("{\"ph\":\"X\",\"pid\":1,\"tid\":");
                out.push_str(&ev.track.to_string());
                out.push_str(",\"name\":\"");
                escape_json(&ev.name, &mut out);
                out.push_str("\",\"cat\":\"bbpim\",\"ts\":");
                out.push_str(&fmt_num(ts_us));
                out.push_str(",\"dur\":");
                out.push_str(&fmt_num(dur_ns / 1e3));
                out.push_str(",\"args\":");
                push_args_object(&ev.args, &mut out);
                out.push('}');
            }
            EventShape::Instant => {
                out.push_str("{\"ph\":\"i\",\"pid\":1,\"tid\":");
                out.push_str(&ev.track.to_string());
                out.push_str(",\"name\":\"");
                escape_json(&ev.name, &mut out);
                out.push_str("\",\"cat\":\"bbpim\",\"s\":\"t\",\"ts\":");
                out.push_str(&fmt_num(ts_us));
                out.push_str(",\"args\":");
                push_args_object(&ev.args, &mut out);
                out.push('}');
            }
            EventShape::Counter { value } => {
                out.push_str("{\"ph\":\"C\",\"pid\":1,\"tid\":");
                out.push_str(&ev.track.to_string());
                out.push_str(",\"name\":\"");
                escape_json(&ev.name, &mut out);
                out.push_str("\",\"ts\":");
                out.push_str(&fmt_num(ts_us));
                out.push_str(",\"args\":{\"value\":");
                out.push_str(&fmt_num(value));
                out.push_str("}}");
            }
        }
    }
    out.push_str("]}\n");
    out
}

/// Render the trace as flat JSONL: one self-describing JSON object per
/// line, timestamps in simulated nanoseconds — the machine-queryable
/// twin of the Perfetto view.
pub fn jsonl(trace: &TraceRecorder) -> String {
    let mut out = String::with_capacity(trace.len() * 112);
    for ev in trace.events() {
        out.push_str("{\"t_ns\":");
        out.push_str(&fmt_num(ev.ts_ns));
        out.push_str(",\"track\":\"");
        escape_json(&trace.tracks()[ev.track], &mut out);
        out.push_str("\",\"kind\":\"");
        match ev.shape {
            EventShape::Span { .. } => out.push_str("span"),
            EventShape::Instant => out.push_str("instant"),
            EventShape::Counter { .. } => out.push_str("counter"),
        }
        out.push_str("\",\"name\":\"");
        escape_json(&ev.name, &mut out);
        out.push('"');
        match ev.shape {
            EventShape::Span { dur_ns } => {
                out.push_str(",\"dur_ns\":");
                out.push_str(&fmt_num(dur_ns));
            }
            EventShape::Counter { value } => {
                out.push_str(",\"value\":");
                out.push_str(&fmt_num(value));
            }
            EventShape::Instant => {}
        }
        if !ev.args.is_empty() {
            out.push_str(",\"args\":");
            push_args_object(&ev.args, &mut out);
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecorder;

    fn sample() -> TraceRecorder {
        let mut t = TraceRecorder::enabled();
        let host = t.track("host-bus");
        let m0 = t.track("module-0");
        t.span(
            host,
            "host-dispatch",
            0.0,
            600.0,
            vec![("query", "Q1.1".into()), ("shard", 0usize.into())],
        );
        t.span(m0, "pim-logic", 600.0, 3000.0, vec![("wait_ns", 0.0.into())]);
        t.instant(host, "complete", 3600.5, vec![("arrival", 7usize.into())]);
        t.counter(host, "in-flight", 3600.5, 1.0);
        t
    }

    #[test]
    fn perfetto_has_thread_names_and_all_shapes() {
        let j = perfetto_json(&sample());
        assert!(j.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(j.contains("\"thread_name\",\"args\":{\"name\":\"host-bus\"}"));
        assert!(j.contains("\"thread_name\",\"args\":{\"name\":\"module-0\"}"));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"ph\":\"C\""));
        // 600 ns span → 0.6 µs duration
        assert!(j.contains("\"dur\":0.6"));
        assert!(j.ends_with("]}\n"));
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let l = jsonl(&sample());
        let lines: Vec<&str> = l.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"track\":\"host-bus\""));
        assert!(lines[0].contains("\"kind\":\"span\""));
        assert!(lines[0].contains("\"dur_ns\":600"));
        assert!(lines[2].contains("\"kind\":\"instant\""));
        assert!(lines[3].contains("\"value\":1"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(perfetto_json(&a), perfetto_json(&b));
        assert_eq!(jsonl(&a), jsonl(&b));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        let mut s = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn fmt_num_integral_values_drop_fraction() {
        assert_eq!(fmt_num(600.0), "600");
        assert_eq!(fmt_num(0.6), "0.6");
        assert_eq!(fmt_num(-3.0), "-3");
        assert_eq!(fmt_num(f64::NAN), "0");
    }
}
