//! Benchmark-side span recorder for the traced run.
//!
//! Spans wrap the calls *into* each layer from the benchmark's own
//! files (spans inside the crates are a later issue). They live in a
//! `Vec` until the run ends and are then written as JSONL. A layer's
//! self time is its span's duration minus the part its child spans
//! cover; `*_s` layer metrics are self-time sums by span name.
//!
//! Everything takes `&self`: the engine taps record from inside
//! `&self` trait methods (`merge_executions`), and the benchmark is
//! single-threaded at every recording site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span on the host clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The operation (query or mutation index within the pass) every
    /// span of one request shares.
    pub op: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts attached at this boundary (work done, rows, shards…).
    pub counts: Vec<(&'static str, f64)>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
}

/// The recorder. A disabled recorder takes no timestamps and stores
/// nothing, so the untraced run pays one branch per boundary.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Handle of an open span (`None` from a disabled recorder).
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, origin: Instant::now(), inner: RefCell::default() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&self, name: &'static str, op: Option<u32>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len() as u32;
        let parent = inner.stack.last().copied();
        // children inherit the request identifier of their cause
        let op = op.or_else(|| parent.and_then(|p| inner.spans[p as usize].op));
        let start_ns = self.now_ns();
        inner.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        inner.stack.push(id);
        Open(Some(id))
    }

    /// Close `open` (and any span left open inside it).
    pub fn exit(&self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        while let Some(top) = inner.stack.pop() {
            inner.spans[top as usize].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&self, name: &'static str, op: Option<u32>, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, op);
        let out = f();
        self.exit(open);
        out
    }

    /// Attach a count to the innermost open span.
    pub fn count(&self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        if let Some(&top) = inner.stack.last() {
            inner.spans[top as usize].counts.push((name, value));
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Self time per span name, seconds: duration minus the interval
    /// direct children cover (children of one parent never overlap —
    /// the benchmark records from one thread).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_seconds(&self.inner.borrow().spans)
    }

    /// Total (inclusive) time per span name, seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        let inner = self.inner.borrow();
        inner
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / 1e9
    }

    /// The spans as JSONL, one object per line in start order.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        for s in &inner.spans {
            let _ = write!(out, "{{\"id\":{},\"parent\":", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"name\":\"{}\",\"op\":", s.name);
            match s.op {
                Some(op) => {
                    let _ = write!(out, "{op}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"start_ns\":{},\"end_ns\":{}", s.start_ns, s.end_ns);
            if !s.counts.is_empty() {
                out.push_str(",\"counts\":{");
                for (i, (k, v)) in s.counts.iter().enumerate() {
                    let _ = write!(out, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }
}

/// See [`Recorder::self_seconds`].
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, op: None, start_ns, end_ns, counts: Vec::new() }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0, 100) > plan [10, 20), shard [20, 50) > inner [25, 45), shard [50, 90)
        let spans = vec![
            span(0, None, "op", 0, 100_000_000_000),
            span(1, Some(0), "plan", 10_000_000_000, 20_000_000_000),
            span(2, Some(0), "shard", 20_000_000_000, 50_000_000_000),
            span(3, Some(2), "inner", 25_000_000_000, 45_000_000_000),
            span(4, Some(0), "shard", 50_000_000_000, 90_000_000_000),
        ];
        let own = self_seconds(&spans);
        assert_eq!(own["op"], 20.0); // 100 − (10 + 30 + 40)
        assert_eq!(own["plan"], 10.0);
        assert_eq!(own["shard"], 50.0); // (30 − 20) + 40, siblings summed by name
        assert_eq!(own["inner"], 20.0);
        // self times partition the root's duration
        assert_eq!(own.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn recorder_nests_inherits_op_and_exports_jsonl() {
        let rec = Recorder::new(true);
        rec.scope("op", Some(3), || {
            rec.scope("child", None, || rec.count("rows", 12.0));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let lines: Vec<String> = rec.to_jsonl().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 2);
        let v = crate::json::parse(&lines[1]).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("child"));
        assert_eq!(v.get("counts").unwrap().get("rows").unwrap().as_f64(), Some(12.0));
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let rec = Recorder::new(false);
        rec.scope("op", None, || rec.count("rows", 1.0));
        assert!(rec.spans().is_empty());
        assert!(rec.self_seconds().is_empty());
    }
}
