//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around whole calls into
//! each crate's public functions; the simulator is not instrumented.
//! Every call is timed with [`Instant`] whether or not tracing is on —
//! the untraced run needs the same durations — but spans are only kept
//! when it is.

use crate::metrics::{num, obj};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id within the trace.
    pub id: u64,
    /// The span this call was made under.
    pub parent: Option<u64>,
    /// Layer call name (`sim.simulate_with_stats`, `serve.point`, …).
    pub name: &'static str,
    /// The benchmark point the call belongs to, if any.
    pub point: Option<u32>,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Small per-thread index (the Chrome trace `tid`).
    pub tid: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Buf {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span recorder; cheap to clone. [`Tracer::off`] records nothing.
#[derive(Clone)]
pub struct Tracer {
    buf: Option<Arc<Buf>>,
}

/// An open span: ends (and is recorded) on [`Open::end`].
pub struct Open<'t> {
    tracer: &'t Tracer,
    id: Option<u64>,
    parent: Option<u64>,
    name: &'static str,
    point: Option<u32>,
    start: Instant,
}

fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Tracer {
    /// A recorder that keeps nothing.
    pub fn off() -> Self {
        Tracer { buf: None }
    }

    /// A recorder that keeps every span in memory.
    pub fn on() -> Self {
        Tracer {
            buf: Some(Arc::new(Buf {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// True when spans are kept.
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Opens a span named `name` under `parent`.
    pub fn begin(&self, name: &'static str, parent: Option<u64>, point: Option<u32>) -> Open<'_> {
        Open {
            tracer: self,
            id: self
                .buf
                .as_ref()
                .map(|b| b.next_id.fetch_add(1, Ordering::Relaxed)),
            parent,
            name,
            point,
            start: Instant::now(),
        }
    }

    /// Runs `f` inside a span and returns its value with the elapsed
    /// seconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        point: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, parent, point);
        let out = f();
        (out, open.end())
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .buf
            .as_ref()
            .map(|b| b.spans.lock().expect("span lock").clone())
            .unwrap_or_default();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

impl Open<'_> {
    /// This span's id, to pass as the parent of nested calls (`None`
    /// when tracing is off).
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Ends the span, records it when tracing is on, and returns its
    /// duration in seconds.
    pub fn end(self) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(self.start).as_secs_f64();
        if let (Some(buf), Some(id)) = (&self.tracer.buf, self.id) {
            let ns = |t: Instant| t.duration_since(buf.epoch).as_nanos() as u64;
            let span = Span {
                id,
                parent: self.parent,
                name: self.name,
                point: self.point,
                start_ns: ns(self.start),
                end_ns: ns(end),
                tid: thread_index(),
            };
            buf.spans.lock().expect("span lock").push(span);
        }
        secs
    }
}

/// Seconds one span costs when kept, over the same span with tracing off
/// (which still reads the clock twice): the median of several rounds of
/// begin/end pairs on one thread.
pub fn span_cost_s() -> f64 {
    const PAIRS: u32 = 20_000;
    let round = |t: &Tracer| {
        let start = Instant::now();
        for _ in 0..PAIRS {
            std::hint::black_box(t.begin("cost", None, None).end());
        }
        start.elapsed().as_secs_f64() / f64::from(PAIRS)
    };
    let diffs: Vec<f64> = (0..7)
        .map(|_| round(&Tracer::on()) - round(&Tracer::off()))
        .collect();
    crate::stats::median(&diffs).max(0.0)
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: u64,
    /// Σ span durations, seconds.
    pub total_s: f64,
    /// Σ self time (duration minus the part of it that child spans
    /// cover), seconds.
    pub self_s: f64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to it.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 * 1e-9)
        })
        .collect()
}

/// Totals per span name, sorted by name.
pub fn layer_totals(spans: &[Span]) -> Vec<(&'static str, LayerTotals)> {
    let selfs = self_times(spans);
    let mut by: HashMap<&'static str, LayerTotals> = HashMap::new();
    for s in spans {
        let t = by.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.secs();
        t.self_s += selfs[&s.id];
    }
    let mut v: Vec<_> = by.into_iter().collect();
    v.sort_by_key(|(n, _)| *n);
    v
}

/// Σ durations of the spans named `name`, seconds.
pub fn total_of(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Per-layer totals as a JSON document.
pub fn layers_json(spans: &[Span]) -> String {
    let doc = obj(layer_totals(spans).into_iter().map(|(name, t)| {
        let entry = obj([
            ("count", Value::U64(t.count)),
            ("total_ms", num(t.total_s * 1e3)),
            ("self_ms", num(t.self_s * 1e3)),
        ]);
        (name, entry)
    }));
    serde_json::to_string_pretty(&doc).expect("a JSON tree serializes")
}

/// The spans as a Chrome `trace_event` document (complete `X` events,
/// microsecond timestamps), loadable in Perfetto or `chrome://tracing`.
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans.iter().map(|s| {
        let ids = [
            ("id", Some(s.id)),
            ("parent", s.parent),
            ("point", s.point.map(u64::from)),
        ];
        let args = obj(ids
            .into_iter()
            .filter_map(|(k, v)| Some((k, Value::U64(v?)))));
        obj([
            ("name", Value::Str(s.name.to_string())),
            ("cat", Value::Str("perfbench".into())),
            ("ph", Value::Str("X".into())),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(s.tid)),
            ("ts", num(s.start_ns as f64 / 1e3)),
            ("dur", num((s.end_ns - s.start_ns) as f64 / 1e3)),
            ("args", args),
        ])
    });
    let doc = obj([
        ("displayTimeUnit", Value::Str("ms".into())),
        ("traceEvents", Value::Seq(events.collect())),
    ]);
    serde_json::to_string(&doc).expect("a JSON tree serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            point: None,
            start_ns: start,
            end_ns: end,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Parent 0..100; overlapping children 10..40 and 30..50, and a
        // child that pokes past the parent's end (clipped at 100).
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 120),
        ];
        let st = self_times(&spans);
        assert!((st[&1] - 50e-9).abs() < 1e-15);
        assert!((st[&2] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn off_tracer_times_but_keeps_nothing() {
        let t = Tracer::off();
        let (v, secs) = t.time("x", None, None, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        let on = Tracer::on();
        let open = on.begin("outer", None, Some(3));
        let parent = open.id();
        on.time("inner", parent, Some(3), || ());
        open.end();
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, parent);
    }

    #[test]
    fn trace_files_are_json_with_every_span() {
        let spans = vec![span(1, None, 0, 2000), span(2, Some(1), 500, 1500)];
        let chrome = serde_json::from_str(&chrome_json(&spans)).expect("chrome trace parses");
        let events = chrome
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(|p| p.as_u64()), Some(1));
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
        let layers = serde_json::from_str(&layers_json(&spans)).expect("layers parse");
        let x = layers.get("x").expect("layer x");
        assert_eq!(x.get("count").and_then(|c| c.as_u64()), Some(2));
        let self_ms = x.get("self_ms").and_then(|c| c.as_f64()).expect("self_ms");
        assert!((self_ms - 0.002).abs() < 1e-12, "{self_ms}");
    }
}
