//! Host-time spans recorded around the calls the benchmark makes into
//! each layer, kept in memory and written once as Chrome-trace JSON.
//!
//! A span's name is `layer.operation`; its layer is the part before the
//! first dot. A span's self time is its duration minus the part of its
//! interval that its child spans cover (children may run on other
//! threads, as farm items do), so the self times of a sequential tree
//! add up to the root's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// `layer.operation`.
    pub name: &'static str,
    /// Recording thread (dense per-process numbering).
    pub tid: u64,
    /// Request id shared by every span of one served request (0 = none).
    pub req: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// The layer this span is attributed to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A thread-safe in-memory span sink.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that is still
    /// running.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved `id`.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            tid: TID.with(|t| *t),
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Times `f` as span `name` under `parent`; `f` receives the new
    /// span's id for its own children.
    pub fn span<R>(&self, parent: Option<u64>, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, name, 0, start, Instant::now());
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span sink poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_default() += own[&s.id] as f64 / 1e9;
    }
    out
}

/// Durations in seconds of every span called `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect()
}

/// Chrome trace-event JSON (complete `X` events, microsecond times).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            s.name,
            s.layer(),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            tid: 1,
            req: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "bench.pass", 0, 100),
            span(2, Some(1), "soc.build", 10, 30),
            span(3, Some(1), "core.execute", 30, 90),
            // Two parallel farm items under one map span: their union
            // (40..80) is covered once.
            span(4, Some(3), "campaign.cell", 40, 70),
            span(5, Some(3), "campaign.cell", 50, 80),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 20);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 20);
        assert_eq!((own[&4], own[&5]), (30, 30));
        let layers = layer_self_s(&spans);
        assert_eq!(layers["bench"], 20e-9);
        assert_eq!(layers["campaign"], 60e-9);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(1, None, "bench.pass", 10, 20),
            span(2, Some(1), "serve.submit", 5, 15),
        ];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn tracer_nests_and_exports_valid_json() {
        let tracer = Tracer::new();
        tracer.span(None, "bench.pass", |root| {
            tracer.span(Some(root), "soc.build", |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "bench.pass");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        tve_obs::check_json(&chrome_json(&spans)).unwrap();
        assert_eq!(durations_s(&spans, "soc.build").len(), 1);
    }
}
