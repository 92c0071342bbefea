//! The span recorder: an enum-sink store models write [`SpanRecord`]s
//! into, plus the plain-data [`TraceLog`] snapshot that leaves the
//! simulation thread.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use tve_sim::Time;

use crate::metrics::{HistogramSummary, MetricsRegistry};
use crate::span::{SpanKind, SpanRecord};

/// How a [`Recorder`] stores spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoragePolicy {
    /// Drop every span. Recording degenerates to one enum-discriminant
    /// check — near-zero cost, verified by the `obs_overhead` bench.
    Off,
    /// Keep every span (a growable `Vec`).
    Unbounded,
    /// Keep at most this many spans in a ring buffer; the oldest spans
    /// are dropped and counted in [`TraceLog::dropped`].
    Ring(usize),
}

/// The enum sink behind a recorder: storage selected once at
/// construction, checked with a single discriminant match per record.
#[derive(Debug)]
enum Sink {
    Off,
    Unbounded(Vec<SpanRecord>),
    Ring {
        buf: VecDeque<SpanRecord>,
        capacity: usize,
        dropped: u64,
    },
}

/// Collects [`SpanRecord`]s and hosts a [`MetricsRegistry`].
///
/// One recorder is shared (`Rc`) by every instrumented model of one
/// simulation; models receive it via an `attach_recorder` call after
/// construction, mirroring the existing `attach_power_meter` idiom.
/// A model that never had a recorder attached pays nothing; a model
/// whose recorder is [`StoragePolicy::Off`] pays one discriminant
/// check (span construction is skipped via [`Recorder::record_with`]).
///
/// ```
/// use tve_obs::{Recorder, SpanKind, SpanRecord, StoragePolicy};
/// use tve_sim::Time;
///
/// let rec = Recorder::new(StoragePolicy::Ring(2));
/// for i in 0..3 {
///     rec.record_with(|| {
///         SpanRecord::new(
///             SpanKind::Transfer,
///             "bus",
///             format!("xfer {i}"),
///             Time::from_cycles(i),
///             Time::from_cycles(i + 1),
///         )
///     });
/// }
/// let log = rec.take_log();
/// assert_eq!(log.spans.len(), 2); // oldest span dropped
/// assert_eq!(log.dropped, 1);
/// assert_eq!(log.spans[0].start, Time::from_cycles(1));
/// ```
#[derive(Debug)]
pub struct Recorder {
    sink: RefCell<Sink>,
    enabled: bool,
    metrics: MetricsRegistry,
    /// Latest simulated time the recorder is known to cover; raised by
    /// span ends and [`Recorder::observe_until`], exported as
    /// [`TraceLog::observed_end`].
    observed_end: Cell<Time>,
}

impl Recorder {
    /// A recorder with the given storage policy.
    pub fn new(policy: StoragePolicy) -> Self {
        let sink = match policy {
            StoragePolicy::Off => Sink::Off,
            StoragePolicy::Unbounded => Sink::Unbounded(Vec::new()),
            StoragePolicy::Ring(capacity) => Sink::Ring {
                buf: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                dropped: 0,
            },
        };
        Recorder {
            sink: RefCell::new(sink),
            enabled: !matches!(policy, StoragePolicy::Off),
            metrics: MetricsRegistry::new(),
            observed_end: Cell::new(Time::ZERO),
        }
    }

    /// A recorder that drops every span ([`StoragePolicy::Off`]).
    pub fn disabled() -> Self {
        Recorder::new(StoragePolicy::Off)
    }

    /// A recorder that keeps every span ([`StoragePolicy::Unbounded`]).
    pub fn unbounded() -> Self {
        Recorder::new(StoragePolicy::Unbounded)
    }

    /// Stores one span (dropping it if storage is off or the ring is
    /// full).
    pub(crate) fn record(&self, span: SpanRecord) {
        if span.end > self.observed_end.get() {
            self.observed_end.set(span.end);
        }
        match &mut *self.sink.borrow_mut() {
            Sink::Off => {}
            Sink::Unbounded(spans) => spans.push(span),
            Sink::Ring {
                buf,
                capacity,
                dropped,
            } => {
                if *capacity == 0 {
                    *dropped += 1;
                } else {
                    if buf.len() == *capacity {
                        buf.pop_front();
                        *dropped += 1;
                    }
                    buf.push_back(span);
                }
            }
        }
    }

    /// Stores the span produced by `make`, constructing it only when
    /// storage is enabled. This is the form instrumentation sites use:
    /// the closure's `String` allocations never run on a disabled
    /// recorder.
    pub fn record_with(&self, make: impl FnOnce() -> SpanRecord) {
        if self.enabled {
            self.record(make());
        }
    }

    /// Number of spans currently held.
    pub fn span_count(&self) -> usize {
        match &*self.sink.borrow() {
            Sink::Off => 0,
            Sink::Unbounded(spans) => spans.len(),
            Sink::Ring { buf, .. } => buf.len(),
        }
    }

    /// The metrics registry shared by every model attached to this
    /// recorder.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Extends the observed span to at least `t` (the trace-level
    /// equivalent of `UtilizationMonitor::observe_until`): aggregation
    /// over the log then averages over the full simulated span, not
    /// just until the last span end.
    pub fn observe_until(&self, t: Time) {
        if t > self.observed_end.get() {
            self.observed_end.set(t);
        }
    }

    /// Drains the recorder into a plain-data [`TraceLog`] (spans in
    /// record order, metric snapshots by registration order). The
    /// recorder is left empty but keeps its policy and metrics handles.
    pub fn take_log(&self) -> TraceLog {
        let end = self.observed_end.get();
        let (spans, dropped) = match &mut *self.sink.borrow_mut() {
            Sink::Off => (Vec::new(), 0),
            Sink::Unbounded(spans) => (std::mem::take(spans), 0),
            Sink::Ring { buf, dropped, .. } => {
                let d = *dropped;
                *dropped = 0;
                (buf.drain(..).collect(), d)
            }
        };
        TraceLog {
            spans,
            dropped,
            observed_end: end,
            counters: self.metrics.counter_values(),
            gauges: self.metrics.gauge_values(),
            histograms: self.metrics.histogram_summaries(end),
        }
    }
}

/// A plain-data snapshot of one recorder: spans plus metric values.
///
/// Unlike [`Recorder`] (which is `Rc`-shared and single-threaded), a
/// `TraceLog` is `Send` — it is what crosses thread boundaries out of
/// farmed simulations, gets merged per batch and feeds the exporters.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// All retained spans, in record order.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped by a full ring buffer.
    pub dropped: u64,
    /// Latest simulated time the log covers (max span end /
    /// `observe_until` mark).
    pub observed_end: Time,
    /// Counter snapshot `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Gauge snapshot `(name, value)`.
    pub(crate) gauges: Vec<(String, i64)>,
    /// Histogram summaries `(name, summary)`.
    pub(crate) histograms: Vec<(String, HistogramSummary)>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Merges `other` into `self` under a job label: span tracks and
    /// gauge/histogram names get a `label/` prefix (each job keeps its
    /// own swimlanes), while counters with equal names are *summed* —
    /// the merged log carries batch-level totals.
    pub fn merge_labeled(&mut self, label: &str, other: TraceLog) {
        for mut span in other.spans {
            span.track = format!("{label}/{}", span.track);
            self.spans.push(span);
        }
        self.dropped += other.dropped;
        if other.observed_end > self.observed_end {
            self.observed_end = other.observed_end;
        }
        for (name, value) in other.counters {
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += value,
                None => self.counters.push((name, value)),
            }
        }
        for (name, value) in other.gauges {
            self.gauges.push((format!("{label}/{name}"), value));
        }
        for (name, summary) in other.histograms {
            self.histograms.push((format!("{label}/{name}"), summary));
        }
    }

    /// The distinct track names in first-appearance order.
    pub fn tracks(&self) -> Vec<&str> {
        let mut tracks: Vec<&str> = Vec::new();
        for span in &self.spans {
            if !tracks.contains(&span.track.as_str()) {
                tracks.push(&span.track);
            }
        }
        tracks
    }

    /// The spans of `kind` on `track`, in record order.
    pub fn spans_on<'a>(
        &'a self,
        track: &'a str,
        kind: SpanKind,
    ) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.kind == kind && s.track == track)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: &str, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord::new(
            SpanKind::Transfer,
            track,
            name,
            Time::from_cycles(start),
            Time::from_cycles(end),
        )
    }

    #[test]
    fn disabled_recorder_keeps_nothing_and_skips_construction() {
        let rec = Recorder::disabled();
        let mut constructed = false;
        rec.record_with(|| {
            constructed = true;
            span("bus", "x", 0, 1)
        });
        assert!(!constructed, "record_with must not build spans when off");
        rec.record(span("bus", "y", 0, 1));
        assert_eq!(rec.span_count(), 0);
        assert_eq!(rec.take_log().spans.len(), 0);
    }

    #[test]
    fn unbounded_keeps_everything_in_order() {
        let rec = Recorder::unbounded();
        for i in 0..5 {
            rec.record(span("bus", &format!("s{i}"), i, i + 1));
        }
        let log = rec.take_log();
        assert_eq!(log.spans.len(), 5);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.spans[4].name, "s4");
        assert_eq!(log.observed_end, Time::from_cycles(5));
        // take_log drains.
        assert_eq!(rec.span_count(), 0);
    }

    #[test]
    fn ring_drops_oldest() {
        let rec = Recorder::new(StoragePolicy::Ring(3));
        for i in 0..7 {
            rec.record(span("bus", &format!("s{i}"), i, i + 1));
        }
        let log = rec.take_log();
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.dropped, 4);
        assert_eq!(log.spans[0].name, "s4");
    }

    #[test]
    fn observe_until_only_extends() {
        let rec = Recorder::unbounded();
        rec.record(span("bus", "s", 0, 10));
        rec.observe_until(Time::from_cycles(5)); // earlier: no-op
        assert_eq!(rec.observed_end.get(), Time::from_cycles(10));
        rec.observe_until(Time::from_cycles(25));
        assert_eq!(rec.observed_end.get(), Time::from_cycles(25));
    }

    #[test]
    fn merge_labeled_prefixes_tracks_and_sums_counters() {
        let rec_a = Recorder::unbounded();
        rec_a.record(span("bus", "a", 0, 4));
        rec_a.metrics().counter("transfers").add(3);
        let rec_b = Recorder::unbounded();
        rec_b.record(span("bus", "b", 0, 9));
        rec_b.metrics().counter("transfers").add(2);
        rec_b.metrics().gauge("wir").set(1);

        let mut merged = TraceLog::new();
        merged.merge_labeled("job0", rec_a.take_log());
        merged.merge_labeled("job1", rec_b.take_log());

        assert_eq!(merged.tracks(), vec!["job0/bus", "job1/bus"]);
        assert_eq!(merged.counters, vec![("transfers".to_string(), 5)]);
        assert_eq!(merged.gauges, vec![("job1/wir".to_string(), 1)]);
        assert_eq!(merged.observed_end, Time::from_cycles(9));
    }

    #[test]
    fn trace_log_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TraceLog>();
    }
}
