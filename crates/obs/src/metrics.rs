//! A lightweight metrics registry: counters, gauges and time-weighted
//! histograms that simulation models can bump without formatting or
//! allocation on the hot path.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tve_sim::Time;

/// A monotonically increasing `u64` counter handle.
///
/// Handles are cheap `Rc<Cell<_>>` clones; a model fetches its handle
/// once at attach time and bumps it per event.
///
/// ```
/// let rec = tve_obs::Recorder::disabled();
/// let reg = rec.metrics();
/// let transfers = reg.counter("bus.transfers");
/// transfers.inc();
/// transfers.add(2);
/// assert_eq!(reg.counter("bus.transfers").get(), 3); // same slot by name
/// ```
#[derive(Debug, Clone)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds `n` to the counter (saturating).
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().saturating_add(n));
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A signed gauge handle: a value that can move both ways (queue depth,
/// current WIR value, outstanding posted writes).
#[derive(Debug, Clone)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    /// Sets the gauge to an absolute value.
    pub fn set(&self, value: i64) {
        self.0.set(value);
    }

    /// The current value.
    pub(crate) fn get(&self) -> i64 {
        self.0.get()
    }
}

/// Internal state of a time-weighted histogram.
#[derive(Debug, Clone, Default)]
struct HistogramState {
    /// First observation time.
    start: Option<Time>,
    /// Last observation (time, value) — the value holds until the next
    /// observation or the summary end.
    last: Option<(Time, f64)>,
    /// Accumulated `value * dt` for closed intervals.
    weighted_sum: f64,
    samples: u64,
    min: f64,
    max: f64,
}

/// A time-weighted histogram handle: each observation holds its value
/// until the next one, and the summary's mean weights values by how
/// long they held (in simulated cycles) — the right statistic for
/// queue depths and utilization-like signals sampled at irregular
/// simulated times.
#[derive(Debug, Clone)]
pub struct Histogram(Rc<RefCell<HistogramState>>);

impl Histogram {
    fn new() -> Self {
        Histogram(Rc::new(RefCell::new(HistogramState::default())))
    }

    /// Records `value` holding from simulated time `at` onward.
    /// Observations must be fed in non-decreasing time order; an
    /// out-of-order observation is clamped to the previous time.
    pub fn observe(&self, at: Time, value: f64) {
        let mut s = self.0.borrow_mut();
        let at = match s.last {
            Some((prev, _)) if at < prev => prev,
            _ => at,
        };
        if let Some((prev, held)) = s.last {
            s.weighted_sum += held * at.saturating_since(prev).as_cycles() as f64;
        }
        if s.samples == 0 {
            s.start = Some(at);
            s.min = value;
            s.max = value;
        } else {
            s.min = s.min.min(value);
            s.max = s.max.max(value);
        }
        s.last = Some((at, value));
        s.samples += 1;
    }

    /// Summarizes the histogram over `[first observation, end]`,
    /// extending the last observed value to `end`. With no observations
    /// the summary is all zeros.
    pub(crate) fn summary(&self, end: Time) -> HistogramSummary {
        let s = self.0.borrow();
        let (Some(start), Some((last_t, last_v))) = (s.start, s.last) else {
            return HistogramSummary::default();
        };
        let tail = last_v * end.saturating_since(last_t).as_cycles() as f64;
        let span = end.saturating_since(start).as_cycles().max(1) as f64;
        HistogramSummary {
            samples: s.samples,
            min: s.min,
            max: s.max,
            mean: (s.weighted_sum + tail) / span,
        }
    }
}

/// The exported summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct HistogramSummary {
    /// Number of observations.
    pub(crate) samples: u64,
    /// Smallest observed value.
    pub(crate) min: f64,
    /// Largest observed value.
    pub(crate) max: f64,
    /// Time-weighted mean over the observed span.
    pub(crate) mean: f64,
}

/// A registry of named metrics. Lookups by name deduplicate: asking
/// twice for the same name returns handles to the same slot.
///
/// Single-threaded by design (like the simulation kernel); farmed runs
/// each own a registry and merge the resulting [`TraceLog`]s
/// afterwards.
///
/// [`TraceLog`]: crate::TraceLog
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RefCell<Vec<(String, Counter)>>,
    gauges: RefCell<Vec<(String, Gauge)>>,
    histograms: RefCell<Vec<(String, Histogram)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.counters.borrow_mut();
        if let Some((_, c)) = slots.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter(Rc::new(Cell::new(0)));
        slots.push((name.to_string(), c.clone()));
        c
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.gauges.borrow_mut();
        if let Some((_, g)) = slots.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge(Rc::new(Cell::new(0)));
        slots.push((name.to_string(), g.clone()));
        g
    }

    /// The time-weighted histogram named `name`, created empty on first
    /// use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut slots = self.histograms.borrow_mut();
        if let Some((_, h)) = slots.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::new();
        slots.push((name.to_string(), h.clone()));
        h
    }

    /// Snapshot of all counters as `(name, value)` in registration order.
    pub(crate) fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .borrow()
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect()
    }

    /// Snapshot of all gauges as `(name, value)` in registration order.
    pub(crate) fn gauge_values(&self) -> Vec<(String, i64)> {
        self.gauges
            .borrow()
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect()
    }

    /// Summaries of all histograms over `[start, end]` in registration
    /// order.
    pub(crate) fn histogram_summaries(&self, end: Time) -> Vec<(String, HistogramSummary)> {
        self.histograms
            .borrow()
            .iter()
            .map(|(n, h)| (n.clone(), h.summary(end)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_dedup_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter_values(), vec![("x".to_string(), 5)]);
    }

    #[test]
    fn gauges_hold_the_last_value() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(-2);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(reg.gauge_values(), vec![("depth".to_string(), 7)]);
    }

    #[test]
    fn histogram_weights_by_hold_time() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q");
        h.observe(Time::from_cycles(0), 1.0); // holds 1 for 30 cycles
        h.observe(Time::from_cycles(30), 5.0); // holds 5 for 10 cycles
        let s = h.summary(Time::from_cycles(40));
        assert_eq!(s.samples, 2);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 2.0).abs() < 1e-12); // (1*30 + 5*10) / 40
    }

    #[test]
    fn empty_histogram_summarizes_to_zero() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q");
        assert_eq!(
            h.summary(Time::from_cycles(100)),
            HistogramSummary::default()
        );
    }

    #[test]
    fn out_of_order_observation_is_clamped() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q");
        h.observe(Time::from_cycles(10), 2.0);
        h.observe(Time::from_cycles(5), 4.0); // clamped to t=10
        let s = h.summary(Time::from_cycles(20));
        assert!((s.mean - 4.0).abs() < 1e-12);
    }
}
