//! Aggregation: recomputing utilization figures from recorded spans.
//!
//! This deliberately re-implements the windowing and normalization
//! rules of `tve_tlm::UtilizationMonitor` over [`SpanRecord`]s, so a
//! tier-2 test can cross-check the two paths against each other: if
//! either side double-counts or misses a transfer, the figures diverge.

use std::collections::BTreeMap;

use tve_sim::Time;

use crate::span::SpanRecord;

/// Utilization figures recomputed from spans; field-for-field
/// comparable with `UtilizationMonitor` output.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationSummary {
    /// The peak-detection window length in cycles.
    pub(crate) window: u64,
    /// Sum of span durations in cycles.
    pub total_busy: u64,
    /// Number of spans aggregated.
    pub transfers: u64,
    /// End of the observation span in cycles (max of the supplied
    /// `observed_end` and every span end).
    pub observed_end: u64,
    /// Busy cycles attributed per initiator id (sorted by id; spans
    /// without an initiator are attributed to id 255).
    pub per_initiator: Vec<(u8, u64)>,
    /// Per-window busy cycles `(window index, busy cycles)`, sorted;
    /// windows with no activity are absent.
    pub window_busy: Vec<(u64, u64)>,
}

impl UtilizationSummary {
    /// The busiest window's busy fraction in `[0, 1]`, normalizing the
    /// final partial window by the observed span — the exact rule of
    /// `UtilizationMonitor::peak_utilization`.
    pub fn peak(&self) -> f64 {
        let last = self.observed_end;
        self.window_busy
            .iter()
            .map(|&(w, busy)| {
                let start = w * self.window;
                let len = last.saturating_sub(start).min(self.window).max(1);
                busy as f64 / len as f64
            })
            .fold(0.0, f64::max)
    }

    /// Busy fraction over `[0, observed_end)`; zero for an empty span —
    /// the exact rule of `UtilizationMonitor::average_utilization`.
    pub fn average(&self) -> f64 {
        if self.observed_end == 0 {
            return 0.0;
        }
        self.total_busy as f64 / self.observed_end as f64
    }
}

/// Recomputes windowed utilization from spans, with the same interval
/// splitting as `UtilizationMonitor::record_busy`.
///
/// The caller picks which spans to feed (typically the
/// [`SpanKind::Transfer`](crate::SpanKind::Transfer) spans of one
/// channel track) and supplies the peak-detection `window` and the
/// simulated `observed_end` of the run.
///
/// ```
/// use tve_obs::{utilization_from_spans, SpanKind, SpanRecord};
/// use tve_sim::Time;
///
/// let spans = [SpanRecord::new(
///     SpanKind::Transfer,
///     "bus",
///     "write",
///     Time::from_cycles(0),
///     Time::from_cycles(50),
/// )
/// .with_initiator(0)];
/// let u = utilization_from_spans(spans.iter(), 100, Time::from_cycles(100));
/// assert_eq!(u.total_busy, 50);
/// assert_eq!(u.peak(), 0.5);
/// assert_eq!(u.average(), 0.5);
/// ```
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn utilization_from_spans<'a>(
    spans: impl IntoIterator<Item = &'a SpanRecord>,
    window: u64,
    observed_end: Time,
) -> UtilizationSummary {
    assert!(window > 0, "window must be non-empty");
    let mut windows: BTreeMap<u64, u64> = BTreeMap::new();
    let mut per_initiator: BTreeMap<u8, u64> = BTreeMap::new();
    let mut total_busy = 0u64;
    let mut transfers = 0u64;
    let mut last_end = observed_end.cycles();

    for span in spans {
        let mut t = span.start.cycles();
        let end = t + span.duration().as_cycles();
        transfers += 1;
        total_busy += span.duration().as_cycles();
        *per_initiator
            .entry(span.initiator.unwrap_or(u8::MAX))
            .or_insert(0) += span.duration().as_cycles();
        while t < end {
            let w = t / window;
            let wend = (w + 1) * window;
            let chunk = end.min(wend) - t;
            *windows.entry(w).or_insert(0) += chunk;
            t += chunk;
        }
        last_end = last_end.max(end);
    }

    UtilizationSummary {
        window,
        total_busy,
        transfers,
        observed_end: last_end,
        per_initiator: per_initiator.into_iter().collect(),
        window_busy: windows.into_iter().collect(),
    }
}

/// The earliest end time among spans of `kind` whose name is in `names`,
/// or `None` if no span matches.
///
/// This is the time-to-detection primitive of a fault-injection campaign:
/// feed it the `Test` spans of a traced schedule run and the names of the
/// tests whose outcome deviated from the golden run, and it returns the
/// simulated time at which the first deviating test *completed* — the
/// earliest moment the tester could have flagged the defect.
///
/// ```
/// use tve_obs::{earliest_span_end, SpanKind, SpanRecord};
/// use tve_sim::Time;
///
/// let spans = [
///     SpanRecord::new(SpanKind::Test, "tests", "t1", Time::ZERO, Time::from_cycles(80)),
///     SpanRecord::new(SpanKind::Test, "tests", "t2", Time::ZERO, Time::from_cycles(50)),
/// ];
/// let t = earliest_span_end(spans.iter(), SpanKind::Test, &["t2"]);
/// assert_eq!(t, Some(Time::from_cycles(50)));
/// ```
pub fn earliest_span_end<'a>(
    spans: impl IntoIterator<Item = &'a SpanRecord>,
    kind: crate::SpanKind,
    names: &[&str],
) -> Option<Time> {
    spans
        .into_iter()
        .filter(|s| s.kind == kind && names.iter().any(|n| s.name == *n))
        .map(|s| s.end)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    fn span(start: u64, end: u64, initiator: u8) -> SpanRecord {
        SpanRecord::new(
            SpanKind::Transfer,
            "bus",
            "xfer",
            Time::from_cycles(start),
            Time::from_cycles(end),
        )
        .with_initiator(initiator)
    }

    #[test]
    fn empty_input_reports_zero() {
        let u = utilization_from_spans([].iter(), 100, Time::ZERO);
        assert_eq!(u.peak(), 0.0);
        assert_eq!(u.average(), 0.0);
        assert_eq!(u.transfers, 0);
    }

    #[test]
    fn splits_across_windows_like_the_monitor() {
        // [5, 25) with window 10: windows 0 gets 5, 1 gets 10, 2 gets 5.
        let spans = [span(5, 25, 0)];
        let u = utilization_from_spans(spans.iter(), 10, Time::from_cycles(25));
        assert_eq!(u.window_busy, vec![(0, 5), (1, 10), (2, 5)]);
        assert_eq!(u.peak(), 1.0);
        assert_eq!(u.total_busy, 20);
    }

    #[test]
    fn final_partial_window_normalized_by_observed_span() {
        let spans = [span(900, 960, 0)];
        let at_end = utilization_from_spans(spans.iter(), 100, Time::from_cycles(960));
        assert_eq!(at_end.peak(), 1.0);
        let idle_tail = utilization_from_spans(spans.iter(), 100, Time::from_cycles(1000));
        assert!((idle_tail.peak() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn earliest_span_end_filters_kind_and_name() {
        let mk = |kind, name: &str, end| {
            SpanRecord::new(kind, "tests", name, Time::ZERO, Time::from_cycles(end))
        };
        let spans = [
            mk(SpanKind::Test, "a", 100),
            mk(SpanKind::Test, "b", 40),
            mk(SpanKind::Phase, "b", 10), // wrong kind, ignored
            mk(SpanKind::Test, "c", 20),  // name not requested
        ];
        assert_eq!(
            earliest_span_end(spans.iter(), SpanKind::Test, &["a", "b"]),
            Some(Time::from_cycles(40))
        );
        assert_eq!(
            earliest_span_end(spans.iter(), SpanKind::Test, &["z"]),
            None
        );
        assert_eq!(earliest_span_end([].iter(), SpanKind::Test, &["a"]), None);
    }

    #[test]
    fn per_initiator_sums_match_total() {
        let spans = [span(0, 30, 1), span(30, 50, 2), span(50, 60, 1)];
        let u = utilization_from_spans(spans.iter(), 100, Time::from_cycles(60));
        assert_eq!(u.per_initiator, vec![(1, 40), (2, 20)]);
        let sum: u64 = u.per_initiator.iter().map(|&(_, b)| b).sum();
        assert_eq!(sum, u.total_busy);
    }
}
