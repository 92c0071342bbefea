//! TAM utilization accounting — the instrument behind Table I's
//! "peak TAM utilization" and "avg TAM utilization" columns.

use std::collections::BTreeMap;
use std::fmt;

use tve_sim::{Duration, Time};

use crate::payload::InitiatorId;

/// Windowed busy-cycle accounting for a shared channel.
///
/// The channel reports each granted occupancy interval via
/// [`UtilizationMonitor::record_busy`]; the monitor splits intervals across
/// fixed-size windows. *Peak* utilization is the busiest window's busy
/// fraction, *average* utilization is total busy cycles over an observation
/// span — exactly the two figures the paper reports per schedule.
///
/// ```
/// use tve_sim::{Time, Duration};
/// use tve_tlm::{UtilizationMonitor, InitiatorId};
///
/// let mut m = UtilizationMonitor::new(Duration::cycles(100));
/// m.record_busy(Time::from_cycles(0), Duration::cycles(50), InitiatorId(0));
/// m.record_busy(Time::from_cycles(100), Duration::cycles(100), InitiatorId(1));
/// assert_eq!(m.peak_utilization(), 1.0);             // window [100,200) fully busy
/// assert_eq!(m.average_utilization(Time::from_cycles(300)), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationMonitor {
    window: u64,
    windows: BTreeMap<u64, u64>,
    /// Write-behind cache for the window currently being filled: long
    /// activity bursts land in one window, so buffering its count in a
    /// plain pair keeps the per-transfer cost off the `BTreeMap`.
    hot_w: u64,
    hot_busy: u64,
    /// Linear small-map: a channel sees a handful of initiators, and a
    /// scan of a short `Vec` beats a tree lookup per transfer.
    per_initiator: Vec<(InitiatorId, u64)>,
    total_busy: u64,
    transfers: u64,
    last_end: Time,
}

impl fmt::Display for UtilizationMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "util: {} transfers, {} busy cycles, peak {:.1}%",
            self.transfers,
            self.total_busy,
            self.peak_utilization() * 100.0
        )
    }
}

impl UtilizationMonitor {
    /// Creates a monitor with the given peak-detection window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero cycles.
    pub fn new(window: Duration) -> Self {
        assert!(window.as_cycles() > 0, "window must be non-empty");
        UtilizationMonitor {
            window: window.as_cycles(),
            windows: BTreeMap::new(),
            hot_w: 0,
            hot_busy: 0,
            per_initiator: Vec::new(),
            total_busy: 0,
            transfers: 0,
            last_end: Time::ZERO,
        }
    }

    /// Folds the hot-window buffer into the window map.
    fn flush_hot(&mut self) {
        if self.hot_busy > 0 {
            *self.windows.entry(self.hot_w).or_insert(0) += self.hot_busy;
            self.hot_busy = 0;
        }
    }

    /// All windows with activity, sorted by index, hot buffer folded in.
    fn window_entries(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.windows.iter().map(|(&w, &b)| (w, b)).collect();
        if self.hot_busy > 0 {
            match v.binary_search_by_key(&self.hot_w, |e| e.0) {
                Ok(i) => v[i].1 += self.hot_busy,
                Err(i) => v.insert(i, (self.hot_w, self.hot_busy)),
            }
        }
        v
    }

    /// Records that the channel was busy for `dur` starting at `start` on
    /// behalf of `initiator`.
    pub fn record_busy(&mut self, start: Time, dur: Duration, initiator: InitiatorId) {
        let t = start.cycles();
        let d = dur.as_cycles();
        let end = t + d;
        self.count_transfers(1, d, initiator);
        // Same-window fast path: back-to-back transfers land in the hot
        // window far more often than not, and skipping the split loop
        // avoids a hardware divide per transfer.
        let hot_start = self.hot_w * self.window;
        if t >= hot_start && end <= hot_start + self.window {
            self.hot_busy += d;
        } else {
            self.record_split(t, end);
        }
        self.last_end = self.last_end.max(Time::from_cycles(end));
    }

    /// Records `n` busy intervals of `dur` on behalf of `initiator`, the
    /// first starting at `start` and each `period` after the previous:
    /// in closed form, exactly what `n` [`UtilizationMonitor::record_busy`]
    /// calls leave behind, with the window split done once per window
    /// instead of once per interval.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the intervals overlap (`period < dur`).
    pub(crate) fn record_busy_run(
        &mut self,
        start: Time,
        dur: Duration,
        period: Duration,
        n: u64,
        initiator: InitiatorId,
    ) {
        if n == 0 {
            return;
        }
        let (s, d, p) = (start.cycles(), dur.as_cycles(), period.as_cycles());
        debug_assert!(p >= d, "busy intervals of a run overlap");
        self.count_transfers(n, n * d, initiator);
        let mut i = 0;
        while i < n && d > 0 {
            let t = s + i * p;
            let w = t / self.window;
            let wend = (w + 1) * self.window;
            // Intervals `i..=last` end inside window `w`; one that
            // straddles its end is split.
            match (wend - s).checked_sub(d).map(|room| room / p) {
                Some(last) if last >= i => {
                    let count = last.min(n - 1) - i + 1;
                    self.add_busy(w, count * d);
                    i += count;
                }
                _ => {
                    self.record_split(t, t + d);
                    i += 1;
                }
            }
        }
        let end = Time::from_cycles(s + (n - 1) * p + d);
        self.last_end = self.last_end.max(end);
    }

    /// Counts `n` transfers by `initiator`, busy for `busy` cycles in all.
    fn count_transfers(&mut self, n: u64, busy: u64, initiator: InitiatorId) {
        self.transfers += n;
        self.total_busy += busy;
        match self.per_initiator.iter_mut().find(|(i, _)| *i == initiator) {
            Some((_, total)) => *total += busy,
            None => self.per_initiator.push((initiator, busy)),
        }
    }

    /// Adds `busy` cycles to window `w` through the hot buffer.
    fn add_busy(&mut self, w: u64, busy: u64) {
        if w != self.hot_w {
            self.flush_hot();
            self.hot_w = w;
        }
        self.hot_busy += busy;
    }

    /// Splits `[t, end)` across peak-detection windows (the slow path of
    /// [`UtilizationMonitor::record_busy`]).
    fn record_split(&mut self, mut t: u64, end: u64) {
        while t < end {
            let w = t / self.window;
            let wend = (w + 1) * self.window;
            let chunk = end.min(wend) - t;
            self.add_busy(w, chunk);
            t += chunk;
        }
    }

    /// Total busy cycles recorded.
    pub fn total_busy_cycles(&self) -> u64 {
        self.total_busy
    }

    /// Number of recorded transfers.
    pub fn transfer_count(&self) -> u64 {
        self.transfers
    }

    /// End of the latest recorded interval (or explicit observation mark).
    pub fn last_activity_end(&self) -> Time {
        self.last_end
    }

    /// Extends the observation span to `t` without recording activity:
    /// the channel is known to have been *idle* up to `t`, which matters
    /// for normalizing the final (partial) peak-detection window.
    pub fn observe_until(&mut self, t: Time) {
        self.last_end = self.last_end.max(t);
    }

    /// Busy cycles attributed to `initiator`.
    pub fn busy_cycles_of(&self, initiator: InitiatorId) -> u64 {
        self.per_initiator
            .iter()
            .find(|(i, _)| *i == initiator)
            .map_or(0, |(_, busy)| *busy)
    }

    /// All per-initiator busy totals (sorted by initiator id).
    pub fn per_initiator(&self) -> impl Iterator<Item = (InitiatorId, u64)> + '_ {
        let mut sorted = self.per_initiator.clone();
        sorted.sort_unstable_by_key(|&(i, _)| i);
        sorted.into_iter()
    }

    /// The busiest window's busy fraction in `[0, 1]`; zero when nothing was
    /// recorded. The final (possibly partial) window is normalized by the
    /// span actually observed, so short runs are not underestimated.
    pub fn peak_utilization(&self) -> f64 {
        let last = self.last_end.cycles();
        self.window_entries()
            .into_iter()
            .map(|(w, busy)| {
                let start = w * self.window;
                let len = last.saturating_sub(start).min(self.window).max(1);
                busy as f64 / len as f64
            })
            .fold(0.0, f64::max)
    }

    /// Per-window busy cycles `(window index, busy cycles)`, sorted by
    /// index; windows with no activity are absent.
    pub fn window_busy(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.window_entries().into_iter()
    }

    /// Busy fraction over `[0, span_end)`; zero for an empty span.
    pub fn average_utilization(&self, span_end: Time) -> f64 {
        if span_end == Time::ZERO {
            return 0.0;
        }
        self.total_busy as f64 / span_end.cycles() as f64
    }

    /// Exports the windowed busy profile as a [`ScalarTrace`] (one sample
    /// per active window, value = busy fraction in per-mille), for
    /// waveform-style inspection via [`tve_sim::write_vcd`].
    ///
    /// [`ScalarTrace`]: tve_sim::ScalarTrace
    pub fn to_trace(&self, name: impl Into<String>) -> tve_sim::ScalarTrace {
        let mut trace = tve_sim::ScalarTrace::new(name);
        for (w, busy) in self.window_entries() {
            trace.record(
                Time::from_cycles(w * self.window),
                (busy * 1000 / self.window) as i64,
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u64) -> Time {
        Time::from_cycles(c)
    }
    fn d(c: u64) -> Duration {
        Duration::cycles(c)
    }

    #[test]
    fn empty_monitor_reports_zero() {
        let m = UtilizationMonitor::new(d(100));
        assert_eq!(m.peak_utilization(), 0.0);
        assert_eq!(m.average_utilization(t(1000)), 0.0);
        assert_eq!(m.average_utilization(Time::ZERO), 0.0);
        assert_eq!(m.transfer_count(), 0);
    }

    #[test]
    fn interval_splitting_across_windows() {
        let mut m = UtilizationMonitor::new(d(10));
        // [5, 25): windows 0 gets 5, 1 gets 10, 2 gets 5.
        m.record_busy(t(5), d(20), InitiatorId(0));
        assert_eq!(m.total_busy_cycles(), 20);
        assert_eq!(m.peak_utilization(), 1.0); // window 1 fully busy
        assert_eq!(m.last_activity_end(), t(25));
    }

    #[test]
    fn peak_below_one_without_saturation() {
        let mut m = UtilizationMonitor::new(d(100));
        for k in 0..10 {
            m.record_busy(t(k * 100), d(60), InitiatorId(0));
        }
        m.observe_until(t(1000));
        assert!((m.peak_utilization() - 0.6).abs() < 1e-12);
        assert!((m.average_utilization(t(1000)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn final_partial_window_is_normalized_by_observed_span() {
        let mut m = UtilizationMonitor::new(d(100));
        // Observation ends right at the burst's end: that stretch was
        // fully busy.
        m.record_busy(t(900), d(60), InitiatorId(0));
        assert_eq!(m.peak_utilization(), 1.0);
        // Once we know the channel idled on to cycle 1000, the window
        // dilutes to 0.6.
        m.observe_until(t(1000));
        assert!((m.peak_utilization() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn per_initiator_attribution() {
        let mut m = UtilizationMonitor::new(d(100));
        m.record_busy(t(0), d(30), InitiatorId(1));
        m.record_busy(t(30), d(20), InitiatorId(2));
        m.record_busy(t(50), d(10), InitiatorId(1));
        assert_eq!(m.busy_cycles_of(InitiatorId(1)), 40);
        assert_eq!(m.busy_cycles_of(InitiatorId(2)), 20);
        assert_eq!(m.busy_cycles_of(InitiatorId(3)), 0);
        let all: Vec<_> = m.per_initiator().collect();
        assert_eq!(all, vec![(InitiatorId(1), 40), (InitiatorId(2), 20)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_window_panics() {
        let _ = UtilizationMonitor::new(Duration::ZERO);
    }

    #[test]
    fn long_interval_spans_many_windows() {
        let mut m = UtilizationMonitor::new(d(10));
        // [3, 1003): 100 full windows plus two partial edges.
        m.record_busy(t(3), d(1000), InitiatorId(0));
        let windows: Vec<_> = m.window_busy().collect();
        assert_eq!(windows.len(), 101);
        assert_eq!(windows[0], (0, 7));
        assert!(windows[1..100].iter().all(|&(_, busy)| busy == 10));
        assert_eq!(windows[100], (100, 3));
        let window_sum: u64 = windows.iter().map(|&(_, busy)| busy).sum();
        assert_eq!(window_sum, m.total_busy_cycles());
        assert_eq!(m.peak_utilization(), 1.0);
    }

    #[test]
    fn zero_length_duration_counts_a_transfer_but_no_busy_cycles() {
        let mut m = UtilizationMonitor::new(d(10));
        m.record_busy(t(5), d(0), InitiatorId(1));
        assert_eq!(m.transfer_count(), 1);
        assert_eq!(m.total_busy_cycles(), 0);
        assert_eq!(m.busy_cycles_of(InitiatorId(1)), 0);
        assert_eq!(m.window_busy().count(), 0, "no window entry for 0 cycles");
        assert_eq!(m.peak_utilization(), 0.0);
        // The zero-length event still marks the observation point.
        assert_eq!(m.last_activity_end(), t(5));
    }

    #[test]
    fn observe_until_before_last_activity_end_is_a_no_op() {
        let mut m = UtilizationMonitor::new(d(100));
        m.record_busy(t(0), d(80), InitiatorId(0));
        let peak_before = m.peak_utilization();
        m.observe_until(t(40)); // earlier than last_end = 80
        assert_eq!(m.last_activity_end(), t(80));
        assert_eq!(m.peak_utilization(), peak_before);
    }

    #[test]
    fn observe_until_after_last_activity_end_extends_and_dilutes() {
        let mut m = UtilizationMonitor::new(d(100));
        m.record_busy(t(0), d(80), InitiatorId(0));
        assert_eq!(m.peak_utilization(), 1.0); // 80 busy of 80 observed
        m.observe_until(t(160));
        assert_eq!(m.last_activity_end(), t(160));
        // Window 0 now normalizes by the full window length.
        assert!((m.peak_utilization() - 0.8).abs() < 1e-12);
        // Idle observation never adds busy cycles or transfers.
        assert_eq!(m.total_busy_cycles(), 80);
        assert_eq!(m.transfer_count(), 1);
    }

    #[test]
    fn a_run_of_intervals_books_what_single_intervals_book() {
        // Windows of 10; runs that fit one window, cross several, start
        // mid-window, straddle edges every few intervals and leave gaps.
        for (start, dur, period, n) in [
            (3, 2, 5, 1),
            (0, 3, 3, 7),
            (4, 3, 7, 40),
            (9, 4, 4, 25),
            (95, 10, 10, 9),
            (17, 1, 13, 30),
        ] {
            let mut single = UtilizationMonitor::new(d(10));
            let mut run = UtilizationMonitor::new(d(10));
            for m in [&mut single, &mut run] {
                m.record_busy(t(0), d(2), InitiatorId(1));
            }
            for k in 0..n {
                single.record_busy(t(start + 2 + k * period), d(dur), InitiatorId(4));
            }
            run.record_busy_run(t(start + 2), d(dur), d(period), n, InitiatorId(4));
            let profile = |m: &UtilizationMonitor| {
                (
                    m.window_busy().collect::<Vec<_>>(),
                    m.per_initiator().collect::<Vec<_>>(),
                    m.total_busy_cycles(),
                    m.transfer_count(),
                    m.last_activity_end(),
                )
            };
            assert_eq!(
                profile(&run),
                profile(&single),
                "{start} {dur} {period} {n}"
            );
        }
    }

    #[test]
    fn per_initiator_busy_sums_to_total() {
        let mut m = UtilizationMonitor::new(d(7));
        for (k, ini) in [(0u64, 0u8), (1, 3), (2, 0), (3, 7), (4, 3)] {
            m.record_busy(t(k * 13), d(k + 1), InitiatorId(ini));
        }
        let sum: u64 = m.per_initiator().map(|(_, busy)| busy).sum();
        assert_eq!(sum, m.total_busy_cycles());
    }
}
