//! Power metering over simulated time.
//!
//! The paper motivates simulation precisely because schedules are planned
//! with coarse data: "in order to gain accurate information regarding
//! *power* and TAM utilization, the final schedule should be evaluated
//! using simulation". [`PowerMeter`] is that instrument: components report
//! load intervals with a magnitude; the meter yields windowed peak power,
//! average power and energy, per contributing source.

use std::collections::BTreeMap;
use std::fmt;

use tve_sim::{Duration, Time};

/// A windowed power/energy recorder.
///
/// Components call [`PowerMeter::record`] with a time interval and a power
/// magnitude (arbitrary but consistent units, milliwatts by convention).
/// Peak power is the busiest window's average; energy is power × time.
///
/// ```
/// use tve_sim::{Time, Duration};
/// use tve_tlm::PowerMeter;
///
/// let mut m = PowerMeter::new(Duration::cycles(100));
/// m.record(Time::from_cycles(0), Duration::cycles(100), 50.0, "core-a");
/// m.record(Time::from_cycles(0), Duration::cycles(50), 100.0, "core-b");
/// assert_eq!(m.peak_power(), 100.0); // first half: 50 + 100... averaged per window
/// ```
#[derive(Debug, Clone)]
pub struct PowerMeter {
    window: u64,
    /// Energy per window index.
    windows: BTreeMap<u64, f64>,
    per_source: BTreeMap<String, f64>,
    total_energy: f64,
    last_end: Time,
}

impl fmt::Display for PowerMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "power: peak {:.1}, energy {:.0} (x cycles), {} sources",
            self.peak_power(),
            self.total_energy,
            self.per_source.len()
        )
    }
}

impl PowerMeter {
    /// Creates a meter with the given peak-detection window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Duration) -> Self {
        assert!(window.as_cycles() > 0, "window must be non-empty");
        PowerMeter {
            window: window.as_cycles(),
            windows: BTreeMap::new(),
            per_source: BTreeMap::new(),
            total_energy: 0.0,
            last_end: Time::ZERO,
        }
    }

    /// Records `power` drawn over `[start, start + dur)` by `source`.
    pub fn record(&mut self, start: Time, dur: Duration, power: f64, source: &str) {
        if dur == Duration::ZERO || power == 0.0 {
            return;
        }
        let mut t = start.cycles();
        let end = t + dur.as_cycles();
        let energy = power * dur.as_cycles() as f64;
        self.total_energy += energy;
        *self.per_source.entry(source.to_string()).or_insert(0.0) += energy;
        while t < end {
            let w = t / self.window;
            let wend = (w + 1) * self.window;
            let chunk = end.min(wend) - t;
            *self.windows.entry(w).or_insert(0.0) += power * chunk as f64;
            t += chunk;
        }
        self.last_end = self.last_end.max(Time::from_cycles(end));
    }

    /// Extends the observation span without recording load (idle power is
    /// zero); matters for normalizing the final window.
    pub fn observe_until(&mut self, t: Time) {
        self.last_end = self.last_end.max(t);
    }

    /// Total recorded energy (power × cycles).
    pub fn total_energy(&self) -> f64 {
        self.total_energy
    }

    /// End of the observation span.
    pub fn last_activity_end(&self) -> Time {
        self.last_end
    }

    /// All per-source energies, alphabetically.
    pub fn per_source(&self) -> impl Iterator<Item = (&str, f64)> {
        self.per_source.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The busiest window's average power; the final (partial) window is
    /// normalized by the observed span.
    pub fn peak_power(&self) -> f64 {
        let last = self.last_end.cycles();
        self.windows
            .iter()
            .map(|(&w, &e)| {
                let start = w * self.window;
                let len = last.saturating_sub(start).min(self.window).max(1);
                e / len as f64
            })
            .fold(0.0, f64::max)
    }

    /// Average power over `[0, span_end)`.
    pub fn average_power(&self, span_end: Time) -> f64 {
        if span_end == Time::ZERO {
            return 0.0;
        }
        self.total_energy / span_end.cycles() as f64
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
    fn energy_accumulates_per_source() {
        let mut m = PowerMeter::new(d(100));
        m.record(t(0), d(10), 5.0, "a");
        m.record(t(10), d(10), 3.0, "b");
        m.record(t(20), d(10), 5.0, "a");
        assert_eq!(m.total_energy(), 130.0);
        assert_eq!(
            m.per_source().collect::<Vec<_>>(),
            vec![("a", 100.0), ("b", 30.0)]
        );
    }

    #[test]
    fn overlapping_loads_add_in_the_window() {
        let mut m = PowerMeter::new(d(100));
        m.record(t(0), d(100), 50.0, "a");
        m.record(t(0), d(100), 70.0, "b");
        m.observe_until(t(100));
        assert_eq!(m.peak_power(), 120.0);
        assert_eq!(m.average_power(t(100)), 120.0);
    }

    #[test]
    fn peak_finds_the_hot_window() {
        let mut m = PowerMeter::new(d(100));
        m.record(t(0), d(100), 10.0, "idle-ish");
        m.record(t(100), d(100), 90.0, "burst");
        m.record(t(200), d(100), 10.0, "idle-ish");
        assert_eq!(m.peak_power(), 90.0);
        assert!((m.average_power(t(300)) - 36.666).abs() < 0.01);
    }

    #[test]
    fn partial_final_window_is_normalized() {
        let mut m = PowerMeter::new(d(100));
        m.record(t(0), d(50), 40.0, "a");
        // Observation ends at 50: that stretch averaged 40.
        assert_eq!(m.peak_power(), 40.0);
        m.observe_until(t(100));
        assert_eq!(m.peak_power(), 20.0);
    }

    #[test]
    fn zero_duration_records_no_energy() {
        let mut m = PowerMeter::new(d(10));
        m.record(t(0), Duration::ZERO, 99.0, "a");
        assert_eq!(m.total_energy(), 0.0);
    }
}
