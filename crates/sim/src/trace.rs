//! Lightweight scalar tracing for waveform-style inspection of model state
//! over simulated time (utilization, queue depths, power estimates).

use std::fmt;

use crate::Time;

/// One recorded sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TracePoint {
    /// When the value was recorded.
    pub(crate) time: Time,
    /// The recorded value.
    pub(crate) value: i64,
}

/// A time-ordered series of scalar samples with simple analysis helpers.
///
/// `ScalarTrace` is deliberately minimal: models record raw samples during
/// simulation; analysis (peaks) happens afterwards.
///
/// ```
/// use tve_sim::{ScalarTrace, Time};
/// let mut tr = ScalarTrace::new("power");
/// tr.record(Time::from_cycles(0), 10);
/// tr.record(Time::from_cycles(5), 30);
/// assert_eq!(tr.max(), Some(30));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScalarTrace {
    name: String,
    points: Vec<TracePoint>,
}

impl fmt::Display for ScalarTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace '{}' ({} points)", self.name, self.points.len())
    }
}

impl ScalarTrace {
    /// Creates an empty trace labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ScalarTrace {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The trace label.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the previously recorded sample:
    /// traces are strictly time-ordered by construction.
    pub fn record(&mut self, time: Time, value: i64) {
        if let Some(last) = self.points.last() {
            assert!(
                time >= last.time,
                "trace '{}' records must be time-ordered ({} after {})",
                self.name,
                time,
                last.time
            );
        }
        self.points.push(TracePoint { time, value });
    }

    /// The recorded samples, in time order.
    pub(crate) fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum recorded value.
    pub fn max(&self) -> Option<i64> {
        self.points.iter().map(|p| p.value).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u64) -> Time {
        Time::from_cycles(c)
    }

    #[test]
    fn record_and_query() {
        let mut tr = ScalarTrace::new("x");
        tr.record(t(0), 1);
        tr.record(t(10), 5);
        tr.record(t(20), 2);
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.max(), Some(5));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_record_panics() {
        let mut tr = ScalarTrace::new("x");
        tr.record(t(10), 1);
        tr.record(t(5), 2);
    }
}
