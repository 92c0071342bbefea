//! Span records: one timed interval of simulated activity.

use tve_sim::{Duration, Time};

/// What kind of activity a [`SpanRecord`] measures.
///
/// The kind maps to the Chrome trace-event `cat` field (see
/// `SpanKind::category`), so Perfetto can filter e.g. only TAM
/// transfers or only schedule phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One TAM transfer chunk (bus or serial occupancy).
    Transfer,
    /// A WIR configuration scan (config-ring rotation).
    ConfigScan,
    /// A scan-shift of one pattern through a core's test wrapper.
    Scan,
    /// A whole pattern burst from a pattern source (BIST/ATE/compressed).
    Burst,
    /// A complete test (e.g. a memory march run end-to-end).
    Test,
    /// One step of a virtual-ATE test program.
    Step,
    /// One phase of a test schedule.
    Phase,
    /// One farmed scenario job.
    Job,
}

impl SpanKind {
    /// The Chrome trace-event category string for this kind.
    pub(crate) fn category(&self) -> &'static str {
        match self {
            SpanKind::Transfer => "transfer",
            SpanKind::ConfigScan => "config-scan",
            SpanKind::Scan => "scan",
            SpanKind::Burst => "burst",
            SpanKind::Test => "test",
            SpanKind::Step => "step",
            SpanKind::Phase => "phase",
            SpanKind::Job => "job",
        }
    }
}

/// One recorded interval of simulated activity.
///
/// Times are simulated [`Time`] (cycle-granular); a span never carries
/// host wall-clock data, which keeps exported traces deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// What the span measures.
    pub(crate) kind: SpanKind,
    /// The lane the span belongs to — a channel, core or engine name.
    /// Becomes the Chrome trace "thread" so each track gets its own
    /// swimlane in Perfetto.
    pub track: String,
    /// Human-readable label for this particular interval.
    pub(crate) name: String,
    /// Begin time (inclusive).
    pub start: Time,
    /// End time (exclusive); `end >= start`.
    pub(crate) end: Time,
    /// The initiator id that caused the activity, if attributable.
    pub(crate) initiator: Option<u8>,
    /// Payload volume in bits (0 when not meaningful).
    pub(crate) bits: u64,
}

impl SpanRecord {
    /// A span with no initiator attribution and zero payload volume;
    /// chain [`with_initiator`](Self::with_initiator) /
    /// [`with_bits`](Self::with_bits) to fill those in.
    ///
    /// ```
    /// use tve_obs::{SpanKind, SpanRecord};
    /// use tve_sim::Time;
    ///
    /// let s = SpanRecord::new(
    ///     SpanKind::Burst,
    ///     "src/T1",
    ///     "T1 proc BIST",
    ///     Time::from_cycles(0),
    ///     Time::from_cycles(90),
    /// );
    /// assert_eq!(s.duration().as_cycles(), 90);
    /// ```
    pub fn new(
        kind: SpanKind,
        track: impl Into<String>,
        name: impl Into<String>,
        start: Time,
        end: Time,
    ) -> Self {
        SpanRecord {
            kind,
            track: track.into(),
            name: name.into(),
            start,
            end,
            initiator: None,
            bits: 0,
        }
    }

    /// Attributes the span to an initiator id.
    pub fn with_initiator(mut self, initiator: u8) -> Self {
        self.initiator = Some(initiator);
        self
    }

    /// Sets the payload volume in bits.
    pub fn with_bits(mut self, bits: u64) -> Self {
        self.bits = bits;
        self
    }

    /// The span's length in simulated cycles (saturating).
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_fills_fields() {
        let s = SpanRecord::new(
            SpanKind::Transfer,
            "bus",
            "write",
            Time::from_cycles(3),
            Time::from_cycles(8),
        )
        .with_initiator(4)
        .with_bits(64);
        assert_eq!(s.track, "bus");
        assert_eq!(s.initiator, Some(4));
        assert_eq!(s.bits, 64);
        assert_eq!(s.duration().as_cycles(), 5);
    }

    #[test]
    fn zero_length_span_has_zero_duration() {
        let t = Time::from_cycles(7);
        let s = SpanRecord::new(SpanKind::ConfigScan, "ring", "wir", t, t);
        assert_eq!(s.duration().as_cycles(), 0);
    }

    #[test]
    fn categories_are_distinct() {
        let kinds = [
            SpanKind::Transfer,
            SpanKind::ConfigScan,
            SpanKind::Scan,
            SpanKind::Burst,
            SpanKind::Test,
            SpanKind::Step,
            SpanKind::Phase,
            SpanKind::Job,
        ];
        let mut cats: Vec<_> = kinds.iter().map(|k| k.category()).collect();
        cats.sort_unstable();
        cats.dedup();
        assert_eq!(cats.len(), kinds.len());
    }
}
