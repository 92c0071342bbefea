//! Chrome trace-event JSON export.
//!
//! The emitted file follows the Trace Event Format's JSON-object form
//! (`{"traceEvents": [...]}`) with `"X"` (complete) events and `"M"`
//! (metadata) records, which both Perfetto and `chrome://tracing`
//! open directly. The whole SoC is one process (pid 0, named "SoC");
//! every span track becomes one named thread, so channels, cores and
//! engines each get a swimlane.
//!
//! Timestamps are simulated cycles written as microseconds (one cycle
//! = 1 µs in the viewer) — deterministic, never wall clock.

use std::io::{self, Write};

use crate::json::json_string;
use crate::recorder::TraceLog;

/// Writes `log` as Chrome trace-event JSON.
///
/// Track-to-thread-id assignment sorts track names, so the same log
/// always produces byte-identical output.
///
/// ```
/// use tve_obs::{check_json, write_chrome_trace, Recorder, SpanKind, SpanRecord};
/// use tve_sim::Time;
///
/// let rec = Recorder::unbounded();
/// rec.record_with(|| {
///     SpanRecord::new(
///         SpanKind::Transfer,
///         "system-bus",
///         "write",
///         Time::from_cycles(0),
///         Time::from_cycles(8),
///     )
/// });
/// let mut out = Vec::new();
/// write_chrome_trace(&rec.take_log(), &mut out).unwrap();
/// let text = String::from_utf8(out).unwrap();
/// check_json(&text).unwrap();
/// assert!(text.contains("\"system-bus\""));
/// ```
pub fn write_chrome_trace<W: Write>(log: &TraceLog, out: &mut W) -> io::Result<()> {
    let mut tracks = log.tracks();
    tracks.sort_unstable();

    writeln!(out, "{{")?;
    writeln!(out, "  \"displayTimeUnit\": \"ms\",")?;
    writeln!(
        out,
        "  \"otherData\": {{\"unit\": \"cycles\", \"observedEnd\": {}, \"droppedSpans\": {}}},",
        log.observed_end.cycles(),
        log.dropped
    )?;
    writeln!(out, "  \"traceEvents\": [")?;

    let mut first = true;
    let mut emit = |out: &mut W, line: String| -> io::Result<()> {
        if first {
            first = false;
            write!(out, "    {line}")
        } else {
            write!(out, ",\n    {line}")
        }
    };

    emit(
        out,
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
         \"args\": {\"name\": \"SoC\"}}"
            .to_string(),
    )?;
    for (i, track) in tracks.iter().enumerate() {
        emit(
            out,
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {}, \
                 \"args\": {{\"name\": {}}}}}",
                i + 1,
                json_string(track)
            ),
        )?;
    }

    for span in &log.spans {
        let tid = tracks
            .binary_search(&span.track.as_str())
            .map(|i| i + 1)
            .unwrap_or(0);
        let mut args = String::new();
        args.push_str(&format!("\"bits\": {}", span.bits));
        if let Some(initiator) = span.initiator {
            args.push_str(&format!(", \"initiator\": {initiator}"));
        }
        emit(
            out,
            format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \
                 \"ts\": {}, \"dur\": {}, \"args\": {{{}}}}}",
                json_string(&span.name),
                json_string(span.kind.category()),
                tid,
                span.start.cycles(),
                span.duration().as_cycles(),
                args
            ),
        )?;
    }

    for (name, value) in &log.counters {
        emit(
            out,
            format!(
                "{{\"name\": {}, \"cat\": \"counter\", \"ph\": \"C\", \"pid\": 0, \
                 \"ts\": {}, \"args\": {{\"value\": {}}}}}",
                json_string(name),
                log.observed_end.cycles(),
                value
            ),
        )?;
    }

    writeln!(out)?;
    writeln!(out, "  ]")?;
    writeln!(out, "}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::check_json;
    use crate::recorder::Recorder;
    use crate::span::{SpanKind, SpanRecord};
    use tve_sim::Time;

    fn sample_log() -> TraceLog {
        let rec = Recorder::unbounded();
        rec.record(
            SpanRecord::new(
                SpanKind::Transfer,
                "system-bus/TAM",
                "write \"x\"\n",
                Time::from_cycles(0),
                Time::from_cycles(8),
            )
            .with_initiator(1)
            .with_bits(64),
        );
        rec.record(SpanRecord::new(
            SpanKind::Phase,
            "schedule",
            "phase 0",
            Time::from_cycles(0),
            Time::from_cycles(100),
        ));
        rec.metrics().counter("bus.transfers").inc();
        rec.take_log()
    }

    #[test]
    fn output_is_well_formed_json() {
        let mut out = Vec::new();
        write_chrome_trace(&sample_log(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        check_json(&text).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{text}"));
        // Escaping really happened: the raw quote/newline never appear
        // unescaped inside the name.
        assert!(text.contains("write \\\"x\\\"\\n"));
    }

    #[test]
    fn tracks_become_named_threads() {
        let mut out = Vec::new();
        write_chrome_trace(&sample_log(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"process_name\""));
        assert!(text.contains("\"name\": \"SoC\""));
        assert!(text.contains("\"name\": \"system-bus/TAM\""));
        assert!(text.contains("\"name\": \"schedule\""));
        // Sorted track order: "schedule" = tid 1, "system-bus/TAM" = tid 2.
        assert!(text.contains("\"tid\": 1"));
        assert!(text.contains("\"tid\": 2"));
    }

    #[test]
    fn empty_log_is_still_valid() {
        let mut out = Vec::new();
        write_chrome_trace(&TraceLog::new(), &mut out).unwrap();
        check_json(std::str::from_utf8(&out).unwrap()).unwrap();
    }

    #[test]
    fn byte_identical_for_identical_logs() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        write_chrome_trace(&sample_log(), &mut a).unwrap();
        write_chrome_trace(&sample_log(), &mut b).unwrap();
        assert_eq!(a, b);
    }
}
