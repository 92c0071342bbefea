//! CSV export of spans and metrics — the spreadsheet-side companion to
//! the Chrome-trace exporter.

use std::io::{self, Write};

use crate::recorder::TraceLog;

/// Quotes a CSV field when it contains a delimiter, a quote or a line
/// break (`\n` or `\r`), doubling embedded quotes (RFC 4180). Every
/// CSV writer in the workspace quotes through this one rule.
///
/// ```
/// use tve_obs::csv_field;
///
/// assert_eq!(csv_field("plain"), "plain");
/// assert_eq!(csv_field("a, \"b\""), "\"a, \"\"b\"\"\"");
/// assert_eq!(csv_field("boom\r\nx"), "\"boom\r\nx\"");
/// ```
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Writes every span as one CSV row
/// (`track,kind,name,start_cycles,end_cycles,duration_cycles,initiator,bits`).
///
/// ```
/// use tve_obs::{write_spans_csv, Recorder, SpanKind, SpanRecord};
/// use tve_sim::Time;
///
/// let rec = Recorder::unbounded();
/// rec.record_with(|| {
///     SpanRecord::new(
///         SpanKind::Transfer,
///         "bus",
///         "write, posted",
///         Time::from_cycles(2),
///         Time::from_cycles(7),
///     )
/// });
/// let mut out = Vec::new();
/// write_spans_csv(&rec.take_log(), &mut out).unwrap();
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.contains("bus,transfer,\"write, posted\",2,7,5,,0"));
/// ```
pub fn write_spans_csv<W: Write>(log: &TraceLog, out: &mut W) -> io::Result<()> {
    writeln!(
        out,
        "track,kind,name,start_cycles,end_cycles,duration_cycles,initiator,bits"
    )?;
    for span in &log.spans {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            csv_field(&span.track),
            span.kind.category(),
            csv_field(&span.name),
            span.start.cycles(),
            span.end.cycles(),
            span.duration().as_cycles(),
            span.initiator.map(|i| i.to_string()).unwrap_or_default(),
            span.bits
        )?;
    }
    Ok(())
}

/// Writes every metric as one CSV row (`metric,kind,value` — histograms
/// expand to min/max/mean/samples rows).
pub fn write_metrics_csv<W: Write>(log: &TraceLog, out: &mut W) -> io::Result<()> {
    writeln!(out, "metric,kind,value")?;
    for (name, value) in &log.counters {
        writeln!(out, "{},counter,{}", csv_field(name), value)?;
    }
    for (name, value) in &log.gauges {
        writeln!(out, "{},gauge,{}", csv_field(name), value)?;
    }
    for (name, s) in &log.histograms {
        writeln!(out, "{}.min,histogram,{}", csv_field(name), s.min)?;
        writeln!(out, "{}.max,histogram,{}", csv_field(name), s.max)?;
        writeln!(out, "{}.mean,histogram,{}", csv_field(name), s.mean)?;
        writeln!(out, "{}.samples,histogram,{}", csv_field(name), s.samples)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::span::{SpanKind, SpanRecord};
    use tve_sim::Time;

    #[test]
    fn spans_csv_quotes_embedded_delimiters() {
        let rec = Recorder::unbounded();
        rec.record(
            SpanRecord::new(
                SpanKind::Burst,
                "src/T1",
                "burst \"a\", part 1",
                Time::from_cycles(0),
                Time::from_cycles(4),
            )
            .with_initiator(2)
            .with_bits(16),
        );
        let mut out = Vec::new();
        write_spans_csv(&rec.take_log(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "track,kind,name,start_cycles,end_cycles,duration_cycles,initiator,bits"
        );
        assert_eq!(
            lines.next().unwrap(),
            "src/T1,burst,\"burst \"\"a\"\", part 1\",0,4,4,2,16"
        );
    }

    #[test]
    fn metrics_csv_expands_histograms() {
        let rec = Recorder::unbounded();
        rec.metrics().counter("c").add(5);
        rec.metrics().gauge("g").set(-3);
        rec.metrics()
            .histogram("h")
            .observe(Time::from_cycles(0), 2.0);
        rec.observe_until(Time::from_cycles(10));
        let mut out = Vec::new();
        write_metrics_csv(&rec.take_log(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("c,counter,5"));
        assert!(text.contains("g,gauge,-3"));
        assert!(text.contains("h.mean,histogram,2"));
        assert!(text.contains("h.samples,histogram,1"));
    }
}
