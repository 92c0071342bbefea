//! Diagnostics: severities, source locations, the [`Diagnostic`] record
//! and the [`LintReport`] container with its human-table and JSON
//! renderers.

use std::fmt;
use std::fmt::Write as _;

use tve_obs::json_string;

/// Pinned schema version stamped into every lint JSON report so artifact
/// consumers can detect shape drift; bump on any change to the emitted
/// fields.
pub(crate) const LINT_FORMAT_VERSION: u64 = 1;

/// Diagnostic code constants for the non-structural checks.
///
/// Structural schedule diagnostics do *not* have constants here: their
/// codes come verbatim from [`tve_core::ScheduleError::code`], so the
/// static and dynamic paths share one name per defect by construction.
pub mod codes {
    /// Two tests in one phase claim the same exclusive core resource.
    pub const CORE_RACE: &str = "res-core-race";
    /// Two tests in one phase stream over the same serial ATE channel
    /// (they serialize and stretch, but complete).
    pub(crate) const SERIAL_RACE: &str = "res-serial-race";
    /// A phase's combined TAM share demand exceeds the channel (tests
    /// stretch fluidly — the effect the paper quantifies by simulation).
    pub(crate) const TAM_OVERSUB: &str = "res-tam-oversub";
    /// Two tests in one phase need different WIR values on the same
    /// configuration-ring client.
    pub const WIR_CONFLICT: &str = "wir-conflict";
    /// A config-ring ordering hazard: an earlier write leaves a client in
    /// a test mode that a later functional-path access silently trips
    /// over (or, in a program, a write is clobbered before use).
    pub const RING_STALE: &str = "ring-stale-config";
    /// A phase's summed peak power exceeds the plan budget.
    pub const POWER_OVERCOMMIT: &str = "power-overcommit";
    /// A test in the plan is never scheduled (dynamically legal — the
    /// test is skipped — but usually an omission).
    pub const DEAD_TEST: &str = "sched-dead-test";
    /// The program text does not parse.
    pub const PROG_PARSE: &str = "prog-parse";
    /// A `config` op references a ring client that does not exist.
    pub const PROG_UNKNOWN_CLIENT: &str = "prog-unknown-client";
    /// An `expect` op references a wrapper that does not exist.
    pub const PROG_UNKNOWN_WRAPPER: &str = "prog-unknown-wrapper";
    /// A `run` op references a test index that does not exist.
    pub(crate) const PROG_UNKNOWN_TEST: &str = "prog-unknown-test";
    /// A `run` op references a test already consumed by an earlier run
    /// (the Virtual ATE reports `UnknownTest` at execution).
    pub const PROG_DUP_RUN: &str = "prog-dup-run";
    /// An `expect` op reads a signature before any test has run.
    pub(crate) const PROG_READ_BEFORE_RUN: &str = "prog-read-before-run";
    /// A `ring` rotation loads a different number of values than the ring
    /// has clients.
    pub(crate) const PROG_RING_WIDTH: &str = "prog-ring-width";
    /// A `config` write is overwritten before any run consumes it.
    pub(crate) const PROG_CLOBBERED: &str = "prog-clobbered-config";
    /// A `config` write is never followed by a run at all.
    pub(crate) const PROG_UNUSED: &str = "prog-unused-config";
}

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational — no action needed.
    Info,
    /// Suspicious but executable: the scenario completes, possibly
    /// stretched or with skipped work.
    Warning,
    /// The scenario is statically known to fail, corrupt results, or
    /// violate a stated budget.
    Error,
}

impl Severity {
    /// The stable lowercase tag (JSON/CLI material).
    pub(crate) const fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// The schedule (or plan) as a whole.
    Schedule,
    /// A schedule phase.
    Phase(usize),
    /// A specific test within a phase.
    Test {
        /// Phase index.
        phase: usize,
        /// Test index (into the plan's test list).
        test: usize,
    },
    /// A program-text span.
    Span {
        /// 1-based source line.
        line: usize,
        /// 1-based column.
        column: usize,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Schedule => f.write_str("schedule"),
            Location::Phase(p) => write!(f, "phase {p}"),
            Location::Test { phase, test } => write!(f, "phase {phase}, test {test}"),
            Location::Span { line, column } => write!(f, "line {line}:{column}"),
        }
    }
}

/// One static finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (see [`codes`] and
    /// [`tve_core::ScheduleError::code`]).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Where the problem is.
    pub location: Location,
    /// Human-readable description.
    pub(crate) message: String,
    /// Supporting details (contending test names, prior write sites, …).
    pub(crate) notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic without notes.
    pub(crate) fn new(
        code: &'static str,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            location,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Adds a supporting note.
    #[must_use]
    pub(crate) fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<7} {:<20} [{}] {}",
            self.severity, self.code, self.location, self.message
        )?;
        for note in &self.notes {
            write!(f, "\n        note: {note}")?;
        }
        Ok(())
    }
}

/// All diagnostics of one linted subject (a schedule or a program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// What was linted (schedule or program name).
    pub(crate) subject: String,
    /// The findings, in check order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Whether the subject is statically acceptable: **no error-severity
    /// diagnostics**. Warnings and infos do not reject — the soundness
    /// contract (`clean ⇒ executes without `ScheduleError`/infra failure`)
    /// binds only error-severity findings.
    pub fn clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// This report as a JSON object (no trailing newline). Emitted
    /// serde-free like the campaign artifacts; validate with
    /// `tve_obs::check_json`.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"format_version\": {}, \"subject\": {}, \"clean\": {}, \"diagnostics\": [",
            LINT_FORMAT_VERSION,
            json_string(&self.subject),
            self.clean()
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            let sep = if i + 1 < self.diagnostics.len() {
                ","
            } else {
                ""
            };
            let loc = match d.location {
                Location::Schedule => "{\"kind\": \"schedule\"}".to_string(),
                Location::Phase(p) => format!("{{\"kind\": \"phase\", \"phase\": {p}}}"),
                Location::Test { phase, test } => {
                    format!("{{\"kind\": \"test\", \"phase\": {phase}, \"test\": {test}}}")
                }
                Location::Span { line, column } => {
                    format!("{{\"kind\": \"span\", \"line\": {line}, \"column\": {column}}}")
                }
            };
            let notes: Vec<String> = d.notes.iter().map(|n| json_string(n)).collect();
            let _ = write!(
                out,
                "\n    {{\"code\": {}, \"severity\": {}, \"location\": {}, \
                 \"message\": {}, \"notes\": [{}]}}{}",
                json_string(d.code),
                json_string(d.severity.as_str()),
                loc,
                json_string(&d.message),
                notes.join(", "),
                sep
            );
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} error(s), {} warning(s)",
            self.subject,
            self.error_count(),
            self.warning_count()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Bundles several reports into one JSON artifact (a `{"reports": [...]}`
/// object), ending with a newline.
pub fn reports_to_json(reports: &[LintReport]) -> String {
    let mut out = String::from("{\n  \"reports\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let sep = if i + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(out, "  {}{}", r.to_json(), sep);
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(subject: &str) -> LintReport {
        LintReport {
            subject: subject.to_string(),
            diagnostics: Vec::new(),
        }
    }

    #[test]
    fn severity_orders_and_tags() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.as_str(), "error");
    }

    #[test]
    fn report_cleanliness_counts_only_errors() {
        let mut r = report("s");
        assert!(r.clean());
        r.diagnostics.push(Diagnostic::new(
            codes::SERIAL_RACE,
            Severity::Warning,
            Location::Phase(0),
            "w",
        ));
        assert!(r.clean(), "warnings do not reject");
        r.diagnostics.push(
            Diagnostic::new(codes::CORE_RACE, Severity::Error, Location::Phase(1), "e")
                .with_note("n"),
        );
        assert!(!r.clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        let found: Vec<_> = r.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(found, vec![codes::SERIAL_RACE, codes::CORE_RACE]);
    }

    #[test]
    fn json_is_well_formed() {
        let mut r = report("sch\"1\"");
        r.diagnostics.push(
            Diagnostic::new(
                codes::WIR_CONFLICT,
                Severity::Error,
                Location::Test { phase: 1, test: 2 },
                "conflicting WIR",
            )
            .with_note("T2 wants 2")
            .with_note("T1 wants 4"),
        );
        r.diagnostics.push(Diagnostic::new(
            codes::PROG_PARSE,
            Severity::Error,
            Location::Span { line: 3, column: 7 },
            "bad token",
        ));
        let json = reports_to_json(&[r, report("empty")]);
        tve_obs::check_json(&json).expect("lint JSON parses");
        assert!(json.contains("\"line\": 3"));
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"clean\": false"));
    }

    #[test]
    fn json_reports_carry_the_pinned_format_version() {
        assert_eq!(LINT_FORMAT_VERSION, 1, "bump deliberately, with the docs");
        let single = report("s").to_json();
        let want = format!("\"format_version\": {LINT_FORMAT_VERSION}");
        assert!(single.starts_with(&format!("{{{want}")), "{single}");
        let bundle = reports_to_json(&[report("a"), report("b")]);
        assert_eq!(bundle.matches(&want).count(), 2, "one stamp per report");
    }

    #[test]
    fn display_renders_a_table_row_per_diagnostic() {
        let mut r = report("s1");
        r.diagnostics.push(
            Diagnostic::new(
                codes::CORE_RACE,
                Severity::Error,
                Location::Phase(0),
                "race",
            )
            .with_note("between T1 and T2"),
        );
        let text = r.to_string();
        assert!(text.contains("s1: 1 error(s), 0 warning(s)"));
        assert!(text.contains("error"));
        assert!(text.contains("res-core-race"));
        assert!(text.contains("note: between T1 and T2"));
    }
}
