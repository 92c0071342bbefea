//! The detection matrix: per-cell outcomes, the diagnosis cross-check
//! record, and the CSV/JSON artifact emitters.
//!
//! Artifacts contain only simulation-determined values (no wall-clock
//! times, no host details), so the bytes are identical for any farm
//! worker count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tve_core::{FailingCell, StuckCell};
use tve_obs::{csv_field, json_string};
use tve_soc::WrappedCore;

/// What happened when one fault met one schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The schedule's metrics digest deviated from the golden run.
    Detected {
        /// Simulated cycle of the earliest deviating test's completion —
        /// the first moment the tester could have flagged the part.
        latency_cycles: u64,
        /// Names of the tests whose outcomes deviated.
        deviating: Vec<String>,
    },
    /// The faulty run was byte-identical to the golden run: the fault
    /// slipped through this schedule.
    Escape,
    /// The run itself failed (panic or schedule error) — the test
    /// *infrastructure* broke down rather than reporting a clean verdict.
    InfraFailure {
        /// The captured panic or error message.
        error: String,
    },
}

impl CellOutcome {
    /// The CSV/JSON tag of this outcome.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            CellOutcome::Detected { .. } => "detected",
            CellOutcome::Escape => "escape",
            CellOutcome::InfraFailure { .. } => "infra-failure",
        }
    }

    /// Whether the fault was noticed at all — a digest deviation *or* an
    /// outright infrastructure failure both make the part conspicuous;
    /// only a silent [`CellOutcome::Escape`] ships a defective chip.
    pub fn noticed(&self) -> bool {
        !matches!(self, CellOutcome::Escape)
    }
}

/// One cell of the detection matrix: a fault crossed with a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Stable fault identifier (see `FaultSpec::id`).
    pub fault_id: String,
    /// Fault class (see `FaultSpec::class`).
    pub fault_class: String,
    /// Schedule name.
    pub schedule: String,
    /// What happened.
    pub outcome: CellOutcome,
}

/// The diagnosis cross-check for one detected scan-cell fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisCheck {
    /// The fault's stable identifier.
    pub fault_id: String,
    /// The core the fault was injected into.
    pub core: WrappedCore,
    /// The injected stuck cell.
    pub injected: StuckCell,
    /// The cells the diagnosis located.
    pub located: Vec<FailingCell>,
    /// The first failing BIST pattern, if any.
    pub first_failing_pattern: Option<u64>,
    /// Whether diagnosis located exactly the injected (chain, position).
    pub confirmed: bool,
}

/// A schedule the static pre-screen rejected before the campaign: it ran
/// zero simulations, and here is why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrescreenedSchedule {
    /// The schedule's name.
    pub schedule: String,
    /// The error-severity diagnostic codes that rejected it.
    pub codes: Vec<String>,
}

/// The complete campaign result: every (fault × schedule) cell plus the
/// diagnosis cross-check, with CSV/JSON emitters and coverage accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Schedule names that actually ran, in campaign order.
    pub schedules: Vec<String>,
    /// Schedules the static pre-screen rejected (empty unless
    /// `CampaignConfig::prescreen` was set). Never silently dropped: each
    /// entry records the diagnostic codes that condemned it.
    pub prescreened: Vec<PrescreenedSchedule>,
    /// Matrix cells, fault-major in population order.
    pub cells: Vec<CellResult>,
    /// Diagnosis cross-checks for detected scan-cell faults.
    pub diagnosis: Vec<DiagnosisCheck>,
}

impl CampaignReport {
    /// Detection coverage of `schedule` over core faults (scan-cell and
    /// memory classes): detected / injected, in `[0, 1]`. Returns 1.0
    /// for an empty population.
    pub fn core_coverage(&self, schedule: &str) -> f64 {
        let core_cells: Vec<&CellResult> = self
            .cells
            .iter()
            .filter(|c| c.schedule == schedule)
            .filter(|c| c.fault_class == "scan-cell" || c.fault_class == "memory")
            .collect();
        if core_cells.is_empty() {
            return 1.0;
        }
        let detected = core_cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Detected { .. }))
            .count();
        detected as f64 / core_cells.len() as f64
    }

    /// Fault ids that escaped `schedule` (any class), in matrix order.
    pub fn escapes(&self, schedule: &str) -> Vec<&str> {
        self.cells
            .iter()
            .filter(|c| c.schedule == schedule && c.outcome == CellOutcome::Escape)
            .map(|c| c.fault_id.as_str())
            .collect()
    }

    /// `(fault_id, schedule, error)` for every infrastructure failure.
    pub fn infra_failures(&self) -> Vec<(&str, &str, &str)> {
        self.cells
            .iter()
            .filter_map(|c| match &c.outcome {
                CellOutcome::InfraFailure { error } => {
                    Some((c.fault_id.as_str(), c.schedule.as_str(), error.as_str()))
                }
                _ => None,
            })
            .collect()
    }

    /// Fault ids of core faults (scan-cell/memory) that *no* schedule
    /// detected — the union escape list that the campaign's 100 %
    /// criterion is judged on.
    pub fn union_escapes(&self) -> Vec<&str> {
        let mut best: BTreeMap<&str, bool> = BTreeMap::new();
        let mut order: Vec<&str> = Vec::new();
        for c in &self.cells {
            if c.fault_class != "scan-cell" && c.fault_class != "memory" {
                continue;
            }
            let entry = best.entry(c.fault_id.as_str()).or_insert_with(|| {
                order.push(c.fault_id.as_str());
                false
            });
            *entry |= matches!(c.outcome, CellOutcome::Detected { .. });
        }
        order.into_iter().filter(|id| !best[id]).collect()
    }

    /// Whether every diagnosis cross-check confirmed its injected cell.
    pub fn all_diagnoses_confirmed(&self) -> bool {
        self.diagnosis.iter().all(|d| d.confirmed)
    }

    /// The detection matrix as CSV: one row per (fault × schedule) cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "fault_id,fault_class,schedule,outcome,latency_cycles,deviating_tests,error\n",
        );
        for c in &self.cells {
            let (latency, deviating, error) = match &c.outcome {
                CellOutcome::Detected {
                    latency_cycles,
                    deviating,
                } => (
                    latency_cycles.to_string(),
                    deviating.join(";"),
                    String::new(),
                ),
                CellOutcome::Escape => (String::new(), String::new(), String::new()),
                CellOutcome::InfraFailure { error } => {
                    (String::new(), String::new(), error.clone())
                }
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                csv_field(&c.fault_id),
                csv_field(&c.fault_class),
                csv_field(&c.schedule),
                c.outcome.tag(),
                latency,
                csv_field(&deviating),
                csv_field(&error),
            );
        }
        out
    }

    /// The full report as JSON: per-schedule coverage and escapes, the
    /// matrix cells, and the diagnosis cross-check.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schedules\": [\n");
        for (i, s) in self.schedules.iter().enumerate() {
            let sep = if i + 1 < self.schedules.len() {
                ","
            } else {
                ""
            };
            let escapes: Vec<String> = self.escapes(s).iter().map(|e| json_string(e)).collect();
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"core_coverage\": {:.6}, \"escapes\": [{}]}}{}",
                json_string(s),
                self.core_coverage(s),
                escapes.join(", "),
                sep
            );
        }
        out.push_str("  ],\n  \"prescreened\": [\n");
        for (i, p) in self.prescreened.iter().enumerate() {
            let sep = if i + 1 < self.prescreened.len() {
                ","
            } else {
                ""
            };
            let codes: Vec<String> = p.codes.iter().map(|c| json_string(c)).collect();
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"codes\": [{}]}}{}",
                json_string(&p.schedule),
                codes.join(", "),
                sep
            );
        }
        out.push_str("  ],\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let sep = if i + 1 < self.cells.len() { "," } else { "" };
            let mut extra = String::new();
            match &c.outcome {
                CellOutcome::Detected {
                    latency_cycles,
                    deviating,
                } => {
                    let names: Vec<String> = deviating.iter().map(|d| json_string(d)).collect();
                    let _ = write!(
                        extra,
                        ", \"latency_cycles\": {latency_cycles}, \"deviating\": [{}]",
                        names.join(", ")
                    );
                }
                CellOutcome::Escape => {}
                CellOutcome::InfraFailure { error } => {
                    let _ = write!(extra, ", \"error\": {}", json_string(error));
                }
            }
            let _ = writeln!(
                out,
                "    {{\"fault\": {}, \"class\": {}, \"schedule\": {}, \"outcome\": {}{}}}{}",
                json_string(&c.fault_id),
                json_string(&c.fault_class),
                json_string(&c.schedule),
                json_string(c.outcome.tag()),
                extra,
                sep
            );
        }
        out.push_str("  ],\n  \"diagnosis\": [\n");
        for (i, d) in self.diagnosis.iter().enumerate() {
            let sep = if i + 1 < self.diagnosis.len() {
                ","
            } else {
                ""
            };
            let located: Vec<String> = d
                .located
                .iter()
                .map(|c| format!("{{\"chain\": {}, \"position\": {}}}", c.chain, c.position))
                .collect();
            let pattern = d
                .first_failing_pattern
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "    {{\"fault\": {}, \"injected\": {{\"chain\": {}, \"position\": {}}}, \
                 \"located\": [{}], \"first_failing_pattern\": {}, \"confirmed\": {}}}{}",
                json_string(&d.fault_id),
                d.injected.chain,
                d.injected.position,
                located.join(", "),
                pattern,
                d.confirmed,
                sep
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> CampaignReport {
        CampaignReport {
            schedules: vec!["schedule 1 (seq, uncompressed)".into(), "s2".into()],
            prescreened: vec![PrescreenedSchedule {
                schedule: "broken (dup)".into(),
                codes: vec!["sched-dup-test".into()],
            }],
            cells: vec![
                CellResult {
                    fault_id: "scan:proc:c0p1s1".into(),
                    fault_class: "scan-cell".into(),
                    schedule: "schedule 1 (seq, uncompressed)".into(),
                    outcome: CellOutcome::Detected {
                        latency_cycles: 1234,
                        deviating: vec!["T1 proc bist".into()],
                    },
                },
                CellResult {
                    fault_id: "scan:proc:c0p1s1".into(),
                    fault_class: "scan-cell".into(),
                    schedule: "s2".into(),
                    outcome: CellOutcome::Escape,
                },
                CellResult {
                    fault_id: "ring:break@0".into(),
                    fault_class: "ring".into(),
                    schedule: "s2".into(),
                    outcome: CellOutcome::InfraFailure {
                        error: "worker panicked: \"boom, with comma\"".into(),
                    },
                },
            ],
            diagnosis: vec![DiagnosisCheck {
                fault_id: "scan:proc:c0p1s1".into(),
                core: WrappedCore::Processor,
                injected: StuckCell {
                    chain: 0,
                    position: 1,
                    value: true,
                },
                located: vec![FailingCell {
                    chain: 0,
                    position: 1,
                }],
                first_failing_pattern: Some(3),
                confirmed: true,
            }],
        }
    }

    #[test]
    fn csv_quotes_commas_and_quotes() {
        let csv = sample_report().to_csv();
        assert!(csv.contains("\"schedule 1 (seq, uncompressed)\""));
        assert!(csv.contains("\"worker panicked: \"\"boom, with comma\"\"\""));
        assert_eq!(csv.lines().count(), 4, "header + 3 cells");
        let header_cols = csv.lines().next().unwrap().split(',').count();
        assert_eq!(header_cols, 7);
    }

    #[test]
    fn csv_quotes_carriage_returns() {
        for error in ["boom\r\nx", "boom\rx"] {
            let mut report = sample_report();
            report.cells[2].outcome = CellOutcome::InfraFailure {
                error: error.into(),
            };
            let csv = report.to_csv();
            assert!(csv.ends_with(&format!(",\"{error}\"\n")), "{csv:?}");
            // Records end at a line break (LF, CRLF or a bare CR) outside
            // quotes: the header plus one per cell.
            let mut records = 0;
            let mut quoted = false;
            let mut chars = csv.chars().peekable();
            while let Some(ch) = chars.next() {
                match ch {
                    '"' => quoted = !quoted,
                    '\r' if !quoted && chars.peek() != Some(&'\n') => records += 1,
                    '\n' if !quoted => records += 1,
                    _ => {}
                }
            }
            assert_eq!(records, 4, "header + 3 cells in {csv:?}");
        }
    }

    #[test]
    fn json_is_well_formed() {
        let json = sample_report().to_json();
        tve_obs::check_json(&json).expect("report JSON parses");
        assert!(json.contains("\"core_coverage\": 1.000000"));
        assert!(json.contains("\\\"boom, with comma\\\""));
        assert!(json.contains("\"prescreened\""));
        assert!(json.contains("sched-dup-test"));
    }

    #[test]
    fn coverage_and_escape_accounting() {
        let r = sample_report();
        assert_eq!(r.core_coverage("schedule 1 (seq, uncompressed)"), 1.0);
        assert_eq!(r.core_coverage("s2"), 0.0);
        assert_eq!(r.escapes("s2"), vec!["scan:proc:c0p1s1"]);
        assert!(r.union_escapes().is_empty(), "detected by schedule 1");
        assert_eq!(r.infra_failures().len(), 1);
        assert!(r.all_diagnoses_confirmed());
        assert!(CellOutcome::Escape.tag() == "escape" && !CellOutcome::Escape.noticed());
    }
}
