#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(missing_docs)]

//! # tve-lint — static analysis of test schedules and ATE programs
//!
//! The paper validates test plans by *simulating* them on transaction
//! level models. This crate is the complementary pass: a static analyzer
//! that examines a [`Schedule`], the plan's
//! [`PlanFacts`] and optional test-program text and reports structured
//! [`Diagnostic`]s **without building a simulation** — catching in
//! microseconds the mistakes that would otherwise cost a simulation run
//! (or silently corrupt one).
//!
//! ## Checks
//!
//! Schedule-level ([`lint_schedule`]):
//! * structural defects — the *same enumeration*
//!   [`tve_core::Schedule::validate`] uses, so static codes and dynamic
//!   [`ScheduleError`](tve_core::ScheduleError)s cannot drift apart,
//! * core races — two tests of one phase contending for a core,
//! * serial-channel sharing and bus-TAM over-subscription (warnings —
//!   arbitration resolves them at a cost only simulation quantifies),
//! * WIR conflicts — incompatible configuration-ring values in one phase,
//! * configuration-ring ordering hazards — a stale test-mode value from an
//!   earlier phase corrupting a later functional-path test,
//! * power-budget overcommit and never-scheduled (dead) tests.
//!
//! Program-level ([`lint_program`]): parse errors with line/column spans,
//! unknown client/test/wrapper references, double-runs the Virtual ATE
//! would reject, clobbered or unused configuration writes, and stale
//! test-mode state ahead of a functional-path test.
//!
//! ## The contract
//!
//! The analyzer is **sound** with respect to the dynamic layer: a
//! schedule with no error-severity diagnostics never produces a
//! [`ScheduleError`](tve_core::ScheduleError) or infrastructure failure
//! when executed (`tests/lint_contract.rs` enforces this over the paper
//! schedules and hundreds of generated ones). It is **useful**: every
//! `ScheduleError` variant and every seeded structural defect is caught
//! statically with the right diagnostic code. Warnings deliberately stay
//! warnings — quantifying them is what the simulator is for.
//!
//! ```
//! use tve_lint::{lint_schedule_report, soc_facts};
//! use tve_soc::{paper_schedules, SocConfig, SocTestPlan};
//!
//! let facts = soc_facts(&SocConfig::paper(), &SocTestPlan::paper());
//! for schedule in paper_schedules() {
//!     assert!(lint_schedule_report(&schedule, &facts).clean());
//! }
//! ```

mod bounds;
mod diag;
mod facts;
mod model;
mod program_lint;
mod schedule_lint;

pub use bounds::{
    bounds_reports_to_json, bounds_table, observe_metrics, schedule_envelope, schedule_envelopes,
    task_bounds, EnvelopeObservables, Interval, PowerInterval, ScheduleEnvelope, TaskBounds,
};
pub use diag::{codes, reports_to_json, Diagnostic, LintReport, Location, Severity};
pub use facts::{soc_facts, PlanFacts, TamChannel, TestFacts, WirWrite};
pub use model::{test_model, TestModel};
pub use program_lint::lint_program;
pub use schedule_lint::lint_schedule;

use tve_core::Schedule;

/// Lints a schedule and wraps the diagnostics in a [`LintReport`] named
/// after the schedule.
pub fn lint_schedule_report(schedule: &Schedule, facts: &PlanFacts) -> LintReport {
    LintReport {
        subject: schedule.name.clone(),
        diagnostics: lint_schedule(schedule, facts),
    }
}

/// Lints program text and wraps the diagnostics in a [`LintReport`] named
/// after the program.
pub fn lint_program_report(name: &str, text: &str, facts: &PlanFacts) -> LintReport {
    LintReport {
        subject: name.to_string(),
        diagnostics: lint_program(name, text, facts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_soc::{paper_schedules, SocConfig, SocTestPlan};

    #[test]
    fn report_wrappers_carry_the_subject_name() {
        let facts = soc_facts(&SocConfig::small(), &SocTestPlan::small());
        let r = lint_schedule_report(&paper_schedules()[0], &facts);
        assert_eq!(r.subject, paper_schedules()[0].name);
        let r = lint_program_report("prog", "run 0\n", &facts);
        assert_eq!(r.subject, "prog");
    }
}
