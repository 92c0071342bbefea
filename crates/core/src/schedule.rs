//! Test schedule execution: phases of concurrent test sequences, run to
//! completion on the simulation kernel — the engine behind Table I.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use tve_obs::{Recorder, SpanKind, SpanRecord};
use tve_sim::{Simulation, Time};
use tve_tlm::LocalBoxFuture;

use crate::outcome::TestOutcome;

/// A named, lazily-evaluated test sequence: the future runs when its
/// schedule phase starts.
pub struct TestRun {
    /// Sequence name (used in reports).
    pub(crate) name: String,
    fut: LocalBoxFuture<'static, TestOutcome>,
}

impl fmt::Debug for TestRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TestRun").field("name", &self.name).finish()
    }
}

impl TestRun {
    /// Wraps a test-sequence future. Futures are lazy, so nothing runs
    /// until the schedule reaches the sequence's phase.
    pub fn new(
        name: impl Into<String>,
        fut: impl std::future::Future<Output = TestOutcome> + 'static,
    ) -> Self {
        TestRun {
            name: name.into(),
            fut: Box::pin(fut),
        }
    }

    /// Unwraps the underlying future (crate-internal launch path).
    pub(crate) fn into_future(self) -> LocalBoxFuture<'static, TestOutcome> {
        self.fut
    }
}

/// A test schedule: sequential phases, each a set of concurrently executed
/// test sequences (indices into the test list).
///
/// The paper's schedule 3 — "concurrent execution of core tests 1 and 5,
/// followed by concurrent execution of tests 2, 4 and finally test 7" — is
/// `phases: vec![vec![0, 4], vec![1, 3], vec![6]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Schedule name.
    pub name: String,
    /// Phases of concurrent test indices.
    pub phases: Vec<Vec<usize>>,
}

impl Schedule {
    /// Builds a schedule; see the field docs.
    pub fn new(name: impl Into<String>, phases: Vec<Vec<usize>>) -> Self {
        Schedule {
            name: name.into(),
            phases,
        }
    }

    /// A fully sequential schedule over tests `0..n`.
    pub fn sequential(name: impl Into<String>, n: usize) -> Self {
        Schedule {
            name: name.into(),
            phases: (0..n).map(|i| vec![i]).collect(),
        }
    }

    /// Checks well-formedness against a test list of `test_count` entries.
    ///
    /// This is the dynamic-validation entry point; it reports the *first*
    /// issue found by [`Schedule::structural_issues`], walking phases in
    /// order. Static analysis (`tve-lint`) consumes the full enumeration,
    /// so the two paths can never drift.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] for out-of-range indices, duplicates, or
    /// empty phases.
    pub fn validate(&self, test_count: usize) -> Result<(), ScheduleError> {
        match self.structural_issues(test_count).into_iter().next() {
            Some(issue) => Err(issue.error),
            None => Ok(()),
        }
    }

    /// Enumerates *every* structural issue of this schedule against a test
    /// list of `test_count` entries, in phase order.
    ///
    /// This is the single source of truth for structural well-formedness:
    /// [`Schedule::validate`] (the dynamic path) returns the first entry,
    /// and `tve-lint` (the static path) turns each entry into a diagnostic
    /// whose code is [`ScheduleError::code`]. An empty return means the
    /// schedule is structurally sound.
    pub fn structural_issues(&self, test_count: usize) -> Vec<StructuralIssue> {
        let mut issues = Vec::new();
        if self.phases.is_empty() {
            issues.push(StructuralIssue {
                error: ScheduleError::Empty,
                phase: None,
            });
            return issues;
        }
        let mut seen = vec![false; test_count];
        for (pi, phase) in self.phases.iter().enumerate() {
            if phase.is_empty() {
                issues.push(StructuralIssue {
                    error: ScheduleError::EmptyPhase,
                    phase: Some(pi),
                });
                continue;
            }
            for &t in phase {
                if t >= test_count {
                    issues.push(StructuralIssue {
                        error: ScheduleError::IndexOutOfRange(t),
                        phase: Some(pi),
                    });
                } else if seen[t] {
                    issues.push(StructuralIssue {
                        error: ScheduleError::DuplicateTest(t),
                        phase: Some(pi),
                    });
                } else {
                    seen[t] = true;
                }
            }
        }
        issues
    }
}

/// One structural finding from [`Schedule::structural_issues`]: the error
/// value (identical to what [`Schedule::validate`] would return were it the
/// first issue) plus the phase it was found in, when applicable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructuralIssue {
    /// The issue, as the dynamic-path error value.
    pub error: ScheduleError,
    /// The phase index the issue was found in (`None` for whole-schedule
    /// issues such as [`ScheduleError::Empty`]).
    pub phase: Option<usize>,
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.name)?;
        for (i, phase) in self.phases.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{{")?;
            for (j, t) in phase.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// Schedule construction/validation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule has no phases.
    Empty,
    /// A phase contains no tests.
    EmptyPhase,
    /// A test index exceeds the test list.
    IndexOutOfRange(usize),
    /// A test is scheduled more than once.
    DuplicateTest(usize),
}

impl ScheduleError {
    /// The stable diagnostic code of this error variant — the 1:1 bridge
    /// between dynamic validation and `tve-lint` static diagnostics. Lint
    /// diagnostics for structural issues carry exactly this string, so the
    /// two paths cannot disagree on naming.
    pub const fn code(&self) -> &'static str {
        match self {
            ScheduleError::Empty => "sched-empty",
            ScheduleError::EmptyPhase => "sched-empty-phase",
            ScheduleError::IndexOutOfRange(_) => "sched-index-range",
            ScheduleError::DuplicateTest(_) => "sched-dup-test",
        }
    }
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Empty => write!(f, "schedule has no phases"),
            ScheduleError::EmptyPhase => write!(f, "schedule contains an empty phase"),
            ScheduleError::IndexOutOfRange(t) => write!(f, "test index {t} out of range"),
            ScheduleError::DuplicateTest(t) => write!(f, "test {t} scheduled twice"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One executed test sequence within a schedule run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestSlot {
    /// The phase the test ran in.
    pub phase: usize,
    /// The test's outcome (including start/end times).
    pub outcome: TestOutcome,
}

/// The result of executing a schedule.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Schedule name.
    pub schedule: String,
    /// Total test length in cycles (first start to last end).
    pub total_cycles: u64,
    /// Per-test slots in completion order.
    pub slots: Vec<TestSlot>,
    /// Host CPU time spent simulating (the paper's "CPU runtime" column).
    pub wall: std::time::Duration,
}

impl ScheduleResult {
    /// Whether every sequence completed cleanly.
    pub fn clean(&self) -> bool {
        self.slots.iter().all(|s| s.outcome.clean())
    }

    /// The slot of a test by name.
    pub fn slot(&self, name: &str) -> Option<&TestSlot> {
        self.slots.iter().find(|s| s.outcome.name == name)
    }
}

impl fmt::Display for ScheduleResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} cycles total, simulated in {:.2?}",
            self.schedule, self.total_cycles, self.wall
        )?;
        for s in &self.slots {
            writeln!(f, "  [phase {}] {}", s.phase, s.outcome)?;
        }
        Ok(())
    }
}

/// Executes `schedule` over `tests` on `sim`, running phases sequentially
/// and the tests within a phase concurrently. Drives the simulation to
/// completion and returns the per-test and total metrics.
///
/// # Errors
///
/// Returns [`ScheduleError`] if the schedule is not well-formed for
/// `tests`.
pub fn execute_schedule(
    sim: &mut Simulation,
    tests: Vec<TestRun>,
    schedule: &Schedule,
) -> Result<ScheduleResult, ScheduleError> {
    execute_schedule_traced(sim, tests, schedule, None)
}

/// [`execute_schedule`] with observability: when a recorder is given, the
/// run additionally emits one [`tve_obs::SpanKind::Phase`] span per
/// schedule phase (on the `"schedule"` track, spanning the phase's first
/// test start to its last test end) and one [`tve_obs::SpanKind::Test`]
/// span per executed sequence (on the `"tests"` track).
///
/// # Errors
///
/// Returns [`ScheduleError`] if the schedule is not well-formed for
/// `tests`.
pub fn execute_schedule_traced(
    sim: &mut Simulation,
    tests: Vec<TestRun>,
    schedule: &Schedule,
    recorder: Option<&Rc<Recorder>>,
) -> Result<ScheduleResult, ScheduleError> {
    schedule.validate(tests.len())?;
    let started = std::time::Instant::now();
    let slots: Rc<RefCell<Vec<TestSlot>>> = Rc::new(RefCell::new(Vec::new()));
    let mut tests: Vec<Option<TestRun>> = tests.into_iter().map(Some).collect();
    let phases = schedule.phases.clone();
    let h = sim.handle();
    let slots2 = Rc::clone(&slots);

    // Pre-extract each phase's runs so the orchestrator owns them.
    let mut phase_runs: Vec<Vec<TestRun>> = Vec::new();
    for phase in &phases {
        phase_runs.push(
            phase
                .iter()
                .map(|&t| tests[t].take().expect("validated: no duplicates"))
                .collect(),
        );
    }

    sim.spawn(async move {
        for (pi, runs) in phase_runs.into_iter().enumerate() {
            let handles: Vec<_> = runs.into_iter().map(|run| h.spawn(run.fut)).collect();
            for jh in handles {
                let outcome = jh.await;
                slots2.borrow_mut().push(TestSlot { phase: pi, outcome });
            }
        }
    });
    sim.run();

    let slots = Rc::try_unwrap(slots)
        .expect("orchestrator completed")
        .into_inner();
    if let Some(rec) = recorder {
        let mut bounds: BTreeMap<usize, (Time, Time)> = BTreeMap::new();
        for slot in &slots {
            let e = bounds
                .entry(slot.phase)
                .or_insert((slot.outcome.start, slot.outcome.end));
            e.0 = e.0.min(slot.outcome.start);
            e.1 = e.1.max(slot.outcome.end);
        }
        for (phase, (start, end)) in bounds {
            rec.record_with(|| {
                SpanRecord::new(
                    SpanKind::Phase,
                    "schedule",
                    format!("phase {phase}"),
                    start,
                    end,
                )
            });
        }
        for slot in &slots {
            rec.record_with(|| {
                SpanRecord::new(
                    SpanKind::Test,
                    "tests",
                    slot.outcome.name.clone(),
                    slot.outcome.start,
                    slot.outcome.end,
                )
                .with_bits(slot.outcome.stimulus_bits + slot.outcome.response_bits)
            });
        }
    }
    let start = slots
        .iter()
        .map(|s| s.outcome.start)
        .min()
        .unwrap_or(Time::ZERO);
    let end = slots
        .iter()
        .map(|s| s.outcome.end)
        .max()
        .unwrap_or(Time::ZERO);
    Ok(ScheduleResult {
        schedule: schedule.name.clone(),
        total_cycles: (end - start).as_cycles(),
        slots,
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_sim::{Duration, SimHandle};

    fn dummy_test(h: &SimHandle, name: &str, cycles: u64) -> TestRun {
        let h = h.clone();
        let name_owned = name.to_string();
        TestRun::new(name, async move {
            let mut out = TestOutcome::begin(name_owned, h.now());
            h.wait(Duration::cycles(cycles)).await;
            out.end = h.now();
            out
        })
    }

    #[test]
    fn sequential_schedule_sums_durations() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let tests = vec![
            dummy_test(&h, "a", 100),
            dummy_test(&h, "b", 50),
            dummy_test(&h, "c", 25),
        ];
        let r = execute_schedule(&mut sim, tests, &Schedule::sequential("seq", 3)).unwrap();
        assert_eq!(r.total_cycles, 175);
        assert!(r.clean());
        assert_eq!(r.slots.len(), 3);
        assert_eq!(r.slot("b").unwrap().phase, 1);
    }

    #[test]
    fn concurrent_phase_takes_the_maximum() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let tests = vec![
            dummy_test(&h, "a", 100),
            dummy_test(&h, "b", 40),
            dummy_test(&h, "c", 70),
        ];
        let sched = Schedule::new("conc", vec![vec![0, 1], vec![2]]);
        let r = execute_schedule(&mut sim, tests, &sched).unwrap();
        assert_eq!(r.total_cycles, 170);
        // b finished at 40 but phase 2 starts only after a (100).
        let c = r.slot("c").unwrap();
        assert_eq!(c.outcome.start.cycles(), 100);
    }

    #[test]
    fn validation_rejects_malformed_schedules() {
        assert_eq!(
            Schedule::new("x", vec![]).validate(2),
            Err(ScheduleError::Empty)
        );
        assert_eq!(
            Schedule::new("x", vec![vec![]]).validate(2),
            Err(ScheduleError::EmptyPhase)
        );
        assert_eq!(
            Schedule::new("x", vec![vec![5]]).validate(2),
            Err(ScheduleError::IndexOutOfRange(5))
        );
        assert_eq!(
            Schedule::new("x", vec![vec![0], vec![0]]).validate(2),
            Err(ScheduleError::DuplicateTest(0))
        );
        assert!(Schedule::new("x", vec![vec![0], vec![1]])
            .validate(2)
            .is_ok());
    }

    #[test]
    fn structural_issues_enumerates_everything_validate_reports_first() {
        let s = Schedule::new("multi", vec![vec![0, 0], vec![], vec![9]]);
        let issues = s.structural_issues(2);
        assert_eq!(
            issues,
            vec![
                StructuralIssue {
                    error: ScheduleError::DuplicateTest(0),
                    phase: Some(0),
                },
                StructuralIssue {
                    error: ScheduleError::EmptyPhase,
                    phase: Some(1),
                },
                StructuralIssue {
                    error: ScheduleError::IndexOutOfRange(9),
                    phase: Some(2),
                },
            ]
        );
        // validate is exactly "first enumerated issue".
        assert_eq!(s.validate(2), Err(issues[0].error));
        assert_eq!(
            Schedule::new("ok", vec![vec![0], vec![1]]).structural_issues(2),
            vec![]
        );
        assert_eq!(
            Schedule::new("none", vec![]).structural_issues(2),
            vec![StructuralIssue {
                error: ScheduleError::Empty,
                phase: None,
            }]
        );
    }

    #[test]
    fn error_codes_are_stable_and_distinct() {
        let variants = [
            ScheduleError::Empty,
            ScheduleError::EmptyPhase,
            ScheduleError::IndexOutOfRange(3),
            ScheduleError::DuplicateTest(3),
        ];
        let codes: Vec<&str> = variants.iter().map(ScheduleError::code).collect();
        assert_eq!(
            codes,
            [
                "sched-empty",
                "sched-empty-phase",
                "sched-index-range",
                "sched-dup-test"
            ]
        );
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "codes are unique");
    }

    #[test]
    fn unscheduled_tests_are_allowed_and_skipped() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let tests = vec![dummy_test(&h, "a", 10), dummy_test(&h, "b", 10)];
        let sched = Schedule::new("partial", vec![vec![1]]);
        let r = execute_schedule(&mut sim, tests, &sched).unwrap();
        assert_eq!(r.slots.len(), 1);
        assert_eq!(r.slots[0].outcome.name, "b");
    }

    #[test]
    fn display_formats() {
        let s = Schedule::new("s3", vec![vec![0, 4], vec![1, 3], vec![6]]);
        assert_eq!(s.to_string(), "s3: {0,4} -> {1,3} -> {6}");
    }
}
