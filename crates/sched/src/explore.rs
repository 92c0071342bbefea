//! Design-space exploration with simulation-based validation — the loop
//! the paper advocates: explore with coarse estimates, validate the
//! finalists by TLM simulation.

use std::fmt;

use tve_core::Schedule;
use tve_soc::{ScenarioMetrics, SocConfig, SocTestPlan};

use crate::estimate::{estimate_schedule, ScheduleEstimate};
use crate::farm::{Farm, JobError, ScenarioJob};
use crate::packing::{greedy_schedule, optimal_schedule, sequential_schedule};
use crate::task::{Constraints, TestTask};

/// One explored schedule with its coarse metrics.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The schedule.
    pub schedule: Schedule,
    /// Its coarse estimate.
    pub estimate: ScheduleEstimate,
    /// Whether it is Pareto-optimal (test time × peak power) within the
    /// explored set.
    pub pareto: bool,
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: est {:.1} Mcycles, peak power {}, peak TAM {:.0}%{}",
            self.schedule.name,
            self.estimate.total_cycles as f64 / 1e6,
            self.estimate.peak_power,
            self.estimate.peak_tam * 100.0,
            if self.pareto { " [pareto]" } else { "" }
        )
    }
}

/// Result of an exploration pass.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// All evaluated candidates, fastest first.
    pub candidates: Vec<Candidate>,
}

impl ExploreReport {
    /// The fastest candidate.
    ///
    /// # Panics
    ///
    /// Panics if the report is empty (never produced by [`explore`]).
    pub fn best(&self) -> &Candidate {
        self.candidates
            .first()
            .expect("explore always yields candidates")
    }

    /// The Pareto-optimal candidates.
    pub fn pareto_front(&self) -> impl Iterator<Item = &Candidate> {
        self.candidates.iter().filter(|c| c.pareto)
    }
}

/// Explores candidate schedules for `tasks` under `constraints`:
/// sequential, greedy, the exact optimum, and any `extra` user-supplied
/// candidates (e.g. the paper's four hand-written schedules). Returns all
/// of them with estimates, Pareto-marked, fastest first.
pub fn explore(tasks: &[TestTask], constraints: &Constraints, extra: &[Schedule]) -> ExploreReport {
    let mut schedules = vec![
        sequential_schedule(tasks),
        greedy_schedule(tasks, constraints),
    ];
    if tasks.len() <= 12 {
        schedules.push(optimal_schedule(tasks, constraints));
    }
    schedules.extend(extra.iter().cloned());

    let mut candidates: Vec<Candidate> = schedules
        .into_iter()
        .filter(|s| s.validate(tasks.len()).is_ok())
        .map(|schedule| {
            let estimate = estimate_schedule(tasks, &schedule);
            Candidate {
                schedule,
                estimate,
                pareto: false,
            }
        })
        .collect();

    // Pareto marking on (total_cycles, peak_power).
    for i in 0..candidates.len() {
        let (ci_cycles, ci_power) = (
            candidates[i].estimate.total_cycles,
            candidates[i].estimate.peak_power,
        );
        let dominated = candidates.iter().any(|c| {
            (c.estimate.total_cycles < ci_cycles && c.estimate.peak_power <= ci_power)
                || (c.estimate.total_cycles <= ci_cycles && c.estimate.peak_power < ci_power)
        });
        candidates[i].pareto = !dominated;
    }
    candidates.sort_by_key(|c| c.estimate.total_cycles);
    ExploreReport { candidates }
}

/// Estimate-versus-simulation comparison for one schedule.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// The coarse estimate.
    pub estimate: ScheduleEstimate,
    /// The simulated metrics.
    pub simulated: ScenarioMetrics,
    /// Relative test-length error of the estimate, in percent.
    pub length_error_pct: f64,
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "estimated {:.1} Mcycles, simulated {:.1} Mcycles ({:+.1}% error); simulated peak TAM {:.0}%",
            self.estimate.total_cycles as f64 / 1e6,
            self.simulated.total_cycles as f64 / 1e6,
            self.length_error_pct,
            self.simulated.peak_utilization * 100.0,
        )
    }
}

fn report_from_metrics(
    tasks: &[TestTask],
    schedule: &Schedule,
    simulated: ScenarioMetrics,
) -> ValidationReport {
    let estimate = estimate_schedule(tasks, schedule);
    let err = (estimate.total_cycles as f64 - simulated.total_cycles as f64)
        / simulated.total_cycles as f64
        * 100.0;
    ValidationReport {
        estimate,
        simulated,
        length_error_pct: err,
    }
}

/// Validates a batch of candidate schedules by full TLM simulation of the
/// JPEG SoC, fanned over the validation [`Farm`] (worker count from
/// `TVE_JOBS` / available parallelism). Reports come back in schedule
/// order; a malformed or panicking candidate yields a per-schedule
/// [`JobError`] without aborting its siblings.
pub fn validate_schedules(
    config: &SocConfig,
    plan: &SocTestPlan,
    tasks: &[TestTask],
    schedules: &[Schedule],
) -> Vec<Result<ValidationReport, JobError>> {
    validate_schedules_on(&Farm::new(), config, plan, tasks, schedules)
}

/// [`validate_schedules`] on an explicitly sized farm.
pub fn validate_schedules_on(
    farm: &Farm,
    config: &SocConfig,
    plan: &SocTestPlan,
    tasks: &[TestTask],
    schedules: &[Schedule],
) -> Vec<Result<ValidationReport, JobError>> {
    let jobs: Vec<ScenarioJob> = schedules
        .iter()
        .map(|s| ScenarioJob::new(config.clone(), plan.clone(), s.clone()))
        .collect();
    farm.run(&jobs)
        .outcomes
        .into_iter()
        .zip(schedules)
        .map(|(outcome, schedule)| {
            outcome
                .result
                .map(|metrics| report_from_metrics(tasks, schedule, metrics))
        })
        .collect()
}

/// Validates a candidate schedule by full TLM simulation of the JPEG SoC
/// and quantifies the coarse estimate's error — the "validation of test
/// strategies and schedules" of the paper's title. Single-schedule
/// convenience over [`validate_schedules`].
///
/// # Errors
///
/// Returns [`tve_core::ScheduleError`] if `schedule` is malformed for the
/// seven-test plan.
///
/// # Panics
///
/// Panics if the underlying simulation itself panics (a model bug).
pub fn validate_schedule(
    config: &SocConfig,
    plan: &SocTestPlan,
    tasks: &[TestTask],
    schedule: &Schedule,
) -> Result<ValidationReport, tve_core::ScheduleError> {
    let report = validate_schedules_on(
        &Farm::with_workers(1),
        config,
        plan,
        tasks,
        std::slice::from_ref(schedule),
    )
    .pop()
    .expect("one schedule in, one report out");
    report.map_err(|e| match e {
        JobError::Schedule(e) => e,
        JobError::Panicked(msg) => panic!("simulation panicked: {msg}"),
    })
}

/// A candidate together with its simulation-validated metrics.
#[derive(Debug, Clone)]
pub struct ValidatedCandidate {
    /// The explored candidate (schedule, estimate, Pareto flag).
    pub candidate: Candidate,
    /// The farm-validated simulation report, or the per-job failure.
    pub validation: Result<ValidationReport, JobError>,
}

/// The full explore-then-validate loop of the paper's title: explore
/// candidate schedules from coarse estimates, then validate the `top_n`
/// fastest by TLM simulation of `sim_plan`, fanned across the farm in one
/// batch. Candidates come back fastest-estimate first.
pub fn explore_and_validate(
    tasks: &[TestTask],
    constraints: &Constraints,
    extra: &[Schedule],
    config: &SocConfig,
    sim_plan: &SocTestPlan,
    sim_tasks: &[TestTask],
    top_n: usize,
) -> Vec<ValidatedCandidate> {
    let report = explore(tasks, constraints, extra);
    let finalists: Vec<Candidate> = report.candidates.into_iter().take(top_n).collect();
    let schedules: Vec<Schedule> = finalists.iter().map(|c| c.schedule.clone()).collect();
    let validations = validate_schedules(config, sim_plan, sim_tasks, &schedules);
    finalists
        .into_iter()
        .zip(validations)
        .map(|(candidate, validation)| ValidatedCandidate {
            candidate,
            validation,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_tasks;
    use tve_soc::paper_schedules;

    #[test]
    fn explore_produces_sorted_pareto_marked_candidates() {
        let tasks = estimate_tasks(&SocConfig::paper(), &SocTestPlan::paper());
        let report = explore(&tasks, &Constraints::default(), &paper_schedules());
        assert!(report.candidates.len() >= 6);
        for w in report.candidates.windows(2) {
            assert!(w[0].estimate.total_cycles <= w[1].estimate.total_cycles);
        }
        assert!(report.pareto_front().count() >= 1);
        assert!(report.best().pareto, "the fastest is Pareto by definition");
        // The exact optimum must be at least as fast as the paper's
        // hand-written schedule 4.
        let paper4 = report
            .candidates
            .iter()
            .find(|c| c.schedule.name.contains("schedule 4"))
            .unwrap();
        assert!(report.best().estimate.total_cycles <= paper4.estimate.total_cycles);
    }

    #[test]
    fn power_constraint_changes_the_front() {
        let tasks = estimate_tasks(&SocConfig::paper(), &SocTestPlan::paper());
        let loose = explore(&tasks, &Constraints::default(), &[]);
        let tight = explore(
            &tasks,
            &Constraints {
                tam_capacity: 1.0,
                power_budget: 200,
            },
            &[],
        );
        // With a tight power budget, the best feasible generated schedule
        // cannot beat the unconstrained one.
        assert!(tight.best().estimate.total_cycles >= loose.best().estimate.total_cycles);
    }

    #[test]
    fn batched_validation_matches_single_runs() {
        let mut config = SocConfig::small();
        config.memory_words = 64;
        let plan = SocTestPlan::small();
        let tasks = estimate_tasks(&config, &plan);
        let schedules = paper_schedules();
        let farm = crate::farm::Farm::with_workers(4);
        let batch = validate_schedules_on(&farm, &config, &plan, &tasks, &schedules);
        assert_eq!(batch.len(), 4);
        for (schedule, report) in schedules.iter().zip(&batch) {
            let single = validate_schedule(&config, &plan, &tasks, schedule).unwrap();
            let farmed = report.as_ref().unwrap();
            assert_eq!(single.simulated.digest(), farmed.simulated.digest());
            assert_eq!(single.estimate.total_cycles, farmed.estimate.total_cycles);
        }
    }

    #[test]
    fn explore_and_validate_returns_ranked_validated_finalists() {
        let mut config = SocConfig::small();
        config.memory_words = 64;
        let plan = SocTestPlan::small();
        let tasks = estimate_tasks(&config, &plan);
        let out = explore_and_validate(
            &tasks,
            &Constraints::default(),
            &paper_schedules(),
            &config,
            &plan,
            &tasks,
            3,
        );
        assert_eq!(out.len(), 3);
        for w in out.windows(2) {
            assert!(w[0].candidate.estimate.total_cycles <= w[1].candidate.estimate.total_cycles);
        }
        for v in &out {
            let report = v.validation.as_ref().expect("explored schedules are valid");
            assert!(report.simulated.result.clean());
        }
    }

    #[test]
    fn validation_runs_and_reports_error_on_miniature() {
        let mut config = SocConfig::small();
        config.memory_words = 64;
        let plan = SocTestPlan::small();
        let tasks = estimate_tasks(&config, &plan);
        let report = validate_schedule(&config, &plan, &tasks, &paper_schedules()[0]).unwrap();
        assert!(report.simulated.result.clean());
        assert!(report.length_error_pct.abs() < 60.0, "{report}");
    }
}
