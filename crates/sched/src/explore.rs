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
    pub(crate) estimate: ScheduleEstimate,
    /// Whether it is Pareto-optimal (test time × peak power) within the
    /// explored set.
    pub(crate) pareto: bool,
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
    pub(crate) estimate: ScheduleEstimate,
    /// The simulated metrics.
    pub simulated: ScenarioMetrics,
    /// Relative test-length error of the estimate, in percent.
    pub(crate) length_error_pct: f64,
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
pub(crate) fn validate_schedules_on(
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
        assert!(
            report.candidates[0].pareto,
            "the fastest is Pareto by definition"
        );
        // The exact optimum must be at least as fast as the paper's
        // hand-written schedule 4.
        let paper4 = report
            .candidates
            .iter()
            .find(|c| c.schedule.name.contains("schedule 4"))
            .unwrap();
        assert!(report.candidates[0].estimate.total_cycles <= paper4.estimate.total_cycles);
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
        assert!(
            tight.candidates[0].estimate.total_cycles >= loose.candidates[0].estimate.total_cycles
        );
    }

    #[test]
    fn batched_validation_matches_a_single_worker() {
        let mut config = SocConfig::small();
        config.memory_words = 64;
        let plan = SocTestPlan::small();
        let tasks = estimate_tasks(&config, &plan);
        let schedules = paper_schedules();
        let farm = crate::farm::Farm::with_workers(4);
        let batch = validate_schedules_on(&farm, &config, &plan, &tasks, &schedules);
        let one = crate::farm::Farm::with_workers(1);
        let serial = validate_schedules_on(&one, &config, &plan, &tasks, &schedules);
        assert_eq!(batch.len(), 4);
        for (report, single) in batch.iter().zip(&serial) {
            let single = single.as_ref().unwrap();
            let farmed = report.as_ref().unwrap();
            assert_eq!(single.simulated.digest(), farmed.simulated.digest());
            assert_eq!(single.estimate.total_cycles, farmed.estimate.total_cycles);
        }
    }

    #[test]
    fn validation_runs_and_reports_error_on_miniature() {
        let mut config = SocConfig::small();
        config.memory_words = 64;
        let plan = SocTestPlan::small();
        let tasks = estimate_tasks(&config, &plan);
        let report = validate_schedules(&config, &plan, &tasks, &paper_schedules()[..1])
            .pop()
            .unwrap()
            .unwrap();
        assert!(report.simulated.result.clean());
        assert!(report.length_error_pct.abs() < 60.0, "{report}");
    }
}
