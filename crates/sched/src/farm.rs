//! Parallel scenario-validation farm.
//!
//! The paper's central claim is that TLM simulation is fast enough to
//! *explore* the test design space — many schedules, TAM widths and
//! wrapper configurations evaluated per decision. Each individual
//! simulation is strictly single-threaded (the `tve-sim` kernel is an
//! `Rc`/`RefCell` design), but independent [`run_scenario`] invocations
//! share nothing: every run builds its own simulator, SoC and pattern
//! sources from plain-data inputs. The farm exploits exactly that:
//! **parallelism across runs, never within one**.
//!
//! A [`Farm`] fans a batch of [`ScenarioJob`]s over the scoped worker
//! pool of [`crate::supervise`] (one single-threaded simulator instance
//! per worker at a time) and returns [`JobOutcome`]s in deterministic
//! submission order, each with its wall-clock time, simulated-cycle
//! count and error status. A panicking or failing job is captured as a
//! per-job error, never a farm-wide abort.
//!
//! The worker count defaults to [`std::thread::available_parallelism`]
//! and is overridable through the `TVE_JOBS` environment variable (or
//! explicitly via [`Farm::with_workers`]).
//!
//! Beyond schedule exploration, the generic [`Farm::run_map`] entry point
//! carries the fault-injection campaign (`tve-campaign`): every
//! (fault × schedule) cell of the detection matrix is an independent
//! simulation fanned across the pool, and the submission-order result
//! guarantee is what makes the emitted matrix byte-identical for any
//! worker count.

use std::fmt;
use std::num::NonZeroUsize;
use std::time::Duration;

use tve_core::{Schedule, ScheduleError};
use tve_obs::{SpanKind, SpanRecord, StoragePolicy, TraceLog};
use tve_sim::Time;
use tve_soc::{
    run_scenario, run_scenario_prepared_traced, ScenarioMetrics, SocConfig, SocTestPlan,
};

use crate::supervise::{SupervisePolicy, SupervisedError};

/// One independent scenario simulation: a SoC configuration, a test plan
/// and a schedule, exactly the inputs of [`run_scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioJob {
    /// Display label (defaults to the schedule name).
    pub label: String,
    /// The SoC model parameters.
    pub(crate) config: SocConfig,
    /// The pattern counts and memory tests.
    pub(crate) plan: SocTestPlan,
    /// The schedule to execute.
    pub(crate) schedule: Schedule,
}

impl ScenarioJob {
    /// A job labeled after its schedule.
    pub fn new(config: SocConfig, plan: SocTestPlan, schedule: Schedule) -> Self {
        ScenarioJob {
            label: schedule.name.clone(),
            config,
            plan,
            schedule,
        }
    }

    /// A job with an explicit label (useful in sweeps where several jobs
    /// share a schedule).
    pub fn labeled(
        label: impl Into<String>,
        config: SocConfig,
        plan: SocTestPlan,
        schedule: Schedule,
    ) -> Self {
        ScenarioJob {
            label: label.into(),
            config,
            plan,
            schedule,
        }
    }
}

/// Why a job produced no metrics.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The schedule was malformed for the plan's test list.
    Schedule(ScheduleError),
    /// The simulation panicked; the payload (if stringlike) is preserved.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Schedule(e) => write!(f, "invalid schedule: {e}"),
            JobError::Panicked(msg) => write!(f, "simulation panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The result of one farmed job, in submission order.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Submission index within the batch.
    pub index: usize,
    /// The job's label.
    pub label: String,
    /// Host wall-clock time this job's simulation took on its worker.
    pub(crate) wall: Duration,
    /// The simulated metrics, or what prevented them.
    pub(crate) result: Result<ScenarioMetrics, JobError>,
}

impl JobOutcome {
    /// Simulated test length in cycles, when the job succeeded.
    pub(crate) fn simulated_cycles(&self) -> Option<u64> {
        self.result.as_ref().ok().map(|m| m.total_cycles)
    }

    /// The metrics, panicking with the job label on error (convenience
    /// for harnesses whose jobs are known-good).
    ///
    /// # Panics
    ///
    /// Panics if the job failed.
    pub fn expect_metrics(&self) -> &ScenarioMetrics {
        match &self.result {
            Ok(m) => m,
            Err(e) => panic!("job '{}' failed: {e}", self.label),
        }
    }
}

/// The aggregate outcome of one batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job outcomes in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Workers the batch actually used.
    pub workers: usize,
    /// Wall-clock time of the whole batch (submission to last join).
    pub wall: Duration,
}

impl BatchReport {
    /// Sum of per-job wall-clock times — what a sequential run would
    /// roughly have cost; `cpu_time / wall` approximates the speedup.
    pub fn cpu_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.wall).sum()
    }

    /// Whether every job produced metrics.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_ok())
    }
}

/// A [`BatchReport`] together with the per-job [`TraceLog`]s captured by
/// [`Farm::run_traced`].
#[derive(Debug, Clone)]
pub struct TracedBatch {
    /// The batch outcomes — identical to an untraced [`Farm::run`] of the
    /// same jobs (tracing is pure observation).
    pub report: BatchReport,
    /// One trace per job, in submission order (empty for failed jobs).
    pub logs: Vec<TraceLog>,
}

impl TracedBatch {
    /// Merges every job's trace into one log: each job's tracks are
    /// prefixed with its label, same-named counters are summed across the
    /// batch, and each successful job contributes a [`SpanKind::Job`]
    /// span on the shared `"farm"` track covering its simulated extent.
    pub fn merged(&self) -> TraceLog {
        let mut merged = TraceLog::new();
        for (outcome, log) in self.report.outcomes.iter().zip(&self.logs) {
            merged.merge_labeled(&outcome.label, log.clone());
            if let Some(cycles) = outcome.simulated_cycles() {
                merged.spans.push(SpanRecord::new(
                    SpanKind::Job,
                    "farm",
                    outcome.label.clone(),
                    Time::ZERO,
                    Time::from_cycles(cycles),
                ));
            }
        }
        merged
    }
}

/// Reads `TVE_JOBS` (positive integer) or falls back to the machine's
/// available parallelism.
pub fn default_workers() -> usize {
    std::env::var("TVE_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// A scoped worker pool for scenario validation.
#[derive(Debug, Clone)]
pub struct Farm {
    workers: usize,
}

impl Default for Farm {
    /// A farm sized by `TVE_JOBS` / available parallelism.
    fn default() -> Self {
        Farm::new()
    }
}

impl Farm {
    /// A farm sized by `TVE_JOBS` / available parallelism.
    pub fn new() -> Self {
        Farm {
            workers: default_workers(),
        }
    }

    /// A farm with an explicit worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Self {
        Farm {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns outcomes in submission order.
    ///
    /// Jobs are pulled from a shared queue by up to `workers` threads;
    /// each worker owns one single-threaded simulator at a time. Results
    /// are deterministic: job `i`'s metrics depend only on job `i`'s
    /// inputs, and the returned vector is indexed by submission order
    /// regardless of completion order or worker count.
    pub fn run(&self, jobs: &[ScenarioJob]) -> BatchReport {
        let report = self.run_map(jobs, |job| {
            run_scenario(&job.config, &job.plan, &job.schedule)
        });
        let outcomes = report
            .0
            .into_iter()
            .enumerate()
            .map(|(index, (wall, result))| JobOutcome {
                index,
                label: jobs[index].label.clone(),
                wall,
                result: match result {
                    Ok(Ok(metrics)) => Ok(metrics),
                    Ok(Err(e)) => Err(JobError::Schedule(e)),
                    Err(panic_msg) => Err(JobError::Panicked(panic_msg)),
                },
            })
            .collect();
        BatchReport {
            outcomes,
            workers: report.1,
            wall: report.2,
        }
    }

    /// [`Farm::run`] with observability: each worker runs its job through
    /// [`run_scenario_prepared_traced`] with a per-job recorder of the given
    /// storage policy, so trace collection is as parallel as the
    /// simulations themselves. Only the plain-data [`TraceLog`]s cross
    /// thread boundaries. Metrics (and their digests) are identical to an
    /// untraced run.
    pub fn run_traced(&self, jobs: &[ScenarioJob], storage: StoragePolicy) -> TracedBatch {
        let (results, workers, wall) = self.run_map(jobs, |job| {
            run_scenario_prepared_traced(&job.config, &job.plan, &job.schedule, storage, |_| {})
        });
        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut logs = Vec::with_capacity(jobs.len());
        for (index, (job_wall, result)) in results.into_iter().enumerate() {
            let (result, log) = match result {
                Ok(Ok((metrics, log))) => (Ok(metrics), log),
                Ok(Err(e)) => (Err(JobError::Schedule(e)), TraceLog::new()),
                Err(panic_msg) => (Err(JobError::Panicked(panic_msg)), TraceLog::new()),
            };
            outcomes.push(JobOutcome {
                index,
                label: jobs[index].label.clone(),
                wall: job_wall,
                result,
            });
            logs.push(log);
        }
        TracedBatch {
            report: BatchReport {
                outcomes,
                workers,
                wall,
            },
            logs,
        }
    }

    /// Fans an arbitrary per-item computation over the worker pool:
    /// `f(item)` for every item, results in item order, panics captured
    /// per item as `Err(message)`. This is
    /// [`Farm::run_map_supervised`] under the default
    /// [`SupervisePolicy`] — no retries, no cancellation — and the
    /// substrate `run` builds on; harnesses with non-scenario workloads
    /// (e.g. whole-sim architecture sweeps) use it directly.
    #[allow(clippy::type_complexity)]
    pub fn run_map<T, R, F>(
        &self,
        items: &[T],
        f: F,
    ) -> (Vec<(Duration, Result<R, String>)>, usize, Duration)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let (results, workers, wall) =
            self.run_map_supervised(items, f, &SupervisePolicy::default());
        let results = results
            .into_iter()
            .map(|(item_wall, result)| {
                let result = result.map_err(|e| match e {
                    SupervisedError::Panicked(msg) => msg,
                    cancelled => cancelled.to_string(),
                });
                (item_wall, result)
            })
            .collect();
        (results, workers, wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_soc::paper_schedules;

    fn assert_send<T: Send>() {}

    #[test]
    fn job_types_are_send() {
        // The farm's soundness rests on jobs and outcomes being plain
        // data; keep that property machine-checked.
        assert_send::<ScenarioJob>();
        assert_send::<JobOutcome>();
        assert_send::<BatchReport>();
    }

    fn mini_jobs() -> Vec<ScenarioJob> {
        let config = SocConfig {
            memory_words: 64,
            ..SocConfig::small()
        };
        let plan = SocTestPlan::small();
        paper_schedules()
            .into_iter()
            .map(|s| ScenarioJob::new(config.clone(), plan.clone(), s))
            .collect()
    }

    #[test]
    fn farm_preserves_submission_order_and_succeeds() {
        let jobs = mini_jobs();
        let report = Farm::with_workers(3).run(&jobs);
        assert_eq!(report.workers, 3);
        assert_eq!(report.outcomes.len(), jobs.len());
        assert!(report.all_ok());
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            assert_eq!(o.label, jobs[i].label);
            assert!(o.simulated_cycles().unwrap() > 0);
            assert!(o.wall > Duration::ZERO);
        }
    }

    #[test]
    fn malformed_schedule_is_a_per_job_error() {
        let mut jobs = mini_jobs();
        jobs[1].schedule = Schedule::new("broken (dup test)", vec![vec![0], vec![0]]);
        let report = Farm::with_workers(2).run(&jobs);
        assert!(report.outcomes[0].result.is_ok());
        assert!(matches!(
            report.outcomes[1].result,
            Err(JobError::Schedule(_))
        ));
        // The rest of the batch is unaffected.
        assert!(report.outcomes[2].result.is_ok());
        assert!(report.outcomes[3].result.is_ok());
    }

    #[test]
    fn panicking_item_is_captured_not_fatal() {
        let farm = Farm::with_workers(2);
        let items = [1u32, 2, 3];
        let (results, _, _) = farm.run_map(&items, |&n| {
            if n == 2 {
                panic!("boom {n}");
            }
            n * 10
        });
        assert_eq!(results[0].1.as_ref().unwrap(), &10);
        assert!(results[1].1.as_ref().unwrap_err().contains("boom 2"));
        assert_eq!(results[2].1.as_ref().unwrap(), &30);
    }

    #[test]
    fn traced_batch_matches_untraced_and_merges_per_job_tracks() {
        let jobs = mini_jobs();
        let plain = Farm::with_workers(2).run(&jobs);
        let traced = Farm::with_workers(2).run_traced(&jobs, StoragePolicy::Unbounded);
        assert!(traced.report.all_ok());
        assert_eq!(traced.logs.len(), jobs.len());
        for (a, b) in plain.outcomes.iter().zip(&traced.report.outcomes) {
            assert_eq!(
                a.expect_metrics().digest(),
                b.expect_metrics().digest(),
                "tracing changed job '{}'",
                a.label
            );
        }
        for log in &traced.logs {
            assert!(!log.spans.is_empty());
        }
        let merged = traced.merged();
        // One Job span per successful job, plus label-prefixed tracks.
        assert_eq!(merged.spans_on("farm", SpanKind::Job).count(), jobs.len());
        let first = &jobs[0].label;
        assert!(merged
            .tracks()
            .iter()
            .any(|t| t.starts_with(&format!("{first}/"))));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let jobs = mini_jobs();
        let one = Farm::with_workers(1).run(&jobs);
        let many = Farm::with_workers(8).run(&jobs);
        for (a, b) in one.outcomes.iter().zip(&many.outcomes) {
            let (ma, mb) = (a.expect_metrics(), b.expect_metrics());
            assert_eq!(ma.digest(), mb.digest(), "job '{}' diverged", a.label);
        }
    }
}
