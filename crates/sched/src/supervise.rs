//! The validation farm's worker pool.
//!
//! Every farm entry point — [`Farm::run_map`], [`Farm::run`],
//! [`Farm::run_traced`] and the serving layer's supervised maps — fans
//! its items over this one scoped pool. No thread watches the workers
//! and nothing polls; each worker carries the resilience story itself:
//!
//! - **Retry and respawn** — a worker whose attempt panicked is
//!   considered poisoned. It re-queues the item while retry budget is
//!   left (otherwise it records the typed [`SupervisedError`]), spawns
//!   its own replacement into the scope, and exits.
//! - **External cancellation** — a batch-level [`CancelToken`] (e.g. a
//!   daemon job's deadline) is installed around every attempt with
//!   [`with_cancel_token`], so a running simulation unwinds with
//!   [`Cancelled`](tve_sim::Cancelled) at its next kernel scheduling
//!   boundary. Once the token has tripped, workers drain the queue to
//!   [`SupervisedError::Cancelled`] without running anything.
//! - **Chaos** — a deterministic fault hook may inject a worker panic
//!   or an artificial delay into chosen `(item, attempt)` pairs, which
//!   is how `tests/serve_resilience.rs` proves all of the above.
//!
//! A worker exits as soon as it finds the queue empty. That never
//! strands work: an item is only re-queued by a worker that then spawns
//! a replacement.
//!
//! Results keep the farm's contract: submission order, one slot per
//! item, bit-identical metrics for any worker count — a retried job
//! reruns the same pure function on the same plain-data inputs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

use tve_obs::OpsCounters;
use tve_sim::{panic_message, with_cancel_token, CancelToken};

use crate::farm::Farm;

/// A fault the chaos hook may inject into one `(item, attempt)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// The worker panics before running the job — the "worker killed
    /// mid-job" scenario. The worker retires; the attempt is retried.
    Panic,
    /// The worker stalls for the given wall-clock duration before
    /// running the job — the "pathologically slow worker" scenario.
    Delay(Duration),
}

/// Deterministic fault schedule: `(item_index, attempt)` → fault.
pub type ChaosHook = Arc<dyn Fn(usize, usize) -> Option<ChaosFault> + Send + Sync>;

/// Policy for one supervised batch. The default — no retries, no
/// cancellation, no chaos — is what [`Farm::run_map`] runs under.
#[derive(Clone, Default)]
pub struct SupervisePolicy {
    /// Retries allowed after the first attempt (so `retry_budget + 1`
    /// attempts total). Default 0.
    pub(crate) retry_budget: usize,
    /// Batch-level cancellation (e.g. a daemon job deadline): when this
    /// trips, running attempts unwind at their next kernel scheduling
    /// boundary and queued items resolve to
    /// [`SupervisedError::Cancelled`].
    pub(crate) external: Option<Arc<CancelToken>>,
    /// Deterministic fault injection (`tests/serve_resilience.rs`).
    pub(crate) chaos: Option<ChaosHook>,
    /// Sink for the `farm.retries` / `farm.respawns` /
    /// `farm.chaos_injected` counters.
    pub(crate) counters: Option<OpsCounters>,
}

impl SupervisePolicy {
    /// Sets the retry budget (0 = fail on first error).
    pub fn with_retry_budget(mut self, budget: usize) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Attaches a batch-level cancellation token.
    pub fn with_external(mut self, token: Arc<CancelToken>) -> Self {
        self.external = Some(token);
        self
    }

    /// Attaches a deterministic chaos hook.
    pub fn with_chaos(mut self, hook: ChaosHook) -> Self {
        self.chaos = Some(hook);
        self
    }

    /// Attaches an ops-counter sink.
    pub fn with_counters(mut self, counters: OpsCounters) -> Self {
        self.counters = Some(counters);
        self
    }
}

impl std::fmt::Debug for SupervisePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisePolicy")
            .field("retry_budget", &self.retry_budget)
            .field("external", &self.external.is_some())
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

/// Why a supervised item produced no result.
#[derive(Debug, Clone)]
pub enum SupervisedError {
    /// Every allowed attempt panicked; the last payload is preserved.
    Panicked(String),
    /// The batch was cancelled externally before (or while) this item
    /// ran.
    Cancelled,
}

impl std::fmt::Display for SupervisedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisedError::Panicked(msg) => write!(f, "panicked: {msg}"),
            SupervisedError::Cancelled => write!(f, "batch cancelled"),
        }
    }
}

impl std::error::Error for SupervisedError {}

/// Result slot for one item: filled once with the attempt duration and
/// the item's outcome, then never rewritten.
type Slot<R> = Mutex<Option<(Duration, Result<R, SupervisedError>)>>;

/// Shared state of one batch: the inputs, the queue and the result
/// slots.
struct Pool<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    policy: &'a SupervisePolicy,
    slots: Vec<Slot<R>>,
    /// The next item that has never been attempted.
    next: AtomicUsize,
    /// `(item, attempt)` pairs re-queued after a panicked attempt.
    retries: Mutex<Vec<(usize, usize)>>,
}

impl<T, R, F> Pool<'_, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fn cancelled(&self) -> bool {
        self.policy
            .external
            .as_ref()
            .is_some_and(|t| t.is_cancelled())
    }

    fn incr(&self, counter: &str) {
        if let Some(ops) = &self.policy.counters {
            ops.incr(counter);
        }
    }

    /// The next `(item, attempt)` to run: fresh items first (lock-free),
    /// then retries.
    fn pop(&self) -> Option<(usize, usize)> {
        let item = self.next.fetch_add(1, Ordering::Relaxed);
        if item < self.items.len() {
            return Some((item, 0));
        }
        self.retries.lock().expect("retry queue poisoned").pop()
    }

    fn resolve(&self, item: usize, wall: Duration, result: Result<R, SupervisedError>) {
        *self.slots[item].lock().expect("result slot poisoned") = Some((wall, result));
    }

    /// Runs one attempt (chaos first) under the batch's cancel token.
    fn attempt(&self, item: usize, attempt: usize) -> std::thread::Result<R> {
        let chaos = self
            .policy
            .chaos
            .as_ref()
            .and_then(|hook| hook(item, attempt));
        if chaos.is_some() {
            self.incr("farm.chaos_injected");
        }
        let run = || {
            match chaos {
                Some(ChaosFault::Panic) => {
                    std::panic::panic_any("chaos: injected worker panic".to_string())
                }
                Some(ChaosFault::Delay(d)) => std::thread::sleep(d),
                None => {}
            }
            (self.f)(&self.items[item])
        };
        catch_unwind(AssertUnwindSafe(|| match &self.policy.external {
            Some(token) => with_cancel_token(token, run),
            None => run(),
        }))
    }

    /// One worker's life: run attempts until the queue is empty. A worker
    /// that hosted an unwind retires and spawns its own replacement.
    fn work<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        while let Some((item, attempt)) = self.pop() {
            if self.cancelled() {
                self.resolve(item, Duration::ZERO, Err(SupervisedError::Cancelled));
                continue;
            }
            let started = Instant::now();
            let outcome = self.attempt(item, attempt);
            let wall = started.elapsed();
            let payload = match outcome {
                Ok(value) => {
                    self.resolve(item, wall, Ok(value));
                    continue;
                }
                Err(payload) => payload,
            };
            if self.cancelled() {
                self.resolve(item, wall, Err(SupervisedError::Cancelled));
            } else if attempt < self.policy.retry_budget {
                self.incr("farm.retries");
                // Queued before the replacement exists, so it is never
                // stranded.
                self.retries
                    .lock()
                    .expect("retry queue poisoned")
                    .push((item, attempt + 1));
            } else {
                let message = panic_message(payload.as_ref());
                self.resolve(item, wall, Err(SupervisedError::Panicked(message)));
            }
            self.incr("farm.respawns");
            scope.spawn(move || self.work(scope));
            return;
        }
    }
}

impl Farm {
    /// [`Farm::run_map`] under `policy`: retries on a budget, worker
    /// respawn, external cancellation and deterministic chaos injection.
    ///
    /// Returns per-item `(wall, result)` pairs in submission order (the
    /// wall time is the last attempt's), the worker count and the batch
    /// wall time. Every item resolves — a permanently failing item
    /// carries its typed [`SupervisedError`]; the batch never hangs and
    /// never returns a hole.
    #[allow(clippy::type_complexity)]
    pub fn run_map_supervised<T, R, F>(
        &self,
        items: &[T],
        f: F,
        policy: &SupervisePolicy,
    ) -> (Vec<(Duration, Result<R, SupervisedError>)>, usize, Duration)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let started = Instant::now();
        let workers = self.workers().min(items.len()).max(1);
        let pool = Pool {
            items,
            f: &f,
            policy,
            slots: items.iter().map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            retries: Mutex::new(Vec::new()),
        };
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| pool.work(scope));
            }
        });
        let results = pool
            .slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("scope join guarantees every slot is filled")
            })
            .collect();
        (results, workers, started.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use super::*;
    use tve_soc::{paper_schedules, run_scenario, ScenarioMetrics, SocConfig, SocTestPlan};

    use crate::farm::ScenarioJob;

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

    fn run_job(job: &ScenarioJob) -> ScenarioMetrics {
        run_scenario(&job.config, &job.plan, &job.schedule).expect("well-formed schedule")
    }

    fn digests<E: std::fmt::Debug>(results: &[(Duration, Result<ScenarioMetrics, E>)]) -> Vec<u64> {
        results
            .iter()
            .map(|(_, r)| r.as_ref().expect("job succeeded").digest())
            .collect()
    }

    fn chaos(faults: Vec<((usize, usize), ChaosFault)>) -> ChaosHook {
        Arc::new(move |item, attempt| {
            faults
                .iter()
                .find(|((i, a), _)| *i == item && *a == attempt)
                .map(|(_, f)| *f)
        })
    }

    #[test]
    fn injected_panic_is_retried_and_results_match_unsupervised() {
        let jobs = mini_jobs();
        let (clean, _, _) = Farm::with_workers(2).run_map(&jobs, run_job);
        let ops = OpsCounters::new();
        let policy = SupervisePolicy::default()
            .with_chaos(chaos(vec![((1, 0), ChaosFault::Panic)]))
            .with_retry_budget(1)
            .with_counters(ops.clone());
        let (healed, _, _) = Farm::with_workers(2).run_map_supervised(&jobs, run_job, &policy);
        assert_eq!(ops.get("farm.retries"), 1);
        assert_eq!(ops.get("farm.chaos_injected"), 1);
        assert_eq!(ops.get("farm.respawns"), 1);
        assert_eq!(
            digests(&clean),
            digests(&healed),
            "retry must heal a single injected fault without changing results"
        );
    }

    #[test]
    fn permanent_failure_is_typed_not_a_hang() {
        let farm = Farm::with_workers(2);
        let items = [0u32, 1, 2, 3];
        let ops = OpsCounters::new();
        let policy = SupervisePolicy::default()
            .with_retry_budget(2)
            .with_counters(ops.clone());
        let (results, _, _) = farm.run_map_supervised(
            &items,
            |&n| {
                if n == 2 {
                    panic!("always broken");
                }
                n * 10
            },
            &policy,
        );
        assert_eq!(results.len(), 4, "no holes in the batch");
        assert_eq!(results[0].1.as_ref().unwrap(), &0);
        assert_eq!(results[1].1.as_ref().unwrap(), &10);
        match &results[2].1 {
            Err(SupervisedError::Panicked(msg)) => assert!(msg.contains("always broken")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(results[3].1.as_ref().unwrap(), &30);
        // First attempt + 2 retries, all failed; each hosted panic
        // retired its worker in favour of a fresh one.
        assert_eq!(ops.get("farm.retries"), 2);
        assert_eq!(ops.get("farm.respawns"), 3);
    }

    #[test]
    fn external_token_cancels_a_running_kernel_and_drains_the_queue() {
        tve_sim::silence_cancelled_panics();
        // The token trips 20 ms into the first run, while it is inside
        // the kernel, which unwinds at its next scheduling boundary
        // instead of running to completion. The batch runs the schedules
        // in reverse, so the first is schedule 4, whose T6 march takes
        // hundreds of milliseconds at paper scale; schedule 1 can finish
        // in under 20 ms.
        let config = SocConfig::paper();
        let plan = SocTestPlan::paper();
        let jobs: Vec<ScenarioJob> = paper_schedules()
            .into_iter()
            .rev()
            .map(|s| ScenarioJob::new(config.clone(), plan.clone(), s))
            .collect();
        let token = CancelToken::new();
        let policy = SupervisePolicy::default().with_external(Arc::clone(&token));
        let running = AtomicBool::new(false);
        let started = Instant::now();
        let (results, _, _) = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !running.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(20));
                token.cancel();
            });
            Farm::with_workers(1).run_map_supervised(
                &jobs,
                |job| {
                    running.store(true, Ordering::Release);
                    run_job(job)
                },
                &policy,
            )
        });
        assert_eq!(results.len(), jobs.len(), "no holes in the batch");
        for (i, (_, result)) in results.iter().enumerate() {
            assert!(
                matches!(result, Err(SupervisedError::Cancelled)),
                "item {i}: expected Cancelled, got {result:?}"
            );
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "cancellation must not wait for the full simulation"
        );
    }

    #[test]
    fn external_cancellation_resolves_everything_quickly() {
        let farm = Farm::with_workers(1);
        let token = CancelToken::new();
        token.cancel();
        let items: Vec<u32> = (0..64).collect();
        let policy = SupervisePolicy::default().with_external(token);
        let (results, _, _) = farm.run_map_supervised(&items, |&n| n, &policy);
        assert_eq!(results.len(), 64);
        assert!(results
            .iter()
            .all(|(_, r)| matches!(r, Err(SupervisedError::Cancelled))));
    }

    #[test]
    fn worker_count_does_not_change_supervised_results() {
        let jobs = mini_jobs();
        let hook = chaos(vec![
            ((0, 0), ChaosFault::Panic),
            ((2, 0), ChaosFault::Panic),
        ]);
        let policy = SupervisePolicy::default()
            .with_chaos(hook)
            .with_retry_budget(1);
        let (one, _, _) = Farm::with_workers(1).run_map_supervised(&jobs, run_job, &policy);
        let (many, _, _) = Farm::with_workers(8).run_map_supervised(&jobs, run_job, &policy);
        assert_eq!(digests(&one), digests(&many));
    }
}
