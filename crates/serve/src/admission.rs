//! Admission control and load shedding.
//!
//! The daemon accepts connections faster than it can simulate. Without a
//! bound, a burst of campaign submissions queues unbounded work behind
//! every interactive lint request, and the first thing to collapse under
//! overload is exactly the cheap, latency-sensitive traffic a designer is
//! waiting on. Admission control inverts that: a bounded queue with
//! per-priority quotas sheds the *expensive background* work first and
//! keeps interactive jobs flowing.
//!
//! Priorities come from [`JobSpec::priority`](crate::JobSpec::priority):
//! `0` interactive (lint / bounds), `1` schedule validation, `2` campaign
//! shards. Three mechanisms gate a submission:
//!
//! 1. **Run cap** — at most `max_running` jobs execute at once; campaign
//!    jobs (priority ≥ 2) see a cap one lower when `max_running > 1`, so
//!    one slot is always reserved headroom for interactive work.
//! 2. **Queue quota** — waiting jobs are bounded per priority: priority 0
//!    may fill the whole queue, priority 1 three quarters, priority 2
//!    half. A full quota sheds with [`Shed`] instead of queueing.
//! 3. **Cost cap** — jobs carrying a static cost estimate (the summed
//!    `total.hi` of their `tve-lint` bounds envelopes, in simulated ns)
//!    are shed when the committed estimate would exceed `cost_cap` —
//!    unless the daemon is idle, where running slowly beats refusing
//!    everything forever.
//!
//! Shedding is a *typed* rejection carrying `retry_after_ms` scaled by
//! queue depth — the client backs off instead of hammering. A draining
//! daemon (the `drain` command or SIGTERM) refuses everything; see
//! [`Admission::drain`].

use std::sync::{Arc, Condvar, Mutex};

/// Tuning knobs for [`Admission`].
#[derive(Debug, Clone)]
pub(crate) struct AdmissionConfig {
    /// Maximum jobs executing concurrently.
    pub(crate) max_running: usize,
    /// Maximum jobs waiting for a run slot (across all priorities).
    pub(crate) max_queue: usize,
    /// Maximum summed cost estimate (simulated ns upper bound) of
    /// admitted jobs that carry an estimate. `f64::INFINITY` disables
    /// cost shedding.
    pub(crate) cost_cap: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_running: 2,
            max_queue: 8,
            cost_cap: f64::INFINITY,
        }
    }
}

/// A typed shed decision: the job was rejected, not queued.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Shed {
    /// Why the job was shed (rendered into the error message).
    pub(crate) reason: String,
    /// Suggested client back-off before retrying. Zero when retrying
    /// this daemon cannot help (draining).
    pub(crate) retry_after_ms: u64,
    /// True when the shed is a drain-mode refusal rather than overload.
    pub(crate) draining: bool,
}

#[derive(Debug)]
struct Waiter {
    seq: u64,
    priority: u8,
}

#[derive(Debug, Default)]
struct AdmState {
    running: usize,
    /// Cost estimates of admitted (queued + running) jobs.
    committed_cost: f64,
    waiting: Vec<Waiter>,
    next_seq: u64,
    draining: bool,
    /// Lifetime counters for the `stats` response.
    shed: u64,
    admitted: u64,
}

#[derive(Debug)]
struct Inner {
    config: AdmissionConfig,
    state: Mutex<AdmState>,
    cv: Condvar,
}

/// Bounded, priority-aware admission queue. Cheap to clone (shared
/// state); see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Admission {
    inner: Arc<Inner>,
}

/// Proof of admission. Executing a job requires holding a ticket; drop
/// releases the run slot (and the job's cost commitment) and wakes the
/// highest-priority waiter.
#[derive(Debug)]
pub(crate) struct Ticket {
    inner: Arc<Inner>,
    cost: f64,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock().unwrap();
        st.running -= 1;
        st.committed_cost = (st.committed_cost - self.cost).max(0.0);
        drop(st);
        self.inner.cv.notify_all();
    }
}

impl Admission {
    /// Builds an admission controller with the given limits.
    pub(crate) fn new(config: AdmissionConfig) -> Self {
        Admission {
            inner: Arc::new(Inner {
                config,
                state: Mutex::new(AdmState::default()),
                cv: Condvar::new(),
            }),
        }
    }

    /// Run cap seen by a job of `priority` — campaigns leave one slot of
    /// interactive headroom when there is more than one slot to spare.
    fn run_cap(&self, priority: u8) -> usize {
        if priority >= 2 && self.inner.config.max_running > 1 {
            self.inner.config.max_running - 1
        } else {
            self.inner.config.max_running
        }
    }

    /// Queue quota for a priority class.
    fn queue_quota(&self, priority: u8) -> usize {
        let q = self.inner.config.max_queue;
        match priority {
            0 => q,
            1 => (q * 3 / 4).max(1),
            _ => (q / 2).max(1),
        }
    }

    fn retry_after(depth: usize) -> u64 {
        (100 * (depth as u64 + 1)).min(2000)
    }

    /// Admits a job of `priority` with optional static cost estimate
    /// `cost` (simulated ns upper bound), blocking until a run slot is
    /// free. Returns a typed [`Shed`] immediately when the queue quota or
    /// cost cap would be exceeded, or when the daemon is draining.
    pub(crate) fn admit(&self, priority: u8, cost: Option<f64>) -> Result<Ticket, Shed> {
        let cost = cost.unwrap_or(0.0);
        let mut st = self.inner.state.lock().unwrap();
        if st.draining {
            st.shed += 1;
            return Err(Shed {
                reason: "daemon is draining".into(),
                retry_after_ms: 0,
                draining: true,
            });
        }
        let depth = st.waiting.len();
        if depth >= self.queue_quota(priority) {
            st.shed += 1;
            return Err(Shed {
                reason: format!(
                    "admission queue full for priority {priority} ({depth} waiting, quota {})",
                    self.queue_quota(priority)
                ),
                retry_after_ms: Self::retry_after(depth),
                draining: false,
            });
        }
        if cost > 0.0
            && st.committed_cost + cost > self.inner.config.cost_cap
            && (st.running > 0 || depth > 0)
        {
            st.shed += 1;
            return Err(Shed {
                reason: format!(
                    "estimated cost {:.0} ns would push committed load past cap {:.0} ns",
                    cost, self.inner.config.cost_cap
                ),
                retry_after_ms: Self::retry_after(depth),
                draining: false,
            });
        }

        let seq = st.next_seq;
        st.next_seq += 1;
        st.waiting.push(Waiter { seq, priority });
        st.committed_cost += cost;

        loop {
            if st.draining {
                st.waiting.retain(|w| w.seq != seq);
                st.committed_cost = (st.committed_cost - cost).max(0.0);
                st.shed += 1;
                drop(st);
                self.inner.cv.notify_all();
                return Err(Shed {
                    reason: "daemon is draining".into(),
                    retry_after_ms: 0,
                    draining: true,
                });
            }
            // Wake order: among waiters that fit under their run cap,
            // lowest priority value first, then FIFO by sequence.
            let is_next = st.running < self.run_cap(priority)
                && st
                    .waiting
                    .iter()
                    .filter(|w| st.running < self.run_cap(w.priority))
                    .min_by_key(|w| (w.priority, w.seq))
                    .map(|w| w.seq == seq)
                    .unwrap_or(false);
            if is_next {
                st.running += 1;
                st.admitted += 1;
                st.waiting.retain(|w| w.seq != seq);
                drop(st);
                self.inner.cv.notify_all();
                return Ok(Ticket {
                    inner: Arc::clone(&self.inner),
                    cost,
                });
            }
            st = self.inner.cv.wait(st).unwrap();
        }
    }

    /// Enters drain mode: queued waiters are woken and shed, future
    /// admissions are refused. Running jobs are unaffected. Returns
    /// whether this call started the drain.
    pub(crate) fn drain(&self) -> bool {
        let mut st = self.inner.state.lock().expect("admission state lock");
        let started = !std::mem::replace(&mut st.draining, true);
        self.inner.cv.notify_all();
        started
    }

    /// True once [`drain`](Admission::drain) was called.
    pub(crate) fn draining(&self) -> bool {
        self.inner
            .state
            .lock()
            .expect("admission state lock")
            .draining
    }

    /// True once no job is running and nothing is queued.
    pub(crate) fn idle(&self) -> bool {
        let st = self.inner.state.lock().unwrap();
        st.running == 0 && st.waiting.is_empty()
    }

    /// (running, queued, lifetime admitted, lifetime shed) snapshot for
    /// the `stats` response.
    pub(crate) fn depth(&self) -> (usize, usize, u64, u64) {
        let st = self.inner.state.lock().unwrap();
        (st.running, st.waiting.len(), st.admitted, st.shed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn run_cap_bounds_concurrency_and_priority_orders_the_queue() {
        let adm = Admission::new(AdmissionConfig {
            max_running: 1,
            max_queue: 8,
            cost_cap: f64::INFINITY,
        });
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = adm.admit(0, None).unwrap();

        let mut handles = Vec::new();
        // Submit a campaign first, then an interactive job; the
        // interactive one must run first once the gate drops.
        for (delay_ms, prio) in [(0u64, 2u8), (50, 0)] {
            let adm = adm.clone();
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(delay_ms));
                let t = adm.admit(prio, None).unwrap();
                order.lock().unwrap().push(prio);
                std::thread::sleep(Duration::from_millis(10));
                drop(t);
            }));
        }
        // Let both enqueue behind the gate.
        std::thread::sleep(Duration::from_millis(150));
        drop(gate);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 2]);
        assert!(adm.idle());
    }

    #[test]
    fn queue_quota_sheds_with_retry_hint() {
        let adm = Admission::new(AdmissionConfig {
            max_running: 1,
            max_queue: 2,
            cost_cap: f64::INFINITY,
        });
        let gate = adm.admit(0, None).unwrap();
        // Campaign quota is max(1, 2/2) = 1: first queues, second sheds.
        let first = {
            let adm = adm.clone();
            std::thread::spawn(move || drop(adm.admit(2, None).unwrap()))
        };
        // Wait until the first campaign is actually queued.
        while adm.depth().1 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let shed = adm.admit(2, None).unwrap_err();
        assert!(shed.reason.contains("queue full"), "{}", shed.reason);
        assert!(shed.retry_after_ms >= 100);
        assert!(!shed.draining);
        drop(gate);
        first.join().unwrap();
        assert_eq!(adm.depth().3, 1, "one lifetime shed");
    }

    #[test]
    fn cost_cap_sheds_expensive_work_when_loaded() {
        let adm = Admission::new(AdmissionConfig {
            max_running: 2,
            max_queue: 8,
            cost_cap: 1000.0,
        });
        let a = adm.admit(1, Some(800.0)).unwrap();
        let shed = adm.admit(1, Some(500.0)).unwrap_err();
        assert!(shed.reason.contains("cost"), "{}", shed.reason);
        drop(a);
        // Idle daemon always accepts, even over cap: better to run the
        // job slowly than to shed everything forever.
        let b = adm.admit(1, Some(5000.0)).unwrap();
        drop(b);
    }

    #[test]
    fn drain_sheds_waiters_and_refuses_new_work() {
        let adm = Admission::new(AdmissionConfig {
            max_running: 1,
            max_queue: 4,
            cost_cap: f64::INFINITY,
        });
        let gate = adm.admit(0, None).unwrap();
        let shed_count = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let adm = adm.clone();
            let shed_count = Arc::clone(&shed_count);
            std::thread::spawn(move || {
                if let Err(shed) = adm.admit(1, None) {
                    assert!(shed.draining);
                    shed_count.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        while adm.depth().1 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(adm.drain());
        assert!(!adm.drain(), "the drain starts once");
        waiter.join().unwrap();
        assert_eq!(shed_count.load(Ordering::SeqCst), 1);
        let refused = adm.admit(0, None).unwrap_err();
        assert!(refused.draining);
        drop(gate);
        assert!(adm.idle());
    }
}
