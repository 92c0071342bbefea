//! Bus arbitration policies.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use tve_sim::{Event, SimHandle};

use crate::payload::InitiatorId;

/// Arbitration policy of a shared TAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArbiterPolicy {
    /// Grant in request order.
    #[default]
    Fcfs,
    /// Cycle through initiator ids, starting after the last grantee.
    RoundRobin,
    /// Lower initiator id wins (ties broken by request order).
    Priority,
}

impl fmt::Display for ArbiterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArbiterPolicy::Fcfs => "fcfs",
            ArbiterPolicy::RoundRobin => "round-robin",
            ArbiterPolicy::Priority => "priority",
        };
        f.write_str(s)
    }
}

struct Waiter {
    seq: u64,
    id: InitiatorId,
    granted: Event,
}

struct ArbiterInner {
    policy: ArbiterPolicy,
    busy: Cell<bool>,
    seq: Cell<u64>,
    last_granted: Cell<InitiatorId>,
    waiters: RefCell<Vec<Waiter>>,
    /// Mirror of `waiters.len()`, so the uncontended fast path
    /// (`is_idle` / `try_acquire` / `release`) never borrows the
    /// `RefCell` — three borrows per transfer add up at memory-test
    /// op rates.
    queued: Cell<usize>,
    grants: Cell<u64>,
    handle: SimHandle,
}

/// A single-resource arbiter implementing the [`ArbiterPolicy`] schemes.
///
/// `acquire` suspends until the resource is granted; `release` hands the
/// resource to the next waiter according to the policy. Clones share state.
///
/// ```
/// use tve_sim::Simulation;
/// use tve_tlm::{Arbiter, ArbiterPolicy, InitiatorId};
///
/// let mut sim = Simulation::new();
/// let h = sim.handle();
/// let arb = Arbiter::new(&h, ArbiterPolicy::Fcfs);
/// let a = arb.clone();
/// let h2 = h.clone();
/// sim.spawn(async move {
///     a.acquire(InitiatorId(0)).await;
///     h2.wait(tve_sim::Duration::cycles(4)).await;
///     a.release();
/// });
/// let b = arb.clone();
/// sim.spawn(async move {
///     b.acquire(InitiatorId(1)).await; // granted once the first holder releases
///     b.release();
/// });
/// assert_eq!(sim.run().cycles(), 4);
/// ```
#[derive(Clone)]
pub struct Arbiter {
    inner: Rc<ArbiterInner>,
}

impl fmt::Debug for Arbiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arbiter")
            .field("policy", &self.inner.policy)
            .field("busy", &self.inner.busy.get())
            .field("waiters", &self.inner.waiters.borrow().len())
            .finish()
    }
}

impl Arbiter {
    /// Creates an idle arbiter with the given policy.
    pub fn new(handle: &SimHandle, policy: ArbiterPolicy) -> Self {
        Arbiter {
            inner: Rc::new(ArbiterInner {
                policy,
                busy: Cell::new(false),
                seq: Cell::new(0),
                last_granted: Cell::new(InitiatorId(u8::MAX)),
                waiters: RefCell::new(Vec::new()),
                queued: Cell::new(0),
                grants: Cell::new(0),
                handle: handle.clone(),
            }),
        }
    }

    /// Whether the resource is free with nobody queued — i.e.
    /// [`Arbiter::try_acquire`] would succeed.
    pub(crate) fn is_idle(&self) -> bool {
        !self.inner.busy.get() && self.inner.queued.get() == 0
    }

    /// Acquires the resource for `id` if it is idle (no suspension);
    /// returns whether it was granted. The synchronous half of
    /// [`Arbiter::acquire`]'s uncontended fast path.
    pub(crate) fn try_acquire(&self, id: InitiatorId) -> bool {
        let inner = &self.inner;
        if !inner.busy.get() && inner.queued.get() == 0 {
            inner.busy.set(true);
            inner.last_granted.set(id);
            inner.grants.set(inner.grants.get() + 1);
            true
        } else {
            false
        }
    }

    /// Books `n` uncontended grants to `id`, each released before the
    /// next: what `n` [`Arbiter::try_acquire`] / [`Arbiter::release`]
    /// pairs on an idle arbiter leave behind. The arbiter must be idle.
    pub(crate) fn grant_run(&self, id: InitiatorId, n: u64) {
        let inner = &self.inner;
        debug_assert!(self.is_idle(), "a run of grants on a busy arbiter");
        if n > 0 {
            inner.last_granted.set(id);
            inner.grants.set(inner.grants.get() + n);
        }
    }

    /// Grants made so far, and the initiator of the latest.
    pub(crate) fn grants(&self) -> (u64, InitiatorId) {
        (self.inner.grants.get(), self.inner.last_granted.get())
    }

    /// Acquires the resource on behalf of `id`, suspending until granted.
    pub async fn acquire(&self, id: InitiatorId) {
        let inner = &self.inner;
        if self.try_acquire(id) {
            return;
        }
        let granted = Event::new(&inner.handle);
        let seq = inner.seq.get();
        inner.seq.set(seq + 1);
        inner.waiters.borrow_mut().push(Waiter {
            seq,
            id,
            granted: granted.clone(),
        });
        inner.queued.set(inner.queued.get() + 1);
        granted.wait().await;
    }

    /// Releases the resource, granting the next waiter per the policy.
    ///
    /// # Panics
    ///
    /// Panics if the arbiter is not currently held.
    pub fn release(&self) {
        let inner = &self.inner;
        assert!(inner.busy.get(), "release of an idle arbiter");
        if inner.queued.get() == 0 {
            inner.busy.set(false);
            return;
        }
        let next = self.pick_next();
        match next {
            Some(waiter) => {
                inner.last_granted.set(waiter.id);
                inner.grants.set(inner.grants.get() + 1);
                waiter.granted.notify();
                // `busy` stays true: ownership passes directly.
            }
            None => inner.busy.set(false),
        }
    }

    fn pick_next(&self) -> Option<Waiter> {
        let mut waiters = self.inner.waiters.borrow_mut();
        if waiters.is_empty() {
            return None;
        }
        let idx = match self.inner.policy {
            ArbiterPolicy::Fcfs => {
                let mut best = 0;
                for (i, w) in waiters.iter().enumerate() {
                    if w.seq < waiters[best].seq {
                        best = i;
                    }
                }
                best
            }
            ArbiterPolicy::Priority => {
                let mut best = 0;
                for (i, w) in waiters.iter().enumerate() {
                    let b = &waiters[best];
                    if (w.id, w.seq) < (b.id, b.seq) {
                        best = i;
                    }
                }
                best
            }
            ArbiterPolicy::RoundRobin => {
                // Next id strictly greater than the last grantee, wrapping;
                // ties within an id resolved by request order.
                let last = self.inner.last_granted.get();
                let key = |w: &Waiter| {
                    let gap = w.id.0.wrapping_sub(last.0).wrapping_sub(1);
                    (gap, w.seq)
                };
                let mut best = 0;
                for (i, w) in waiters.iter().enumerate() {
                    if key(w) < key(&waiters[best]) {
                        best = i;
                    }
                }
                best
            }
        };
        self.inner.queued.set(self.inner.queued.get() - 1);
        Some(waiters.swap_remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use tve_sim::{Duration, Simulation};

    fn run_policy(policy: ArbiterPolicy, order_in: &[u8]) -> Vec<u8> {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let arb = Arbiter::new(&h, policy);
        let log: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        // A holder keeps the bus busy while all contenders queue up.
        {
            let arb = arb.clone();
            let h = h.clone();
            sim.spawn(async move {
                arb.acquire(InitiatorId(9)).await;
                h.wait(Duration::cycles(100)).await;
                arb.release();
            });
        }
        for (k, &id) in order_in.iter().enumerate() {
            let arb = arb.clone();
            let h = h.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                // Stagger requests so request order == listed order.
                h.wait(Duration::cycles(1 + k as u64)).await;
                arb.acquire(InitiatorId(id)).await;
                log.borrow_mut().push(id);
                h.wait(Duration::cycles(10)).await;
                arb.release();
            });
        }
        sim.run();
        let v = log.borrow().clone();
        v
    }

    #[test]
    fn fcfs_grants_in_request_order() {
        assert_eq!(run_policy(ArbiterPolicy::Fcfs, &[3, 1, 2]), vec![3, 1, 2]);
    }

    #[test]
    fn priority_grants_lowest_id_first() {
        assert_eq!(
            run_policy(ArbiterPolicy::Priority, &[3, 1, 2]),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn round_robin_cycles_after_last_grantee() {
        // Holder has id 9; waiters 3,1,2 -> next after 9 wraps to 1, then 2, 3.
        assert_eq!(
            run_policy(ArbiterPolicy::RoundRobin, &[3, 1, 2]),
            vec![1, 2, 3]
        );
        // Holder 9, waiters 0 and 12: after 9 comes 12, then 0.
        assert_eq!(run_policy(ArbiterPolicy::RoundRobin, &[0, 12]), vec![12, 0]);
    }

    #[test]
    fn uncontended_acquire_is_immediate() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let arb = Arbiter::new(&h, ArbiterPolicy::Fcfs);
        let a = arb.clone();
        sim.spawn(async move {
            a.acquire(InitiatorId(5)).await;
            a.release();
            a.acquire(InitiatorId(5)).await;
            a.release();
        });
        let end = sim.run();
        assert_eq!(end.cycles(), 0, "no time may pass without contention");
        assert_eq!(arb.inner.grants.get(), 2);
    }

    #[test]
    #[should_panic(expected = "idle arbiter")]
    fn release_when_idle_panics() {
        let sim = Simulation::new();
        let arb = Arbiter::new(&sim.handle(), ArbiterPolicy::Fcfs);
        arb.release();
    }
}
