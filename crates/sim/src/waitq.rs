//! [`WaitQueue`] — the lightweight suspend/wake slot behind the
//! [`crate::Fifo`] channel.
//!
//! Semantically a [`crate::Event`] (epoch-counted, wake-all, no memory of
//! past notifications), but embedded by value inside a primitive's inner
//! struct instead of carrying its own `Rc<RefCell<..>>`, and registering
//! waiters as packed arena task ids. A `Fifo` wait
//! is then: one `Vec` push to register, one intrusive ready-queue link
//! per waiter to wake — no `Waker` clones and no per-wait allocation in
//! steady state: a wake hands the emptied waiter list back, so its
//! capacity survives from one wait to the next.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::rc::Weak;
use std::task::{Context, Poll};

use crate::executor::{register_waiter, wake_waiters, Kernel, Waiter};
use crate::SimHandle;

/// An embeddable wake-all wait slot (see the module docs).
pub(crate) struct WaitQueue {
    kernel: Weak<Kernel>,
    epoch: Cell<u64>,
    waiters: RefCell<Vec<Waiter>>,
}

impl WaitQueue {
    pub(crate) fn new(handle: &SimHandle) -> Self {
        WaitQueue {
            kernel: Rc::downgrade(&handle.kernel),
            epoch: Cell::new(0),
            waiters: RefCell::new(Vec::new()),
        }
    }

    /// Bumps the epoch and wakes every currently-registered waiter, in
    /// registration order. A task that starts waiting afterwards does not
    /// observe this wakeup (same loss semantics as [`crate::Event`]).
    pub(crate) fn wake_all(&self) {
        self.epoch.set(self.epoch.get() + 1);
        // Wake outside the borrow (a foreign waker may run arbitrary
        // code), then return the emptied list unless a waiter arrived.
        let mut waiters = std::mem::take(&mut *self.waiters.borrow_mut());
        wake_waiters(&mut waiters, &self.kernel);
        let mut slot = self.waiters.borrow_mut();
        if slot.is_empty() {
            *slot = waiters;
        }
    }

    /// Waits for the next [`WaitQueue::wake_all`] after this call.
    pub(crate) fn wait(&self) -> QueueWait<'_> {
        QueueWait {
            queue: self,
            observed: None,
        }
    }

    /// Number of registered waiters (diagnostic).
    #[cfg(test)]
    pub(crate) fn waiter_count(&self) -> usize {
        self.waiters.borrow().len()
    }
}

/// Future returned by [`WaitQueue::wait`]; borrows the queue, so it never
/// needs an `Rc` of its own.
pub(crate) struct QueueWait<'a> {
    queue: &'a WaitQueue,
    observed: Option<u64>,
}

impl Future for QueueWait<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let q = self.queue;
        match self.observed {
            Some(e) if q.epoch.get() > e => Poll::Ready(()),
            observed => {
                if observed.is_none() {
                    self.observed = Some(q.epoch.get());
                }
                // First poll, or a spurious wake consumed our registration:
                // (re-)register.
                register_waiter(&mut q.waiters.borrow_mut(), &q.kernel, cx);
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Duration, Simulation};
    use std::cell::Cell;

    #[test]
    fn wake_all_resumes_every_current_waiter() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let q = Rc::new(WaitQueue::new(&h));
        let woken = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let q = Rc::clone(&q);
            let woken = Rc::clone(&woken);
            sim.spawn(async move {
                q.wait().await;
                woken.set(woken.get() + 1);
            });
        }
        {
            let q = Rc::clone(&q);
            let h2 = h.clone();
            sim.spawn(async move {
                h2.wait(Duration::cycles(5)).await;
                q.wake_all();
            });
        }
        sim.run();
        assert_eq!(woken.get(), 3);
    }

    #[test]
    fn late_waiter_misses_past_wakeup() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let q = Rc::new(WaitQueue::new(&h));
        q.wake_all(); // nobody waiting: lost
        {
            let q = Rc::clone(&q);
            sim.spawn(async move {
                q.wait().await;
            });
        }
        sim.run();
        assert_eq!(sim.live_tasks(), 1, "waiter must still be blocked");
        assert_eq!(q.waiter_count(), 1);
    }
}
