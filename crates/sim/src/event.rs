//! Notification events, the kernel's basic synchronization primitive
//! (the counterpart of SystemC's `sc_event`).

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll};

use crate::executor::{register_waiter, wake_waiters, Kernel, TimerFire, Waiter};
use crate::{SimHandle, Time};

pub(crate) struct EventState {
    epoch: u64,
    /// Registered waiters — packed arena task ids on the fast path, so a
    /// wait costs one `Vec` push and a notification is a ready-queue
    /// link per waiter (no `Waker` clones). A notification hands the
    /// emptied list back, so once it has grown to the event's peak
    /// waiter count neither side allocates.
    waiters: Vec<Waiter>,
    kernel: Weak<Kernel>,
}

impl EventState {
    /// Bumps the epoch and wakes all registered waiters.
    ///
    /// The list is taken out for the wake, since a foreign waker may run
    /// arbitrary code, and put back empty afterwards unless a waiter
    /// registered in the meantime.
    pub(crate) fn fire(state: &Rc<RefCell<EventState>>) {
        let (mut waiters, kernel) = {
            let mut s = state.borrow_mut();
            s.epoch += 1;
            (std::mem::take(&mut s.waiters), s.kernel.clone())
        };
        wake_waiters(&mut waiters, &kernel);
        let mut s = state.borrow_mut();
        if s.waiters.is_empty() {
            s.waiters = waiters;
        }
    }
}

/// A multi-waiter notification event.
///
/// Semantics follow SystemC's `sc_event`: a notification wakes every process
/// *currently* waiting; a process that starts waiting afterwards does not see
/// past notifications. Clones share the same underlying event.
///
/// ```
/// use tve_sim::{Simulation, Event, Duration};
/// let mut sim = Simulation::new();
/// let h = sim.handle();
/// let ev = Event::new(&h);
/// let ev2 = ev.clone();
/// let h2 = h.clone();
/// let waiter = sim.spawn(async move {
///     ev2.wait().await;
///     h2.now().cycles()
/// });
/// sim.spawn(async move {
///     h.wait(Duration::cycles(30)).await;
///     ev.notify();
/// });
/// sim.run();
/// assert_eq!(waiter.try_take(), Some(30));
/// ```
#[derive(Clone)]
pub struct Event {
    state: Rc<RefCell<EventState>>,
    handle: SimHandle,
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("Event")
            .field("epoch", &s.epoch)
            .field("waiters", &s.waiters.len())
            .finish()
    }
}

impl Event {
    /// Creates a new event bound to the simulation behind `handle`.
    pub fn new(handle: &SimHandle) -> Self {
        Event {
            state: Rc::new(RefCell::new(EventState {
                epoch: 0,
                waiters: Vec::new(),
                kernel: Rc::downgrade(&handle.kernel),
            })),
            handle: handle.clone(),
        }
    }

    /// Notifies immediately: every process currently waiting resumes within
    /// the current delta cycle.
    pub fn notify(&self) {
        EventState::fire(&self.state);
    }

    /// Notifies at absolute time `t` (clamped to the current time).
    pub fn notify_at(&self, t: Time) {
        self.handle
            .kernel
            .schedule(t.cycles(), TimerFire::Notify(Rc::downgrade(&self.state)));
    }

    /// Waits for the next notification.
    pub fn wait(&self) -> EventWait {
        EventWait {
            state: Rc::clone(&self.state),
            observed: None,
        }
    }
}

/// Future returned by [`Event::wait`].
#[must_use = "futures do nothing unless awaited"]
pub struct EventWait {
    state: Rc<RefCell<EventState>>,
    observed: Option<u64>,
}

impl Future for EventWait {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let state = Rc::clone(&self.state);
        let mut s = state.borrow_mut();
        let kernel = s.kernel.clone();
        match self.observed {
            Some(e) if s.epoch > e => Poll::Ready(()),
            Some(_) => {
                // Spurious wake: re-register (our registration was consumed
                // by the wake that got us here).
                register_waiter(&mut s.waiters, &kernel, cx);
                Poll::Pending
            }
            None => {
                self.observed = Some(s.epoch);
                register_waiter(&mut s.waiters, &kernel, cx);
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
    fn notify_wakes_all_current_waiters() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ev = Event::new(&h);
        let woken = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let ev = ev.clone();
            let woken = Rc::clone(&woken);
            sim.spawn(async move {
                ev.wait().await;
                woken.set(woken.get() + 1);
            });
        }
        {
            let h2 = h.clone();
            let ev = ev.clone();
            sim.spawn(async move {
                h2.wait(Duration::cycles(5)).await;
                ev.notify();
            });
        }
        sim.run();
        assert_eq!(woken.get(), 3);
    }

    #[test]
    fn late_waiter_misses_past_notification() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ev = Event::new(&h);
        ev.notify(); // nobody waiting: lost, like sc_event
        let ev2 = ev.clone();
        sim.spawn(async move {
            ev2.wait().await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1, "waiter must still be blocked");
    }

    #[test]
    fn timed_notification_fires_at_the_right_time() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ev = Event::new(&h);
        ev.notify_at(Time::from_cycles(25));
        let ev2 = ev.clone();
        let h2 = h.clone();
        let jh = sim.spawn(async move {
            ev2.wait().await;
            h2.now().cycles()
        });
        sim.run();
        assert_eq!(jh.try_take(), Some(25));
    }

    #[test]
    fn repeated_notifications_support_producer_consumer() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ev = Event::new(&h);
        let seen = Rc::new(Cell::new(0u32));
        {
            let ev = ev.clone();
            let seen = Rc::clone(&seen);
            sim.spawn(async move {
                for _ in 0..4 {
                    ev.wait().await;
                    seen.set(seen.get() + 1);
                }
            });
        }
        {
            let h2 = h.clone();
            sim.spawn(async move {
                for _ in 0..4 {
                    h2.wait(Duration::cycles(10)).await;
                    ev.notify();
                }
            });
        }
        sim.run();
        assert_eq!(seen.get(), 4);
        assert_eq!(sim.live_tasks(), 0);
    }
}
