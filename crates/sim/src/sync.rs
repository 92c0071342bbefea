//! The bounded FIFO channel between processes, built directly on the
//! kernel's arena waker slots via [`WaitQueue`]: registering a waiter is
//! a `Vec` push of a packed task id, waking is an intrusive ready-queue
//! link. No `Waker` clones, no per-primitive `Rc<RefCell<..>>` event
//! state.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::waitq::WaitQueue;
use crate::SimHandle;

/// A bounded FIFO channel between processes — the TLM workhorse for
/// double-buffered pattern transport between sources, adaptors and wrappers.
///
/// Clones share the same queue.
#[derive(Clone)]
pub struct Fifo<T> {
    inner: Rc<FifoInner<T>>,
}

struct FifoInner<T> {
    queue: RefCell<VecDeque<T>>,
    capacity: usize,
    not_full: WaitQueue,
    not_empty: WaitQueue,
}

impl<T> fmt::Debug for Fifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fifo")
            .field("len", &self.len())
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (rendezvous channels are not supported).
    pub fn new(handle: &SimHandle, capacity: usize) -> Self {
        assert!(capacity > 0, "Fifo capacity must be at least 1");
        Fifo {
            inner: Rc::new(FifoInner {
                queue: RefCell::new(VecDeque::with_capacity(capacity)),
                capacity,
                not_full: WaitQueue::new(handle),
                not_empty: WaitQueue::new(handle),
            }),
        }
    }

    /// Items currently queued.
    pub(crate) fn len(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item`, suspending while the FIFO is full.
    pub async fn push(&self, item: T) {
        let mut item = Some(item);
        loop {
            {
                let mut q = self.inner.queue.borrow_mut();
                if q.len() < self.inner.capacity {
                    q.push_back(item.take().expect("item consumed twice"));
                    drop(q);
                    self.inner.not_empty.wake_all();
                    return;
                }
            }
            self.inner.not_full.wait().await;
        }
    }

    /// Dequeues the oldest item, suspending while the FIFO is empty.
    pub async fn pop(&self) -> T {
        loop {
            {
                let mut q = self.inner.queue.borrow_mut();
                if let Some(v) = q.pop_front() {
                    drop(q);
                    self.inner.not_full.wake_all();
                    return v;
                }
            }
            self.inner.not_empty.wait().await;
        }
    }

    /// Enqueues if space is immediately available.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut q = self.inner.queue.borrow_mut();
        if q.len() < self.inner.capacity {
            q.push_back(item);
            drop(q);
            self.inner.not_empty.wake_all();
            Ok(())
        } else {
            Err(item)
        }
    }

    /// Dequeues if an item is immediately available.
    pub fn try_pop(&self) -> Option<T> {
        let v = self.inner.queue.borrow_mut().pop_front();
        if v.is_some() {
            self.inner.not_full.wake_all();
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Duration, Simulation};
    use std::cell::Cell;

    #[test]
    fn fifo_backpressure_blocks_producer() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let fifo: Fifo<u32> = Fifo::new(&h, 2);
        let produced = Rc::new(Cell::new(0u32));
        {
            let fifo = fifo.clone();
            let produced = Rc::clone(&produced);
            sim.spawn(async move {
                for i in 0..10 {
                    fifo.push(i).await;
                    produced.set(produced.get() + 1);
                }
            });
        }
        {
            let fifo = fifo.clone();
            let h = h.clone();
            sim.spawn(async move {
                let mut expect = 0;
                loop {
                    h.wait(Duration::cycles(5)).await;
                    let v = fifo.pop().await;
                    assert_eq!(v, expect);
                    expect += 1;
                    if expect == 10 {
                        break;
                    }
                }
            });
        }
        sim.run();
        assert_eq!(produced.get(), 10);
        assert!(fifo.is_empty());
    }

    #[test]
    fn fifo_try_operations() {
        let sim = Simulation::new();
        let h = sim.handle();
        let fifo: Fifo<u8> = Fifo::new(&h, 1);
        assert_eq!(fifo.try_pop(), None);
        assert!(fifo.try_push(1).is_ok());
        assert_eq!(fifo.try_push(2), Err(2));
        assert_eq!(fifo.try_pop(), Some(1));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn fifo_zero_capacity_panics() {
        let sim = Simulation::new();
        let _ = Fifo::<u8>::new(&sim.handle(), 0);
    }
}
