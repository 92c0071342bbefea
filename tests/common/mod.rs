//! TAM shims shared by the suites that compare a fast path with the
//! event-driven path: each sits between a component and its caller and
//! forwards to the component.

// Each suite compiles its own copy and uses only part of it.
#![allow(dead_code)]

use std::cell::Cell;
use std::rc::Rc;

use tve::sim::SimHandle;
use tve::tlm::{LocalBoxFuture, TamIf, Transaction};

/// Forwards only `TamIf::transport`, with the hand-off promise
/// (`Transaction::follows`) stripped: its `transport_sync_try` is the
/// declining default, so every transaction takes the event-driven path,
/// and a port behind it (an EBI) posts every transfer in a task of its
/// own instead of holding it.
pub struct EventOnly(pub Rc<dyn TamIf>);

impl TamIf for EventOnly {
    fn name(&self) -> &str {
        "event-only"
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        txn.set_follows(false);
        self.0.transport(txn)
    }
}

/// Forwards both entry points and counts the transactions the inner
/// component's synchronous path took and declined.
///
/// Behind a caller that offers one transfer at a time (an EBI resolving
/// its held transfers), [`Counted::lone_caller`] also checks that a
/// declined transfer is not offered again at the same cycle: after a
/// decline, the next call must be the event path's `transport`, or come
/// at a later cycle.
pub struct Counted {
    inner: Rc<dyn TamIf>,
    clock: Option<SimHandle>,
    hits: Cell<u64>,
    declines: Cell<u64>,
    declined_at: Cell<Option<u64>>,
}

impl Counted {
    pub fn new(inner: Rc<dyn TamIf>) -> Self {
        Counted {
            inner,
            clock: None,
            hits: Cell::new(0),
            declines: Cell::new(0),
            declined_at: Cell::new(None),
        }
    }

    /// A counter that also checks the lone caller's no-second-offer rule
    /// against `clock`.
    pub fn lone_caller(inner: Rc<dyn TamIf>, clock: &SimHandle) -> Self {
        Counted {
            clock: Some(clock.clone()),
            ..Counted::new(inner)
        }
    }

    /// Transactions the synchronous path took.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Transactions the synchronous path declined.
    pub fn declines(&self) -> u64 {
        self.declines.get()
    }
}

impl TamIf for Counted {
    fn name(&self) -> &str {
        "counted"
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        self.declined_at.set(None);
        self.inner.transport(txn)
    }

    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        let now = self.clock.as_ref().map(|clock| clock.now().cycles());
        if let Some(now) = now {
            assert_ne!(
                self.declined_at.get(),
                Some(now),
                "a declined transfer was offered again at cycle {now}"
            );
        }
        let taken = self.inner.transport_sync_try(txn);
        let counter = if taken { &self.hits } else { &self.declines };
        counter.set(counter.get() + 1);
        self.declined_at.set(now.filter(|_| !taken));
        taken
    }
}
