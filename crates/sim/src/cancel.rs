//! Cooperative cancellation for simulations.
//!
//! A [`CancelToken`] is a thread-safe flag that an external supervisor
//! (deadline watcher, shutdown path, chaos harness) trips to ask a running
//! simulation to stop. The kernel checks the token once per scheduling
//! boundary — each `advance` to the next distinct timestamp, which in
//! loosely-timed mode is also every quantum sync point — and at every
//! timed wait that would otherwise complete inline without suspending:
//! a tripped token makes that wait suspend, so the run loop reaches its
//! next boundary. A cancelled simulation therefore stops at a
//! deterministic, well-defined point instead of mid-poll.
//!
//! Cancellation is delivered by unwinding with the [`Cancelled`] payload
//! via [`std::panic::panic_any`]. The kernel's existing panic path retires
//! the in-flight task cleanly, so a cancelled [`Simulation`] drops without
//! leaking arena slots or timers. Callers (`tve-sched`'s farm pool, the
//! `tve-serve` daemon) catch the unwind and report a typed
//! cancellation or deadline error.
//!
//! Tokens reach the kernel through a thread-local: [`with_cancel_token`]
//! installs a token for the duration of a closure, and every
//! [`Simulation`] constructed inside picks it up at construction time.
//! This keeps the `Simulation` API unchanged for the overwhelmingly
//! common uncancellable case (the token field is simply `None`, and the
//! per-boundary check is a single branch).
//!
//! [`Simulation`]: crate::Simulation

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};

/// A thread-safe cancellation flag.
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: AtomicBool,
}

impl CancelToken {
    /// Creates a fresh, untripped token.
    pub fn new() -> Arc<CancelToken> {
        Arc::new(CancelToken::default())
    }

    /// Trips the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once this token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Panic payload used to unwind out of a cancelled simulation.
///
/// Catch with [`std::panic::catch_unwind`] and test the payload with
/// `payload.is::<Cancelled>()` to distinguish a deadline cancellation
/// from a genuine model panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

/// The text of a caught panic payload: the `&str` or `String` a
/// `panic!` carries, or a placeholder for any other payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
        .to_string()
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<CancelToken>>> = const { RefCell::new(None) };
}

/// Runs `f` with `token` installed as the thread's current cancel token.
///
/// Every [`Simulation`](crate::Simulation) constructed while `f` runs
/// captures the token and checks it at each scheduling boundary. Nesting
/// is supported; the previous token (if any) is restored when `f`
/// returns or unwinds.
pub fn with_cancel_token<R>(token: &Arc<CancelToken>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<CancelToken>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(token)));
    let _restore = Restore(prev);
    f()
}

/// The token installed by the innermost active [`with_cancel_token`], if
/// any. Called by `Simulation::new` to capture the token at construction.
pub(crate) fn current_token() -> Option<Arc<CancelToken>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Suppresses the default panic-hook report for [`Cancelled`] unwinds.
///
/// Deadline cancellation is a routine, supervised event; without this the
/// default hook would print a `Box<dyn Any>` backtrace banner for every
/// cancelled attempt. Installs once per process (subsequent calls are
/// no-ops) and chains to the previously installed hook for all other
/// payloads, so genuine panics keep their diagnostics.
pub fn silence_cancelled_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<Cancelled>() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_trips_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn panic_messages_keep_string_payloads() {
        let message = |payload: Box<dyn std::any::Any + Send>| panic_message(payload.as_ref());
        assert_eq!(message(Box::new("static")), "static");
        assert_eq!(message(Box::new(String::from("owned"))), "owned");
        assert_eq!(message(Box::new(Cancelled)), "<non-string panic payload>");
    }

    #[test]
    fn with_cancel_token_scopes_and_restores() {
        assert!(current_token().is_none());
        let outer = CancelToken::new();
        with_cancel_token(&outer, || {
            assert!(Arc::ptr_eq(&current_token().unwrap(), &outer));
            let inner = CancelToken::new();
            with_cancel_token(&inner, || {
                assert!(Arc::ptr_eq(&current_token().unwrap(), &inner));
            });
            assert!(Arc::ptr_eq(&current_token().unwrap(), &outer));
        });
        assert!(current_token().is_none());
    }
}
