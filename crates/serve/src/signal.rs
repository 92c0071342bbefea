//! SIGTERM → graceful drain, without a signal-handling dependency.
//!
//! The only thing the handler does is store into a static `AtomicBool` —
//! the textbook async-signal-safe action — and the daemon's accept loop
//! polls [`drain_requested`] between accepts. Registering the handler
//! needs one `extern "C"` call to `signal(2)`, which is the sole reason
//! this crate is `deny(unsafe_code)` rather than `forbid`: the unsafety
//! is confined to this module and consists of a single FFI call with
//! statically valid arguments.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

static DRAIN: AtomicBool = AtomicBool::new(false);

const SIGTERM: i32 = 15;
const SIGINT: i32 = 2;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_term(_signum: i32) {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Installs a SIGTERM/SIGINT handler that flips the drain flag. Call
/// once from the daemon binary before serving; safe to call repeatedly.
pub fn install_sigterm_drain() {
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
}

/// True once SIGTERM/SIGINT was received: the daemon should finish
/// running jobs, persist its cache, and exit.
pub(crate) fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}
