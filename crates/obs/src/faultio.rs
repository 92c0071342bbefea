//! Deterministic write-fault injection for durability testing.
//!
//! `tve-campaign`'s journal and `tve-serve`'s cache snapshot both claim
//! crash-safety: a torn or failed write must never be absorbed silently.
//! Proving that with post-hoc file truncation tests the *reader* but not
//! the write path itself. This module injects the faults where they
//! actually happen — inside [`Write::write`] — so the torn-tail artifact
//! is produced by the same code path a full disk or a kill would take.
//!
//! An [`IoPolicy`] counts every `write` call issued through the sinks it
//! wraps and fails the N-th one with a configured [`WriteFault`]:
//!
//! - [`WriteFault::Short`] — the faulted call persists only the first
//!   `keep` bytes, then the sink behaves like a full disk: the short
//!   call and every later call fail with [`ErrorKind::StorageFull`].
//!   This is the ENOSPC-mid-record scenario that leaves a torn tail.
//! - [`WriteFault::Enospc`] — the faulted call persists nothing and
//!   fails immediately; later calls keep failing. This is the clean
//!   record-boundary failure.
//!
//! A default policy injects nothing and adds one relaxed atomic bump per
//! write, so production paths route through it unconditionally.

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What happens to a faulted write call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Persist only the first `keep` bytes of the faulted call, then
    /// fail it — and every subsequent call — with `StorageFull`.
    Short {
        /// Bytes of the faulted call that still reach the underlying
        /// sink before the failure.
        keep: usize,
    },
    /// Fail the faulted call (persisting nothing) and every subsequent
    /// call with `StorageFull`.
    Enospc,
}

#[derive(Default)]
struct PolicyInner {
    /// Total `write` calls observed across all sinks sharing the policy.
    writes: AtomicU64,
    /// Armed faults, keyed by 1-based write index.
    faults: Mutex<BTreeMap<u64, WriteFault>>,
    /// Once a fault fires the "disk" stays full.
    saturated: AtomicBool,
}

/// A shared, thread-safe write-fault schedule. Clones share state, so a
/// test can keep a handle while the code under test owns the sink.
#[derive(Clone, Default)]
pub struct IoPolicy {
    inner: Arc<PolicyInner>,
}

impl IoPolicy {
    /// A policy that injects nothing (the production default).
    pub fn new() -> Self {
        IoPolicy::default()
    }

    /// Arms `fault` for the `n`-th (1-based) `write` call issued through
    /// any sink wrapping this policy.
    pub fn fail_nth_write(&self, n: u64, fault: WriteFault) {
        self.inner
            .faults
            .lock()
            .expect("io policy lock poisoned")
            .insert(n, fault);
    }

    /// Total `write` calls observed so far — lets a test discover the
    /// write index of the record it wants to tear.
    pub(crate) fn writes(&self) -> u64 {
        self.inner.writes.load(Ordering::Relaxed)
    }

    /// Wraps `inner` so its writes are counted and faulted per this
    /// policy.
    pub(crate) fn wrap<W: Write>(&self, inner: W) -> FaultSink<W> {
        FaultSink {
            inner,
            policy: self.clone(),
        }
    }

    /// Advances the write counter and returns the fault (if any) for
    /// this call.
    fn on_write(&self) -> Option<WriteFault> {
        let index = self.inner.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.inner.saturated.load(Ordering::Relaxed) {
            return Some(WriteFault::Enospc);
        }
        let fault = self
            .inner
            .faults
            .lock()
            .expect("io policy lock poisoned")
            .get(&index)
            .copied();
        if fault.is_some() {
            self.inner.saturated.store(true, Ordering::Relaxed);
        }
        fault
    }
}

impl std::fmt::Debug for IoPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoPolicy")
            .field("writes", &self.writes())
            .field("saturated", &self.inner.saturated.load(Ordering::Relaxed))
            .finish()
    }
}

fn storage_full(detail: &str) -> io::Error {
    io::Error::new(ErrorKind::StorageFull, format!("injected fault: {detail}"))
}

/// A [`Write`] adapter that applies an [`IoPolicy`] to an inner sink.
pub(crate) struct FaultSink<W> {
    inner: W,
    policy: IoPolicy,
}

impl<W: Write> Write for FaultSink<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.policy.on_write() {
            None => self.inner.write(buf),
            Some(WriteFault::Short { keep }) => {
                let keep = keep.min(buf.len());
                self.inner.write_all(&buf[..keep])?;
                self.inner.flush()?;
                Err(storage_full("short write, device now full"))
            }
            Some(WriteFault::Enospc) => Err(storage_full("no space left on device")),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_passes_everything_through() {
        let policy = IoPolicy::new();
        let mut sink = policy.wrap(Vec::new());
        sink.write_all(b"abc").unwrap();
        sink.write_all(b"def").unwrap();
        assert_eq!(sink.inner, b"abcdef");
        assert_eq!(policy.writes(), 2);
    }

    #[test]
    fn short_write_keeps_prefix_then_saturates() {
        let policy = IoPolicy::new();
        policy.fail_nth_write(2, WriteFault::Short { keep: 4 });
        let mut sink = policy.wrap(Vec::new());
        sink.write_all(b"first-record\n").unwrap();
        let err = sink.write_all(b"second-record\n").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        assert_eq!(sink.inner, b"first-record\nseco");
        // The device stays full afterwards.
        let err = sink.write_all(b"third\n").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::StorageFull);
    }

    #[test]
    fn enospc_persists_nothing_for_the_faulted_call() {
        let policy = IoPolicy::new();
        policy.fail_nth_write(1, WriteFault::Enospc);
        let mut sink = policy.wrap(Vec::new());
        let err = sink.write_all(b"doomed").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        assert!(sink.inner.is_empty());
    }

    #[test]
    fn clones_share_the_write_counter() {
        let policy = IoPolicy::new();
        let handle = policy.clone();
        let mut sink = policy.wrap(Vec::new());
        sink.write_all(b"x").unwrap();
        assert_eq!(handle.writes(), 1);
    }
}
