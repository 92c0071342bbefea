//! The `TAM_IF` transport interface (paper Fig. 2).

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use tve_sim::{Duration, Time};

use crate::payload::{Command, InitiatorId, ResponseStatus, Transaction};

/// A non-`Send` boxed future, the return type of object-safe async trait
/// methods in this single-threaded simulation.
pub type LocalBoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Error returned by the convenience accessors of [`TamIfExt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamError {
    /// The failing status reported by the target or channel.
    pub status: ResponseStatus,
    /// The address the transaction was directed at.
    pub(crate) addr: u32,
    /// The attempted command.
    pub(crate) cmd: Command,
}

impl fmt::Display for TamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {:#x} failed: {}",
            self.cmd, self.addr, self.status
        )
    }
}

impl std::error::Error for TamError {}

/// The transaction-level TAM interface: everything reachable over a TAM —
/// the TAM channel itself, test wrappers, decompressors/compactors, pattern
/// sources — implements this trait (the paper's `TAM_IF`, Fig. 2).
///
/// The single entry point [`TamIf::transport`] moves a [`Transaction`]
/// through the component, consuming simulated time as appropriate; the
/// `read` / `write` / `write_read` convenience methods of [`TamIfExt`] are
/// layered on top. The trait is object-safe so components can be bound
/// dynamically (the SystemC `bind` mechanism of the paper).
pub trait TamIf {
    /// A short component name for diagnostics.
    fn name(&self) -> &str;

    /// Transports `txn` through this component, updating its data (for
    /// reads) and `status`, and consuming simulated time for the transfer.
    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()>;

    /// The synchronous fast path: when `txn` can complete right now
    /// without suspending the calling process, performs it — channel,
    /// routing, target, with exactly the side effects and simulated-time
    /// cost of awaiting [`TamIf::transport`] — and returns `true`;
    /// otherwise leaves `txn` and the component untouched and returns
    /// `false`.
    ///
    /// A channel takes it when no arbitration or back-pressure would
    /// block and the calling task can advance over the occupancy at once
    /// ([`tve_sim::SimHandle::try_advance`]); the whole transaction then
    /// runs as one call with no future allocation. In the default
    /// accurate mode that advance succeeds exactly when awaiting
    /// [`TamIf::transport`] would complete without suspending (nothing
    /// else runnable, no timer due before the transfer ends), so results
    /// and digests equal the event-driven path's. In loosely-timed mode
    /// it succeeds when the occupancy fits the task's quantum budget.
    /// A successful call interacts with the kernel only through inline
    /// advances: it makes no task runnable, spawns none and schedules no
    /// timer, so the caller's [`tve_sim::SimHandle::inline_horizon`]
    /// is where it was. Components opt in; the default declines.
    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        let _ = txn;
        false
    }

    /// Requests a direct-memory-interface grant over the word window
    /// `[base, base + words)` for single-word (32-bit) accesses by
    /// `initiator` — the TLM-2.0 DMI idea applied to memory marches: the
    /// initiator keeps the returned [`DmiAccess`] and performs each word
    /// access as one call, skipping transaction construction and the
    /// per-op interface walk. Each access is admitted under the same
    /// rule as [`TamIf::transport_sync_try`], in either timing mode.
    ///
    /// A grant is a *performance* contract, never a semantic one: every
    /// layer that grants must replicate, per operation, exactly the
    /// observable side effects of the equivalent
    /// [`TamIf::transport_sync_try`] word access — simulated time,
    /// utilization monitoring, power, counters — or decline the
    /// operation so the caller falls back to the transactional path.
    /// Digest equality between the two paths is pinned in
    /// `tests/kernel_digests.rs`.
    ///
    /// The default declines; channels and wrappers forward the request
    /// toward the memory, layering their own per-op bookkeeping on the
    /// way back.
    fn dmi_window(
        self: Rc<Self>,
        base: u32,
        words: u32,
        initiator: InitiatorId,
    ) -> Option<Rc<dyn DmiAccess>> {
        let _ = (base, words, initiator);
        None
    }
}

/// A direct word-access grant obtained from [`TamIf::dmi_window`].
///
/// Both operations are *fallible per call*: a `None` / `false` return
/// declines the single operation (revoked grant after a WIR load, bus
/// contention, another task runnable or a timer due before the access
/// ends, exhausted quantum budget, instrumentation attached) with
/// no side effects, and the caller must perform that operation through
/// the regular transactional path instead. A successful call has
/// exactly the observable effects of the equivalent single-word
/// [`TamIf::transport_sync_try`].
pub trait DmiAccess {
    /// Reads the 32-bit word at TAM address `addr`.
    fn dmi_read(&self, addr: u32) -> Option<u32>;

    /// Writes the 32-bit word at TAM address `addr`.
    fn dmi_write(&self, addr: u32, value: u32) -> bool;

    /// Performs the leading accesses of `ops` as one call, for an
    /// initiator that pays `overhead` cycles of its own before each
    /// access (an inline advance, as the blocking memory-test engine
    /// takes it), and returns how many it performed: the longest prefix
    /// whose ends all fall at or before `horizon`, the caller's
    /// [`tve_sim::SimHandle::inline_horizon`].
    ///
    /// A run is the exact-lookahead rule applied to a sequence: with
    /// nothing else runnable and no timer due until after the horizon,
    /// nothing can happen between two inline accesses, so performing
    /// them back to back and booking their time at once is observably
    /// the per-access path. Each performed access has the data effect
    /// of [`DmiAccess::dmi_read`] / [`DmiAccess::dmi_write`], and a
    /// read leaves the word in its [`DmiWord::data`]. The run books
    /// exactly what those accesses, each after its `overhead` advance,
    /// would have booked: simulated time and fired timers, utilization,
    /// arbitration and counters. A grant that cannot replicate that
    /// performs nothing and returns 0; the caller then takes the next
    /// access alone. The default performs nothing.
    fn dmi_run(&self, ops: &mut [DmiWord], overhead: Duration, horizon: Time) -> usize {
        let _ = (ops, overhead, horizon);
        0
    }

    /// Applies the data effect of every access in `ops`, in order and at
    /// the current time, with the counters the single accesses would
    /// bump, and returns `true`; or does nothing and returns `false`.
    /// Only a grant whose single accesses take no simulated time and
    /// record nothing time-stamped can apply a run this way: a channel
    /// calls it on the grant behind it while booking the run's time
    /// itself. The default declines.
    fn dmi_apply(&self, ops: &mut [DmiWord]) -> bool {
        let _ = ops;
        false
    }
}

/// One single-word access of a [`DmiAccess::dmi_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DmiWord {
    /// TAM address of the word.
    pub addr: u32,
    /// Whether the access writes [`DmiWord::data`]; otherwise it reads.
    pub write: bool,
    /// The word to write, or after a performed read, the word read.
    pub data: u32,
}

/// Convenience accessors over any [`TamIf`].
///
/// Blanket-implemented; bring the trait into scope and call
/// `channel.write(...)` / `channel.read(...)` / `channel.write_read(...)`.
pub trait TamIfExt: TamIf {
    /// Writes `bit_len` bits of `data` to `addr`.
    ///
    /// # Errors
    ///
    /// Returns a [`TamError`] when the target reports a non-OK status
    /// (unmapped address, incompatible mode, rejected command).
    fn write<'a>(
        &'a self,
        initiator: InitiatorId,
        addr: u32,
        data: &[u32],
        bit_len: u64,
    ) -> impl Future<Output = Result<(), TamError>> + 'a {
        let mut txn = Transaction::write(initiator, addr, data.to_vec(), bit_len);
        async move {
            self.do_transport(&mut txn).await;
            finish(txn).map(|_| ())
        }
    }

    /// Reads `bit_len` bits from `addr`.
    ///
    /// # Errors
    ///
    /// Returns a [`TamError`] when the target reports a non-OK status.
    fn read<'a>(
        &'a self,
        initiator: InitiatorId,
        addr: u32,
        bit_len: u64,
    ) -> impl Future<Output = Result<Vec<u32>, TamError>> + 'a {
        let mut txn = Transaction::read(initiator, addr, bit_len);
        async move {
            self.do_transport(&mut txn).await;
            finish(txn).map(|t| t.data)
        }
    }

    /// Concurrently shifts `data` in and the previous contents out
    /// (scan-style access).
    ///
    /// # Errors
    ///
    /// Returns a [`TamError`] when the target reports a non-OK status.
    fn write_read<'a>(
        &'a self,
        initiator: InitiatorId,
        addr: u32,
        data: Vec<u32>,
        bit_len: u64,
    ) -> impl Future<Output = Result<Vec<u32>, TamError>> + 'a {
        let mut txn = Transaction::write_read(initiator, addr, data, bit_len);
        async move {
            self.do_transport(&mut txn).await;
            finish(txn).map(|t| t.data)
        }
    }

    /// Transports a volume-only (timing) transaction of `bit_len` bits.
    ///
    /// # Errors
    ///
    /// Returns a [`TamError`] when the target reports a non-OK status.
    fn transfer_volume<'a>(
        &'a self,
        initiator: InitiatorId,
        cmd: Command,
        addr: u32,
        bit_len: u64,
    ) -> impl Future<Output = Result<(), TamError>> + 'a {
        let mut txn = Transaction::volume(initiator, cmd, addr, bit_len);
        async move {
            self.do_transport(&mut txn).await;
            finish(txn).map(|_| ())
        }
    }

    /// Transports `txn`, taking the synchronous fast path when the
    /// component offers it ([`TamIf::transport_sync_try`]).
    fn do_transport<'a>(&'a self, txn: &'a mut Transaction) -> impl Future<Output = ()> + 'a {
        async move {
            if !self.transport_sync_try(txn) {
                self.transport(txn).await;
            }
        }
    }
}

impl<T: TamIf + ?Sized> TamIfExt for T {}

fn finish(txn: Transaction) -> Result<Transaction, TamError> {
    if txn.status.is_ok() {
        Ok(txn)
    } else {
        Err(TamError {
            status: txn.status,
            addr: txn.addr,
            cmd: txn.cmd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A loop-back target that stores writes and echoes them on reads.
    struct Echo {
        store: RefCell<Vec<u32>>,
    }

    impl TamIf for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
            Box::pin(async move {
                match txn.cmd {
                    Command::Write => *self.store.borrow_mut() = txn.data.clone(),
                    Command::Read => txn.data = self.store.borrow().clone(),
                    Command::WriteRead => {
                        let old = self.store.replace(txn.data.clone());
                        txn.data = old;
                    }
                }
                txn.status = ResponseStatus::Ok;
            })
        }
    }

    #[test]
    fn ext_methods_round_trip_through_dyn_object() {
        let mut sim = tve_sim::Simulation::new();
        let echo: Rc<dyn TamIf> = Rc::new(Echo {
            store: RefCell::new(vec![7, 8]),
        });
        let e = Rc::clone(&echo);
        let jh = sim.spawn(async move {
            let init = InitiatorId(0);
            let old = e.write_read(init, 0, vec![1, 2], 64).await.unwrap();
            assert_eq!(old, vec![7, 8]);
            e.write(init, 0, &[3], 32).await.unwrap();
            e.read(init, 0, 32).await.unwrap()
        });
        sim.run();
        assert_eq!(jh.try_take(), Some(vec![3]));
    }

    #[test]
    fn tam_error_formats() {
        let e = TamError {
            status: ResponseStatus::AddressError,
            addr: 0x42,
            cmd: Command::Read,
        };
        assert_eq!(e.to_string(), "read at 0x42 failed: address error");
    }
}
