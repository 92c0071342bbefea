//! The shared-bus TAM channel.
//!
//! In the paper's case study the functional system bus is *reused* as the
//! test access mechanism; [`BusTam`] is that channel: word-oriented,
//! arbitrated, with address-range routing to bound targets and built-in
//! utilization monitoring. Because [`BusTam`] itself implements [`TamIf`],
//! TAMs can be layered hierarchically.

use std::cell::{Cell, Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use tve_obs::{Counter, Recorder, SpanKind, SpanRecord};
use tve_sim::{Duration, SimHandle, Time};

use crate::arbiter::{Arbiter, ArbiterPolicy};
use crate::monitor::UtilizationMonitor;
use crate::payload::InitiatorId;
use crate::payload::{Command, ResponseStatus, Transaction};
use crate::power::PowerMeter;
use crate::transport::{DmiAccess, DmiWord, LocalBoxFuture, TamIf};

/// A channel's attachment to an observability [`Recorder`]: the shared
/// recorder plus pre-registered counter handles, so per-transfer bumps
/// never do name lookups on the hot path.
pub(crate) struct ChannelRecorder {
    pub(crate) rec: Rc<Recorder>,
    pub(crate) transfers: Counter,
    pub(crate) bits: Counter,
}

impl ChannelRecorder {
    pub(crate) fn new(channel: &str, rec: Rc<Recorder>) -> Self {
        let transfers = rec.metrics().counter(&format!("{channel}.transfers"));
        let bits = rec.metrics().counter(&format!("{channel}.bits"));
        ChannelRecorder {
            rec,
            transfers,
            bits,
        }
    }

    /// Records one occupancy `[start, start + dur)` of `channel` that
    /// moved `bits` bits of `txn`: a [`SpanKind::Transfer`] span on the
    /// channel's track, and one bump of each counter.
    pub(crate) fn record_transfer(
        &self,
        channel: &str,
        txn: &Transaction,
        start: Time,
        dur: Duration,
        bits: u64,
    ) {
        self.rec.record_with(|| {
            SpanRecord::new(
                SpanKind::Transfer,
                channel,
                command_label(txn.cmd),
                start,
                start + dur,
            )
            .with_initiator(txn.initiator.0)
            .with_bits(bits)
        });
        self.transfers.inc();
        self.bits.add(bits);
    }
}

/// The span label for a TAM command.
fn command_label(cmd: Command) -> &'static str {
    match cmd {
        Command::Read => "read",
        Command::Write => "write",
        Command::WriteRead => "write_read",
    }
}

/// A half-open address range `[base, base + size)` in the TAM address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    base: u32,
    size: u32,
}

impl AddrRange {
    /// Creates the range `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the range wraps the address space.
    pub fn new(base: u32, size: u32) -> Self {
        assert!(size > 0, "address range must be non-empty");
        assert!(base.checked_add(size - 1).is_some(), "address range wraps");
        AddrRange { base, size }
    }

    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && (addr - self.base) < self.size
    }

    /// Whether two ranges share any address.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.base < other.base.saturating_add(other.size)
            && other.base < self.base.saturating_add(self.size)
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:#x}, {:#x})",
            self.base,
            self.base as u64 + self.size as u64
        )
    }
}

/// Error returned by [`BusTam::bind`] when a mapping conflicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindError {
    /// The rejected range.
    pub range: AddrRange,
    /// The already-bound range it overlaps.
    pub conflict: AddrRange,
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "range {} overlaps existing mapping {}",
            self.range, self.conflict
        )
    }
}

impl std::error::Error for BindError {}

/// Configuration of a [`BusTam`] channel.
#[derive(Debug, Clone)]
pub struct BusConfig {
    /// Channel name for diagnostics.
    pub name: String,
    /// Data bits moved per occupied cycle.
    pub width_bits: u32,
    /// Fixed per-transaction cycles (arbitration + address phase).
    pub overhead_cycles: u64,
    /// Arbitration policy among initiators.
    pub policy: ArbiterPolicy,
    /// Peak-utilization detection window.
    pub monitor_window: Duration,
    /// Maximum bits moved per granted burst; longer transfers re-arbitrate
    /// between chunks (each chunk pays `overhead_cycles` again). `None`
    /// grants whole transfers — simpler, but long scan bursts then starve
    /// short requesters.
    pub max_burst_bits: Option<u64>,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            name: "bus".to_string(),
            width_bits: 32,
            overhead_cycles: 1,
            policy: ArbiterPolicy::Fcfs,
            monitor_window: Duration::cycles(65_536),
            max_burst_bits: None,
        }
    }
}

/// A shared-bus test access mechanism: arbitrated, bandwidth-accurate,
/// address-routed (paper Section III.A).
///
/// A transaction occupies the bus for
/// `overhead_cycles + ceil(bit_len / width_bits)` cycles, then is delivered
/// to the target bound at its address. Semantics are *split-transaction*:
/// the channel is released after the transfer, and a slow sink (e.g. a
/// wrapper whose pattern buffer is full) back-pressures its own initiator
/// without blocking other traffic — the interleaving effect that makes
/// concurrent schedules interesting to *simulate* rather than estimate.
pub struct BusTam {
    handle: SimHandle,
    cfg: BusConfig,
    arbiter: Arbiter,
    targets: RefCell<Vec<(AddrRange, Rc<dyn TamIf>)>>,
    /// Index of the target that served the last routed transaction; test
    /// traffic hammers one range at a time, so checking it first
    /// short-circuits address decode on the hot path.
    route_hint: Cell<usize>,
    /// `(bit_len, cycles)` memo for [`BusTam::occupancy_of`].
    occ_cache: Cell<(u64, u64)>,
    monitor: RefCell<UtilizationMonitor>,
    rejected: Cell<u64>,
    /// True once a power meter or recorder is attached; lets the
    /// per-transfer path skip two `RefCell` borrows on uninstrumented
    /// channels (the common case).
    instrumented: Cell<bool>,
    power: RefCell<Option<(Rc<RefCell<PowerMeter>>, f64)>>,
    recorder: RefCell<Option<ChannelRecorder>>,
}

impl fmt::Debug for BusTam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BusTam")
            .field("name", &self.cfg.name)
            .field("width_bits", &self.cfg.width_bits)
            .field("targets", &self.targets.borrow().len())
            .finish()
    }
}

impl BusTam {
    /// Creates an unbound bus channel.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.width_bits` is zero.
    pub fn new(handle: &SimHandle, cfg: BusConfig) -> Self {
        assert!(cfg.width_bits > 0, "bus width must be positive");
        BusTam {
            handle: handle.clone(),
            arbiter: Arbiter::new(handle, cfg.policy),
            targets: RefCell::new(Vec::new()),
            route_hint: Cell::new(0),
            occ_cache: Cell::new((u64::MAX, 0)),
            monitor: RefCell::new(UtilizationMonitor::new(cfg.monitor_window)),
            rejected: Cell::new(0),
            instrumented: Cell::new(false),
            power: RefCell::new(None),
            recorder: RefCell::new(None),
            cfg,
        }
    }

    /// Attaches a power meter: every occupied transfer cycle draws
    /// `active_power`, attributed to the channel's name.
    pub fn attach_power_meter(&self, meter: Rc<RefCell<PowerMeter>>, active_power: f64) {
        *self.power.borrow_mut() = Some((meter, active_power));
        self.instrumented.set(true);
    }

    /// Attaches an observability recorder: every granted occupancy chunk
    /// becomes a [`tve_obs::SpanKind::Transfer`] span on this channel's
    /// track (1:1 with [`UtilizationMonitor::record_busy`] calls), and
    /// the `"<name>.transfers"` / `"<name>.bits"` counters accumulate in
    /// the recorder's metrics registry.
    pub fn attach_recorder(&self, recorder: Rc<Recorder>) {
        *self.recorder.borrow_mut() = Some(ChannelRecorder::new(&self.cfg.name, recorder));
        self.instrumented.set(true);
    }

    /// Binds `target` at `range` (the SystemC `bind` of the paper's Fig. 2).
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] if `range` overlaps an existing mapping.
    pub fn bind(&self, range: AddrRange, target: Rc<dyn TamIf>) -> Result<(), BindError> {
        let mut targets = self.targets.borrow_mut();
        for (existing, _) in targets.iter() {
            if existing.overlaps(&range) {
                return Err(BindError {
                    range,
                    conflict: *existing,
                });
            }
        }
        targets.push((range, target));
        Ok(())
    }

    /// Number of bound targets.
    pub fn target_count(&self) -> usize {
        self.targets.borrow().len()
    }

    /// The channel's utilization monitor.
    pub fn monitor(&self) -> Ref<'_, UtilizationMonitor> {
        self.monitor.borrow()
    }

    /// Marks the channel as observed (idle) up to `t`; see
    /// [`UtilizationMonitor::observe_until`].
    pub fn observe_monitor_until(&self, t: tve_sim::Time) {
        self.monitor.borrow_mut().observe_until(t);
    }

    /// Arbiter grants made so far, and the initiator of the latest
    /// (`InitiatorId(u8::MAX)` before the first).
    pub fn grants(&self) -> (u64, InitiatorId) {
        self.arbiter.grants()
    }

    /// Transactions that failed address decode.
    pub fn rejected_count(&self) -> u64 {
        self.rejected.get()
    }

    /// Cycles a transfer of `bit_len` bits occupies this bus.
    ///
    /// Memoizes the last `bit_len`: memory tests issue millions of
    /// same-size transfers and the `div_ceil` is a hardware divide.
    pub fn occupancy_of(&self, bit_len: u64) -> Duration {
        let (k, v) = self.occ_cache.get();
        if k == bit_len {
            return Duration::cycles(v);
        }
        let cycles = self.cfg.overhead_cycles + bit_len.div_ceil(self.cfg.width_bits as u64);
        self.occ_cache.set((bit_len, cycles));
        Duration::cycles(cycles)
    }

    /// Cold half of the per-transfer bookkeeping of an occupancy that
    /// moved `bits` bits of `txn`: power-meter and recorder updates for
    /// channels that attached either. Kept out of line so the common
    /// (uninstrumented) transfer never touches the two `Option` cells.
    #[cold]
    fn record_instrumentation(&self, txn: &Transaction, start: Time, dur: Duration, bits: u64) {
        if let Some((meter, p)) = &*self.power.borrow() {
            meter.borrow_mut().record(start, dur, *p, &self.cfg.name);
        }
        if let Some(obs) = &*self.recorder.borrow() {
            obs.record_transfer(&self.cfg.name, txn, start, dur, bits);
        }
    }

    /// The channel gates of a synchronous access, cheapest first: the
    /// caller's own gate (`declines`), an idle arbiter, then advancing
    /// the calling task over the occupancy ([`SimHandle::try_advance`]).
    /// In accurate mode that advance succeeds exactly when the event
    /// path's uncontended acquire and occupancy wait would complete
    /// without suspending; in loosely-timed mode it absorbs the
    /// occupancy into the task's quantum budget. Returns the occupancy
    /// and the time the access was admitted at, which
    /// [`BusTam::sync_commit`] then books or refunds. Shared by
    /// [`TamIf::transport_sync_try`] and every [`BusDmi`] access.
    #[inline]
    fn sync_admit(
        &self,
        declines: impl FnOnce() -> bool,
        occupancy: impl FnOnce() -> Duration,
    ) -> Option<(Duration, Time)> {
        if declines() || !self.arbiter.is_idle() {
            return None;
        }
        let dur = occupancy();
        let admitted = self.handle.now();
        self.handle.try_advance(dur).then_some((dur, admitted))
    }

    /// Completes an access [`BusTam::sync_admit`] let through. When the
    /// component behind the channel performed it (`done`), books the
    /// channel — acquire the idle arbiter, record the busy interval,
    /// release — and returns the interval's start. When that component
    /// declined, refunds the advance instead, so the access leaves no
    /// trace on the channel or the kernel (all-or-nothing), and returns
    /// `None`.
    ///
    /// Accurate mode books the interval from the admission time, where
    /// the event path records it; a synchronous component behind the
    /// channel (a nested bus) may have advanced time since. Loosely-timed
    /// mode books it from the current local time, after the absorbed
    /// occupancy: a known skew of that mode's timing, kept so its pinned
    /// results do not move.
    #[inline]
    fn sync_commit(
        &self,
        done: bool,
        initiator: InitiatorId,
        (dur, admitted): (Duration, Time),
    ) -> Option<Time> {
        if !done {
            self.handle.undo_advance(dur);
            return None;
        }
        let granted = self.arbiter.try_acquire(initiator);
        debug_assert!(granted, "synchronous access raced the arbiter");
        let start = if self.handle.lt_active() {
            self.handle.now()
        } else {
            admitted
        };
        self.monitor.borrow_mut().record_busy(start, dur, initiator);
        self.arbiter.release();
        Some(start)
    }

    /// Index of `addr`'s target in `targets`, trying the route hint
    /// before a linear scan.
    fn route_index(&self, targets: &[(AddrRange, Rc<dyn TamIf>)], addr: u32) -> Option<usize> {
        let hint = self.route_hint.get();
        if let Some((range, _)) = targets.get(hint) {
            if range.contains(addr) {
                return Some(hint);
            }
        }
        let i = targets.iter().position(|(range, _)| range.contains(addr))?;
        self.route_hint.set(i);
        Some(i)
    }

    fn lookup(&self, addr: u32) -> Option<Rc<dyn TamIf>> {
        let targets = self.targets.borrow();
        self.route_index(&targets, addr)
            .map(|i| Rc::clone(&targets[i].1))
    }
}

/// A [`DmiAccess`] grant through a [`BusTam`]: each word access gates and
/// books the channel through the same `sync_admit` / `sync_commit` step
/// as a single-word [`TamIf::transport_sync_try`], then delegates the
/// data movement to the routed target's own grant.
struct BusDmi {
    bus: Rc<BusTam>,
    inner: Rc<dyn DmiAccess>,
    /// `occupancy_of(32)`, precomputed: the bus config is immutable.
    occupancy: Duration,
    initiator: InitiatorId,
}

impl BusDmi {
    /// The bus's synchronous admission for one 32-bit access. The
    /// instrumented-channel decline is DMI's own gate: power and span
    /// records stay on the transactional path, so the fallback keeps
    /// them exact.
    fn admit(&self) -> Option<(Duration, Time)> {
        self.bus
            .sync_admit(|| self.bus.instrumented.get(), || self.occupancy)
    }

    /// Books the channel for an admitted access the inner grant
    /// performed, or refunds it when the inner grant declined.
    fn commit(&self, done: bool, admitted: (Duration, Time)) -> bool {
        self.bus
            .sync_commit(done, self.initiator, admitted)
            .is_some()
    }
}

impl DmiAccess for BusDmi {
    fn dmi_read(&self, addr: u32) -> Option<u32> {
        let admitted = self.admit()?;
        let word = self.inner.dmi_read(addr);
        self.commit(word.is_some(), admitted);
        word
    }

    fn dmi_write(&self, addr: u32, value: u32) -> bool {
        self.admit()
            .is_some_and(|admitted| self.commit(self.inner.dmi_write(addr, value), admitted))
    }

    /// A run over the bus: op `k` (from 0) is the initiator's overhead
    /// advance from `now + k·period`, then one occupancy, so it ends at
    /// `now + (k + 1)·period` with `period = overhead + occupancy`. Every
    /// op that ends at or before the horizon passes both of the per-op
    /// path's `try_advance` gates and finds the arbiter as idle as the
    /// first did, because nothing else runs in between. The grant behind
    /// the bus applies their data at once; the bus then books `n` busy
    /// intervals, `n` grants, and `2n` fired timers up to the last end.
    ///
    /// Declines wherever the per-op path would not take every op inline
    /// or a single booking could not replicate it: loosely-timed mode,
    /// an instrumented channel (power and span records are per access),
    /// a zero overhead or occupancy (a zero-length advance is a delta
    /// wait), a busy arbiter, and a grant behind the bus that takes
    /// time of its own or declines the data.
    fn dmi_run(&self, ops: &mut [DmiWord], overhead: Duration, horizon: Time) -> usize {
        let bus = &self.bus;
        let (oh, occ) = (overhead.as_cycles(), self.occupancy.as_cycles());
        if oh == 0
            || occ == 0
            || bus.instrumented.get()
            || bus.handle.lt_active()
            || !bus.arbiter.is_idle()
        {
            return 0;
        }
        let now = bus.handle.now().cycles();
        let period = oh + occ;
        let fit = horizon.cycles().saturating_sub(now) / period;
        let n = ops.len().min(usize::try_from(fit).unwrap_or(usize::MAX));
        if n == 0 || !self.inner.dmi_apply(&mut ops[..n]) {
            return 0;
        }
        let count = n as u64;
        bus.handle
            .advance_inline_to(Time::from_cycles(now + count * period), 2 * count);
        bus.arbiter.grant_run(self.initiator, count);
        bus.monitor.borrow_mut().record_busy_run(
            Time::from_cycles(now + oh),
            self.occupancy,
            Duration::cycles(period),
            count,
            self.initiator,
        );
        n
    }
}

impl TamIf for BusTam {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            let target = self.lookup(txn.addr);
            // Burst segmentation: move the payload in chunks, releasing
            // the channel between them so short requesters interleave.
            let mut remaining = txn.bit_len;
            loop {
                let chunk = match self.cfg.max_burst_bits {
                    Some(mb) => remaining.min(mb.max(1)),
                    None => remaining,
                };
                self.arbiter.acquire(txn.initiator).await;
                let dur = self.occupancy_of(chunk);
                self.monitor
                    .borrow_mut()
                    .record_busy(self.handle.now(), dur, txn.initiator);
                if self.instrumented.get() {
                    self.record_instrumentation(txn, self.handle.now(), dur, chunk);
                }
                self.handle.wait(dur).await;
                // Split-transaction semantics: the channel is released
                // after each transfer; target-side acceptance (e.g. a
                // wrapper waiting for a free pattern buffer) happens off
                // the bus, so a slow sink back-pressures its initiator
                // without blocking other traffic.
                self.arbiter.release();
                remaining -= chunk;
                if remaining == 0 {
                    break;
                }
            }
            match target {
                // A target that completes without suspending (a wrapper
                // forwarding to a memory in functional mode, or accepting
                // a scan pattern in a test mode) runs inline:
                // exactly what awaiting its future would do, minus the
                // boxed futures. Targets that may suspend decline.
                Some(target) => {
                    if !target.transport_sync_try(txn) {
                        target.transport(txn).await;
                    }
                }
                None => {
                    self.rejected.set(self.rejected.get() + 1);
                    txn.status = ResponseStatus::AddressError;
                }
            }
        })
    }

    /// Synchronous fast path: a whole single-chunk transfer completes as
    /// one call when the bus admits it (`sync_admit`) and the routed
    /// target is itself synchronous for this transaction. In accurate
    /// mode that is exactly when awaiting [`TamIf::transport`] would
    /// complete without suspending, so results are identical; in
    /// loosely-timed mode it is when the occupancy fits the quantum
    /// budget. The gate checks and the transfer share one route lookup
    /// and one arbiter touch. The routed component runs first so a
    /// decline leaves no trace on this channel; accurate mode books the
    /// interval at its admission time, so the reordering is not
    /// observable in the monitor. Instrumented channels keep accurate
    /// transfers on the event path, where the channel's power and span
    /// records precede the target's.
    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        // Burst segmentation re-arbitrates between chunks, and an
        // instrumented accurate channel records before its target does;
        // both keep the event-driven path.
        let Some(admitted) = self.sync_admit(
            || {
                (self.instrumented.get() && !self.handle.lt_active())
                    || self
                        .cfg
                        .max_burst_bits
                        .is_some_and(|mb| txn.bit_len > mb.max(1))
            },
            || self.occupancy_of(txn.bit_len),
        ) else {
            return false;
        };
        let targets = self.targets.borrow();
        let routed = self.route_index(&targets, txn.addr);
        // The routed component may decline after the channel time was
        // taken (a wrapper whose pattern buffer stays full past a due
        // timer does); the commit then refunds it.
        let done = routed.is_none_or(|i| targets[i].1.transport_sync_try(txn));
        let Some(start) = self.sync_commit(done, txn.initiator, admitted) else {
            return false;
        };
        if self.instrumented.get() {
            self.record_instrumentation(txn, start, admitted.0, txn.bit_len);
        }
        if routed.is_none() {
            self.rejected.set(self.rejected.get() + 1);
            txn.status = ResponseStatus::AddressError;
        }
        true
    }

    /// Grants DMI when the whole window routes into one target that
    /// itself grants. Declines on instrumented channels (power/recorder
    /// records stay on the transactional path) and when burst
    /// segmentation would split a 32-bit access.
    fn dmi_window(
        self: Rc<Self>,
        base: u32,
        words: u32,
        initiator: InitiatorId,
    ) -> Option<Rc<dyn DmiAccess>> {
        if words == 0 || self.instrumented.get() {
            return None;
        }
        if self.cfg.max_burst_bits.is_some_and(|mb| mb.max(1) < 32) {
            return None;
        }
        let end = base.checked_add(words - 1)?;
        let target = {
            let targets = self.targets.borrow();
            let i = self.route_index(&targets, base)?;
            let (range, target) = &targets[i];
            if !range.contains(end) {
                return None;
            }
            Rc::clone(target)
        };
        let inner = target.dmi_window(base, words, initiator)?;
        let occupancy = self.occupancy_of(32);
        Some(Rc::new(BusDmi {
            bus: self,
            inner,
            occupancy,
            initiator,
        }))
    }
}

/// A permissive test target: accepts any command instantly, serves zeroed
/// data on reads, and counts traffic. Useful for tests, examples and
/// utilization experiments.
#[derive(Debug)]
pub struct SinkTarget {
    name: String,
    transactions: Cell<u64>,
    bits: Cell<u64>,
}

impl SinkTarget {
    /// Creates a named sink.
    pub fn new(name: impl Into<String>) -> Self {
        SinkTarget {
            name: name.into(),
            transactions: Cell::new(0),
            bits: Cell::new(0),
        }
    }

    /// Transactions absorbed so far.
    pub fn transaction_count(&self) -> u64 {
        self.transactions.get()
    }
}

impl TamIf for SinkTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            self.transport_sync_try(txn);
        })
    }

    /// A sink consumes no time and never suspends: always synchronous.
    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        self.transactions.set(self.transactions.get() + 1);
        self.bits.set(self.bits.get() + txn.bit_len);
        if matches!(txn.cmd, Command::Read | Command::WriteRead) && !txn.data.is_empty() {
            txn.data.iter_mut().for_each(|w| *w = 0);
        } else if matches!(txn.cmd, Command::Read) {
            txn.data = vec![0; (txn.bit_len as usize).div_ceil(32)];
        }
        txn.status = ResponseStatus::Ok;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::InitiatorId;
    use crate::transport::TamIfExt;
    use tve_sim::Simulation;

    fn setup() -> (Simulation, Rc<BusTam>, Rc<SinkTarget>) {
        let sim = Simulation::new();
        let h = sim.handle();
        let bus = Rc::new(BusTam::new(&h, BusConfig::default()));
        let sink = Rc::new(SinkTarget::new("sink"));
        bus.bind(
            AddrRange::new(0x1000, 0x1000),
            Rc::clone(&sink) as Rc<dyn TamIf>,
        )
        .unwrap();
        (sim, bus, sink)
    }

    #[test]
    fn addr_range_semantics() {
        let r = AddrRange::new(0x100, 0x10);
        assert!(r.contains(0x100));
        assert!(r.contains(0x10F));
        assert!(!r.contains(0x110));
        assert!(!r.contains(0xFF));
        assert!(r.overlaps(&AddrRange::new(0x10F, 1)));
        assert!(!r.overlaps(&AddrRange::new(0x110, 0x10)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_range_panics() {
        let _ = AddrRange::new(0, 0);
    }

    #[test]
    fn transfer_timing_is_width_accurate() {
        let (mut sim, bus, _) = setup();
        let b = Rc::clone(&bus);
        sim.spawn(async move {
            // 128 bits over a 32-bit bus + 1 overhead = 5 cycles.
            b.write(InitiatorId(0), 0x1000, &[1, 2, 3, 4], 128)
                .await
                .unwrap();
        });
        assert_eq!(sim.run().cycles(), 5);
        assert_eq!(bus.monitor().total_busy_cycles(), 5);
        assert_eq!(bus.occupancy_of(128), Duration::cycles(5));
    }

    #[test]
    fn unmapped_address_reports_error_and_counts() {
        let (mut sim, bus, _) = setup();
        let b = Rc::clone(&bus);
        let jh = sim.spawn(async move { b.write(InitiatorId(0), 0x9999_0000, &[1], 32).await });
        sim.run();
        let err = jh.try_take().unwrap().unwrap_err();
        assert_eq!(err.status, ResponseStatus::AddressError);
        assert_eq!(bus.rejected_count(), 1);
    }

    #[test]
    fn overlapping_bind_is_rejected() {
        let (_sim, bus, _) = setup();
        let err = bus
            .bind(AddrRange::new(0x1800, 0x10), Rc::new(SinkTarget::new("x")))
            .unwrap_err();
        assert_eq!(err.conflict, AddrRange::new(0x1000, 0x1000));
        assert_eq!(bus.target_count(), 1);
    }

    #[test]
    fn contention_serializes_and_is_fully_accounted() {
        let (mut sim, bus, sink) = setup();
        for i in 0..3u8 {
            let b = Rc::clone(&bus);
            sim.spawn(async move {
                // each: 1 + 320/32 = 11 cycles
                b.transfer_volume(InitiatorId(i), Command::Write, 0x1000, 320)
                    .await
                    .unwrap();
            });
        }
        assert_eq!(sim.run().cycles(), 33);
        assert_eq!(bus.monitor().total_busy_cycles(), 33);
        assert_eq!(bus.monitor().transfer_count(), 3);
        assert_eq!(sink.transaction_count(), 3);
        assert_eq!(sink.bits.get(), 960);
        // Saturated channel: peak utilization 100 % over the busy window.
        assert!(bus.monitor().average_utilization(sim.now()) > 0.99);
    }

    #[test]
    fn volume_only_transactions_cost_the_same_time() {
        let (mut sim, bus, _) = setup();
        let b = Rc::clone(&bus);
        sim.spawn(async move {
            b.transfer_volume(InitiatorId(0), Command::Write, 0x1000, 128)
                .await
                .unwrap();
        });
        assert_eq!(sim.run().cycles(), 5);
    }

    #[test]
    fn burst_segmentation_pays_overhead_per_chunk() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let bus = Rc::new(BusTam::new(
            &h,
            BusConfig {
                max_burst_bits: Some(32),
                ..BusConfig::default()
            },
        ));
        bus.bind(AddrRange::new(0, 0x10), Rc::new(SinkTarget::new("s")))
            .unwrap();
        let b = Rc::clone(&bus);
        sim.spawn(async move {
            b.transfer_volume(InitiatorId(0), Command::Write, 0, 128)
                .await
                .unwrap();
        });
        // 4 chunks x (1 overhead + 1 transfer) = 8 cycles (vs 5 whole).
        assert_eq!(sim.run().cycles(), 8);
        assert_eq!(bus.monitor().total_busy_cycles(), 8);
        assert_eq!(bus.monitor().transfer_count(), 4);
    }

    #[test]
    fn segmentation_bounds_short_requester_latency() {
        fn short_op_done_at(max_burst: Option<u64>) -> u64 {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let bus = Rc::new(BusTam::new(
                &h,
                BusConfig {
                    max_burst_bits: max_burst,
                    ..BusConfig::default()
                },
            ));
            bus.bind(AddrRange::new(0, 0x10), Rc::new(SinkTarget::new("s")))
                .unwrap();
            // A long 4096-bit burst starts first...
            {
                let b = Rc::clone(&bus);
                sim.spawn(async move {
                    b.transfer_volume(InitiatorId(0), Command::Write, 0, 4096)
                        .await
                        .unwrap();
                });
            }
            // ...then a 32-bit op arrives one delta later.
            let b = Rc::clone(&bus);
            let h2 = h.clone();
            let jh = sim.spawn(async move {
                h2.wait(Duration::cycles(1)).await;
                b.transfer_volume(InitiatorId(1), Command::Write, 0, 32)
                    .await
                    .unwrap();
                h2.now().cycles()
            });
            sim.run();
            jh.try_take().unwrap()
        }
        let whole = short_op_done_at(None);
        let segmented = short_op_done_at(Some(256));
        assert_eq!(whole, 131, "waits for the entire 129-cycle burst");
        assert!(
            segmented <= 15,
            "segmented bus must interleave quickly, got {segmented}"
        );
    }

    #[test]
    fn recorder_spans_mirror_the_monitor_exactly() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let bus = Rc::new(BusTam::new(
            &h,
            BusConfig {
                max_burst_bits: Some(64),
                ..BusConfig::default()
            },
        ));
        bus.bind(
            AddrRange::new(0x1000, 0x1000),
            Rc::new(SinkTarget::new("s")),
        )
        .unwrap();
        let rec = Rc::new(tve_obs::Recorder::unbounded());
        bus.attach_recorder(Rc::clone(&rec));
        for i in 0..3u8 {
            let b = Rc::clone(&bus);
            sim.spawn(async move {
                b.transfer_volume(InitiatorId(i), Command::Write, 0x1000, 160)
                    .await
                    .unwrap();
            });
        }
        sim.run();
        let log = rec.take_log();
        // One span per monitor-recorded chunk, same busy cycles.
        assert_eq!(log.spans.len() as u64, bus.monitor().transfer_count());
        let span_busy: u64 = log.spans.iter().map(|s| s.duration().as_cycles()).sum();
        assert_eq!(span_busy, bus.monitor().total_busy_cycles());
        let u = tve_obs::utilization_from_spans(
            log.spans.iter(),
            bus.cfg.monitor_window.as_cycles(),
            bus.monitor().last_activity_end(),
        );
        assert_eq!(u.peak(), bus.monitor().peak_utilization());
        assert_eq!(
            u.average(),
            bus.monitor()
                .average_utilization(bus.monitor().last_activity_end())
        );
        for (ini, busy) in bus.monitor().per_initiator() {
            assert_eq!(
                u.per_initiator.iter().find(|&&(i, _)| i == ini.0),
                Some(&(ini.0, busy))
            );
        }
        // Counters accumulated alongside.
        assert_eq!(
            log.counters,
            vec![
                ("bus.transfers".to_string(), log.spans.len() as u64),
                ("bus.bits".to_string(), 480),
            ]
        );
    }

    #[test]
    fn disabled_recorder_changes_nothing_and_stores_nothing() {
        let (mut sim, bus, _) = setup();
        let rec = Rc::new(tve_obs::Recorder::disabled());
        bus.attach_recorder(Rc::clone(&rec));
        let b = Rc::clone(&bus);
        sim.spawn(async move {
            b.write(InitiatorId(0), 0x1000, &[1, 2, 3, 4], 128)
                .await
                .unwrap();
        });
        assert_eq!(sim.run().cycles(), 5);
        assert_eq!(rec.span_count(), 0);
        // Counters still count (they are cheap plain cells).
        assert_eq!(rec.metrics().counter("bus.transfers").get(), 1);
    }

    /// A wrapper-like forwarder in front of a sink: in functional mode
    /// it forwards without suspending and, when `offers_sync` is set,
    /// through the synchronous path too; in bypass mode it pays one cycle
    /// first and declines the synchronous path, like a `TestWrapper`.
    struct Forwarder {
        handle: SimHandle,
        sink: Rc<SinkTarget>,
        bypass: bool,
        offers_sync: bool,
        forwarded: Cell<u64>,
        sync_forwards: Cell<u64>,
    }

    impl TamIf for Forwarder {
        fn name(&self) -> &str {
            "fwd"
        }

        fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
            Box::pin(async move {
                if self.bypass {
                    self.handle.wait(Duration::cycles(1)).await;
                }
                self.forwarded.set(self.forwarded.get() + 1);
                self.sink.transport(txn).await;
            })
        }

        fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
            if self.bypass || !self.offers_sync {
                return false;
            }
            self.forwarded.set(self.forwarded.get() + 1);
            self.sync_forwards.set(self.sync_forwards.get() + 1);
            self.sink.transport_sync_try(txn)
        }
    }

    /// What a forwarding run observes: end cycle, forwarded count, sink
    /// transactions, bus busy cycles, kernel (polls, timers), sync hits.
    type ForwardRun = (u64, u64, u64, u64, (u64, u64), u64);

    /// Three contending initiators, 20 single-word writes each, on a
    /// cycle-accurate bus in front of a [`Forwarder`].
    fn forward_run(bypass: bool, offers_sync: bool) -> ForwardRun {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let bus = Rc::new(BusTam::new(&h, BusConfig::default()));
        let sink = Rc::new(SinkTarget::new("mem"));
        let fwd = Rc::new(Forwarder {
            handle: h.clone(),
            sink: Rc::clone(&sink),
            bypass,
            offers_sync,
            forwarded: Cell::new(0),
            sync_forwards: Cell::new(0),
        });
        bus.bind(AddrRange::new(0, 0x100), Rc::clone(&fwd) as Rc<dyn TamIf>)
            .unwrap();
        for i in 0..3u8 {
            let b = Rc::clone(&bus);
            sim.spawn(async move {
                for k in 0..20u32 {
                    b.write(InitiatorId(i), k, &[k], 32).await.unwrap();
                }
            });
        }
        let end = sim.run().cycles();
        let busy = bus.monitor().total_busy_cycles();
        (
            end,
            fwd.forwarded.get(),
            sink.transaction_count(),
            busy,
            sim.kernel_stats(),
            fwd.sync_forwards.get(),
        )
    }

    #[test]
    fn accurate_functional_forward_runs_inline_with_identical_effects() {
        let (end, fwd, writes, busy, kernel, sync) = forward_run(false, true);
        let (end0, fwd0, writes0, busy0, kernel0, sync0) = forward_run(false, false);
        assert_eq!(sync, 60, "every forward took the synchronous path");
        assert_eq!(sync0, 0);
        // Awaiting the target's future is what the bus did before; the
        // inline forward must be indistinguishable from it.
        assert_eq!((end, fwd, writes, busy), (end0, fwd0, writes0, busy0));
        assert_eq!(kernel, kernel0, "same polls and timers");
        // 60 serialized transfers of 1 + 1 cycles each.
        assert_eq!((end, fwd, writes), (120, 60, 60));
    }

    #[test]
    fn accurate_bypass_forward_still_pays_its_cycle() {
        let (end, fwd, writes, busy, _, sync) = forward_run(true, true);
        assert_eq!(sync, 0, "bypass declines the synchronous path");
        assert_eq!((fwd, writes, busy), (60, 60, 120));
        // The bypass cycle is paid after the bus is released, so the
        // other initiators keep the bus saturated (120 cycles) and only
        // the last write's bypass cycle shows at the end.
        assert_eq!(end, 121);
    }

    #[test]
    fn hierarchical_buses_compose() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let outer = Rc::new(BusTam::new(&h, BusConfig::default()));
        let inner = Rc::new(BusTam::new(
            &h,
            BusConfig {
                name: "inner".to_string(),
                width_bits: 8,
                ..BusConfig::default()
            },
        ));
        let sink = Rc::new(SinkTarget::new("leaf"));
        inner
            .bind(
                AddrRange::new(0x2000, 0x100),
                Rc::clone(&sink) as Rc<dyn TamIf>,
            )
            .unwrap();
        outer
            .bind(
                AddrRange::new(0x2000, 0x1000),
                Rc::clone(&inner) as Rc<dyn TamIf>,
            )
            .unwrap();
        let o = Rc::clone(&outer);
        sim.spawn(async move {
            o.write(InitiatorId(0), 0x2000, &[0xAA], 32).await.unwrap();
        });
        // outer: 1 + 1 = 2 cycles; inner: 1 + 4 = 5 cycles.
        assert_eq!(sim.run().cycles(), 7);
        assert_eq!(sink.transaction_count(), 1);
    }

    /// Per-cycle busy profiles of the outer and inner bus, end time and
    /// kernel stats after one lone write through `outer → inner → sink`
    /// in accurate mode, awaiting `transport` or (`sync`) taking the
    /// outer bus's synchronous path, which must succeed.
    type NestedRun = (Vec<(u64, u64)>, Vec<(u64, u64)>, u64, (u64, u64));

    fn nested_write(sync: bool) -> NestedRun {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let cfg = |name: &str, width_bits| BusConfig {
            name: name.to_string(),
            width_bits,
            monitor_window: Duration::cycles(1),
            ..BusConfig::default()
        };
        let outer = Rc::new(BusTam::new(&h, cfg("outer", 32)));
        let inner = Rc::new(BusTam::new(&h, cfg("inner", 8)));
        let sink = Rc::new(SinkTarget::new("leaf")) as Rc<dyn TamIf>;
        inner.bind(AddrRange::new(0, 0x100), sink).unwrap();
        outer
            .bind(AddrRange::new(0, 0x100), Rc::clone(&inner) as Rc<dyn TamIf>)
            .unwrap();
        let o = Rc::clone(&outer);
        sim.spawn(async move {
            let mut txn = Transaction::write(InitiatorId(0), 0, vec![0xAA], 32);
            if sync {
                assert!(o.transport_sync_try(&mut txn));
            } else {
                o.transport(&mut txn).await;
            }
            assert!(txn.status.is_ok());
        });
        let end = sim.run().cycles();
        let busy = |bus: &BusTam| bus.monitor().window_busy().collect();
        (busy(&outer), busy(&inner), end, sim.kernel_stats())
    }

    #[test]
    fn accurate_sync_transfer_books_each_bus_where_the_event_path_does() {
        let event = nested_write(false);
        assert_eq!(nested_write(true), event);
        // The outer bus is busy over [0, 2), the inner one over [2, 7),
        // though the outer books its interval after the inner returns.
        let ones = |r: std::ops::Range<u64>| r.map(|c| (c, 1)).collect::<Vec<_>>();
        assert_eq!(event, (ones(0..2), ones(2..7), 7, (1, 2)));
    }

    #[test]
    fn instrumented_accurate_buses_keep_the_event_path_record_order() {
        // Through nested buses the synchronous path books the inner bus
        // first; recorded spans must keep the event path's order.
        fn spans(via_ext: bool) -> Vec<(String, u64)> {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let rec = Rc::new(Recorder::unbounded());
            let outer = Rc::new(BusTam::new(&h, BusConfig::default()));
            let inner = Rc::new(BusTam::new(
                &h,
                BusConfig {
                    name: "inner".to_string(),
                    ..BusConfig::default()
                },
            ));
            outer.attach_recorder(Rc::clone(&rec));
            inner.attach_recorder(Rc::clone(&rec));
            let sink = Rc::new(SinkTarget::new("leaf")) as Rc<dyn TamIf>;
            inner.bind(AddrRange::new(0, 0x100), sink).unwrap();
            outer
                .bind(AddrRange::new(0, 0x100), Rc::clone(&inner) as Rc<dyn TamIf>)
                .unwrap();
            sim.spawn(async move {
                if via_ext {
                    outer.write(InitiatorId(0), 0, &[1], 32).await.unwrap();
                } else {
                    let mut txn = Transaction::write(InitiatorId(0), 0, vec![1], 32);
                    outer.transport(&mut txn).await;
                }
            });
            sim.run();
            let log = rec.take_log();
            log.spans
                .into_iter()
                .map(|s| (s.track, s.start.cycles()))
                .collect()
        }
        let event = spans(false);
        assert_eq!(spans(true), event);
        assert_eq!(event, [("bus".to_string(), 0), ("inner".to_string(), 2)]);
    }

    #[test]
    fn accurate_sync_transfer_declines_under_contention_leaving_no_trace() {
        let (mut sim, bus, sink) = setup();
        let h = sim.handle();
        let b = Rc::clone(&bus);
        let jh = sim.spawn(async move {
            let mut txn = Transaction::read(InitiatorId(0), 0x1000, 32);
            let taken = b.transport_sync_try(&mut txn);
            (taken, h.now().cycles())
        });
        // A second initiator is runnable when the first tries.
        let b = Rc::clone(&bus);
        sim.spawn(async move {
            b.read(InitiatorId(1), 0x1000, 32).await.unwrap();
        });
        sim.run();
        assert_eq!(jh.try_take(), Some((false, 0)));
        assert_eq!(sink.transaction_count(), 1, "only the second read");
        assert_eq!(bus.monitor().transfer_count(), 1);
    }
}
