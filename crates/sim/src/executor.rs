//! The event-driven executor: task spawning, timed wakeups, and the
//! simulation run loop.
//!
//! # Kernel architecture
//!
//! Tasks live in a slab arena ([`crate::arena::TaskArena`]): a `Vec` of
//! generation-checked slots with an intrusive FIFO ready queue, so
//! spawning reuses slots and waking a task is a handful of index writes —
//! no per-wake allocation, no hashing. Timers are bucketed by timestamp
//! in a `Vec<(u64, Vec<TimerFire>)>` kept sorted by descending time:
//! the earliest bucket sits at the end, so advancing time pops it and
//! fires every same-timestamp wakeup in a single batch, and scheduling
//! joins or inserts a bucket found by a linear scan. Few distinct
//! timestamps are pending at once in these models (a handful at most),
//! so the flat vector beats a tree or heap. Wakeups carry packed
//! [`TaskId`](crate::arena::TaskId)s rather than cloned `Waker`s; the
//! `Waker` machinery remains only as a fallback for foreign futures.
//!
//! A timed wait that nothing can precede completes *inline* (the
//! exact-lookahead rule): on its first poll, when no other task is
//! runnable or about to be, no pending timer fires at or before its
//! deadline and the cancel token is clear, the kernel sets `now` to the
//! deadline and the wait returns `Ready` — no timer insert, no suspend
//! and resume, no second descent through the awaiting task's nested
//! futures. The run loop's very next step would have fired exactly that
//! timer and polled exactly that task, so the result is observably
//! identical; an inline completion still counts as one fired timer in
//! [`Simulation::kernel_stats`], and only the poll count drops.
//! [`SimHandle::try_advance`] applies the same rule before a wait even
//! exists, so a channel completes a whole uncontended access as one call;
//! [`SimHandle::undo_advance`] refunds it when a downstream component
//! declines. Both rest on one bound, [`SimHandle::inline_horizon`]: the
//! cycle before the earliest pending timer, defined only while the
//! preconditions hold. An inline step never moves it, so a whole run of
//! steps that end at or before it is exact too, and
//! [`SimHandle::advance_inline_to`] books such a run at once.
//!
//! An opt-in *loosely-timed* mode ([`Simulation::with_quantum`])
//! temporally decouples tasks: relative waits accumulate into a per-task
//! local-time offset and only synchronize with the global event queue at
//! quantum boundaries, the TLM-2.0 trade of timing fidelity for speed.
//! The default (quantum 0) mode is cycle-accurate and byte-identical to
//! the pre-arena kernel (see `tests/kernel_digests.rs`).
//!
//! Both rules assume a task awaits **one kernel future at a time**: a
//! quantum-mode wait advances the task's local offset and an inline wait
//! advances global time, either of which a sibling future polled in the
//! same task (`join!`, `select!`) would observe. Model code awaits its
//! waits, events and queues one after another.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::arena::{LocalFuture, TaskArena, TaskId};
use crate::event::EventState;
use crate::time::{Duration, Time};

/// Packed id meaning "no current task".
const NO_TASK: u64 = u64::MAX;

/// What a timer does when it fires.
pub(crate) enum TimerFire {
    /// Wake the task with this packed [`TaskId`] (stale ids are inert).
    Task(u64),
    /// Fire a timed [`Event`](crate::Event) notification.
    Notify(std::rc::Weak<RefCell<EventState>>),
    /// Wake a foreign future's waker (fallback path).
    Waker(Waker),
}

/// The `Waker`-fallback side queue: wakes arriving through foreign
/// futures' cloned `Waker`s land here. The atomic flag lets the (hot)
/// kernel poll loop skip the mutex entirely while the queue is empty.
struct ExtQueue {
    nonempty: AtomicBool,
    queue: Mutex<Vec<u64>>,
}

/// `Waker` fallback for foreign futures: pushes the packed task id onto a
/// thread-safe side queue the kernel drains between polls. Kernel-owned
/// futures ([`Wait`], event and queue waits, [`JoinHandle`]) bypass this
/// entirely and register packed ids directly.
struct TaskWaker {
    packed: u64,
    ext: Arc<ExtQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.ext
            .queue
            .lock()
            .expect("external wake queue poisoned")
            .push(self.packed);
        self.ext.nonempty.store(true, Ordering::Release);
    }
}

/// Kernel state shared between the [`Simulation`] driver, [`SimHandle`]s and
/// suspended futures.
pub(crate) struct Kernel {
    now: Cell<u64>,
    polls: Cell<u64>,
    timers_fired: Cell<u64>,
    sync_points: Cell<u64>,
    /// Pending timers bucketed by absolute firing time, sorted by
    /// descending time with one bucket per timestamp (the earliest is
    /// last); within a bucket, entries fire in scheduling order (the old
    /// `(time, seq)` order).
    timers: RefCell<Vec<(u64, Vec<TimerFire>)>>,
    /// Recycled bucket storage, so steady-state scheduling does not
    /// allocate a fresh `Vec` per distinct timestamp.
    bucket_pool: RefCell<Vec<Vec<TimerFire>>>,
    arena: RefCell<TaskArena>,
    /// Packed id of the task currently being polled ([`NO_TASK`] outside
    /// polls); how kernel futures find their owner without a `Waker`.
    current: Cell<u64>,
    /// The current task's loosely-timed local offset, cached here for the
    /// duration of its poll so the quantum fast path never touches the
    /// arena. Written back to the slot when the poll suspends. Only
    /// meaningful while `current != NO_TASK` and `quantum != 0`.
    current_off: Cell<u64>,
    pending_spawn: RefCell<Vec<LocalFuture>>,
    /// Side queue for wakes arriving through the `Waker` fallback
    /// (foreign futures); shared with wakers, which must be `Send + Sync`.
    ext: Arc<ExtQueue>,
    /// Loosely-timed quantum in cycles; 0 = cycle-accurate mode.
    quantum: Cell<u64>,
    /// Testing knob: max timers fired per batch before re-entering the
    /// poll loop (`usize::MAX` = drain whole bucket).
    batch_limit: Cell<usize>,
    /// Cancellation token captured from the thread at construction (see
    /// [`crate::with_cancel_token`]); `None` for uncancellable sims.
    cancel: Option<Arc<crate::CancelToken>>,
}

impl Kernel {
    fn new() -> Rc<Kernel> {
        Rc::new(Kernel {
            now: Cell::new(0),
            polls: Cell::new(0),
            timers_fired: Cell::new(0),
            sync_points: Cell::new(0),
            timers: RefCell::new(Vec::new()),
            bucket_pool: RefCell::new(Vec::new()),
            arena: RefCell::new(TaskArena::new()),
            current: Cell::new(NO_TASK),
            current_off: Cell::new(0),
            pending_spawn: RefCell::new(Vec::new()),
            ext: Arc::new(ExtQueue {
                nonempty: AtomicBool::new(false),
                queue: Mutex::new(Vec::new()),
            }),
            quantum: Cell::new(0),
            batch_limit: Cell::new(usize::MAX),
            cancel: crate::cancel::current_token(),
        })
    }

    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|token| token.is_cancelled())
    }

    /// Unwinds with [`crate::Cancelled`] if the kernel's token has been
    /// tripped. Called once per scheduling boundary in the run loop; an
    /// inline advance declines once the token trips, so a task that
    /// never suspends still reaches one.
    fn check_cancelled(&self) {
        if self.cancelled() {
            std::panic::panic_any(crate::Cancelled);
        }
    }

    /// The exact-lookahead horizon: the latest cycle the polled task can
    /// reach by inline advances, during which the run loop would fire
    /// only that task's own timers and poll only that task. `None`
    /// unless a task is being polled, nothing else is runnable or about
    /// to be (ready queue, pending spawns, foreign wakes) and the cancel
    /// token is clear; otherwise the cycle before the earliest pending
    /// timer (a timer at exactly a deadline was scheduled first, so it
    /// must fire first), or `u64::MAX` with none pending.
    fn horizon(&self) -> Option<u64> {
        if self.current.get() == NO_TASK
            || self.arena.borrow().has_ready()
            || !self.pending_spawn.borrow().is_empty()
            || self.ext.nonempty.load(Ordering::Relaxed)
            || self.cancelled()
        {
            return None;
        }
        Some(self.next_timer().map_or(u64::MAX, |t| t.saturating_sub(1)))
    }

    /// The exact-lookahead rule: completes the current task's timed wait
    /// until `deadline` inline — time jumps to `deadline` and the wait
    /// counts as one fired timer — when `deadline` lies in the future
    /// and at or before the [`Kernel::horizon`], so the run loop's very
    /// next step would be to fire exactly that timer and poll exactly
    /// this task. Returns `false`, changing nothing, otherwise.
    fn advance_inline(&self, deadline: u64) -> bool {
        if deadline <= self.now.get() || self.horizon().is_none_or(|h| deadline > h) {
            return false;
        }
        self.now.set(deadline);
        self.timers_fired.set(self.timers_fired.get() + 1);
        true
    }

    #[inline]
    pub(crate) fn now(&self) -> u64 {
        self.now.get()
    }

    /// The task currently being polled, if any.
    pub(crate) fn current_task(&self) -> Option<TaskId> {
        let packed = self.current.get();
        (packed != NO_TASK).then(|| TaskId::unpack(packed))
    }

    /// The loosely-timed quantum (0 in accurate mode).
    pub(crate) fn quantum(&self) -> u64 {
        self.quantum.get()
    }

    /// Current task's local-time offset ahead of global time (always 0 in
    /// accurate mode).
    #[inline]
    pub(crate) fn current_offset(&self) -> u64 {
        if self.quantum.get() == 0 || self.current.get() == NO_TASK {
            return 0;
        }
        self.current_off.get()
    }

    pub(crate) fn set_current_offset(&self, off: u64) {
        if self.current.get() != NO_TASK {
            self.current_off.set(off);
        }
    }

    /// The synchronous advance behind [`SimHandle::try_advance`]: in
    /// accurate mode, [`Kernel::advance_inline`] to `now + d`; in
    /// loosely-timed mode, absorbing `d` into the current task's local
    /// offset if it stays below the quantum. Declines, changing nothing,
    /// outside a task poll or for `d == 0`.
    #[inline]
    fn try_advance(&self, d: u64) -> bool {
        if self.current.get() == NO_TASK {
            return false;
        }
        let q = self.quantum.get();
        if q == 0 {
            return self.advance_inline(self.now.get().saturating_add(d));
        }
        let off = self.current_off.get().saturating_add(d);
        if d == 0 || off >= q {
            return false;
        }
        self.current_off.set(off);
        true
    }

    /// Takes back a successful [`Kernel::try_advance`] of `d` cycles:
    /// global time and the fired-timer count in accurate mode, the
    /// task's local offset in loosely-timed mode. Legal only with no
    /// kernel interaction since the advance (see
    /// [`SimHandle::undo_advance`]).
    #[inline]
    fn undo_advance(&self, d: u64) {
        debug_assert!(self.current.get() != NO_TASK, "undo_advance outside a task");
        if self.quantum.get() != 0 {
            self.current_off
                .set(self.current_off.get().saturating_sub(d));
            return;
        }
        // The accurate advance required all of this to hold; anything
        // that changed it since would have observed the advanced time.
        debug_assert!(
            !self.arena.borrow().has_ready()
                && self.pending_spawn.borrow().is_empty()
                && !self.ext.nonempty.load(Ordering::Relaxed)
                && self.next_timer().is_none_or(|t| t > self.now.get()),
            "undo_advance after the advanced time was observed"
        );
        self.now.set(self.now.get() - d);
        self.timers_fired.set(self.timers_fired.get() - 1);
    }

    /// Schedules `fire` at absolute cycle `time` (clamped to now).
    pub(crate) fn schedule(&self, time: u64, fire: TimerFire) {
        let time = time.max(self.now.get());
        let mut timers = self.timers.borrow_mut();
        // First bucket not later than `time`: either `time`'s own bucket
        // or the insertion point that keeps the order descending. A linear
        // scan beats a binary search here: few buckets are pending, and
        // an insert shifts the tail anyway.
        let i = timers
            .iter()
            .position(|&(t, _)| t <= time)
            .unwrap_or(timers.len());
        match timers.get_mut(i) {
            Some((t, bucket)) if *t == time => bucket.push(fire),
            _ => {
                let mut bucket = self.bucket_pool.borrow_mut().pop().unwrap_or_default();
                bucket.push(fire);
                timers.insert(i, (time, bucket));
            }
        }
    }

    /// Firing time of the earliest pending timer.
    fn next_timer(&self) -> Option<u64> {
        self.timers.borrow().last().map(|&(t, _)| t)
    }

    /// Marks the task behind `packed` runnable (stale ids are inert).
    pub(crate) fn wake_packed(&self, packed: u64) {
        self.arena.borrow_mut().enqueue(TaskId::unpack(packed));
    }

    fn spawn_raw(&self, future: LocalFuture) {
        self.pending_spawn.borrow_mut().push(future);
    }

    /// Moves freshly spawned tasks into the arena and marks them ready.
    ///
    /// Spawns are deferred until after the spawning poll completes (the
    /// pre-arena kernel did the same), so wakes issued *during* a poll
    /// enter the ready queue ahead of tasks spawned by that poll,
    /// whatever their program order.
    fn install_spawned(&self) {
        // Installing a task only stores its future (its body runs when
        // polled), so nothing here can spawn: one drain empties the
        // list, and draining in place keeps its capacity for the next
        // batch.
        let mut pending = self.pending_spawn.borrow_mut();
        if pending.is_empty() {
            return;
        }
        let mut arena = self.arena.borrow_mut();
        for future in pending.drain(..) {
            let id = arena.insert(future);
            arena.enqueue(id);
        }
    }

    /// Drains the `Waker`-fallback side queue into the ready queue.
    ///
    /// Called before every ready-task pop, so the empty case is one
    /// relaxed load; the acquiring swap runs only once a wake arrived.
    fn drain_external(&self) {
        if !self.ext.nonempty.load(Ordering::Relaxed)
            || !self.ext.nonempty.swap(false, Ordering::Acquire)
        {
            return;
        }
        let mut ext = self.ext.queue.lock().expect("external wake queue poisoned");
        let mut arena = self.arena.borrow_mut();
        for packed in ext.drain(..) {
            arena.enqueue(TaskId::unpack(packed));
        }
    }

    /// Polls one task; returns `true` if it completed.
    fn poll_task(&self, id: TaskId) -> bool {
        // Check the future out of the arena so the task body may freely
        // spawn, wake and schedule without re-entrant borrows.
        let checked_out = self.arena.borrow_mut().checkout(id, || {
            Waker::from(Arc::new(TaskWaker {
                packed: id.pack(),
                ext: Arc::clone(&self.ext),
            }))
        });
        let Some((mut future, waker)) = checked_out else {
            return false; // already completed; stale wakeup
        };
        self.polls.set(self.polls.get() + 1);
        let lt = self.quantum.get() != 0;
        let prev = self.current.replace(id.pack());
        let prev_off = self.current_off.replace(if lt {
            self.arena.borrow().local_offset(id)
        } else {
            0
        });
        let mut cx = Context::from_waker(&waker);
        let poll = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            future.as_mut().poll(&mut cx)
        }));
        self.current.set(prev);
        let off = self.current_off.replace(prev_off);
        match poll {
            Ok(Poll::Ready(())) => {
                self.arena.borrow_mut().remove(id);
                true
            }
            Ok(Poll::Pending) => {
                let mut arena = self.arena.borrow_mut();
                if lt {
                    arena.set_local_offset(id, off);
                }
                arena.put_back(id, future, waker);
                false
            }
            Err(payload) => {
                // A panicking process is a model bug; retire the task so
                // the kernel stays consistent, then resume unwinding.
                self.arena.borrow_mut().remove(id);
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Runs every runnable task to quiescence at the current time.
    fn drain_ready(&self) {
        loop {
            self.install_spawned();
            self.drain_external();
            let Some(id) = self.arena.borrow_mut().pop_ready() else {
                break;
            };
            self.poll_task(id);
        }
    }

    /// Advances time to the earliest pending timer and fires every timer
    /// scheduled for that instant in one batch. Returns `false` when no
    /// timer is pending.
    fn advance(&self) -> bool {
        let Some(next) = self.next_timer() else {
            return false;
        };
        self.now.set(next);
        let limit = self.batch_limit.get();
        // Loop: firing can (via `schedule` clamping to now) append new
        // entries at this same timestamp; they belong to this instant.
        loop {
            let popped = {
                let mut timers = self.timers.borrow_mut();
                // Nothing is ever scheduled before `now`, so a bucket at
                // `next` can only be the last one.
                match timers.last() {
                    Some(&(t, _)) if t == next => timers.pop(),
                    _ => None,
                }
            };
            let Some((_, mut bucket)) = popped else {
                break;
            };
            if bucket.len() > limit {
                // Testing knob: put the tail back (still the earliest
                // bucket) and fire only `limit` entries this round.
                let rest = bucket.split_off(limit);
                self.timers.borrow_mut().push((next, rest));
            }
            self.timers_fired
                .set(self.timers_fired.get() + bucket.len() as u64);
            for fire in bucket.drain(..) {
                match fire {
                    TimerFire::Task(packed) => self.wake_packed(packed),
                    TimerFire::Notify(state) => {
                        if let Some(state) = state.upgrade() {
                            EventState::fire(&state);
                        }
                    }
                    TimerFire::Waker(w) => w.wake(),
                }
            }
            self.bucket_pool.borrow_mut().push(bucket);
            if limit != usize::MAX {
                // With a batch limit, yield back to the poll loop after
                // each partial batch.
                break;
            }
        }
        true
    }

    fn live_tasks(&self) -> usize {
        self.arena.borrow().live() + self.pending_spawn.borrow().len()
    }
}

/// A cloneable handle through which model code interacts with the kernel:
/// reading time, waiting, and spawning further processes.
///
/// Handles are cheap to clone and are typically moved into each spawned
/// process.
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) kernel: Rc<Kernel>,
}

impl fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimHandle")
            .field("now", &self.kernel.now())
            .finish()
    }
}

impl SimHandle {
    /// The current simulated time.
    ///
    /// In loosely-timed mode this is the calling task's *local* time:
    /// global kernel time plus the task's accumulated quantum offset.
    #[inline]
    pub fn now(&self) -> Time {
        Time::from_cycles(
            self.kernel
                .now()
                .saturating_add(self.kernel.current_offset()),
        )
    }

    /// Suspends the calling process for `d` cycles.
    ///
    /// A zero-length wait is a *delta wait*: the process yields and resumes
    /// at the same simulated time after other runnable processes have run.
    ///
    /// A nonzero wait that nothing else can precede completes on its
    /// first poll without suspending: no other task is runnable, no
    /// pending timer fires at or before the deadline and the cancel
    /// token is clear. Time then jumps to the deadline exactly as if the
    /// wait had suspended and been woken, and the wait still counts as
    /// one fired timer. The rule assumes the task awaits this wait alone, not
    /// alongside another kernel future in a `join!` or `select!` (see the
    /// module docs).
    ///
    /// In loosely-timed mode ([`Simulation::with_quantum`]) a nonzero wait
    /// accumulates into the task's local-time offset and returns
    /// *without suspending* until the offset reaches the quantum; only
    /// then does the task synchronize with the global event queue. Zero
    /// waits always yield, so delta-cycle cooperation keeps working.
    pub fn wait(&self, d: Duration) -> Wait {
        let k = &self.kernel;
        let q = k.quantum();
        let d = d.as_cycles();
        if q > 0 && d > 0 && k.current_task().is_some() {
            let off = k.current_offset().saturating_add(d);
            if off < q {
                // Run ahead without synchronizing.
                k.set_current_offset(off);
                return Wait {
                    kernel: Rc::clone(k),
                    deadline: 0,
                    state: WaitState::Elapsed,
                };
            }
            // Quantum boundary: flush the offset into a real wakeup.
            k.set_current_offset(0);
            k.sync_points.set(k.sync_points.get() + 1);
            return Wait {
                kernel: Rc::clone(k),
                deadline: k.now().saturating_add(off),
                state: WaitState::Init,
            };
        }
        self.wait_until(Time::from_cycles(k.now().saturating_add(d)))
    }

    /// Suspends the calling process until absolute time `t` (immediately
    /// resumes via a delta cycle if `t` is not in the future).
    ///
    /// In loosely-timed mode this is always a synchronization point: the
    /// task's local-time offset is flushed (the wakeup is scheduled at
    /// `max(t, local now)`) and reset to zero.
    pub fn wait_until(&self, t: Time) -> Wait {
        let k = &self.kernel;
        let mut deadline = t.cycles();
        if k.quantum() > 0 {
            let local = k.now().saturating_add(k.current_offset());
            deadline = deadline.max(local);
            k.set_current_offset(0);
        }
        Wait {
            kernel: Rc::clone(k),
            deadline,
            state: WaitState::Init,
        }
    }

    /// Completes a wait of `d` cycles by the calling task as one call,
    /// without building or polling a wait future, when that is exact;
    /// returns whether it did. On `false` nothing happened: take the
    /// ordinary `wait(d).await` path instead.
    ///
    /// In the default accurate mode this is the exact-lookahead rule of
    /// [`SimHandle::wait`], applied before the wait exists: time jumps
    /// to `now + d` and the advance counts as one fired timer exactly
    /// when `wait(d).await` would complete on its first poll — a task
    /// is being polled, `d > 0`, no other task is runnable or about to
    /// be, no pending timer fires at or before the deadline and the
    /// cancel token is clear. In loosely-timed mode
    /// ([`Simulation::with_quantum`]) it absorbs `d` into the task's
    /// local-time offset when the offset stays below the quantum.
    ///
    /// Transaction-level models use this to complete a whole uncontended
    /// access synchronously, skipping their suspension machinery.
    #[inline]
    pub fn try_advance(&self, d: Duration) -> bool {
        self.kernel.try_advance(d.as_cycles())
    }

    /// The exact-lookahead horizon of the calling task: the latest time
    /// it can reach by inline advances ([`SimHandle::try_advance`],
    /// [`SimHandle::advance_inline_to`]) with nothing else able to run
    /// in between. `None` unless a task is being polled, no other task
    /// is runnable or about to be, the cancel token is clear and the
    /// kernel is cycle-accurate; otherwise the cycle just before the
    /// earliest pending timer, or [`Time::MAX`] when none is pending.
    ///
    /// While the task makes no other kernel interaction (no wait, spawn,
    /// wake, event notification or timer), the horizon stays where it
    /// is: inline advances change `now` and nothing else. So a sequence
    /// of inline steps that all end at or before it is exact as a whole,
    /// which is what lets a model complete a run of accesses as one call.
    #[inline]
    pub fn inline_horizon(&self) -> Option<Time> {
        if self.kernel.quantum() != 0 {
            return None;
        }
        self.kernel.horizon().map(Time::from_cycles)
    }

    /// Advances the calling task to `to` as `timers` consecutive inline
    /// advances would, in one step: `now` becomes `to` and the fired-timer
    /// count grows by `timers`. For a model that completes a run of
    /// exact-lookahead steps at once; every step must have ended at or
    /// before the [`SimHandle::inline_horizon`] taken before the run, and
    /// nothing else may have interacted with the kernel since. Debug
    /// builds assert that `to` lies between `now` and that horizon.
    #[inline]
    pub fn advance_inline_to(&self, to: Time, timers: u64) {
        let k = &self.kernel;
        // The horizon's preconditions minus the cancel token, which
        // another thread may trip mid-run: the run loop unwinds at the
        // next scheduling boundary, as after any inline advance.
        debug_assert!(
            to.cycles() >= k.now()
                && k.quantum() == 0
                && k.current.get() != NO_TASK
                && !k.arena.borrow().has_ready()
                && k.pending_spawn.borrow().is_empty()
                && k.next_timer().is_none_or(|t| to.cycles() < t),
            "inline advance to {to:?} beyond the horizon"
        );
        k.now.set(to.cycles());
        k.timers_fired.set(k.timers_fired.get() + timers);
    }

    /// Whether loosely-timed quantum mode is active, for fast paths
    /// that book time differently in that mode.
    #[inline]
    pub fn lt_active(&self) -> bool {
        self.kernel.quantum() != 0
    }

    /// Refunds `d` cycles just taken by a successful
    /// [`SimHandle::try_advance`]: in accurate mode global time and the
    /// fired-timer count roll back, in loosely-timed mode the task's
    /// local-time offset does. For all-or-nothing composition of
    /// synchronous fast paths: a channel may advance over its occupancy
    /// before probing a downstream component, then refund it if that
    /// component declines.
    ///
    /// The refund contract: nothing may have interacted with the kernel
    /// since the advance — no wait, spawn, wake, event notification or
    /// timer — other than nested advances that were themselves refunded
    /// (last in, first out). Rolling back time is exact only because
    /// nothing observed the advanced time. Debug builds assert, in
    /// accurate mode, that nothing became runnable, spawned or due.
    #[inline]
    pub fn undo_advance(&self, d: Duration) {
        self.kernel.undo_advance(d.as_cycles());
    }

    /// Spawns a new process and returns a [`JoinHandle`] resolving to its
    /// output.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
    {
        let state: Rc<RefCell<JoinState<F::Output>>> = Rc::new(RefCell::new(JoinState {
            result: None,
            finished: false,
            waiters: Vec::new(),
            kernel: Rc::downgrade(&self.kernel),
        }));
        let state2 = Rc::clone(&state);
        self.kernel.spawn_raw(Box::pin(async move {
            let out = future.await;
            let (mut waiters, kernel) = {
                let mut s = state2.borrow_mut();
                s.result = Some(out);
                s.finished = true;
                (std::mem::take(&mut s.waiters), s.kernel.clone())
            };
            wake_waiters(&mut waiters, &kernel);
        }));
        JoinHandle { state }
    }
}

/// A registered waiter: a kernel task (the fast path) or a foreign
/// future's waker.
pub(crate) enum Waiter {
    Task(u64),
    Ext(Waker),
}

/// Registers the current task (or, outside the kernel, `cx`'s waker) in
/// `waiters` — the common suspend path of every kernel primitive.
pub(crate) fn register_waiter(waiters: &mut Vec<Waiter>, kernel: &Weak<Kernel>, cx: &Context<'_>) {
    let current = kernel.upgrade().and_then(|k| k.current_task());
    match current {
        Some(id) => waiters.push(Waiter::Task(id.pack())),
        None => waiters.push(Waiter::Ext(cx.waker().clone())),
    }
}

/// Wakes every registered waiter, in registration order, leaving
/// `waiters` empty with its capacity kept.
pub(crate) fn wake_waiters(waiters: &mut Vec<Waiter>, kernel: &Weak<Kernel>) {
    let kernel = kernel.upgrade();
    for w in waiters.drain(..) {
        match w {
            Waiter::Task(packed) => {
                if let Some(k) = &kernel {
                    k.wake_packed(packed);
                }
            }
            Waiter::Ext(w) => w.wake(),
        }
    }
}

enum WaitState {
    /// Timer not yet registered.
    Init,
    /// Timer registered; waiting for the deadline.
    Registered,
    /// Loosely-timed fast path: the wait was absorbed into the task's
    /// local offset and completes on first poll.
    Elapsed,
}

/// Future returned by [`SimHandle::wait`] / [`SimHandle::wait_until`].
#[must_use = "futures do nothing unless awaited"]
pub struct Wait {
    kernel: Rc<Kernel>,
    deadline: u64,
    state: WaitState,
}

impl Future for Wait {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        match self.state {
            WaitState::Elapsed => Poll::Ready(()),
            WaitState::Registered => {
                if self.kernel.now() >= self.deadline {
                    Poll::Ready(())
                } else {
                    // Spurious wake before the deadline: our timer is still
                    // pending and will wake us again.
                    Poll::Pending
                }
            }
            WaitState::Init => {
                let fire = match self.kernel.current_task() {
                    Some(_) if self.kernel.advance_inline(self.deadline) => {
                        return Poll::Ready(());
                    }
                    Some(id) => TimerFire::Task(id.pack()),
                    None => TimerFire::Waker(cx.waker().clone()),
                };
                self.state = WaitState::Registered;
                self.kernel.schedule(self.deadline, fire);
                Poll::Pending
            }
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    finished: bool,
    waiters: Vec<Waiter>,
    kernel: Weak<Kernel>,
}

/// Handle to a spawned process; awaiting it yields the process output.
///
/// Dropping the handle is fine — fire-and-forget processes (the norm for
/// model components) keep running without it.
///
/// # Panics
///
/// Awaiting the same handle after it already yielded its output panics, as
/// the output has been moved out.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JoinHandle<T> {
    /// Whether the process has run to completion.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().finished
    }

    /// Takes the result if the process has completed (non-blocking).
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        if s.finished {
            match s.result.take() {
                Some(v) => Poll::Ready(v),
                None => panic!("JoinHandle polled after its output was taken"),
            }
        } else {
            let kernel = s.kernel.clone();
            register_waiter(&mut s.waiters, &kernel, cx);
            Poll::Pending
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// Owns the kernel; processes are added with [`Simulation::spawn`] (or via
/// [`SimHandle::spawn`] from inside a running process) and executed by
/// [`Simulation::run`].
///
/// ```
/// use tve_sim::{Simulation, Duration};
/// let mut sim = Simulation::new();
/// let h = sim.handle();
/// let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
/// for (i, delay) in [(0u32, 20u64), (1, 10)] {
///     let h = h.clone();
///     let order = order.clone();
///     sim.spawn(async move {
///         h.wait(Duration::cycles(delay)).await;
///         order.borrow_mut().push(i);
///     });
/// }
/// sim.run();
/// assert_eq!(*order.borrow(), vec![1, 0]); // temporal order, not spawn order
/// ```
pub struct Simulation {
    kernel: Rc<Kernel>,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.kernel.now())
            .field("live_tasks", &self.kernel.live_tasks())
            .field("quantum", &self.kernel.quantum())
            .finish()
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty cycle-accurate simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            kernel: Kernel::new(),
        }
    }

    /// Creates a *loosely-timed* simulation with the given quantum.
    ///
    /// Tasks run temporally decoupled: relative waits accrue into a
    /// per-task local-time offset and only synchronize with the event
    /// queue when the offset reaches `quantum` (or at an explicit
    /// [`SimHandle::wait_until`] / zero-length wait). This trades intra-
    /// quantum event ordering — and therefore exact digests — for speed;
    /// results are still deterministic for a fixed quantum. A zero
    /// quantum is the accurate mode of [`Simulation::new`].
    pub fn with_quantum(quantum: Duration) -> Self {
        let sim = Simulation::new();
        sim.kernel.quantum.set(quantum.as_cycles());
        sim
    }

    /// Testing/diagnostic knob: fire at most `limit` same-timestamp
    /// timers per batch before re-running ready tasks. Semantically
    /// inert — `tests/kernel_batch_prop.rs` proves traces are identical
    /// for limit 1 and unlimited — but useful for bisecting wakeup-order
    /// issues. `usize::MAX` (the default) drains whole buckets.
    pub fn set_timer_batch_limit(&mut self, limit: usize) {
        self.kernel.batch_limit.set(limit.max(1));
    }

    /// A handle for use by model code.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            kernel: Rc::clone(&self.kernel),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        Time::from_cycles(self.kernel.now())
    }

    /// Number of processes that have been spawned and not yet completed:
    /// how the kernel's tests detect a model-level deadlock.
    #[cfg(test)]
    pub(crate) fn live_tasks(&self) -> usize {
        self.kernel.live_tasks()
    }

    /// Kernel activity counters since construction: `(task polls, timer
    /// events fired)` — the event-density figures behind abstraction-level
    /// comparisons. A timed wait completed inline (see
    /// [`SimHandle::wait`]) counts as a fired timer event but takes no
    /// extra poll, so the timer count measures simulated events and the
    /// poll count measures task resumptions.
    pub fn kernel_stats(&self) -> (u64, u64) {
        (self.kernel.polls.get(), self.kernel.timers_fired.get())
    }

    /// Loosely-timed synchronization points taken so far (0 in accurate
    /// mode): how often a task's accrued offset crossed the quantum.
    pub fn sync_points(&self) -> u64 {
        self.kernel.sync_points.get()
    }

    /// Spawns a process; see [`SimHandle::spawn`].
    pub fn spawn<F>(&mut self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
    {
        self.handle().spawn(future)
    }

    /// Runs until no further activity is possible (event-queue exhaustion).
    ///
    /// Processes still blocked on never-notified events remain suspended.
    pub fn run(&mut self) -> Time {
        loop {
            self.kernel.check_cancelled();
            self.kernel.drain_ready();
            if !self.kernel.advance() {
                break;
            }
        }
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn empty_simulation_terminates_at_zero() {
        let mut sim = Simulation::new();
        assert_eq!(sim.run(), Time::ZERO);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn single_wait_advances_time() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        sim.spawn(async move {
            h.wait(Duration::cycles(42)).await;
        });
        assert_eq!(sim.run(), Time::from_cycles(42));
    }

    #[test]
    fn sequential_waits_accumulate() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let handle = sim.spawn(async move {
            for _ in 0..5 {
                h.wait(Duration::cycles(10)).await;
            }
            h.now()
        });
        sim.run();
        assert_eq!(handle.try_take(), Some(Time::from_cycles(50)));
    }

    #[test]
    fn interleaving_is_temporal_then_spawn_order() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, delay) in [(0u32, 30u64), (1, 10), (2, 20), (3, 10)] {
            let h = h.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                h.wait(Duration::cycles(delay)).await;
                log.borrow_mut().push((h.now().cycles(), i));
            });
        }
        sim.run();
        // At time 10 tasks 1 and 3 fire in spawn (scheduling) order.
        assert_eq!(*log.borrow(), vec![(10, 1), (10, 3), (20, 2), (30, 0)]);
    }

    #[test]
    fn zero_wait_is_delta_yield() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<&str>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let log = Rc::clone(&log);
            let h2 = h.clone();
            sim.spawn(async move {
                log.borrow_mut().push("a1");
                h2.wait(Duration::ZERO).await;
                log.borrow_mut().push("a2");
            });
        }
        {
            let log = Rc::clone(&log);
            sim.spawn(async move {
                log.borrow_mut().push("b1");
            });
        }
        let end = sim.run();
        assert_eq!(end, Time::ZERO);
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2"]);
    }

    #[test]
    fn spawn_from_inside_process() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let outer = sim.spawn(async move {
            let h2 = h.clone();
            let child = h.spawn(async move {
                h2.wait(Duration::cycles(7)).await;
                h2.now().cycles()
            });
            child.await
        });
        sim.run();
        assert_eq!(outer.try_take(), Some(7));
    }

    #[test]
    fn join_handle_reports_finished() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let jh = sim.spawn(async move {
            h.wait(Duration::cycles(5)).await;
            123u32
        });
        assert!(!jh.is_finished());
        sim.run();
        assert!(jh.is_finished());
        assert_eq!(jh.try_take(), Some(123));
        assert_eq!(jh.try_take(), None);
    }

    #[test]
    fn blocked_task_counts_as_live_after_run() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ev = crate::Event::new(&h);
        sim.spawn(async move {
            ev.wait().await; // never notified
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run_once() -> Vec<(u64, u32)> {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..20u32 {
                let h = h.clone();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    for k in 0..10u64 {
                        h.wait(Duration::cycles((i as u64 * 7 + k * 3) % 11 + 1))
                            .await;
                        log.borrow_mut().push((h.now().cycles(), i));
                    }
                });
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn task_panic_propagates_out_of_run() {
        // A panicking process is a model bug; the kernel does not swallow
        // it — the panic unwinds out of `run` with its original message.
        let result = std::panic::catch_unwind(|| {
            let mut sim = Simulation::new();
            let h = sim.handle();
            sim.spawn(async move {
                h.wait(Duration::cycles(5)).await;
                panic!("model bug at cycle 5");
            });
            sim.run();
        });
        let err = result.expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("model bug"), "{msg}");
    }

    #[test]
    fn many_tasks_complete() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let count = Rc::new(Cell::new(0u32));
        for i in 0..1000u64 {
            let h = h.clone();
            let count = Rc::clone(&count);
            sim.spawn(async move {
                h.wait(Duration::cycles(i % 97)).await;
                count.set(count.get() + 1);
            });
        }
        sim.run();
        assert_eq!(count.get(), 1000);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn slot_recycling_keeps_ids_distinct() {
        // Spawn waves of short-lived tasks so arena slots are recycled;
        // completions must be counted exactly once despite reuse.
        let mut sim = Simulation::new();
        let h = sim.handle();
        let count = Rc::new(Cell::new(0u32));
        {
            let h2 = h.clone();
            let count = Rc::clone(&count);
            sim.spawn(async move {
                for wave in 0..50u64 {
                    for _ in 0..10 {
                        let h3 = h2.clone();
                        let count = Rc::clone(&count);
                        h2.spawn(async move {
                            h3.wait(Duration::cycles(1)).await;
                            count.set(count.get() + 1);
                        });
                    }
                    h2.wait(Duration::cycles(wave % 3 + 1)).await;
                }
            });
        }
        sim.run();
        assert_eq!(count.get(), 500);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn quantum_mode_skips_synchronization() {
        let mut sim = Simulation::with_quantum(Duration::cycles(100));
        let h = sim.handle();
        let jh = sim.spawn(async move {
            for _ in 0..1000 {
                h.wait(Duration::cycles(1)).await;
            }
            h.now().cycles()
        });
        let end = sim.run();
        // Local time is exact even though only every 100th wait synced.
        assert_eq!(jh.try_take(), Some(1000));
        assert_eq!(end.cycles(), 1000);
        assert_eq!(sim.sync_points(), 10);
        let (polls, timers) = sim.kernel_stats();
        assert!(polls < 30, "expected ~10 sync polls, got {polls}");
        assert!(timers < 15, "expected ~10 timer entries, got {timers}");
    }

    #[test]
    fn quantum_mode_zero_wait_still_yields() {
        let mut sim = Simulation::with_quantum(Duration::cycles(1000));
        let h = sim.handle();
        let log: Rc<RefCell<Vec<&str>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let log = Rc::clone(&log);
            let h2 = h.clone();
            sim.spawn(async move {
                log.borrow_mut().push("a1");
                h2.wait(Duration::ZERO).await;
                log.borrow_mut().push("a2");
            });
        }
        {
            let log = Rc::clone(&log);
            sim.spawn(async move {
                log.borrow_mut().push("b1");
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2"]);
    }

    #[test]
    fn quantum_mode_is_deterministic() {
        fn run_once() -> (u64, Vec<u64>) {
            let mut sim = Simulation::with_quantum(Duration::cycles(64));
            let h = sim.handle();
            let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..8u64 {
                let h = h.clone();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    for k in 0..200u64 {
                        h.wait(Duration::cycles((i + k) % 13 + 1)).await;
                    }
                    log.borrow_mut().push(h.now().cycles());
                });
            }
            let end = sim.run().cycles();
            let v = log.borrow().clone();
            (end, v)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn lone_task_waits_complete_inline() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let waits = [3u64, 1, 7, 2, 5];
        let jh = sim.spawn(async move {
            for d in waits {
                h.wait(Duration::cycles(d)).await;
            }
            h.now().cycles()
        });
        let end = sim.run().cycles();
        assert_eq!((end, jh.try_take()), (18, Some(18)));
        // One poll runs the whole task; every wait still counts as a
        // fired timer.
        assert_eq!(sim.kernel_stats(), (1, waits.len() as u64));
    }

    #[test]
    fn timer_at_the_deadline_forces_the_event_path() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<(u64, &str)>>> = Rc::new(RefCell::new(Vec::new()));
        for (name, waits) in [("a", vec![10u64]), ("b", vec![4, 6])] {
            let (h, log) = (h.clone(), Rc::clone(&log));
            sim.spawn(async move {
                for d in waits {
                    h.wait(Duration::cycles(d)).await;
                }
                log.borrow_mut().push((h.now().cycles(), name));
            });
        }
        sim.run();
        // `b`'s first wait completes inline (a's timer at 10 is later),
        // but its second ends exactly on a's timer, so it queues behind
        // it: same instant, scheduling order.
        assert_eq!(*log.borrow(), vec![(10, "a"), (10, "b")]);
        assert_eq!(sim.kernel_stats(), (4, 3));
    }

    #[test]
    fn spawned_task_runs_before_its_parent_advances() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<(u64, &str)>>> = Rc::new(RefCell::new(Vec::new()));
        let log2 = Rc::clone(&log);
        sim.spawn(async move {
            let (h2, log3) = (h.clone(), Rc::clone(&log2));
            h.spawn(async move {
                log3.borrow_mut().push((h2.now().cycles(), "child"));
            });
            h.wait(Duration::cycles(5)).await;
            log2.borrow_mut().push((h.now().cycles(), "parent"));
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![(0, "child"), (5, "parent")]);
    }

    #[test]
    fn cancelling_inside_an_inline_wait_loop_unwinds() {
        crate::silence_cancelled_panics();
        let token = crate::CancelToken::new();
        let mut sim = crate::with_cancel_token(&token, Simulation::new);
        let h = sim.handle();
        let laps = Rc::new(Cell::new(0u32));
        let laps2 = Rc::clone(&laps);
        sim.spawn(async move {
            for _ in 0..1000 {
                laps2.set(laps2.get() + 1);
                if laps2.get() == 100 {
                    token.cancel();
                }
                h.wait(Duration::cycles(1)).await;
            }
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("a tripped token must unwind out of run");
        assert!(err.is::<crate::Cancelled>());
        assert_eq!(laps.get(), 100, "no wait completes after the trip");

        // A march taken in runs, as the memory-test engine takes them: at
        // most `RUN` one-cycle ops per horizon check, booked at once, and
        // one op through a wait when no horizon is offered. A token that
        // trips inside a run stops the march within one run.
        const RUN: u64 = 4096;
        const TRIP: u64 = 100;
        let token = crate::CancelToken::new();
        let mut sim = crate::with_cancel_token(&token, Simulation::new);
        let h = sim.handle();
        let ops = Rc::new(Cell::new(0u64));
        let ops2 = Rc::clone(&ops);
        sim.spawn(async move {
            loop {
                match h.inline_horizon() {
                    Some(horizon) => {
                        let now = h.now().cycles();
                        let n = RUN.min(horizon.cycles().saturating_sub(now));
                        for _ in 0..n {
                            ops2.set(ops2.get() + 1);
                            if ops2.get() == TRIP {
                                token.cancel();
                            }
                        }
                        h.advance_inline_to(Time::from_cycles(now + n), n);
                    }
                    None => {
                        ops2.set(ops2.get() + 1);
                        h.wait(Duration::cycles(1)).await;
                    }
                }
            }
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("a token tripped inside a run must unwind out of run");
        assert!(err.is::<crate::Cancelled>());
        assert!(
            (TRIP..=TRIP + RUN).contains(&ops.get()),
            "{} ops ran, past one run after the trip at {TRIP}",
            ops.get()
        );
    }

    /// Kernel time and counters a refused or refunded advance must
    /// leave exactly as they were.
    fn kernel_state(h: &SimHandle) -> (u64, u64, u64) {
        let k = &h.kernel;
        (k.now(), k.timers_fired.get(), k.polls.get())
    }

    /// Runs `body` as the first task polled, alongside `siblings` spawned
    /// after it; returns what `body` returned.
    fn in_task<T: 'static>(siblings: Vec<u64>, body: impl FnOnce(&SimHandle) -> T + 'static) -> T {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let jh = sim.spawn(async move { body(&h) });
        for d in siblings {
            let h = sim.handle();
            sim.spawn(async move { h.wait(Duration::cycles(d)).await });
        }
        sim.run();
        jh.try_take().expect("body ran")
    }

    #[test]
    fn try_advance_declines_changing_nothing() {
        let declines = |h: &SimHandle, d: u64| {
            let before = kernel_state(h);
            let advanced = h.try_advance(Duration::cycles(d));
            (advanced, kernel_state(h) == before)
        };
        // Outside a task.
        let mut sim = Simulation::new();
        sim.run();
        assert_eq!(declines(&sim.handle(), 5), (false, true));
        // A zero-length advance is a delta wait, never inline.
        assert_eq!(in_task(vec![], move |h| declines(h, 0)), (false, true));
        // A sibling spawned before this poll is runnable.
        assert_eq!(in_task(vec![1], move |h| declines(h, 5)), (false, true));
        // A child spawned by this poll is about to run.
        let spawned = in_task(vec![], move |h| {
            h.spawn(async {});
            declines(h, 5)
        });
        assert_eq!(spawned, (false, true));
        // The cancel token tripped.
        crate::silence_cancelled_panics();
        let token = crate::CancelToken::new();
        let cancelled = crate::with_cancel_token(&token, || {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let token = Arc::clone(&token);
            let jh = sim.spawn(async move {
                token.cancel();
                declines(&h, 5)
            });
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
            jh.try_take()
        });
        assert_eq!(cancelled, Some((false, true)));
    }

    #[test]
    fn try_advance_declines_at_or_past_a_pending_timer() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        // The sleeper is polled first; the prober is still ready then, so
        // its wait registers a timer at 10.
        let sleeper = h.clone();
        sim.spawn(async move { sleeper.wait(Duration::cycles(10)).await });
        let jh = sim.spawn(async move {
            let before = kernel_state(&h);
            let refused = [10, 11].map(|d| h.try_advance(Duration::cycles(d)));
            let unchanged = kernel_state(&h) == before;
            let advanced = h.try_advance(Duration::cycles(9));
            (refused, unchanged, advanced, h.now().cycles())
        });
        sim.run();
        assert_eq!(jh.try_take(), Some(([false, false], true, true, 9)));
    }

    #[test]
    fn inline_horizon_is_none_unless_the_task_runs_alone() {
        // Outside a poll.
        let mut sim = Simulation::new();
        sim.run();
        assert_eq!(sim.handle().inline_horizon(), None);
        // A sibling spawned before this poll is runnable.
        assert_eq!(in_task(vec![1], |h| h.inline_horizon()), None);
        // A child spawned by this poll is about to run.
        let spawned = in_task(vec![], |h| {
            h.spawn(async {});
            h.inline_horizon()
        });
        assert_eq!(spawned, None);
        // The cancel token tripped.
        crate::silence_cancelled_panics();
        let token = crate::CancelToken::new();
        let cancelled = crate::with_cancel_token(&token, || {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let token = Arc::clone(&token);
            let jh = sim.spawn(async move {
                token.cancel();
                h.inline_horizon()
            });
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
            jh.try_take()
        });
        assert_eq!(cancelled, Some(None));
        // Alone, with no timer pending: unbounded.
        assert_eq!(in_task(vec![], |h| h.inline_horizon()), Some(Time::MAX));
    }

    #[test]
    fn inline_horizon_is_the_cycle_before_the_earliest_timer() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        // As above: the sleeper registers a timer at 10 before the prober
        // runs.
        let sleeper = h.clone();
        sim.spawn(async move { sleeper.wait(Duration::cycles(10)).await });
        let jh = sim.spawn(async move {
            let first = h.inline_horizon();
            // An inline advance does not move the horizon.
            assert!(h.try_advance(Duration::cycles(4)));
            let after = h.inline_horizon();
            // The rule `try_advance` applies: a deadline at or before the
            // horizon completes inline, one past it does not.
            let past = h.try_advance(Duration::cycles(6));
            let to = h.try_advance(Duration::cycles(5));
            (first, after, past, to)
        });
        sim.run();
        let nine = Some(Time::from_cycles(9));
        assert_eq!(jh.try_take(), Some((nine, nine, false, true)));
    }

    #[test]
    fn advance_inline_to_books_a_run_of_timers_at_once() {
        let (before, after) = in_task(vec![], |h| {
            let before = kernel_state(h);
            h.advance_inline_to(Time::from_cycles(12), 3);
            (before, kernel_state(h))
        });
        assert_eq!(after, (before.0 + 12, before.1 + 3, before.2));
    }

    #[test]
    fn try_advance_moves_now_and_counts_a_timer() {
        let (advanced, before, after) = in_task(vec![], move |h| {
            let before = kernel_state(h);
            (h.try_advance(Duration::cycles(5)), before, kernel_state(h))
        });
        assert!(advanced);
        assert_eq!(after, (before.0 + 5, before.1 + 1, before.2));
    }

    #[test]
    fn undo_advance_restores_now_and_timers_fired_exactly() {
        let (before, after) = in_task(vec![], move |h| {
            assert!(h.try_advance(Duration::cycles(3)));
            let before = kernel_state(h);
            assert!(h.try_advance(Duration::cycles(7)));
            assert!(h.try_advance(Duration::cycles(2)), "a nested advance");
            h.undo_advance(Duration::cycles(2));
            h.undo_advance(Duration::cycles(7));
            (before, kernel_state(h))
        });
        assert_eq!(before, after);
    }

    #[test]
    fn quantum_advance_absorbs_and_refunds_the_local_offset() {
        let mut sim = Simulation::with_quantum(Duration::cycles(10));
        let h = sim.handle();
        let jh = sim.spawn(async move {
            let fits = h.try_advance(Duration::cycles(6));
            let local = h.now().cycles();
            let overflows = h.try_advance(Duration::cycles(4));
            h.undo_advance(Duration::cycles(6));
            (fits, local, overflows, h.now().cycles(), kernel_state(&h))
        });
        sim.run();
        assert_eq!(jh.try_take(), Some((true, 6, false, 0, (0, 0, 1))));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "undo_advance after the advanced time was observed")]
    fn undo_advance_after_a_spawn_is_a_contract_violation() {
        in_task(vec![], move |h| {
            assert!(h.try_advance(Duration::cycles(5)));
            h.spawn(async {});
            h.undo_advance(Duration::cycles(5));
        });
    }
}
