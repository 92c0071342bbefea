//! Property-based proof that the kernel's batched same-timestamp timer
//! drain is semantically inert: for any workload, the observable event
//! trace is identical whether a batch fires one timer at a time
//! (`set_timer_batch_limit(1)`), a few at a time, or drains whole
//! buckets (the default). A second property pins the timer queue itself:
//! with many distinct and repeated deadlines and same-instant
//! re-schedules after timed event notifications, the wake order equals a
//! naive `(time, seq)` reference model. Its long waits open lone-task
//! phases, where the exact-lookahead rule completes waits inline without
//! suspending; the trace and the fired-timer count must still equal the
//! reference's. See DESIGN.md § Kernel architecture.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;

use tve::sim::{Duration, Event, Simulation, Time};

/// One observable event: (simulated cycle, task index, step index).
type Trace = Vec<(u64, usize, usize)>;

/// Runs `workload` (per-task wait sequences, in cycles) under the given
/// timer batch limit and returns the trace of every completed wait in
/// execution order.
fn run(workload: &[Vec<u64>], batch_limit: usize) -> (Trace, u64) {
    let mut sim = Simulation::new();
    sim.set_timer_batch_limit(batch_limit);
    let trace: Rc<RefCell<Trace>> = Rc::new(RefCell::new(Vec::new()));
    for (ti, waits) in workload.iter().enumerate() {
        let h = sim.handle();
        let trace = Rc::clone(&trace);
        let waits = waits.clone();
        sim.spawn(async move {
            for (si, &w) in waits.iter().enumerate() {
                h.wait(Duration::cycles(w)).await;
                trace.borrow_mut().push((h.now().cycles(), ti, si));
            }
        });
    }
    let end = sim.run().cycles();
    let t = trace.borrow().clone();
    (t, end)
}

/// Wait sequences drawn from a tiny duration range so many timers land
/// on the same cycle — exactly the bucket shapes batching reorders if
/// it is ever wrong.
fn workloads() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(proptest::collection::vec(1u64..6, 1..12), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_limit_one_is_trace_identical(workload in workloads()) {
        let (full, end_full) = run(&workload, usize::MAX);
        let (one, end_one) = run(&workload, 1);
        prop_assert_eq!(&one, &full);
        prop_assert_eq!(end_one, end_full);
    }

    #[test]
    fn any_batch_limit_is_trace_identical(workload in workloads(), limit in 2usize..5) {
        let (full, end_full) = run(&workload, usize::MAX);
        let (k, end_k) = run(&workload, limit);
        prop_assert_eq!(&k, &full);
        prop_assert_eq!(end_k, end_full);
    }
}

/// Who logged an event in the timer-order workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Actor {
    /// Sleeper task `i`, after its wait number `step`.
    Sleeper(usize),
    /// Listener of event `k`: step 0 on the notification, step 1 after the
    /// zero-length wait it then takes at the same instant.
    Listener(usize),
}

/// One timer-order observation: (cycle, actor, step).
type OrderTrace = Vec<(u64, Actor, usize)>;

/// A mixed timer workload: sleeper tasks with many distinct and repeated
/// deadlines (zero waits re-schedule at the current instant) and long
/// waits that leave one sleeper alone for a stretch, plus one
/// listener per event whose timed notifications were all scheduled up
/// front. Each listener, once woken, re-schedules at the same instant
/// with a zero wait before re-arming — the same-instant append path.
#[derive(Debug, Clone)]
struct OrderWorkload {
    sleepers: Vec<Vec<u64>>,
    /// Per event: strictly increasing notification times, all ≥ 1, so
    /// the listener is always armed when its event fires.
    notifies: Vec<Vec<u64>>,
}

/// Raw draws for an [`OrderWorkload`]: per sleeper `(selector, raw)`
/// wait pairs, per event unsorted notification times.
type RawOrderWorkload = (Vec<Vec<(u64, u64)>>, Vec<Vec<u64>>);

fn order_workloads() -> impl Strategy<Value = RawOrderWorkload> {
    let wait = (0u64..4, 0u64..48);
    (
        proptest::collection::vec(proptest::collection::vec(wait, 1..14), 1..16),
        proptest::collection::vec(proptest::collection::vec(1u64..40, 0..6), 0..5),
    )
}

impl OrderWorkload {
    /// Selector 0 keeps the raw wait: distinct deadlines that land
    /// between pending buckets. Selector 3 stretches it to `raw * 16`, a
    /// gap wider than most other deadlines, so the sleeper runs alone for
    /// a while. Otherwise the wait is `raw % 3`: repeated deadlines and
    /// zero waits. Notification times are sorted and deduplicated.
    fn new((sleepers, notifies): RawOrderWorkload) -> Self {
        let sleepers = sleepers
            .into_iter()
            .map(|waits| {
                waits
                    .into_iter()
                    .map(|(sel, raw)| match sel {
                        0 => raw,
                        3 => raw * 16,
                        _ => raw % 3,
                    })
                    .collect()
            })
            .collect();
        let notifies = notifies
            .into_iter()
            .map(|mut times| {
                times.sort_unstable();
                times.dedup();
                times
            })
            .collect();
        OrderWorkload { sleepers, notifies }
    }
}

/// Runs `w` on the kernel under `batch_limit`; returns the trace and
/// [`Simulation::kernel_stats`] `(polls, timers fired)`.
fn run_order(w: &OrderWorkload, batch_limit: usize) -> (OrderTrace, (u64, u64)) {
    let mut sim = Simulation::new();
    sim.set_timer_batch_limit(batch_limit);
    let h = sim.handle();
    let trace: Rc<RefCell<OrderTrace>> = Rc::new(RefCell::new(Vec::new()));
    let events: Vec<Event> = w.notifies.iter().map(|_| Event::new(&h)).collect();
    // The notifier task schedules every notification up front, first of all.
    {
        let events = events.clone();
        let notifies = w.notifies.clone();
        sim.spawn(async move {
            for (ev, times) in events.iter().zip(&notifies) {
                for &t in times {
                    ev.notify_at(Time::from_cycles(t));
                }
            }
        });
    }
    for (i, waits) in w.sleepers.iter().enumerate() {
        let (h, trace, waits) = (h.clone(), Rc::clone(&trace), waits.clone());
        sim.spawn(async move {
            for (step, &d) in waits.iter().enumerate() {
                h.wait(Duration::cycles(d)).await;
                trace
                    .borrow_mut()
                    .push((h.now().cycles(), Actor::Sleeper(i), step));
            }
        });
    }
    for (k, ev) in events.into_iter().enumerate() {
        let (h, trace) = (h.clone(), Rc::clone(&trace));
        let rounds = w.notifies[k].len();
        sim.spawn(async move {
            for _ in 0..rounds {
                ev.wait().await;
                trace
                    .borrow_mut()
                    .push((h.now().cycles(), Actor::Listener(k), 0));
                h.wait(Duration::ZERO).await;
                trace
                    .borrow_mut()
                    .push((h.now().cycles(), Actor::Listener(k), 1));
            }
        });
    }
    sim.run();
    let t = trace.borrow().clone();
    (t, sim.kernel_stats())
}

/// The naive reference: one global `(time, seq)`-ordered timer set, one
/// timer fired at a time, and the woken task run to its next suspension
/// on the spot. `seq` counts schedule calls in execution order. Returns
/// the trace and the number of timers fired.
fn reference_order(w: &OrderWorkload) -> (OrderTrace, u64) {
    #[derive(Clone, Copy)]
    enum Fire {
        Sleeper(usize),
        ListenerResume(usize),
        Notify(usize),
    }
    let mut timers: BTreeMap<(u64, u64), Fire> = BTreeMap::new();
    let mut seq = 0u64;
    let mut schedule = |timers: &mut BTreeMap<(u64, u64), Fire>, t: u64, f: Fire| {
        timers.insert((t, seq), f);
        seq += 1;
    };
    // Time 0, spawn order: notifier, sleepers, listeners (which only arm).
    for (k, times) in w.notifies.iter().enumerate() {
        for &t in times {
            schedule(&mut timers, t, Fire::Notify(k));
        }
    }
    for (i, waits) in w.sleepers.iter().enumerate() {
        schedule(&mut timers, waits[0], Fire::Sleeper(i));
    }
    let mut step = vec![0usize; w.sleepers.len()];
    let mut trace = Vec::new();
    let mut fired = 0u64;
    while let Some(((now, _), fire)) = timers.pop_first() {
        fired += 1;
        match fire {
            Fire::Sleeper(i) => {
                trace.push((now, Actor::Sleeper(i), step[i]));
                step[i] += 1;
                if let Some(&d) = w.sleepers[i].get(step[i]) {
                    schedule(&mut timers, now + d, Fire::Sleeper(i));
                }
            }
            Fire::Notify(k) => {
                trace.push((now, Actor::Listener(k), 0));
                schedule(&mut timers, now, Fire::ListenerResume(k));
            }
            Fire::ListenerResume(k) => trace.push((now, Actor::Listener(k), 1)),
        }
    }
    (trace, fired)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn timer_wake_order_matches_time_seq_reference(raw in order_workloads()) {
        let w = OrderWorkload::new(raw);
        let (reference, fired) = reference_order(&w);
        for limit in [usize::MAX, 1] {
            let (trace, (_, timers)) = run_order(&w, limit);
            prop_assert_eq!(&trace, &reference);
            // Waits completed inline still count as fired timers.
            prop_assert_eq!(timers, fired);
        }
    }

    #[test]
    fn lone_sleeper_suspends_only_on_zero_waits(
        waits in proptest::collection::vec((0u64..4, 0u64..48), 1..32),
    ) {
        let w = OrderWorkload::new((vec![waits], Vec::new()));
        let (reference, fired) = reference_order(&w);
        let (trace, (polls, timers)) = run_order(&w, usize::MAX);
        prop_assert_eq!(&trace, &reference);
        prop_assert_eq!(timers, fired);
        // One poll for the notifier, one for the sleeper, plus one per
        // delta (zero) wait: every timed wait completes inline.
        let zeros = w.sleepers[0].iter().filter(|&&d| d == 0).count() as u64;
        prop_assert_eq!(polls, 2 + zeros);
    }
}
