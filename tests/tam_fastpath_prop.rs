//! Property-based proof that the synchronous TAM fast path is exact in
//! cycle-accurate mode: random mixes of initiators over one `BusTam`
//! give identical results whether every access awaits
//! `TamIf::transport` (the event path) or goes through the `TamIfExt`
//! accessors, which try `TamIf::transport_sync_try` first and complete
//! an uncontended transfer as one call. See DESIGN.md § TAM fast paths.
//!
//! The bus monitor keeps no interval list, and an instrumented channel
//! keeps accurate transfers on the event path by design, so intervals
//! are observed twice without instrumenting the bus: each target logs
//! `(time, initiator, bits)` when a transfer reaches it, which is the
//! end of its last occupancy interval, in booking order; and the monitor
//! runs with a one-cycle window, so its per-window profile is the exact
//! per-cycle busy count of every interval, bursts and unmapped accesses
//! included.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use proptest::prelude::*;

use tve::sim::{Duration, SimHandle, Simulation};
use tve::tlm::{
    AddrRange, ArbiterPolicy, BusConfig, BusTam, Command, InitiatorId, LocalBoxFuture,
    ResponseStatus, TamIf, TamIfExt, Transaction,
};

/// Base addresses of the three kinds of target; `UNMAPPED` decodes to
/// nothing.
const SINK: u32 = 0x000;
const SLOW: u32 = 0x100;
const UNMAPPED: u32 = 0x200;

/// What a transfer looked like when it reached a target:
/// `(target, cycle, initiator, bits)`.
type Arrivals = Rc<RefCell<Vec<(&'static str, u64, u8, u64)>>>;

/// A synchronous target: accepts anything instantly, zero-filling reads.
struct LogSink {
    arrivals: Arrivals,
    handle: SimHandle,
}

impl LogSink {
    fn accept(&self, txn: &mut Transaction) {
        self.arrivals.borrow_mut().push((
            "sink",
            self.handle.now().cycles(),
            txn.initiator.0,
            txn.bit_len,
        ));
        if txn.cmd == Command::Read {
            txn.data = vec![0; (txn.bit_len as usize).div_ceil(32)];
        }
        txn.status = ResponseStatus::Ok;
    }
}

impl TamIf for LogSink {
    fn name(&self) -> &str {
        "sink"
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move { self.accept(txn) })
    }

    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        self.accept(txn);
        true
    }
}

/// A target that declines the synchronous path: it takes `latency`
/// cycles off the bus before it completes.
struct SlowTarget {
    arrivals: Arrivals,
    handle: SimHandle,
    latency: u64,
}

impl TamIf for SlowTarget {
    fn name(&self) -> &str {
        "slow"
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            self.arrivals.borrow_mut().push((
                "slow",
                self.handle.now().cycles(),
                txn.initiator.0,
                txn.bit_len,
            ));
            self.handle.wait(Duration::cycles(self.latency)).await;
            txn.status = ResponseStatus::Ok;
        })
    }
}

/// The change side's view of the bus: forwards both entry points and
/// counts the transfers the synchronous path took.
struct Front {
    bus: Rc<BusTam>,
    sync_hits: Cell<u64>,
}

impl TamIf for Front {
    fn name(&self) -> &str {
        "front"
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        self.bus.transport(txn)
    }

    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        let taken = self.bus.transport_sync_try(txn);
        self.sync_hits.set(self.sync_hits.get() + taken as u64);
        taken
    }
}

/// One initiator step: `(kind, target, bits, wait)`. Kinds 0–1 read,
/// 2–3 write, 4 waits `wait` cycles (0 is a delta wait); `target` picks
/// the sink (0–2), the slow target (3) or the unmapped address (4).
type Step = (u8, u8, u64, u64);

/// A drawn workload: bus shape `(width, overhead, policy, burst)`, the
/// slow target's latency, and each initiator's steps.
type Raw = ((u32, u64, u8, u64), u64, Vec<Vec<Step>>);

fn workloads() -> impl Strategy<Value = Raw> {
    let step = (0u8..5, 0u8..5, 1u64..97, 0u64..9);
    (
        (1u32..5, 0u64..3, 0u8..3, 0u64..80),
        0u64..6,
        proptest::collection::vec(proptest::collection::vec(step, 1..14), 1..5),
    )
}

/// Everything either side of the comparison observes.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(initiator, step, completion cycle, status)` in completion order.
    ops: Vec<(u8, usize, u64, Option<ResponseStatus>)>,
    arrivals: Vec<(&'static str, u64, u8, u64)>,
    /// The monitor's per-cycle busy profile.
    busy: Vec<(u64, u64)>,
    per_initiator: Vec<(u8, u64)>,
    transfers: u64,
    last_activity_end: u64,
    rejected: u64,
    end: u64,
    kernel_stats: (u64, u64),
}

/// Runs `raw` in accurate mode, every access through the event path
/// (`via_ext == false`) or through the `TamIfExt` accessors; also
/// returns how many transfers the synchronous path took.
fn run(raw: &Raw, via_ext: bool) -> (Outcome, u64) {
    let ((width, overhead, policy, burst), latency, initiators) = raw;
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let bus = Rc::new(BusTam::new(
        &handle,
        BusConfig {
            width_bits: width * 8,
            overhead_cycles: *overhead,
            policy: [
                ArbiterPolicy::Fcfs,
                ArbiterPolicy::RoundRobin,
                ArbiterPolicy::Priority,
            ][*policy as usize],
            monitor_window: Duration::cycles(1),
            // Segmentation is on in about half the workloads.
            max_burst_bits: (*burst >= 40).then(|| burst - 32),
            ..BusConfig::default()
        },
    ));
    let arrivals: Arrivals = Rc::default();
    let sink = LogSink {
        arrivals: Rc::clone(&arrivals),
        handle: handle.clone(),
    };
    let slow = SlowTarget {
        arrivals: Rc::clone(&arrivals),
        handle: handle.clone(),
        latency: *latency,
    };
    bus.bind(AddrRange::new(SINK, 0x100), Rc::new(sink))
        .unwrap();
    bus.bind(AddrRange::new(SLOW, 0x100), Rc::new(slow))
        .unwrap();

    let front = Rc::new(Front {
        bus: Rc::clone(&bus),
        sync_hits: Cell::new(0),
    });
    let ops = Rc::new(RefCell::new(Vec::new()));
    for (i, steps) in initiators.iter().enumerate() {
        let (front, h, ops, steps) = (
            Rc::clone(&front),
            handle.clone(),
            Rc::clone(&ops),
            steps.clone(),
        );
        let id = InitiatorId(i as u8);
        sim.spawn(async move {
            for (k, (kind, target, bits, wait)) in steps.into_iter().enumerate() {
                let addr = [SINK, SINK + 7, SINK + 9, SLOW, UNMAPPED][target as usize];
                let status = match kind {
                    4 => {
                        h.wait(Duration::cycles(wait)).await;
                        None
                    }
                    _ => {
                        let data = vec![k as u32; (bits as usize).div_ceil(32)];
                        let status = if via_ext {
                            let result = if kind < 2 {
                                front.read(id, addr, bits).await.map(drop)
                            } else {
                                front.write(id, addr, &data, bits).await
                            };
                            result.err().map_or(ResponseStatus::Ok, |e| e.status)
                        } else {
                            let mut txn = if kind < 2 {
                                Transaction::read(id, addr, bits)
                            } else {
                                Transaction::write(id, addr, data, bits)
                            };
                            front.transport(&mut txn).await;
                            txn.status
                        };
                        Some(status)
                    }
                };
                ops.borrow_mut().push((id.0, k, h.now().cycles(), status));
            }
        });
    }
    let end = sim.run().cycles();
    let monitor = bus.monitor();
    let ops = ops.borrow().clone();
    let arrivals = arrivals.borrow().clone();
    let outcome = Outcome {
        ops,
        arrivals,
        busy: monitor.window_busy().collect(),
        per_initiator: monitor.per_initiator().map(|(i, b)| (i.0, b)).collect(),
        transfers: monitor.transfer_count(),
        last_activity_end: monitor.last_activity_end().cycles(),
        rejected: bus.rejected_count(),
        end,
        kernel_stats: sim.kernel_stats(),
    };
    (outcome, front.sync_hits.get())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sync_fast_path_equals_the_event_path(raw in workloads()) {
        let (event, _) = run(&raw, false);
        let (fast, _) = run(&raw, true);
        prop_assert_eq!(&fast, &event);
    }
}

/// The property would also hold if the fast path never fired; this pins
/// that it does. A lone initiator's sink transfers all complete
/// synchronously; the slow target and the segmented burst decline.
#[test]
fn lone_initiator_sink_transfers_complete_synchronously() {
    // 32-bit bus, 1 overhead cycle, bursts of at most 64 bits.
    let raw: Raw = (
        (4, 1, 0, 96),
        3,
        vec![vec![
            (0, 0, 32, 0),
            (2, 1, 64, 0),
            (4, 0, 1, 5),
            (1, 2, 96, 0),
            (2, 3, 32, 0),
            (0, 4, 32, 0),
        ]],
    );
    let (event, _) = run(&raw, false);
    let (fast, hits) = run(&raw, true);
    assert_eq!(fast, event);
    // Sink reads and writes plus the unmapped read; the 96-bit burst
    // splits into two chunks and the slow target suspends.
    assert_eq!(hits, 3);
    // 2 + 3 + 5 + (3 + 2) + (2 + 3) + 2 cycles.
    assert_eq!(fast.end, 22);
    assert_eq!(fast.rejected, 1);
}

/// Contention must not hide the fast path either: over a fixed batch of
/// drawn multi-initiator workloads it still takes some transfers.
#[test]
fn contended_workloads_still_take_the_fast_path() {
    let mut rng = proptest::test_runner::TestRng::new(20_090_417);
    let hits: u64 = (0..32)
        .map(|_| workloads().generate(&mut rng))
        .filter(|raw| raw.2.len() > 1)
        .map(|raw| run(&raw, true).1)
        .sum();
    assert!(hits > 0);
}
