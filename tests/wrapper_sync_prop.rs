//! Property-based proof that a test wrapper's synchronous pattern
//! acceptance is exact in cycle-accurate mode. Random mixes of
//! initiators shift patterns through one `BusTam` into one `TestWrapper`
//! (BIST, int-test or ext-test; Volume or Full data), and the run is
//! compared with the same run where the wrapper sits behind a shim that
//! forwards only `TamIf::transport`, so every pattern takes the
//! event-driven path. See DESIGN.md § TAM fast paths.
//!
//! Both runs must agree on everything observable: every operation's
//! completion cycle (for a pattern, the cycle the wrapper accepted it),
//! status and shifted-out words, the MISR signature, the wrapper's scan
//! spans and shift power, the bus monitor's per-cycle busy profile
//! (one-cycle window) and the kernel's poll and fired-timer counts. A
//! timer-heavy initiator keeps timers pending, so the exact-lookahead
//! rule declines some back-pressure waits and the two paths interleave.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

mod common;
use common::{Counted, EventOnly};

use tve::core::{
    ConfigClient, ScanPowerProfile, StuckCell, SyntheticLogicCore, TestWrapper, WrapperConfig,
    WrapperMode,
};
use tve::obs::{Recorder, SpanRecord};
use tve::sim::{Duration, Simulation};
use tve::tlm::{
    AddrRange, BusConfig, BusTam, Command, InitiatorId, PowerMeter, ResponseStatus, TamIf, TamIfExt,
};
use tve::tpg::ScanConfig;

/// How the wrapper is bound to the bus.
#[derive(Clone, Copy)]
enum Binding {
    /// The wrapper itself: synchronous acceptance where it is exact.
    Direct,
    /// Behind [`EventOnly`]: every pattern takes the event path.
    EventOnly,
    /// Behind [`Counted`]: both entry points, synchronous hits counted.
    Counted,
}

/// Wrapper shape: `(buffer depth, chains, chain length, capture cycles,
/// boundary cells, mode)`; mode 0 is BIST, 1 int-test, 2 ext-test.
type Shape = (usize, u32, u32, u64, u32, u8);

/// Run options: `(bus width in bytes, bus overhead, full data, power
/// meter, recorder, stuck cell)`; stuck cell 0 injects none.
type Options = (u32, u64, bool, bool, bool, u8);

/// One pattern-initiator step `(kind, wait)`: kinds 0–1 write a
/// pattern, 2–3 `write_read` one, 4 waits `wait` cycles (0 is a delta
/// wait), 5 reads (the signature, or the boundary input in ext-test).
type Step = (u8, u64);

/// A drawn workload: shape, options, the pattern initiators' steps
/// (one or two initiators) and the timer-heavy initiator's waits (none
/// when empty).
type Raw = (Shape, Options, Vec<Vec<Step>>, Vec<u64>);

fn workloads() -> impl Strategy<Value = Raw> {
    (
        (1usize..=4, 1u32..5, 1u32..41, 0u64..6, 1u32..97, 0u8..3),
        (
            1u32..5,
            0u64..3,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            0u8..3,
        ),
        proptest::collection::vec(proptest::collection::vec((0u8..6, 0u64..9), 1..12), 1..3),
        proptest::collection::vec(1u64..6, 0..40),
    )
}

/// Everything either side of the comparison observes.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(initiator, step, completion cycle, status, words returned)` in
    /// completion order.
    ops: Vec<(u8, usize, u64, ResponseStatus, Vec<u32>)>,
    signature: u64,
    patterns: u64,
    /// The wrapper's scan spans, when a recorder is attached.
    spans: Vec<SpanRecord>,
    /// Shift energy and peak power (as bits), when a meter is attached.
    power: Option<(u64, u64)>,
    /// The monitor's per-cycle busy profile.
    busy: Vec<(u64, u64)>,
    per_initiator: Vec<(u8, u64)>,
    transfers: u64,
    end: u64,
    /// `(polls, timers_fired)`.
    kernel_stats: (u64, u64),
}

/// Runs `raw` in cycle-accurate mode with the wrapper bound as
/// `binding`; also returns how many patterns a [`Binding::Counted`]
/// wrapper took synchronously.
fn run(raw: &Raw, binding: Binding) -> (Outcome, u64) {
    let (
        (depth, chains, len, capture, cells, mode),
        (width, overhead, full, power, record, stuck),
        initiators,
        timer_waits,
    ) = raw;
    let mode = [
        WrapperMode::Bist,
        WrapperMode::IntTest,
        WrapperMode::ExtTest,
    ][*mode as usize];
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let bus = Rc::new(BusTam::new(
        &handle,
        BusConfig {
            width_bits: width * 8,
            overhead_cycles: *overhead,
            monitor_window: Duration::cycles(1),
            ..BusConfig::default()
        },
    ));
    let scan = ScanConfig::new(*chains, *len);
    let wrapper = Rc::new(TestWrapper::new(
        &handle,
        WrapperConfig {
            name: "w".into(),
            capture_cycles: *capture,
            buffer_patterns: *depth,
            boundary_cells: *cells,
        },
        Rc::new(SyntheticLogicCore::new("core", scan, 11)),
    ));
    wrapper.load_config(mode.encode());
    if *stuck > 0 {
        wrapper.inject_fault(Some(StuckCell {
            chain: chains - 1,
            position: len / 2,
            value: *stuck == 2,
        }));
    }
    let meter = power.then(|| Rc::new(RefCell::new(PowerMeter::new(Duration::cycles(16)))));
    if let Some(meter) = &meter {
        let profile = ScanPowerProfile {
            base: 1.0,
            toggle_factor: 3.0,
        };
        wrapper.attach_power_meter(Rc::clone(meter), profile);
    }
    let recorder = record.then(|| Rc::new(Recorder::unbounded()));
    if let Some(recorder) = &recorder {
        wrapper.attach_recorder(Rc::clone(recorder));
    }
    let counted = Rc::new(Counted::new(Rc::clone(&wrapper) as Rc<dyn TamIf>));
    let target: Rc<dyn TamIf> = match binding {
        Binding::Direct => Rc::clone(&wrapper) as Rc<dyn TamIf>,
        Binding::EventOnly => Rc::new(EventOnly(Rc::clone(&wrapper) as Rc<dyn TamIf>)),
        Binding::Counted => Rc::clone(&counted) as Rc<dyn TamIf>,
    };
    bus.bind(AddrRange::new(0, 0x100), target).unwrap();

    let bits = match mode {
        WrapperMode::ExtTest => *cells as u64,
        _ => scan.bits_per_pattern(),
    };
    let read_bits = if mode == WrapperMode::ExtTest {
        bits
    } else {
        64
    };
    let ops = Rc::new(RefCell::new(Vec::new()));
    for (i, steps) in initiators.iter().enumerate() {
        let (bus, h, ops, steps, full) = (
            Rc::clone(&bus),
            handle.clone(),
            Rc::clone(&ops),
            steps.clone(),
            *full,
        );
        let id = InitiatorId(i as u8);
        sim.spawn(async move {
            for (k, (kind, wait)) in steps.into_iter().enumerate() {
                let cmd = if kind < 2 {
                    Command::Write
                } else {
                    Command::WriteRead
                };
                let data: Vec<u32> = (0..bits.div_ceil(32) as u32)
                    .map(|w| (k as u32 * 64 + w).wrapping_mul(0x9E37_79B9) ^ u32::from(id.0))
                    .collect();
                let result = match kind {
                    4 => {
                        h.wait(Duration::cycles(wait)).await;
                        continue;
                    }
                    5 => bus.read(id, 0, read_bits).await,
                    _ if !full => bus.transfer_volume(id, cmd, 0, bits).await.map(|()| vec![]),
                    0 | 1 => bus.write(id, 0, &data, bits).await.map(|()| vec![]),
                    _ => bus.write_read(id, 0, data, bits).await,
                };
                let (status, words) = match result {
                    Ok(words) => (ResponseStatus::Ok, words),
                    Err(e) => (e.status, vec![]),
                };
                ops.borrow_mut()
                    .push((id.0, k, h.now().cycles(), status, words));
            }
        });
    }
    if !timer_waits.is_empty() {
        let (h, waits) = (handle.clone(), timer_waits.clone());
        sim.spawn(async move {
            for d in waits {
                h.wait(Duration::cycles(d)).await;
            }
        });
    }
    let end = sim.run().cycles();
    let monitor = bus.monitor();
    let ops = ops.borrow().clone();
    let outcome = Outcome {
        ops,
        signature: wrapper.signature(),
        patterns: wrapper.stats().patterns,
        spans: recorder.map(|r| r.take_log().spans).unwrap_or_default(),
        power: meter.map(|m| {
            let m = m.borrow();
            (m.total_energy().to_bits(), m.peak_power().to_bits())
        }),
        busy: monitor.window_busy().collect(),
        per_initiator: monitor.per_initiator().map(|(i, b)| (i.0, b)).collect(),
        transfers: monitor.transfer_count(),
        end,
        kernel_stats: sim.kernel_stats(),
    };
    (outcome, counted.hits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn synchronous_acceptance_equals_the_event_path(raw in workloads()) {
        let (event, _) = run(&raw, Binding::EventOnly);
        let (direct, _) = run(&raw, Binding::Direct);
        prop_assert_eq!(&direct, &event);
    }
}

/// The property would also hold if the wrapper never accepted
/// synchronously; this pins that it does, back-pressure included. A
/// lone Full-data BIST initiator on an idle bus shifts eight patterns
/// into a two-deep buffer: every one is accepted synchronously, the
/// last six after an inline advance to a freed slot, and the task is
/// polled once.
#[test]
fn lone_initiator_patterns_are_accepted_synchronously() {
    // Depth 2, 2 chains x 16 cells, 4 capture cycles, 32-bit bus with
    // one overhead cycle, full data, no meter, no recorder.
    let raw: Raw = (
        (2, 2, 16, 4, 8, 0),
        (4, 1, true, false, false, 0),
        vec![vec![(0, 0); 8]],
        vec![],
    );
    let (event, _) = run(&raw, Binding::EventOnly);
    let (counted, hits) = run(&raw, Binding::Counted);
    assert_eq!(counted, event);
    assert_eq!(run(&raw, Binding::Direct).0, event);
    assert_eq!(hits, 8);
    assert_eq!(counted.kernel_stats.0, 1, "one poll: nothing suspended");
    // A transfer takes 2 bus cycles and a shift 16 + 4: the eighth
    // pattern is accepted when the sixth shift ends, at 2 + 6 * 20.
    assert_eq!(counted.ops[7].2, 122);
}

/// Contention and pending timers must not hide the fast path either:
/// over a fixed batch of drawn workloads it still takes some patterns,
/// and declines some too.
#[test]
fn drawn_workloads_take_both_paths() {
    let mut rng = proptest::test_runner::TestRng::new(20_090_417);
    let (mut hits, mut patterns) = (0, 0);
    for _ in 0..32 {
        let raw = workloads().generate(&mut rng);
        let (outcome, taken) = run(&raw, Binding::Counted);
        hits += taken;
        patterns += outcome.patterns;
    }
    assert!(hits > 0);
    assert!(hits < patterns);
}
