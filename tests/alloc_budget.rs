//! Allocation budgets of the bit-true scan path and the kernel's wait
//! primitives, counted by this binary's own global allocator.
//!
//! Counts are per thread, so the test harness's other threads do not
//! disturb them. The budgets are exact upper bounds: a change that adds
//! a per-pattern copy of the stimulus, boxes a future on the
//! uncontended scan path, spawns a task per held EBI transfer, allocates
//! per march run or per op, or lets a wake drop its waiter list's
//! capacity fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use tve::core::{
    ConfigClient, DataPolicy, Ebi, MemoryTestPlan, ReadBack, ScanKind, ScanSource,
    SyntheticLogicCore, TestController, TestWrapper, WrapperConfig, WrapperMode,
};
use tve::memtest::{Fault, MarchTest, PatternTest};
use tve::sim::{Duration, Event, Simulation};
use tve::soc::{initiators, JpegEncoderSoc, SocConfig, MEM_BASE};
use tve::tlm::{AddrRange, BusConfig, BusTam, InitiatorId, TamIf};
use tve::tpg::ScanConfig;

/// Counts the allocations (including reallocations) made on the
/// current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialized thread-local `Cell` that neither
// allocates nor needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made by one Full-data BIST run of `patterns` patterns,
/// from an idle 32-bit bus into a double-buffered wrapper, counted from
/// the moment the SoC fragment is built until the outcome is back.
fn bist_run_allocs(patterns: u64) -> u64 {
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let scan = ScanConfig::new(4, 32);
    let bus = Rc::new(BusTam::new(&handle, BusConfig::default()));
    let wrapper = Rc::new(TestWrapper::new(
        &handle,
        WrapperConfig::default(),
        Rc::new(SyntheticLogicCore::new("core", scan, 5)),
    ));
    wrapper.load_config(WrapperMode::Bist.encode());
    bus.bind(AddrRange::new(0, 0x100), wrapper).unwrap();
    let source = ScanSource::new(
        &handle,
        "bist",
        bus,
        0,
        InitiatorId(0),
        scan,
        patterns,
        DataPolicy::Full,
        0x5EED,
        ScanKind::Bist,
    );
    let before = allocs();
    let run = sim.spawn(async move { source.run().await });
    sim.run();
    let outcome = run.try_take().expect("the run completes");
    let used = allocs() - before;
    assert_eq!(outcome.patterns, patterns);
    assert!(outcome.signature.is_some());
    used
}

/// The allocations of a run that no pattern count changes: the task,
/// the stimulus cursor, the outcome and the signature readout.
const BIST_RUN_CONSTANT: u64 = 12;

/// A lone Full-data BIST source on an idle bus allocates one buffer per
/// pattern (the stimulus words a `write` hands to the bus, which the
/// wrapper then captures in place and keeps as the response) plus a
/// constant: no copy of the stimulus and no boxed future per pattern.
#[test]
fn lone_full_data_bist_allocates_one_buffer_per_pattern() {
    // Warm the process-wide stimulus store, so the runs below read the
    // stored stream instead of generating it.
    bist_run_allocs(256);
    for patterns in [0, 1, 64, 256] {
        let used = bist_run_allocs(patterns);
        assert!(
            used <= patterns + BIST_RUN_CONSTANT,
            "{patterns} patterns made {used} allocations, over {patterns} + {BIST_RUN_CONSTANT}"
        );
    }
}

/// Allocations made by one Full-data, combined-read-back ATE run of
/// `patterns` patterns through an enabled EBI and an idle 32-bit bus
/// into a double-buffered int-test wrapper, counted like
/// [`bist_run_allocs`].
fn ate_run_allocs(patterns: u64) -> u64 {
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let scan = ScanConfig::new(4, 32);
    let bus = Rc::new(BusTam::new(&handle, BusConfig::default()));
    let wrapper = Rc::new(TestWrapper::new(
        &handle,
        WrapperConfig::default(),
        Rc::new(SyntheticLogicCore::new("core", scan, 5)),
    ));
    wrapper.load_config(WrapperMode::IntTest.encode());
    bus.bind(AddrRange::new(0, 0x100), wrapper).unwrap();
    let ebi = Ebi::new(&handle, "ebi", bus as Rc<dyn TamIf>, (8, 1), (8, 1));
    ebi.load_config(1);
    let source = ScanSource::new(
        &handle,
        "ate",
        Rc::new(ebi),
        0,
        InitiatorId(0),
        scan,
        patterns,
        DataPolicy::Full,
        0x5EED,
        ScanKind::Ate {
            read_back: ReadBack::Combined,
        },
    );
    let before = allocs();
    let run = sim.spawn(async move { source.run().await });
    sim.run();
    let outcome = run.try_take().expect("the run completes");
    let used = allocs() - before;
    assert_eq!(outcome.patterns, patterns);
    assert_eq!(outcome.errors, 0);
    used
}

/// The allocations of an ATE run, whatever its pattern count: the task,
/// the stimulus cursor and the outcome; the first stimulus buffer and
/// the two zeroed responses that start the buffers circulating; and the
/// background task of the last, unhinted transfer.
const ATE_RUN_CONSTANT: u64 = 16;

/// A lone Full-data ATE source with combined read-back allocates a
/// constant, however many patterns it sends: the words shifted out come
/// back as the next stimulus buffer, the EBI takes its response buffer
/// instead of cloning it, the same-time hand-off delivers every transfer
/// but the last inline instead of spawning a task for it, and the EBI's
/// synchronous path takes each pattern without boxing a transport
/// future.
#[test]
fn lone_full_data_ate_allocates_a_constant() {
    // Warm the process-wide stimulus store, as above.
    ate_run_allocs(256);
    for patterns in [0, 1, 64, 256] {
        let used = ate_run_allocs(patterns);
        assert!(
            used <= ATE_RUN_CONSTANT,
            "{patterns} patterns made {used} allocations, over {ATE_RUN_CONSTANT}"
        );
    }
}

/// Allocations made by one lone Full-data processor march (march C-
/// plus a checkerboard, 12 ops a word) over a `words`-word memory,
/// through the SoC's DMI chain (bus, memory wrapper, memory core),
/// counted from the engine's spawn until the outcome is back. With
/// `stuck`, word 7 has a stuck-at-1 bit, which the march must find.
fn march_run_allocs(words: u32, stuck: bool) -> u64 {
    let mut sim = Simulation::new();
    let handle = sim.handle();
    // One monitor window longer than either march: the monitor's map of
    // windows grows with simulated time, on the per-op path as much as
    // over runs, and is not what this counts.
    let config = SocConfig {
        memory_words: words,
        monitor_window: Duration::cycles(1 << 32),
        ..SocConfig::small()
    };
    let soc = JpegEncoderSoc::build(&handle, config);
    if stuck {
        soc.memory.inject(Fault::stuck_at(7, 3, true));
    }
    let engine = TestController::new(
        &handle,
        "proc",
        Rc::clone(&soc.bus) as Rc<dyn TamIf>,
        initiators::PROCESSOR,
    );
    let plan = MemoryTestPlan {
        name: "T7".into(),
        march: MarchTest::march_c_minus(),
        patterns: vec![PatternTest::Checkerboard],
        base_addr: MEM_BASE,
        words,
        op_overhead: Duration::cycles(6),
        posted_depth: 1,
        policy: DataPolicy::Full,
    };
    let before = allocs();
    let run = sim.spawn(async move { engine.run_memory_test(&plan).await });
    sim.run();
    let outcome = run.try_take().expect("the march completes");
    let used = allocs() - before;
    assert_eq!(outcome.patterns, 12 * u64::from(words));
    assert_eq!(outcome.errors, 0);
    let failing: &[u32] = if stuck { &[7] } else { &[] };
    assert_eq!(outcome.failing_addresses, failing);
    used
}

/// A lone Full-data march over a DMI grant allocates the same at 64
/// words (one run) as at 4,096 words (a dozen full runs): the engine
/// fills two fixed buffers per test, and a run allocates nothing per op
/// or per run.
#[test]
fn lone_full_data_march_allocates_the_same_at_any_memory_size() {
    let small = march_run_allocs(64, false);
    let large = march_run_allocs(4096, false);
    assert_eq!(
        small, large,
        "64 words made {small} allocations, 4,096 made {large}"
    );
}

/// A stuck-at fault takes the march off the memory's plain words onto
/// its per-op path, which must not allocate per write either: at 64 and
/// at 4,096 words the faulty march allocates what the fault-free one
/// does, plus the one list its failing address goes into.
#[test]
fn lone_full_data_march_over_a_faulty_memory_allocates_the_same_constant() {
    let clean = march_run_allocs(64, false);
    for words in [64, 4096] {
        let faulty = march_run_allocs(words, true);
        assert_eq!(
            faulty,
            clean + 1,
            "{words} words with a stuck-at fault made {faulty} allocations, fault-free {clean}"
        );
    }
}

/// After its first round, an `Event` wait/notify ping-pong between two
/// tasks allocates nothing: each wake hands the emptied waiter list back
/// to its event, and the ready queue is intrusive.
#[test]
fn event_ping_pong_allocates_nothing_after_the_first_round() {
    const ROUNDS: u64 = 10_000;
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let (ping, pong) = (Event::new(&handle), Event::new(&handle));
    {
        let (ping, pong) = (ping.clone(), pong.clone());
        sim.spawn(async move {
            loop {
                ping.wait().await;
                pong.notify();
            }
        });
    }
    let counts = sim.spawn(async move {
        let mut after_first = 0;
        for round in 0..ROUNDS {
            ping.notify();
            pong.wait().await;
            if round == 0 {
                after_first = allocs();
            }
        }
        (after_first, allocs())
    });
    sim.run();
    let (after_first, at_end) = counts.try_take().expect("the pinger finishes");
    assert_eq!(at_end - after_first, 0, "allocations after the first round");
}
