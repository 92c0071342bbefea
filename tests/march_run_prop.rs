//! Property-based proof that march runs are exact in cycle-accurate
//! mode. A blocking memory-test engine (the processor march, T7) runs
//! random march and pattern plans over the SoC's DMI chain (bus, memory
//! wrapper, memory core), with memory faults injected, words remapped
//! to spares, and BIST scan initiators on the same bus whose transfers
//! and timers cut runs short. A memory with neither faults nor remaps
//! applies runs over its plain words; any other takes them op by op.
//! Each run is compared with the same run where the engine's grant
//! declines every run (`DmiAccess::dmi_run`), so every op takes the
//! per-op path. See DESIGN.md § TAM fast paths.
//!
//! Both runs must agree on everything observable: every test outcome
//! (start and end cycle, ops, bits, mismatches, failing addresses,
//! signatures), the end of the run, polls and fired timers, the bus
//! monitor's per-window busy profile, per-initiator busy cycles,
//! transfers and last activity, the arbiter's grants and last grantee,
//! the memory wrapper's forwarded count, the array's read and write
//! counters, and the final contents of every repaired word.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;

use tve::core::{
    ConfigClient, DataPolicy, MemoryTestPlan, ScanKind, ScanSource, TestController, TestOutcome,
    WrapperMode,
};
use tve::memtest::{Fault, MarchTest, PatternTest};
use tve::sim::{Duration, Simulation, Time};
use tve::soc::{
    initiators, JpegEncoderSoc, SocConfig, WrappedCore, COLOR_WRAPPER_ADDR, MEM_BASE,
    PROC_WRAPPER_ADDR,
};
use tve::tlm::{
    ArbiterPolicy, BusTam, DmiAccess, DmiWord, InitiatorId, LocalBoxFuture, TamIf, Transaction,
};

/// A grant that forwards single accesses and, on the run side, runs;
/// it counts the ops runs performed.
struct Grant {
    inner: Rc<dyn DmiAccess>,
    runs: bool,
    run_ops: Rc<Cell<u64>>,
}

impl DmiAccess for Grant {
    fn dmi_read(&self, addr: u32) -> Option<u32> {
        self.inner.dmi_read(addr)
    }

    fn dmi_write(&self, addr: u32, value: u32) -> bool {
        self.inner.dmi_write(addr, value)
    }

    fn dmi_run(&self, ops: &mut [DmiWord], overhead: Duration, horizon: Time) -> usize {
        if !self.runs {
            return 0;
        }
        let done = self.inner.dmi_run(ops, overhead, horizon);
        self.run_ops.set(self.run_ops.get() + done as u64);
        done
    }
}

/// The engine's view of the bus: forwards transport, and wraps the
/// bus's DMI grant in a [`Grant`].
struct Front {
    bus: Rc<BusTam>,
    runs: bool,
    run_ops: Rc<Cell<u64>>,
}

impl TamIf for Front {
    fn name(&self) -> &str {
        "front"
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        self.bus.transport(txn)
    }

    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        self.bus.transport_sync_try(txn)
    }

    fn dmi_window(
        self: Rc<Self>,
        base: u32,
        words: u32,
        initiator: InitiatorId,
    ) -> Option<Rc<dyn DmiAccess>> {
        let inner = Rc::clone(&self.bus).dmi_window(base, words, initiator)?;
        Some(Rc::new(Grant {
            inner,
            runs: self.runs,
            run_ops: Rc::clone(&self.run_ops),
        }))
    }
}

/// Bus `(width in bytes, overhead cycles, arbiter policy, monitor
/// window choice)`.
type Bus = (u32, u64, u8, u8);

/// The plan: `(words, march, pattern tests, op overhead, full data)`.
type Plan = (u32, u8, Vec<u8>, u64, bool);

/// A memory fault `(kind, address, bit, other address)`.
type MemFault = (u8, u32, u8, u32);

/// A concurrent BIST initiator `(proc or color wrapper, patterns, start
/// delay)`.
type Scan = (bool, u64, u64);

/// The engine's own start delay, then everything else; the fourth
/// field lists the words repaired (remapped to spares) after the faults
/// are injected.
type Raw = (Bus, Plan, Vec<MemFault>, Vec<u32>, Vec<Scan>, u64);

fn workloads() -> impl Strategy<Value = Raw> {
    (
        (1u32..8, 0u64..3, 0u8..3, 0u8..4),
        (
            1u32..700,
            0u8..7,
            proptest::collection::vec(0u8..3, 0..3),
            0u64..9,
            any::<bool>(),
        ),
        proptest::collection::vec((0u8..4, 0u32..700, 0u8..32, 0u32..700), 0..3),
        proptest::collection::vec(0u32..700, 0..3),
        proptest::collection::vec((any::<bool>(), 0u64..10, 0u64..6000), 0..3),
        0u64..200,
    )
}

/// Everything either side of the comparison observes.
#[derive(Debug, PartialEq)]
struct Outcome {
    march: TestOutcome,
    scans: Vec<TestOutcome>,
    end: u64,
    kernel_stats: (u64, u64),
    busy: Vec<(u64, u64)>,
    per_initiator: Vec<(u8, u64)>,
    transfers: u64,
    last_activity_end: u64,
    grants: (u64, u8),
    forwarded: u64,
    array_ops: (u64, u64),
    /// What each repaired word holds at the end, read through the remap.
    repaired: Vec<u32>,
}

fn march(choice: u8) -> MarchTest {
    match choice {
        0 => MarchTest::mats(),
        1 => MarchTest::mats_plus(),
        2 => MarchTest::mats_plus_plus(),
        3 => MarchTest::march_x(),
        4 => MarchTest::march_y(),
        5 => MarchTest::march_b(),
        _ => MarchTest::march_c_minus(),
    }
}

/// Runs `raw` in accurate mode with runs on or off; also returns how
/// many ops runs performed.
fn run(raw: &Raw, runs: bool) -> (Outcome, u64) {
    let ((width, bus_overhead, policy, window), plan, faults, repairs, scans, delay) = raw;
    let (words, march_choice, patterns, op_overhead, full) = plan;
    let data = if *full {
        DataPolicy::Full
    } else {
        DataPolicy::Volume
    };
    let config = SocConfig {
        bus_width_bits: width * 8,
        bus_overhead: *bus_overhead,
        arbiter: [
            ArbiterPolicy::Fcfs,
            ArbiterPolicy::RoundRobin,
            ArbiterPolicy::Priority,
        ][*policy as usize],
        monitor_window: Duration::cycles([1, 7, 64, 65_536][*window as usize]),
        memory_words: *words,
        policy: data,
        ..SocConfig::small()
    };
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let soc = JpegEncoderSoc::build(&handle, config.clone());
    for &(kind, addr, bit, other) in faults {
        let (addr, other) = (addr % words, other % words);
        let fault = match kind {
            0 => Fault::stuck_at(addr, bit, bit % 2 == 0),
            1 => Fault::transition(addr, bit, bit % 2 == 1),
            2 if addr != other => Fault::coupling_inversion((addr, bit), (other, 31 - bit), true),
            _ if addr != other => Fault::address_alias(addr, other),
            _ => Fault::stuck_at(addr, bit, true),
        };
        soc.memory.inject(fault);
    }
    for &addr in repairs {
        assert!(
            soc.memory.repair(addr % words),
            "two repairs fit the SoC's eight spares"
        );
    }

    let run_ops = Rc::new(Cell::new(0));
    let front = Rc::new(Front {
        bus: Rc::clone(&soc.bus),
        runs,
        run_ops: Rc::clone(&run_ops),
    });
    let engine = TestController::new(&handle, "proc", front, initiators::PROCESSOR);
    let plan = MemoryTestPlan {
        name: "T7".into(),
        march: march(*march_choice),
        patterns: patterns
            .iter()
            .map(|&p| match p {
                0 => PatternTest::Checkerboard,
                1 => PatternTest::AddressInData,
                _ => PatternTest::Solid(0x0F0F_F0F0),
            })
            .collect(),
        base_addr: MEM_BASE,
        words: *words,
        op_overhead: Duration::cycles(*op_overhead),
        posted_depth: 1,
        policy: data,
    };
    let march_run = {
        let (h, delay) = (handle.clone(), *delay);
        sim.spawn(async move {
            h.wait(Duration::cycles(delay)).await;
            engine.run_memory_test(&plan).await
        })
    };

    let mut scan_runs = Vec::new();
    for (k, &(proc, patterns, start)) in scans.iter().enumerate() {
        let (wrapper, addr, scan, initiator) = if proc {
            (
                &soc.proc_wrapper,
                PROC_WRAPPER_ADDR,
                config.proc_scan,
                initiators::BIST_PROC,
            )
        } else {
            (
                &soc.color_wrapper,
                COLOR_WRAPPER_ADDR,
                config.color_scan,
                initiators::BIST_COLOR,
            )
        };
        wrapper.load_config(WrapperMode::Bist.encode());
        let source = ScanSource::new(
            &handle,
            format!("bist{k}"),
            Rc::clone(&soc.bus) as Rc<dyn TamIf>,
            addr,
            initiator,
            scan,
            patterns,
            data,
            0x5EED + k as u64,
            ScanKind::Bist,
        );
        let h = handle.clone();
        scan_runs.push(sim.spawn(async move {
            h.wait(Duration::cycles(start)).await;
            source.run().await
        }));
    }

    let end = sim.run().cycles();
    let monitor = soc.bus.monitor();
    let (grants, last) = soc.bus.grants();
    let outcome = Outcome {
        march: march_run.try_take().expect("the march completes"),
        scans: scan_runs
            .iter()
            .map(|jh| jh.try_take().expect("the scan test completes"))
            .collect(),
        end,
        kernel_stats: sim.kernel_stats(),
        busy: monitor.window_busy().collect(),
        per_initiator: monitor.per_initiator().map(|(i, b)| (i.0, b)).collect(),
        transfers: monitor.transfer_count(),
        last_activity_end: monitor.last_activity_end().cycles(),
        grants: (grants, last.0),
        forwarded: soc
            .wrapper_of(WrappedCore::MemoryPeriphery)
            .stats()
            .forwarded,
        array_ops: soc.memory.op_counts(),
        repaired: repairs
            .iter()
            .map(|&addr| {
                soc.memory
                    .dmi_read(MEM_BASE + addr % words)
                    .expect("the word is in the memory")
            })
            .collect(),
    };
    drop(monitor);
    (outcome, run_ops.get())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn march_runs_equal_single_ops(raw in workloads()) {
        let (single, none) = run(&raw, false);
        let (runs, _) = run(&raw, true);
        prop_assert_eq!(none, 0);
        prop_assert_eq!(&runs, &single);
    }
}

/// The property would also hold if runs never happened; this pins that
/// they do. A lone Full-data march C- over 1,000 words (10,000 ops, so
/// more than one full run) with a stuck-at fault takes every op in runs
/// and still finds the fault.
#[test]
fn lone_march_takes_every_op_in_runs() {
    let raw: Raw = (
        (6, 1, 0, 3),
        (1000, 6, vec![], 6, true),
        vec![(0, 77, 3, 0)],
        vec![],
        vec![],
        0,
    );
    let (single, _) = run(&raw, false);
    let (runs, run_ops) = run(&raw, true);
    assert_eq!(runs, single);
    assert_eq!(run_ops, 10_000);
    assert_eq!(runs.march.patterns, 10_000);
    assert_eq!(runs.march.failing_addresses, vec![77]);
    // One poll for the march task: every op was inline either way.
    assert_eq!(runs.kernel_stats, single.kernel_stats);
}

/// Runs take every op over each kind of memory: plain words (no fault,
/// no remap), and the per-op path a fault or a remapped word forces,
/// in Full data and in Volume. A repaired stuck-at word reads clean, an
/// unrepaired one is found, and a repaired word ends holding the last
/// checkerboard word on both sides.
#[test]
fn repaired_memories_take_every_op_in_runs() {
    let stuck = vec![(0, 77, 3, 0)];
    for full in [true, false] {
        for (faults, repairs, failing) in [
            (vec![], vec![], vec![]),
            (stuck.clone(), vec![], vec![77]),
            (vec![], vec![5, 640], vec![]),
            (stuck.clone(), vec![77], vec![]),
            (stuck.clone(), vec![78, 3], vec![77]),
        ] {
            let raw: Raw = (
                (6, 1, 0, 3),
                (1000, 6, vec![0], 6, full),
                faults,
                repairs,
                vec![],
                0,
            );
            let (single, _) = run(&raw, false);
            let (runs, run_ops) = run(&raw, true);
            assert_eq!(runs, single, "{raw:?}");
            assert_eq!(run_ops, 12_000, "{raw:?}");
            let want: &[u32] = if full { &failing } else { &[] };
            assert_eq!(runs.march.failing_addresses, want, "{raw:?}");
        }
    }
}

/// Runs must also happen, and be cut short, next to scan traffic: over
/// a fixed batch of drawn workloads with concurrent initiators, runs
/// take some ops but not all of them.
#[test]
fn contended_marches_take_runs_and_fall_back() {
    let mut rng = proptest::test_runner::TestRng::new(20_090_417);
    let (mut run_ops, mut total) = (0, 0);
    for raw in (0..32).map(|_| workloads().generate(&mut rng)) {
        if raw.4.iter().all(|&(_, patterns, _)| patterns == 0) || raw.1 .3 == 0 {
            continue;
        }
        let (outcome, ops) = run(&raw, true);
        run_ops += ops;
        total += outcome.march.patterns;
    }
    assert!(run_ops > 0, "no run was taken");
    assert!(run_ops < total, "no run was cut short");
}
