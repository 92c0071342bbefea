//! Property-based proof that the EBI's same-time hand-off is exact in
//! cycle-accurate mode. Random ATE tests run through one `Ebi` (Volume
//! or Full data; stored patterns with combined, separate or no
//! read-back, or reseeding seeds through a decompressor/compactor with
//! compacted read-back; one test or two back to back), optionally
//! behind a fault-injecting TAM adaptor and next to a BIST initiator on
//! the same bus, and each run is compared with the same run where the
//! ATE's port strips the hand-off promise (`Transaction::follows`), so
//! every posted transfer takes the event-driven path. See DESIGN.md
//! § TAM fast paths.
//!
//! Both runs must agree on everything observable: every test outcome
//! (start and end cycle, patterns, bits, signature, errors), the
//! wrappers' counters and signatures, the fault adaptor's drop count,
//! the EBI's uplink volume, the bus monitor's per-cycle busy profile
//! (one-cycle window), per-initiator busy cycles, transfers and the end
//! of the run. The hinted run may only poll less.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

mod common;
use common::{Counted, EventOnly};

use tve::core::{
    CodecConfig, ConfigClient, DataPolicy, DecompressorCompactor, Ebi, ReadBack, ScanKind,
    ScanSource, SyntheticLogicCore, TestOutcome, TestWrapper, WrapperConfig, WrapperMode,
    WrapperStats,
};
use tve::sim::{Duration, Simulation};
use tve::tlm::{AddrRange, BusConfig, BusTam, FaultyTam, FaultyTamPolicy, InitiatorId, TamIf};
use tve::tpg::{Compressor, ReseedingCodec, ScanConfig};

/// ATE channel rates `(down num, down den, up num, up den)` in bits per
/// cycle.
type Rates = (u64, u64, u64, u64);

/// Bus `(width in bytes, overhead cycles)`.
type Bus = (u32, u64);

/// Wrapper shape `(buffer depth, chains, chain length, capture cycles)`.
type Shape = (usize, u32, u32, u64);

/// The ATE tests `(patterns, full data, kind, tests)`: stored patterns
/// with read-back 0 combined, 1 none, 2 a separate 64-bit signature
/// read or 3 a separate response-image read, or 4 compressed patterns
/// with compacted read-back; the tests run back to back.
type Ate = (u64, bool, u8, u8);

/// The `Ate` kind of compressed patterns.
const COMPRESSED: u8 = 4;

/// The concurrent BIST initiator `(present, patterns, start delay)`.
type Bist = (bool, u64, u64);

/// The TAM fault `(kind, every, seed)`: kind 0 none, 1 corrupt one bit
/// of every `every`-th transaction, 2 drop it.
type Fault = (u8, u32, u64);

type Raw = (Rates, Bus, Shape, Ate, Bist, Fault);

fn workloads() -> impl Strategy<Value = Raw> {
    (
        (1u64..17, 1u64..4, 1u64..17, 1u64..4),
        (1u32..5, 0u64..3),
        (1usize..=4, 1u32..5, 1u32..41, 0u64..6),
        (0u64..10, any::<bool>(), 0u8..=COMPRESSED, 1u8..=2),
        (any::<bool>(), 0u64..12, 0u64..60),
        (0u8..3, 2u32..8, any::<u64>()),
    )
}

/// Everything either side of the comparison observes.
#[derive(Debug, PartialEq)]
struct Outcome {
    ate: Vec<TestOutcome>,
    bist: Option<TestOutcome>,
    /// `(stats, signature)` of the ATE's and the BIST's wrapper.
    wrappers: Vec<(WrapperStats, u64)>,
    dropped: Option<u64>,
    uplink_bits: u64,
    /// The monitor's per-cycle busy profile.
    busy: Vec<(u64, u64)>,
    per_initiator: Vec<(u8, u64)>,
    transfers: u64,
    end: u64,
}

/// What a run reports besides its [`Outcome`]: the kernel's
/// `(polls, timers_fired)` and the held transfers the TAM took inline
/// and declined.
struct Work {
    kernel_stats: (u64, u64),
    hits: u64,
    declines: u64,
}

fn wrapper(sim: &Simulation, (depth, chains, len, capture): Shape, seed: u64) -> Rc<TestWrapper> {
    Rc::new(TestWrapper::new(
        &sim.handle(),
        WrapperConfig {
            name: format!("w{seed}"),
            capture_cycles: capture,
            buffer_patterns: depth,
            boundary_cells: 8,
        },
        Rc::new(SyntheticLogicCore::new(
            "core",
            ScanConfig::new(chains, len),
            seed,
        )),
    ))
}

/// Runs `raw` in cycle-accurate mode, with the hand-off promise on the
/// ATE's transactions when `hinted`.
fn run(raw: &Raw, hinted: bool) -> (Outcome, Work) {
    let (rates, (width, overhead), shape, ate, bist, fault) = *raw;
    let (patterns, full, kind, tests) = ate;
    let policy = if full {
        DataPolicy::Full
    } else {
        DataPolicy::Volume
    };
    let scan = ScanConfig::new(shape.1, shape.2);
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let bus = Rc::new(BusTam::new(
        &handle,
        BusConfig {
            width_bits: width * 8,
            overhead_cycles: overhead,
            monitor_window: Duration::cycles(1),
            ..BusConfig::default()
        },
    ));
    let ate_wrapper = wrapper(&sim, shape, 11);
    ate_wrapper.load_config(WrapperMode::IntTest.encode());
    bus.bind(
        AddrRange::new(0, 0x100),
        Rc::clone(&ate_wrapper) as Rc<dyn TamIf>,
    )
    .unwrap();
    let bist_wrapper = bist.0.then(|| {
        let w = wrapper(&sim, shape, 12);
        w.load_config(WrapperMode::Bist.encode());
        bus.bind(AddrRange::new(0x100, 0x100), Rc::clone(&w) as Rc<dyn TamIf>)
            .unwrap();
        w
    });
    let faulty = match fault.0 {
        0 => None,
        kind => {
            let policy = if kind == 1 {
                FaultyTamPolicy::corrupt(fault.2, fault.1)
            } else {
                FaultyTamPolicy::drop(fault.2, fault.1)
            };
            Some(Rc::new(FaultyTam::new(
                "tam",
                Rc::clone(&bus) as Rc<dyn TamIf>,
                policy,
            )))
        }
    };
    // The compressed patterns' decompressor/compactor, in front of the
    // ATE's wrapper: bit-true with a degree-32 reseeding codec in Full
    // runs, the volume model otherwise.
    let reseeding =
        full.then(|| Rc::new(ReseedingCodec::new(scan, 32).expect("degree 32 is tabled")));
    let codec = Rc::new(DecompressorCompactor::new(
        CodecConfig {
            name: "codec".to_string(),
            decompress_ratio: 4.0,
            compact_ratio: 2,
        },
        Rc::clone(&ate_wrapper),
        reseeding.clone().map(|c| c as Rc<dyn Compressor>),
    ));
    codec.load_config(1);
    bus.bind(
        AddrRange::new(0x200, 0x100),
        Rc::clone(&codec) as Rc<dyn TamIf>,
    )
    .unwrap();
    let inner = match &faulty {
        Some(f) => Rc::clone(f) as Rc<dyn TamIf>,
        None => Rc::clone(&bus) as Rc<dyn TamIf>,
    };
    let counted = Rc::new(Counted::lone_caller(inner, &handle));
    let ebi = Rc::new(Ebi::new(
        &handle,
        "ebi",
        Rc::clone(&counted) as Rc<dyn TamIf>,
        (rates.0, rates.1),
        (rates.2, rates.3),
    ));
    ebi.load_config(1);
    let port: Rc<dyn TamIf> = if hinted {
        Rc::clone(&ebi) as Rc<dyn TamIf>
    } else {
        Rc::new(EventOnly(Rc::clone(&ebi) as Rc<dyn TamIf>))
    };
    let read_back = match kind {
        0 => ReadBack::Combined,
        1 => ReadBack::None,
        2 => ReadBack::Separate { addr: 0, bits: 64 },
        _ => ReadBack::Separate {
            addr: 1,
            bits: scan.bits_per_pattern(),
        },
    };
    let (addr, kind) = if kind == COMPRESSED {
        let compressed_bits = match &reseeding {
            Some(codec) => u64::from(codec.degree()),
            None => codec.compressed_bits(),
        };
        let kind = ScanKind::Compressed {
            compressed_bits,
            compacted_bits: codec.compacted_bits(),
            codec: reseeding,
            cares_per_cube: 8.min(scan.bits_per_pattern() as usize),
        };
        (0x200, kind)
    } else {
        (0, ScanKind::Ate { read_back })
    };

    let ate_outcomes = Rc::new(RefCell::new(Vec::new()));
    {
        let (h, outcomes) = (handle.clone(), Rc::clone(&ate_outcomes));
        sim.spawn(async move {
            for test in 0..tests {
                let source = ScanSource::new(
                    &h,
                    format!("ate{test}"),
                    Rc::clone(&port),
                    addr,
                    InitiatorId(0),
                    scan,
                    patterns,
                    policy,
                    u64::from(test) + 1,
                    kind.clone(),
                );
                let outcome = source.run().await;
                outcomes.borrow_mut().push(outcome);
            }
        });
    }
    let bist_run = bist_wrapper.as_ref().map(|_| {
        let source = ScanSource::new(
            &handle,
            "bist",
            Rc::clone(&bus) as Rc<dyn TamIf>,
            0x100,
            InitiatorId(1),
            scan,
            bist.1,
            policy,
            7,
            ScanKind::Bist,
        );
        let h = handle.clone();
        sim.spawn(async move {
            h.wait(Duration::cycles(bist.2)).await;
            source.run().await
        })
    });
    let end = sim.run().cycles();
    let monitor = bus.monitor();
    let outcome = Outcome {
        ate: ate_outcomes.borrow().clone(),
        bist: bist_run.map(|jh| jh.try_take().expect("the BIST run completes")),
        wrappers: std::iter::once(&ate_wrapper)
            .chain(&bist_wrapper)
            .map(|w| (w.stats(), w.signature()))
            .collect(),
        dropped: faulty.map(|f| f.dropped()),
        uplink_bits: ebi.uplink_bits(),
        busy: monitor.window_busy().collect(),
        per_initiator: monitor.per_initiator().map(|(i, b)| (i.0, b)).collect(),
        transfers: monitor.transfer_count(),
        end,
    };
    let work = Work {
        kernel_stats: sim.kernel_stats(),
        hits: counted.hits(),
        declines: counted.declines(),
    };
    (outcome, work)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hand_off_equals_the_event_path(raw in workloads()) {
        let (event, event_work) = run(&raw, false);
        let (hinted, hinted_work) = run(&raw, true);
        prop_assert_eq!(&hinted, &event);
        prop_assert_eq!((event_work.hits, event_work.declines), (0, 0));
        prop_assert!(
            hinted_work.kernel_stats.0 <= event_work.kernel_stats.0,
            "hinted polls {:?} over unhinted {:?}",
            hinted_work.kernel_stats,
            event_work.kernel_stats
        );
    }
}

/// The property would also hold if the EBI never held a transfer; this
/// pins that it does. A lone Full-data ATE test with combined
/// read-back on an idle bus hands its first seven transfers to the bus
/// inline, and only the last, unhinted one runs in a task of its own.
#[test]
fn lone_ate_test_hands_every_hinted_transfer_off_inline() {
    // 8 bits/cycle each way; 32-bit bus, one overhead cycle; two-deep
    // buffer, 2 chains x 16 cells, 4 capture cycles; 8 patterns.
    let raw: Raw = (
        (8, 1, 8, 1),
        (4, 1),
        (2, 2, 16, 4),
        (8, true, 0, 1),
        (false, 0, 0),
        (0, 2, 0),
    );
    let (event, event_work) = run(&raw, false);
    let (hinted, work) = run(&raw, true);
    assert_eq!(hinted, event);
    assert_eq!((work.hits, work.declines), (7, 0));
    assert_eq!(hinted.ate[0].patterns, 8);
    assert!(
        work.kernel_stats.0 < event_work.kernel_stats.0,
        "{:?} vs {:?}",
        work.kernel_stats,
        event_work.kernel_stats
    );
}

/// Contention must not hide the hand-off, and the TAM must get to
/// decline it: over a fixed batch of drawn workloads some held
/// transfers run inline and some are spawned.
#[test]
fn drawn_workloads_take_both_paths() {
    let mut rng = proptest::test_runner::TestRng::new(20_090_417);
    let (mut hits, mut declines) = (0, 0);
    for _ in 0..32 {
        let raw = workloads().generate(&mut rng);
        let (_, work) = run(&raw, true);
        hits += work.hits;
        declines += work.declines;
    }
    assert!(hits > 0);
    assert!(declines > 0);
}

/// The compressed kind carries the promise too: each of a lone Volume
/// test's compressed writes is held until its compacted read-back
/// arrives at the same cycle. The decompressor has no synchronous path,
/// so the TAM declines every held transfer and it is spawned as the
/// event path spawns it.
#[test]
fn lone_compressed_test_holds_every_write_for_its_read_back() {
    // As above, Volume data, compressed patterns.
    let raw: Raw = (
        (8, 1, 8, 1),
        (4, 1),
        (2, 2, 16, 4),
        (8, false, COMPRESSED, 1),
        (false, 0, 0),
        (0, 2, 0),
    );
    let (event, event_work) = run(&raw, false);
    let (hinted, work) = run(&raw, true);
    assert_eq!(hinted, event);
    assert_eq!((event_work.hits, event_work.declines), (0, 0));
    assert_eq!((work.hits, work.declines), (0, 8));
    assert_eq!(hinted.ate[0].patterns, 8);
    assert!(hinted.ate[0].clean(), "{}", hinted.ate[0]);
}
