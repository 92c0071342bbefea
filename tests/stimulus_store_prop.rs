//! Property-based proof that the process-wide stimulus store is
//! transparent: each of the three Full-data pattern sources (logic BIST,
//! ATE, compressed ATE) sends exactly the stimulus its public generator
//! makes (`Prpg`, `StdRng` bits, `TestCube` + `ReseedingCodec`), whether
//! the store is cold or warm, and whether the run fits the store's
//! stored prefix or runs past it. Geometries and seeds are random; every
//! case also runs a second seed on the same geometry and the same seed on
//! a second geometry, so a key that forgot either would replay the wrong
//! stream. See DESIGN.md § 3.5.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Barrier;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tve::core::ConfigClient;
use tve::core::{
    CodecConfig, DataPolicy, DecompressorCompactor, ReadBack, ScanKind, ScanSource,
    SyntheticLogicCore, TestOutcome, TestWrapper, WrapperConfig, WrapperMode, STIMULUS_STORE_BYTES,
};
use tve::sim::Simulation;
use tve::tlm::{Command, InitiatorId, LocalBoxFuture, TamIf, Transaction};
use tve::tpg::{BitVec, Compressor, Lfsr, Prpg, ReseedingCodec, ScanConfig, TestCube};

/// A pass-through port that records the payload of every write.
struct Tap {
    inner: Rc<dyn TamIf>,
    writes: RefCell<Vec<Vec<u32>>>,
}

impl TamIf for Tap {
    fn name(&self) -> &str {
        "tap"
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        if matches!(txn.cmd, Command::Write | Command::WriteRead) {
            self.writes.borrow_mut().push(txn.data.clone());
        }
        self.inner.transport(txn)
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Bist,
    Ate,
    /// The codec may serve another geometry than the source's; then it
    /// can encode no cube.
    Reseed {
        cares: usize,
        degree: u32,
        codec_scan: ScanConfig,
    },
}

/// Runs one source of `kind` over a tapped wrapper of geometry `scan`;
/// returns its outcome and the stimulus it wrote.
fn run(kind: Kind, scan: ScanConfig, patterns: u64, seed: u64) -> (TestOutcome, Vec<Vec<u32>>) {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let core = Rc::new(SyntheticLogicCore::new("core", scan, 0xC0DE));
    let wrapper = Rc::new(TestWrapper::new(&h, WrapperConfig::default(), core));
    let mode = match kind {
        Kind::Bist => WrapperMode::Bist,
        _ => WrapperMode::IntTest,
    };
    wrapper.load_config(mode.encode());
    let (target, codec, compacted_bits): (Rc<dyn TamIf>, _, _) = match kind {
        Kind::Reseed {
            degree, codec_scan, ..
        } => {
            let codec = Rc::new(ReseedingCodec::new(codec_scan, degree).expect("tabled degree"));
            let adaptor = Rc::new(DecompressorCompactor::new(
                CodecConfig {
                    name: "codec".to_string(),
                    decompress_ratio: 1.0,
                    compact_ratio: 4,
                },
                wrapper,
                Some(Rc::clone(&codec) as Rc<dyn Compressor>),
            ));
            adaptor.load_config(1);
            let compacted_bits = adaptor.compacted_bits();
            (adaptor, Some(codec), compacted_bits)
        }
        _ => (wrapper, None, 0),
    };
    let tap = Rc::new(Tap {
        inner: target,
        writes: RefCell::new(Vec::new()),
    });
    let port = Rc::clone(&tap) as Rc<dyn TamIf>;
    let (name, initiator, source_kind) = match kind {
        Kind::Bist => ("bist", 0, ScanKind::Bist),
        Kind::Ate => (
            "ate",
            1,
            ScanKind::Ate {
                read_back: ReadBack::Combined,
            },
        ),
        Kind::Reseed { cares, .. } => (
            "comp",
            2,
            ScanKind::Compressed {
                compressed_bits: 64,
                compacted_bits,
                codec,
                cares_per_cube: cares,
            },
        ),
    };
    let src = ScanSource::new(
        &h,
        name,
        port,
        0,
        InitiatorId(initiator),
        scan,
        patterns,
        DataPolicy::Full,
        seed,
        source_kind,
    );
    let jh = sim.spawn(async move { src.run().await });
    sim.run();
    let outcome = jh.try_take().expect("source finished");
    let writes = tap.writes.take();
    (outcome, writes)
}

/// The stimulus the source must send, built from the public generators.
fn reference(kind: Kind, scan: ScanConfig, patterns: u64, seed: u64) -> Vec<Vec<u32>> {
    match kind {
        Kind::Bist => {
            let mut prpg = Prpg::new(32, seed | 1, scan).expect("degree-32 PRPG");
            (0..patterns)
                .map(|_| prpg.next_pattern().stimulus().words().to_vec())
                .collect()
        }
        Kind::Ate => {
            let mut rng = StdRng::seed_from_u64(seed);
            let bits = scan.bits_per_pattern();
            (0..patterns)
                .map(|_| {
                    BitVec::from_bits((0..bits).map(|_| rng.gen_bool(0.5)))
                        .words()
                        .to_vec()
                })
                .collect()
        }
        Kind::Reseed {
            cares,
            degree,
            codec_scan,
        } => {
            let codec = ReseedingCodec::new(codec_scan, degree).expect("tabled degree");
            (0..patterns)
                .filter_map(|i| {
                    let cube = TestCube::random(scan, cares, seed ^ i);
                    codec.compress(&cube).ok().map(|s| s.words().to_vec())
                })
                .collect()
        }
    }
}

/// Patterns of a stream the store keeps, per the documented budget rule.
fn stored_prefix(kind: Kind, scan: ScanConfig) -> u64 {
    let stride = match kind {
        Kind::Reseed { degree, .. } => degree.div_ceil(32) as usize + 1,
        _ => scan.bits_per_pattern().div_ceil(32) as usize,
    };
    (STIMULUS_STORE_BYTES / 8 / (4 * stride)) as u64
}

/// Checks one source against its reference, cold and then warm.
fn check(kind: Kind, scan: ScanConfig, patterns: u64, seed: u64) -> Result<(), TestCaseError> {
    let want = reference(kind, scan, patterns, seed);
    let (cold, sent) = run(kind, scan, patterns, seed);
    prop_assert_eq!(&sent, &want, "{kind:?} {scan} stimulus, cold store");
    let (warm, sent) = run(kind, scan, patterns, seed);
    prop_assert_eq!(&sent, &want, "{kind:?} {scan} stimulus, warm store");
    prop_assert_eq!(&cold, &warm, "{kind:?} {scan} outcome, cold against warm");
    let unencoded = patterns - want.len() as u64;
    prop_assert_eq!(cold.patterns, want.len() as u64);
    prop_assert_eq!(
        cold.errors,
        unencoded,
        "{kind:?}: one error per unencodable cube"
    );
    prop_assert!(
        cold.signature.is_some(),
        "{kind:?}: every run reads a signature"
    );
    Ok(())
}

/// Every tabled decompressor degree up to 64.
fn tabled_degrees() -> Vec<u32> {
    (3..=64).filter(|&d| Lfsr::maximal(d, 1).is_ok()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BIST and ATE sources send their generator's patterns. `span`
    /// picks the pattern count: zero, a few, or (one case in four) within
    /// two of the stored prefix, on geometries wide enough that the
    /// prefix is short.
    #[test]
    fn scan_sources_match_their_generators(chains in 8u32..=32, len in 64u32..=1300,
                                           seed in any::<u64>(), span in 0u8..4,
                                           offset in 0u64..5) {
        let scan = ScanConfig::new(chains, len);
        let other = ScanConfig::new(chains, len + 1);
        for kind in [Kind::Bist, Kind::Ate] {
            let patterns = match span {
                0 => 0,
                1 | 2 => offset,
                _ => stored_prefix(kind, scan) + offset - 2,
            };
            check(kind, scan, patterns, seed)?;
            check(kind, scan, patterns, seed ^ 0x5EED)?;
            check(kind, other, patterns, seed)?;
        }
    }

    /// The compressed source sends the reseeding seed of every cube the
    /// codec can encode and counts one error per cube it cannot; cube
    /// sizes reach past the degree, where most cubes are unsolvable. Each
    /// key input is varied alone: seed, source geometry, codec geometry
    /// (a mismatch encodes nothing), cares per cube and degree.
    #[test]
    fn reseeding_source_matches_codec(chains in 1u32..=8, len in 8u32..=80,
                                      seed in any::<u64>(), degree_pick in any::<usize>(),
                                      cares_raw in any::<usize>(), patterns in 0u64..40) {
        let degrees = tabled_degrees();
        let degree = degrees[degree_pick % degrees.len()];
        let next_degree = degrees[(degree_pick + 1) % degrees.len()];
        let scan = ScanConfig::new(chains, len);
        let other = ScanConfig::new(chains, len + 1);
        let bits = scan.bits_per_pattern() as usize;
        let cares = cares_raw % (bits.min(degree as usize + 8) + 1);
        let other_cares = if cares < bits { cares + 1 } else { cares - 1 };
        let kind = |cares, degree, codec_scan| Kind::Reseed { cares, degree, codec_scan };
        check(kind(cares, degree, scan), scan, patterns, seed)?;
        check(kind(cares, degree, scan), scan, patterns, seed ^ 0x5EED)?;
        check(kind(cares, degree, other), other, patterns, seed)?;
        check(kind(cares, degree, other), scan, patterns, seed)?;
        check(kind(other_cares, degree, scan), scan, patterns, seed)?;
        check(kind(cares, next_degree, scan), scan, patterns, seed)?;
    }
}

/// The compressed source across its stored prefix: reseeding seeds are
/// short, so the prefix holds thousands of cubes and one run straddles it.
#[test]
fn reseeding_source_straddles_the_stored_prefix() {
    let scan = ScanConfig::new(2, 16);
    let kind = Kind::Reseed {
        cares: 20,
        degree: 32,
        codec_scan: scan,
    };
    let prefix = stored_prefix(kind, scan);
    let seed = 0x57AD_D1E5;
    for patterns in [prefix - 1, prefix + 2] {
        check(kind, scan, patterns, seed).unwrap();
    }
}

/// Two threads open one cold key at once; both must send the reference
/// stimulus and reach the same outcome.
#[test]
fn two_threads_share_one_cold_key() {
    let scan = ScanConfig::new(16, 256);
    let seed = 0xBA22_1E25;
    for kind in [
        Kind::Bist,
        Kind::Ate,
        Kind::Reseed {
            cares: 24,
            degree: 64,
            codec_scan: scan,
        },
    ] {
        let patterns = stored_prefix(kind, scan).min(300) + 3;
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let go = || {
                barrier.wait();
                run(kind, scan, patterns, seed)
            };
            let a = s.spawn(go);
            let b = s.spawn(go);
            (a.join().unwrap(), b.join().unwrap())
        });
        let want = reference(kind, scan, patterns, seed);
        assert_eq!(a.1, want, "{kind:?}: first thread's stimulus");
        assert_eq!(b.1, want, "{kind:?}: second thread's stimulus");
        assert_eq!(a.0, b.0, "{kind:?}: outcomes differ between threads");
    }
}
