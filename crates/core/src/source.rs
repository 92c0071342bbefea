//! The scan pattern source TLM (paper Section III.C): one initiator for
//! the logic-BIST, deterministic external (ATE-stored) and compressed
//! external sources, which differ only in what they send and read back.
//!
//! In full-data runs the three kinds read their stimulus from one
//! process-wide [stimulus store](StimulusStore): each stream is generated
//! once per process, up to a byte budget, and every later run of the same
//! source replays it.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tve_obs::{Recorder, SpanKind, SpanRecord};
use tve_sim::SimHandle;
use tve_tlm::{Command, InitiatorId, TamIf, TamIfExt, Transaction};
use tve_tpg::{Compressor, Misr, Prpg, ReseedingCodec, ScanConfig, TestCube};

use crate::model::DataPolicy;
use crate::outcome::TestOutcome;

fn words_to_sig(words: &[u32]) -> u64 {
    let lo = words.first().copied().unwrap_or(0) as u64;
    let hi = words.get(1).copied().unwrap_or(0) as u64;
    lo | (hi << 32)
}

/// Packs a random stimulus into the zeroed `words`, LSB-first: one
/// `gen_bool(0.5)` draw per bit, in bit order, for `bits` bits.
fn random_stimulus(rng: &mut StdRng, bits: usize, words: &mut [u32]) {
    for i in 0..bits {
        words[i / 32] |= u32::from(rng.gen_bool(0.5)) << (i % 32);
    }
}

/// Bytes of packed stimulus the process-wide stimulus store may hold.
///
/// One stream keeps at most an eighth of it, so the five streams of a
/// test plan fit side by side: a stream's first
/// `STIMULUS_STORE_BYTES / 8 / (4 × stride)` patterns are stored, where
/// the stride is `⌈bits / 32⌉` words for scan patterns and
/// `⌈degree / 32⌉ + 1` words for reseeding seeds. Patterns past that
/// prefix are generated on every run.
pub const STIMULUS_STORE_BYTES: usize = 1 << 20;

/// A full-data stimulus stream: the generator and every input it reads.
/// Each is prefix-stable — pattern `i` does not depend on how many
/// patterns the run asks for — so a shorter run replays a prefix of a
/// longer one.
#[derive(Clone, Copy)]
enum Stimulus<'a> {
    /// The PRPG patterns of a logic-BIST source (tests 1 and 4).
    Prpg { seed: u64, scan: ScanConfig },
    /// The stored patterns of an ATE source, one `gen_bool(0.5)` draw
    /// per bit from one sequential RNG (tests 2 and 5).
    Ate { seed: u64, scan: ScanConfig },
    /// The reseeding seeds of the cubes `TestCube::random(scan, cares,
    /// seed ^ i)` (test 3).
    Reseed {
        seed: u64,
        scan: ScanConfig,
        cares: usize,
        codec: &'a ReseedingCodec,
    },
}

/// What identifies a stream's content: the generator, its seed, the
/// scan geometry (which fixes the bits per pattern), and for reseeding
/// the cares per cube and the codec's structure. No pattern count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StreamKey {
    Prpg {
        seed: u64,
        scan: ScanConfig,
    },
    Ate {
        seed: u64,
        scan: ScanConfig,
    },
    Reseed {
        seed: u64,
        scan: ScanConfig,
        cares: usize,
        degree: u32,
        codec_scan: ScanConfig,
    },
}

/// A generator's state after some prefix of its stream.
#[derive(Clone)]
enum Resume {
    Prpg(Prpg),
    Ate(StdRng),
    /// Cube `i` is seeded by `seed ^ i` alone, so the index is the state.
    Reseed,
}

impl<'a> Stimulus<'a> {
    fn key(&self) -> StreamKey {
        match *self {
            Stimulus::Prpg { seed, scan } => StreamKey::Prpg { seed, scan },
            Stimulus::Ate { seed, scan } => StreamKey::Ate { seed, scan },
            Stimulus::Reseed {
                seed,
                scan,
                cares,
                codec,
            } => StreamKey::Reseed {
                seed,
                scan,
                cares,
                degree: codec.degree(),
                codec_scan: codec.config(),
            },
        }
    }

    /// Bits one pattern moves over the TAM.
    fn bits(&self) -> u64 {
        match self {
            Stimulus::Prpg { scan, .. } | Stimulus::Ate { scan, .. } => scan.bits_per_pattern(),
            Stimulus::Reseed { codec, .. } => u64::from(codec.degree()),
        }
    }

    /// Packed words per pattern. A reseeding slot ends in a flag word:
    /// 1 when the cube was encoded, 0 when the codec could not encode it.
    fn stride(&self) -> usize {
        let words = self.bits().div_ceil(32) as usize;
        match self {
            Stimulus::Reseed { .. } => words + 1,
            _ => words,
        }
    }

    /// The generator's state before the first pattern.
    fn start(&self) -> Resume {
        match *self {
            Stimulus::Prpg { seed, scan } => Resume::Prpg(
                Prpg::new(32, seed | 1, scan).expect("degree-32 PRPG is always constructible"),
            ),
            Stimulus::Ate { seed, .. } => Resume::Ate(StdRng::seed_from_u64(seed)),
            Stimulus::Reseed { .. } => Resume::Reseed,
        }
    }

    /// Generates pattern `index` into the zeroed `slot`, advancing
    /// `resume` past it.
    fn generate(&self, resume: &mut Resume, index: u64, slot: &mut [u32]) {
        match (*self, resume) {
            (Stimulus::Prpg { .. }, Resume::Prpg(prpg)) => {
                slot.copy_from_slice(prpg.next_pattern().stimulus().words());
            }
            (Stimulus::Ate { .. }, Resume::Ate(rng)) => {
                random_stimulus(rng, self.bits() as usize, slot);
            }
            (
                Stimulus::Reseed {
                    seed,
                    scan,
                    cares,
                    codec,
                },
                Resume::Reseed,
            ) => {
                let cube = TestCube::random(scan, cares, seed ^ index);
                if let Ok(stream) = codec.compress(&cube) {
                    let (flag, words) = slot.split_last_mut().expect("stride holds a flag");
                    words.copy_from_slice(stream.words());
                    *flag = 1;
                }
            }
            _ => unreachable!("a stream resumes from its own generator's state"),
        }
    }

    /// The stream's first `patterns` patterns, packed, and the state
    /// after them.
    fn fill(&self, patterns: u64) -> Stream {
        let stride = self.stride();
        let mut words = vec![0u32; patterns as usize * stride];
        let mut resume = self.start();
        for (i, slot) in words.chunks_exact_mut(stride).enumerate() {
            self.generate(&mut resume, i as u64, slot);
        }
        Stream {
            words: words.into(),
            patterns,
            resume,
        }
    }

    /// Opens the stream for a run of `patterns` patterns: the stored
    /// prefix, generated here and kept if the store lacks it.
    ///
    /// The store's lock is held only for the lookup and the insert, so
    /// it is released before the source first awaits. Two threads that
    /// miss the same key both generate it; the streams are identical and
    /// the longer one is kept.
    fn open(self, patterns: u64) -> StimulusReader<'a> {
        let stride = self.stride();
        let stored = patterns.min((STIMULUS_STORE_BYTES / 8 / (4 * stride)) as u64);
        let key = self.key();
        let held = StimulusStore::global()
            .lookup(&key)
            .filter(|s| s.patterns >= stored);
        let stream = held.unwrap_or_else(|| {
            let stream = Arc::new(self.fill(stored));
            StimulusStore::global().keep(key, stream)
        });
        StimulusReader {
            stimulus: self,
            stream,
            next: 0,
            tail: None,
            slot: vec![0; stride],
        }
    }
}

/// A stored stream prefix: `patterns` packed patterns at the
/// stimulus's stride in one slice, then the generator state after them.
struct Stream {
    words: Box<[u32]>,
    patterns: u64,
    resume: Resume,
}

impl Stream {
    /// What the stream costs the store's budget: its packed words and its
    /// fixed-size bookkeeping, so that empty streams are not free.
    fn bytes(&self) -> usize {
        4 * self.words.len() + std::mem::size_of::<(StreamKey, Stream)>()
    }
}

/// Reads one run's patterns: the stored prefix, then the patterns past
/// it from a private clone of the generator state after the prefix. A
/// stream that fits the budget has an empty tail.
struct StimulusReader<'a> {
    stimulus: Stimulus<'a>,
    stream: Arc<Stream>,
    next: u64,
    tail: Option<Resume>,
    slot: Vec<u32>,
}

impl StimulusReader<'_> {
    /// The next pattern's packed words, or `None` for a reseeding cube
    /// the codec cannot encode.
    fn next(&mut self) -> Option<&[u32]> {
        let index = self.next;
        self.next += 1;
        let stride = self.slot.len();
        let slot = if index < self.stream.patterns {
            let at = index as usize * stride;
            &self.stream.words[at..at + stride]
        } else {
            let resume = self.tail.get_or_insert_with(|| self.stream.resume.clone());
            self.slot.fill(0);
            self.stimulus.generate(resume, index, &mut self.slot);
            &self.slot[..]
        };
        match self.stimulus {
            Stimulus::Reseed { .. } => match slot.split_last() {
                Some((1, words)) => Some(words),
                _ => None,
            },
            _ => Some(slot),
        }
    }
}

/// The process-wide stimulus store: full-data stimulus streams keyed by
/// content, shared by every simulation in the process (campaign cells
/// on farm workers, served jobs), within [`STIMULUS_STORE_BYTES`].
/// The oldest streams are evicted first.
#[derive(Default)]
struct StimulusStore {
    streams: HashMap<StreamKey, Arc<Stream>>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<StreamKey>,
    bytes: usize,
}

static STORE: LazyLock<Mutex<StimulusStore>> = LazyLock::new(Mutex::default);

impl StimulusStore {
    fn global() -> MutexGuard<'static, StimulusStore> {
        STORE
            .lock()
            .expect("no stimulus-store update panics while it holds the lock")
    }

    fn lookup(&self, key: &StreamKey) -> Option<Arc<Stream>> {
        self.streams.get(key).cloned()
    }

    /// Keeps `stream` under `key`, unless an at least as long one is
    /// held already, and returns the stream kept.
    fn keep(&mut self, key: StreamKey, stream: Arc<Stream>) -> Arc<Stream> {
        if let Some(held) = self.streams.get(&key) {
            if held.patterns >= stream.patterns {
                return Arc::clone(held);
            }
            self.bytes -= held.bytes();
            self.streams.remove(&key);
            self.order.retain(|k| *k != key);
        }
        self.bytes += stream.bytes();
        self.streams.insert(key, Arc::clone(&stream));
        self.order.push_back(key);
        while self.bytes > STIMULUS_STORE_BYTES {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(evicted) = self.streams.remove(&oldest) {
                self.bytes -= evicted.bytes();
            }
        }
        stream
    }
}

/// Bytes the process-wide stimulus store holds now.
#[cfg(test)]
pub(crate) fn stored_bytes() -> usize {
    StimulusStore::global().bytes
}

/// What a [`ScanSource`] sends and reads back: the three pattern sources
/// of the paper's Section III.C.
#[derive(Debug, Clone)]
pub enum ScanKind {
    /// Logic BIST (tests 1 and 4): an on-chip PRPG streams pseudo-random
    /// stimuli to the wrapper, whose local MISR compacts the responses;
    /// the wrapper's 64-bit signature is read out at the end, in Volume
    /// runs too (it drains the scan engine).
    Bist,
    /// Deterministic external patterns (tests 2 and 5): pre-computed
    /// patterns stored in the ATE and delivered through the EBI (and
    /// hence the rate-limited ATE channel).
    Ate {
        /// Response handling.
        read_back: ReadBack,
    },
    /// Compressed external patterns (test 3, 50×): the ATE stores one
    /// reseeding seed per cube, which the decompressor at the source's
    /// address expands, and compacted responses are read back from it.
    Compressed {
        /// Bits booked per pattern, and sent per pattern in Volume runs
        /// (a full-data run sends the codec's seed).
        compressed_bits: u64,
        /// Compacted response bits read back per pattern (0 disables).
        compacted_bits: u64,
        /// The reseeding codec that encodes each cube in full-data runs;
        /// a full-data run without one is an error.
        codec: Option<Rc<ReseedingCodec>>,
        /// Specified (care) bits per generated test cube.
        cares_per_cube: usize,
    },
}

/// Response handling of a [`ScanKind::Ate`] source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadBack {
    /// No response read-back.
    None,
    /// Combined scan: each pattern is a `write_read` transaction — the
    /// previous response shifts out while the new stimulus shifts in,
    /// occupying the ATE channel and TAM once (the default and the reason
    /// the paper's `TAM_IF` has `write_read`).
    #[default]
    Combined,
    /// Separate read transactions from another address (e.g. the
    /// compactor).
    Separate {
        /// Address to read responses from.
        addr: u32,
        /// Bits per response read.
        bits: u64,
    },
}

/// A scan pattern source: an initiator that shifts `patterns` patterns of
/// its [`ScanKind`] into the target at `addr` through `port`, and reads
/// the responses back as its kind does.
///
/// In full-data runs the stimulus comes from the process-wide stimulus
/// store, and every response read back folds into a MISR whose signature
/// (for BIST, the wrapper's own) lets a fault-free reference run be
/// compared against a fault-injected one.
pub struct ScanSource {
    handle: SimHandle,
    name: String,
    port: Rc<dyn TamIf>,
    addr: u32,
    initiator: InitiatorId,
    scan: ScanConfig,
    patterns: u64,
    policy: DataPolicy,
    seed: u64,
    kind: ScanKind,
    recorder: Option<Rc<Recorder>>,
}

impl fmt::Debug for ScanSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScanSource")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("patterns", &self.patterns)
            .field("scan", &self.scan)
            .finish()
    }
}

impl ScanSource {
    /// Creates a source of test `name` that sends `patterns` patterns of
    /// `kind` for the target geometry `scan` to `addr` through `port` as
    /// `initiator`, under `policy`, from the pattern-set seed `seed`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        handle: &SimHandle,
        name: impl Into<String>,
        port: Rc<dyn TamIf>,
        addr: u32,
        initiator: InitiatorId,
        scan: ScanConfig,
        patterns: u64,
        policy: DataPolicy,
        seed: u64,
        kind: ScanKind,
    ) -> Self {
        ScanSource {
            handle: handle.clone(),
            name: name.into(),
            port,
            addr,
            initiator,
            scan,
            patterns,
            policy,
            seed,
            kind,
            recorder: None,
        }
    }

    /// Attaches an observability recorder: the run is recorded as a
    /// [`SpanKind::Burst`] span on the `src/<name>` track.
    pub fn with_recorder(mut self, recorder: Rc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Runs the pattern sequence and returns its outcome.
    ///
    /// Each pattern carries the hand-off promise
    /// ([`Transaction::follows`]) unless it is the last and no read
    /// follows it. A failed stimulus transfer, or a full-data
    /// compressed run without a codec, ends the sequence with an error;
    /// a cube the codec cannot encode is an error and is skipped.
    pub async fn run(&self) -> TestOutcome {
        let mut out = TestOutcome::begin(&self.name, self.handle.now());
        let (seed, scan) = (self.seed, self.scan);
        let full = self.policy == DataPolicy::Full;
        let (stimulus, booked, read_back) = match &self.kind {
            ScanKind::Bist => (
                Some(Stimulus::Prpg { seed, scan }),
                scan.bits_per_pattern(),
                None,
            ),
            ScanKind::Ate { read_back } => (
                Some(Stimulus::Ate { seed, scan }),
                scan.bits_per_pattern(),
                match *read_back {
                    ReadBack::Separate { addr, bits } => Some((addr, bits)),
                    _ => None,
                },
            ),
            ScanKind::Compressed {
                compressed_bits,
                compacted_bits,
                codec,
                cares_per_cube,
            } => (
                codec.as_deref().map(|codec| Stimulus::Reseed {
                    seed,
                    scan,
                    cares: *cares_per_cube,
                    codec,
                }),
                *compressed_bits,
                (*compacted_bits > 0).then_some((self.addr, *compacted_bits)),
            ),
        };
        let bits = match stimulus {
            Some(stimulus) if full => stimulus.bits(),
            _ => booked,
        };
        let cmd = match self.kind {
            ScanKind::Ate {
                read_back: ReadBack::Combined,
            } => Command::WriteRead,
            _ => Command::Write,
        };
        let read_follows = read_back.is_some() || matches!(self.kind, ScanKind::Bist);
        let mut stimulus = full.then(|| stimulus.map(|s| s.open(self.patterns)));
        let mut misr = Misr::new(64, 32).expect("64-stage MISR");
        // The words a combined access shifts out come back as the next
        // stimulus buffer, so patterns circulate buffers instead of
        // allocating them.
        let mut spare = Vec::new();
        for k in 0..self.patterns {
            let mut txn = match &mut stimulus {
                None => Transaction::volume(self.initiator, cmd, self.addr, bits),
                Some(None) => {
                    // Full data, but no codec to encode the cubes with.
                    out.errors += 1;
                    break;
                }
                Some(Some(stimulus)) => {
                    let Some(words) = stimulus.next() else {
                        // A cube the codec cannot encode.
                        out.errors += 1;
                        continue;
                    };
                    let mut data = std::mem::take(&mut spare);
                    data.clear();
                    data.extend_from_slice(words);
                    let mut txn = Transaction::write(self.initiator, self.addr, data, bits);
                    txn.cmd = cmd;
                    txn
                }
            };
            // The hand-off promise: nothing but host work happens before
            // this source's next call on the port (the next pattern, or
            // the read that follows this one).
            txn.set_follows(k + 1 < self.patterns || read_follows);
            self.port.do_transport(&mut txn).await;
            if !txn.status.is_ok() {
                out.errors += 1;
                break;
            }
            out.patterns += 1;
            out.stimulus_bits += booked;
            if cmd == Command::WriteRead {
                out.response_bits += bits;
                for &w in &txn.data {
                    misr.absorb(w as u64);
                }
            }
            spare = txn.data;
            if let Some((addr, rbits)) = read_back {
                let txn = if full {
                    Transaction::read(self.initiator, addr, rbits)
                } else {
                    Transaction::volume(self.initiator, Command::Read, addr, rbits)
                };
                for w in self.read(txn, &mut out).await.unwrap_or_default() {
                    misr.absorb(w as u64);
                }
            }
        }
        out.signature = if let ScanKind::Bist = self.kind {
            let txn = Transaction::read(self.initiator, self.addr, 64);
            let words = self.read(txn, &mut out).await;
            words.filter(|_| full).map(|w| words_to_sig(&w))
        } else {
            let reads = cmd == Command::WriteRead || read_back.is_some();
            (full && reads).then(|| misr.signature())
        };
        out.end = self.handle.now();
        if let Some(rec) = &self.recorder {
            rec.record_with(|| {
                SpanRecord::new(
                    SpanKind::Burst,
                    format!("src/{}", out.name),
                    out.name.clone(),
                    out.start,
                    out.end,
                )
                .with_initiator(self.initiator.0)
                .with_bits(out.stimulus_bits + out.response_bits)
            });
        }
        out
    }

    /// Performs the read `txn`, booking its bits as response bits, and
    /// returns the words read; a failed read is booked as an error.
    async fn read(&self, mut txn: Transaction, out: &mut TestOutcome) -> Option<Vec<u32>> {
        self.port.do_transport(&mut txn).await;
        if txn.status.is_ok() {
            out.response_bits += txn.bit_len;
            Some(txn.data)
        } else {
            out.errors += 1;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_bus::ConfigClient;
    use crate::model::{StuckCell, SyntheticLogicCore};
    use crate::wrapper::{TestWrapper, WrapperConfig, WrapperMode};
    use tve_sim::Simulation;
    use tve_tpg::BitVec;

    fn wrapper(sim: &Simulation, mode: WrapperMode) -> Rc<TestWrapper> {
        wrapper_of(sim, mode, ScanConfig::new(4, 32))
    }

    fn wrapper_of(sim: &Simulation, mode: WrapperMode, scan: ScanConfig) -> Rc<TestWrapper> {
        let core = Rc::new(SyntheticLogicCore::new("c", scan, 11));
        let w = Rc::new(TestWrapper::new(
            &sim.handle(),
            WrapperConfig::default(),
            core,
        ));
        w.load_config(mode.encode());
        w
    }

    #[test]
    fn packed_stimulus_matches_collected_bits() {
        for bits in [1usize, 31, 32, 33, 100, 256] {
            for seed in [0u64, 7, 0xC0FFEE] {
                let mut packed_rng = StdRng::seed_from_u64(seed);
                let mut collected_rng = StdRng::seed_from_u64(seed);
                for k in 0..3 {
                    let mut packed = vec![0; bits.div_ceil(32)];
                    random_stimulus(&mut packed_rng, bits, &mut packed);
                    let collected: BitVec =
                        (0..bits).map(|_| collected_rng.gen_bool(0.5)).collect();
                    assert_eq!(
                        BitVec::from_words(packed, bits),
                        collected,
                        "{bits} bits, seed {seed}, stimulus {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_stream_longer_than_the_budget_keeps_the_store_within_it() {
        // 4 KiB per pattern: 300 patterns are more than the whole store.
        let scan = ScanConfig::new(32, 1024);
        let (patterns, seed) = (300, 0xB0D6E7);
        assert!(patterns as usize * 4096 > STIMULUS_STORE_BYTES);
        let run = |reference: bool| {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let tam = wrapper_of(&sim, WrapperMode::Bist, scan) as Rc<dyn TamIf>;
            let src = ScanSource::new(
                &h,
                "bist",
                Rc::clone(&tam),
                0,
                InitiatorId(0),
                scan,
                patterns,
                DataPolicy::Full,
                seed,
                ScanKind::Bist,
            );
            let jh = sim.spawn(async move {
                if !reference {
                    return src.run().await;
                }
                // The reference: the generator written straight to the TAM.
                let mut out = TestOutcome::begin("bist", h.now());
                let mut prpg = Prpg::new(32, seed | 1, scan).unwrap();
                for _ in 0..patterns {
                    let pattern = prpg.next_pattern();
                    let bits = scan.bits_per_pattern();
                    tam.write(InitiatorId(0), 0, pattern.stimulus().words(), bits)
                        .await
                        .unwrap();
                    out.patterns += 1;
                    out.stimulus_bits += bits;
                }
                let words = tam.read(InitiatorId(0), 0, 64).await.unwrap();
                out.response_bits += 64;
                out.signature = Some(words_to_sig(&words));
                out.end = h.now();
                out
            });
            sim.run();
            jh.try_take().unwrap()
        };
        let want = run(true);
        for store in ["cold", "warm"] {
            assert_eq!(run(false), want, "{store} store");
            assert!(
                stored_bytes() <= STIMULUS_STORE_BYTES,
                "{store} store holds {} bytes",
                stored_bytes()
            );
        }
        let key = StreamKey::Prpg { seed, scan };
        let held = StimulusStore::global().lookup(&key).expect("stream kept");
        assert_eq!(held.patterns as usize, STIMULUS_STORE_BYTES / 8 / 4096);
    }

    #[test]
    fn bist_volume_timing_is_shift_limited() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let w = wrapper(&sim, WrapperMode::Bist);
        let src = ScanSource::new(
            &h,
            "bist",
            w.clone() as Rc<dyn TamIf>,
            0,
            InitiatorId(0),
            ScanConfig::new(4, 32),
            10,
            DataPolicy::Volume,
            1,
            ScanKind::Bist,
        );
        let jh = sim.spawn(async move { src.run().await });
        sim.run();
        let out = jh.try_take().unwrap();
        assert_eq!(out.patterns, 10);
        assert!(out.clean(), "{out}");
        // 10 patterns x (32 shift + 4 capture) = 360 cycles (drained by
        // signature read).
        assert_eq!(out.duration().as_cycles(), 360);
        assert_eq!(out.signature, None, "volume mode has no signature");
    }

    #[test]
    fn bist_full_mode_detects_stuck_cell_via_signature() {
        fn run(fault: Option<StuckCell>) -> TestOutcome {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let w = wrapper(&sim, WrapperMode::Bist);
            w.inject_fault(fault);
            let src = ScanSource::new(
                &h,
                "bist",
                w as Rc<dyn TamIf>,
                0,
                InitiatorId(0),
                ScanConfig::new(4, 32),
                20,
                DataPolicy::Full,
                99,
                ScanKind::Bist,
            );
            let jh = sim.spawn(async move { src.run().await });
            sim.run();
            jh.try_take().unwrap()
        }
        let clean = run(None);
        let faulty = run(Some(StuckCell {
            chain: 2,
            position: 7,
            value: false,
        }));
        assert!(clean.signature.is_some());
        assert_ne!(clean.signature, faulty.signature);
        assert_eq!(clean.signature, run(None).signature);
    }

    #[test]
    fn bist_against_unconfigured_wrapper_errors_out() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let w = wrapper(&sim, WrapperMode::Functional);
        let src = ScanSource::new(
            &h,
            "bist",
            w as Rc<dyn TamIf>,
            0,
            InitiatorId(0),
            ScanConfig::new(4, 32),
            10,
            DataPolicy::Volume,
            1,
            ScanKind::Bist,
        );
        let jh = sim.spawn(async move { src.run().await });
        sim.run();
        let out = jh.try_take().unwrap();
        assert!(out.errors > 0);
        assert_eq!(out.patterns, 0);
    }

    #[test]
    fn ate_source_reads_back_responses() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let w = wrapper(&sim, WrapperMode::IntTest);
        let src = ScanSource::new(
            &h,
            "det",
            w as Rc<dyn TamIf>,
            0,
            InitiatorId(1),
            ScanConfig::new(4, 32),
            5,
            DataPolicy::Full,
            3,
            ScanKind::Ate {
                read_back: ReadBack::Combined,
            },
        );
        let jh = sim.spawn(async move { src.run().await });
        sim.run();
        let out = jh.try_take().unwrap();
        assert_eq!(out.patterns, 5);
        assert_eq!(out.response_bits, 5 * 128);
        assert!(out.signature.is_some());
        assert!(out.clean(), "{out}");
    }

    #[test]
    fn compressed_source_volume_counts_compressed_bits() {
        use crate::codec::{CodecConfig, DecompressorCompactor};
        let mut sim = Simulation::new();
        let h = sim.handle();
        let w = wrapper(&sim, WrapperMode::IntTest);
        let dc = Rc::new(DecompressorCompactor::new(
            CodecConfig {
                name: "dc".to_string(),
                decompress_ratio: 8.0,
                compact_ratio: 4,
            },
            w,
            None,
        ));
        dc.load_config(1);
        let src = ScanSource::new(
            &h,
            "comp",
            dc.clone() as Rc<dyn TamIf>,
            0,
            InitiatorId(2),
            ScanConfig::new(4, 32),
            4,
            DataPolicy::Volume,
            1,
            ScanKind::Compressed {
                compressed_bits: dc.compressed_bits(),
                compacted_bits: dc.compacted_bits(),
                codec: None,
                cares_per_cube: 8,
            },
        );
        let jh = sim.spawn(async move { src.run().await });
        sim.run();
        let out = jh.try_take().unwrap();
        assert_eq!(out.patterns, 4);
        assert_eq!(out.stimulus_bits, 4 * 16);
        assert_eq!(out.response_bits, 4 * 32);
        assert!(out.clean(), "{out}");
    }
}
