//! Pattern source TLMs (paper Section III.C): logic-BIST, deterministic
//! external (ATE-stored) and compressed external sources.
//!
//! In full-data runs the three sources read their stimulus from one
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

/// Records a completed source run as a [`SpanKind::Burst`] span on the
/// `src/<name>` track, covering the full sequence and carrying its total
/// data volume.
fn record_burst(recorder: &Option<Rc<Recorder>>, initiator: InitiatorId, out: &TestOutcome) {
    if let Some(rec) = recorder {
        rec.record_with(|| {
            SpanRecord::new(
                SpanKind::Burst,
                format!("src/{}", out.name),
                out.name.clone(),
                out.start,
                out.end,
            )
            .with_initiator(initiator.0)
            .with_bits(out.stimulus_bits + out.response_bits)
        });
    }
}

/// A logic-BIST pattern source: an on-chip PRPG streaming pseudo-random
/// stimuli to a wrapper over the TAM; responses are compacted in the
/// wrapper-local MISR, whose signature is read out at the end.
///
/// This models tests 1 and 4 of the paper's case study.
pub struct BistSource {
    handle: SimHandle,
    /// Test sequence name.
    pub(crate) name: String,
    /// The TAM this source injects into.
    pub(crate) tam: Rc<dyn TamIf>,
    /// Address of the target wrapper on the TAM.
    pub(crate) wrapper_addr: u32,
    /// Initiator identity for arbitration/accounting.
    pub(crate) initiator: InitiatorId,
    /// Target scan geometry.
    pub(crate) scan: ScanConfig,
    /// Number of pseudo-random patterns.
    pub(crate) patterns: u64,
    /// Volume or full-data simulation.
    pub(crate) policy: DataPolicy,
    /// PRPG seed.
    pub(crate) seed: u64,
    recorder: Option<Rc<Recorder>>,
}

impl fmt::Debug for BistSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BistSource")
            .field("name", &self.name)
            .field("patterns", &self.patterns)
            .field("scan", &self.scan)
            .finish()
    }
}

impl BistSource {
    /// Creates a BIST source; see the field docs for parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        handle: &SimHandle,
        name: impl Into<String>,
        tam: Rc<dyn TamIf>,
        wrapper_addr: u32,
        initiator: InitiatorId,
        scan: ScanConfig,
        patterns: u64,
        policy: DataPolicy,
        seed: u64,
    ) -> Self {
        BistSource {
            handle: handle.clone(),
            name: name.into(),
            tam,
            wrapper_addr,
            initiator,
            scan,
            patterns,
            policy,
            seed,
            recorder: None,
        }
    }

    /// Attaches an observability recorder: the run is recorded as a
    /// [`SpanKind::Burst`] span on the `src/<name>` track.
    pub fn with_recorder(mut self, recorder: Rc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Runs the full BIST sequence and returns its outcome.
    pub async fn run(&self) -> TestOutcome {
        let mut out = TestOutcome::begin(&self.name, self.handle.now());
        let bits = self.scan.bits_per_pattern();
        match self.policy {
            DataPolicy::Volume => {
                for _ in 0..self.patterns {
                    match self
                        .tam
                        .transfer_volume(self.initiator, Command::Write, self.wrapper_addr, bits)
                        .await
                    {
                        Ok(()) => {
                            out.patterns += 1;
                            out.stimulus_bits += bits;
                        }
                        Err(_) => {
                            out.errors += 1;
                            break;
                        }
                    }
                }
            }
            DataPolicy::Full => {
                let mut stimulus = Stimulus::Prpg {
                    seed: self.seed,
                    scan: self.scan,
                }
                .open(self.patterns);
                for _ in 0..self.patterns {
                    let words = stimulus.next().expect("scan patterns always exist");
                    match self
                        .tam
                        .write(self.initiator, self.wrapper_addr, words, bits)
                        .await
                    {
                        Ok(()) => {
                            out.patterns += 1;
                            out.stimulus_bits += bits;
                        }
                        Err(_) => {
                            out.errors += 1;
                            break;
                        }
                    }
                }
            }
        }
        // Signature readout: drains the wrapper's scan engine.
        match self.tam.read(self.initiator, self.wrapper_addr, 64).await {
            Ok(words) => {
                out.response_bits += 64;
                if self.policy == DataPolicy::Full {
                    out.signature = Some(words_to_sig(&words));
                }
            }
            Err(_) => out.errors += 1,
        }
        out.end = self.handle.now();
        record_burst(&self.recorder, self.initiator, &out);
        out
    }
}

/// Response handling of an [`AteSource`].
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

/// A deterministic external pattern source: pre-computed patterns stored in
/// the ATE, delivered through the EBI (and hence the rate-limited ATE
/// channel), with response read-back. In full-data runs the stored
/// patterns are the process-wide stimulus store's.
///
/// This models tests 2 and 5 of the paper's case study.
pub struct AteSource {
    /// Kernel handle.
    pub handle: SimHandle,
    /// Test sequence name.
    pub name: String,
    /// Entry port (normally the [`Ebi`](crate::Ebi)).
    pub port: Rc<dyn TamIf>,
    /// Wrapper address for stimuli.
    pub wrapper_addr: u32,
    /// Response handling.
    pub read_back: ReadBack,
    /// Initiator identity.
    pub initiator: InitiatorId,
    /// Target scan geometry.
    pub scan: ScanConfig,
    /// Number of stored patterns.
    pub patterns: u64,
    /// Volume or full-data simulation.
    pub policy: DataPolicy,
    /// Pattern-set seed ("ATPG" reproducibility).
    pub seed: u64,
    /// Optional observability recorder; the run is recorded as a
    /// [`SpanKind::Burst`] span on the `src/<name>` track.
    pub recorder: Option<Rc<Recorder>>,
}

impl fmt::Debug for AteSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AteSource")
            .field("name", &self.name)
            .field("patterns", &self.patterns)
            .field("scan", &self.scan)
            .finish()
    }
}

impl AteSource {
    /// Runs the deterministic external test and returns its outcome.
    ///
    /// In full-data mode, all read-back responses are folded into a MISR;
    /// the outcome's `signature` lets a fault-free reference run be
    /// compared against a fault-injected one.
    pub async fn run(&self) -> TestOutcome {
        let mut out = TestOutcome::begin(&self.name, self.handle.now());
        let bits = self.scan.bits_per_pattern();
        let mut stimulus = (self.policy == DataPolicy::Full).then(|| {
            Stimulus::Ate {
                seed: self.seed,
                scan: self.scan,
            }
            .open(self.patterns)
        });
        let mut misr = Misr::new(64, 32).expect("64-stage MISR");
        let cmd = match self.read_back {
            ReadBack::Combined => Command::WriteRead,
            _ => Command::Write,
        };
        let separate = matches!(self.read_back, ReadBack::Separate { .. });
        // The words a combined access shifts out come back as the next
        // stimulus buffer, so patterns circulate buffers instead of
        // allocating them.
        let mut spare = Vec::new();
        for k in 0..self.patterns {
            let mut txn = match &mut stimulus {
                None => Transaction::volume(self.initiator, cmd, self.wrapper_addr, bits),
                Some(stimulus) => {
                    let stim = stimulus.next().expect("ATE patterns always exist");
                    let mut data = std::mem::take(&mut spare);
                    data.clear();
                    data.extend_from_slice(stim);
                    let mut txn = Transaction::write(self.initiator, self.wrapper_addr, data, bits);
                    txn.cmd = cmd;
                    txn
                }
            };
            // The hand-off promise: nothing but host work happens before
            // this source's next call on the port (the next pattern, or
            // this pattern's separate read-back).
            txn.set_follows(k + 1 < self.patterns || separate);
            self.port.do_transport(&mut txn).await;
            if txn.status.is_ok() {
                out.patterns += 1;
                out.stimulus_bits += bits;
                if cmd == Command::WriteRead {
                    out.response_bits += bits;
                    for &w in &txn.data {
                        misr.absorb(w as u64);
                    }
                }
                spare = txn.data;
            } else {
                out.errors += 1;
                break;
            }
            if let ReadBack::Separate { addr, bits: rbits } = self.read_back {
                if self.policy == DataPolicy::Volume {
                    match self
                        .port
                        .transfer_volume(self.initiator, Command::Read, addr, rbits)
                        .await
                    {
                        Ok(()) => out.response_bits += rbits,
                        Err(_) => out.errors += 1,
                    }
                } else {
                    match self.port.read(self.initiator, addr, rbits).await {
                        Ok(words) => {
                            out.response_bits += rbits;
                            for w in words {
                                misr.absorb(w as u64);
                            }
                        }
                        Err(_) => out.errors += 1,
                    }
                }
            }
        }
        if self.policy == DataPolicy::Full && self.read_back != ReadBack::None {
            out.signature = Some(misr.signature());
        }
        out.end = self.handle.now();
        record_burst(&self.recorder, self.initiator, &out);
        out
    }
}

/// A compressed external pattern source: the ATE stores compressed test
/// data which the on-chip decompressor expands (paper test 3, 50×).
pub struct CompressedAteSource {
    /// Kernel handle.
    pub handle: SimHandle,
    /// Test sequence name.
    pub name: String,
    /// Entry port (normally the [`Ebi`](crate::Ebi)).
    pub port: Rc<dyn TamIf>,
    /// Address of the decompressor/compactor adaptor.
    pub codec_addr: u32,
    /// Compressed bits per pattern (volume mode; full mode derives this
    /// from the attached compressor).
    pub compressed_bits: u64,
    /// Compacted response bits read back per pattern (0 disables).
    pub compacted_bits: u64,
    /// The reseeding codec that encodes each cube for full-data runs.
    pub codec: Option<Rc<ReseedingCodec>>,
    /// Specified (care) bits per generated test cube in full-data runs.
    pub cares_per_cube: usize,
    /// Initiator identity.
    pub initiator: InitiatorId,
    /// Target scan geometry.
    pub scan: ScanConfig,
    /// Number of patterns.
    pub patterns: u64,
    /// Volume or full-data simulation.
    pub policy: DataPolicy,
    /// Cube-generation seed.
    pub seed: u64,
    /// Optional observability recorder; the run is recorded as a
    /// [`SpanKind::Burst`] span on the `src/<name>` track.
    pub recorder: Option<Rc<Recorder>>,
}

impl fmt::Debug for CompressedAteSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompressedAteSource")
            .field("name", &self.name)
            .field("patterns", &self.patterns)
            .field("compressed_bits", &self.compressed_bits)
            .finish()
    }
}

impl CompressedAteSource {
    /// Runs the compressed external test and returns its outcome.
    pub async fn run(&self) -> TestOutcome {
        let mut out = TestOutcome::begin(&self.name, self.handle.now());
        let mut misr = Misr::new(64, 32).expect("64-stage MISR");
        let mut stimulus = match (self.policy, &self.codec) {
            (DataPolicy::Full, Some(codec)) => {
                let stimulus = Stimulus::Reseed {
                    seed: self.seed,
                    scan: self.scan,
                    cares: self.cares_per_cube,
                    codec,
                };
                Some((stimulus.open(self.patterns), stimulus.bits()))
            }
            _ => None,
        };
        for _ in 0..self.patterns {
            let write_result = match (self.policy, &mut stimulus) {
                (DataPolicy::Volume, _) => {
                    self.port
                        .transfer_volume(
                            self.initiator,
                            Command::Write,
                            self.codec_addr,
                            self.compressed_bits,
                        )
                        .await
                }
                (DataPolicy::Full, None) => {
                    // No codec to encode the cubes with.
                    out.errors += 1;
                    break;
                }
                (DataPolicy::Full, Some((stimulus, bits))) => {
                    let Some(seed) = stimulus.next() else {
                        // Unencodable cube: counts as an error, skip.
                        out.errors += 1;
                        continue;
                    };
                    self.port
                        .write(self.initiator, self.codec_addr, seed, *bits)
                        .await
                        .map(|_| ())
                }
            };
            match write_result {
                Ok(()) => {
                    out.patterns += 1;
                    out.stimulus_bits += self.compressed_bits;
                }
                Err(_) => {
                    out.errors += 1;
                    break;
                }
            }
            if self.compacted_bits > 0 {
                if self.policy == DataPolicy::Volume {
                    match self
                        .port
                        .transfer_volume(
                            self.initiator,
                            Command::Read,
                            self.codec_addr,
                            self.compacted_bits,
                        )
                        .await
                    {
                        Ok(()) => out.response_bits += self.compacted_bits,
                        Err(_) => out.errors += 1,
                    }
                } else {
                    match self
                        .port
                        .read(self.initiator, self.codec_addr, self.compacted_bits)
                        .await
                    {
                        Ok(words) => {
                            out.response_bits += self.compacted_bits;
                            for w in words {
                                misr.absorb(w as u64);
                            }
                        }
                        Err(_) => out.errors += 1,
                    }
                }
            }
        }
        if self.policy == DataPolicy::Full && self.compacted_bits > 0 {
            out.signature = Some(misr.signature());
        }
        out.end = self.handle.now();
        record_burst(&self.recorder, self.initiator, &out);
        out
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
            let src = BistSource::new(
                &h,
                "bist",
                Rc::clone(&tam),
                0,
                InitiatorId(0),
                scan,
                patterns,
                DataPolicy::Full,
                seed,
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
        let src = BistSource::new(
            &h,
            "bist",
            w.clone() as Rc<dyn TamIf>,
            0,
            InitiatorId(0),
            ScanConfig::new(4, 32),
            10,
            DataPolicy::Volume,
            1,
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
            let src = BistSource::new(
                &h,
                "bist",
                w as Rc<dyn TamIf>,
                0,
                InitiatorId(0),
                ScanConfig::new(4, 32),
                20,
                DataPolicy::Full,
                99,
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
        let src = BistSource::new(
            &h,
            "bist",
            w as Rc<dyn TamIf>,
            0,
            InitiatorId(0),
            ScanConfig::new(4, 32),
            10,
            DataPolicy::Volume,
            1,
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
        let src = AteSource {
            handle: h.clone(),
            name: "det".to_string(),
            port: w as Rc<dyn TamIf>,
            wrapper_addr: 0,
            read_back: ReadBack::Combined,
            initiator: InitiatorId(1),
            scan: ScanConfig::new(4, 32),
            patterns: 5,
            policy: DataPolicy::Full,
            seed: 3,
            recorder: None,
        };
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
        let src = CompressedAteSource {
            handle: h.clone(),
            name: "comp".to_string(),
            port: dc.clone() as Rc<dyn TamIf>,
            codec_addr: 0,
            compressed_bits: dc.compressed_bits(),
            compacted_bits: dc.compacted_bits(),
            codec: None,
            cares_per_cube: 8,
            initiator: InitiatorId(2),
            scan: ScanConfig::new(4, 32),
            patterns: 4,
            policy: DataPolicy::Volume,
            seed: 1,
            recorder: None,
        };
        let jh = sim.spawn(async move { src.run().await });
        sim.run();
        let out = jh.try_take().unwrap();
        assert_eq!(out.patterns, 4);
        assert_eq!(out.stimulus_bits, 4 * 16);
        assert_eq!(out.response_bits, 4 * 32);
        assert!(out.clean(), "{out}");
    }
}
