//! Pattern source TLMs (paper Section III.C): logic-BIST, deterministic
//! external (ATE-stored) and compressed external sources.

use std::fmt;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tve_obs::{Recorder, SpanKind, SpanRecord};
use tve_sim::SimHandle;
use tve_tlm::{Command, InitiatorId, TamIf, TamIfExt};
use tve_tpg::{Compressor, Misr, Prpg, ScanConfig, TestCube};

use crate::model::DataPolicy;
use crate::outcome::TestOutcome;

fn words_to_sig(words: &[u32]) -> u64 {
    let lo = words.first().copied().unwrap_or(0) as u64;
    let hi = words.get(1).copied().unwrap_or(0) as u64;
    lo | (hi << 32)
}

/// A packed random stimulus of `bits` bits, LSB-first: one
/// `gen_bool(0.5)` draw per bit, in bit order, ORed straight into words.
fn random_stimulus(rng: &mut StdRng, bits: usize) -> Vec<u32> {
    let mut words = vec![0u32; bits.div_ceil(32)];
    for i in 0..bits {
        words[i / 32] |= u32::from(rng.gen_bool(0.5)) << (i % 32);
    }
    words
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
                let mut prpg = Prpg::new(32, self.seed | 1, self.scan)
                    .expect("degree-32 PRPG is always constructible");
                for _ in 0..self.patterns {
                    let pattern = prpg.next_pattern();
                    match self
                        .tam
                        .write(
                            self.initiator,
                            self.wrapper_addr,
                            pattern.stimulus().words(),
                            bits,
                        )
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
/// channel), with response read-back.
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
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut misr = Misr::new(64, 32).expect("64-stage MISR");
        let cmd = match self.read_back {
            ReadBack::Combined => Command::WriteRead,
            _ => Command::Write,
        };
        for _ in 0..self.patterns {
            let write_result = match self.policy {
                DataPolicy::Volume => self
                    .port
                    .transfer_volume(self.initiator, cmd, self.wrapper_addr, bits)
                    .await
                    .map(|_| Vec::new()),
                DataPolicy::Full => {
                    let stim = random_stimulus(&mut rng, bits as usize);
                    if cmd == Command::WriteRead {
                        self.port
                            .write_read(self.initiator, self.wrapper_addr, stim, bits)
                            .await
                    } else {
                        self.port
                            .write(self.initiator, self.wrapper_addr, &stim, bits)
                            .await
                            .map(|_| Vec::new())
                    }
                }
            };
            match write_result {
                Ok(shifted_out) => {
                    out.patterns += 1;
                    out.stimulus_bits += bits;
                    if cmd == Command::WriteRead {
                        out.response_bits += bits;
                        for w in shifted_out {
                            misr.absorb(w as u64);
                        }
                    }
                }
                Err(_) => {
                    out.errors += 1;
                    break;
                }
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
    /// The compression codec for full-data runs.
    pub codec: Option<Rc<dyn Compressor>>,
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
        for i in 0..self.patterns {
            let write_result = match self.policy {
                DataPolicy::Volume => {
                    self.port
                        .transfer_volume(
                            self.initiator,
                            Command::Write,
                            self.codec_addr,
                            self.compressed_bits,
                        )
                        .await
                }
                DataPolicy::Full => {
                    let Some(codec) = &self.codec else {
                        out.errors += 1;
                        break;
                    };
                    let cube = TestCube::random(self.scan, self.cares_per_cube, self.seed ^ i);
                    match codec.compress(&cube) {
                        Ok(stream) => self
                            .port
                            .write(
                                self.initiator,
                                self.codec_addr,
                                stream.words(),
                                stream.len() as u64,
                            )
                            .await
                            .map(|_| ()),
                        Err(_) => {
                            // Unencodable cube: counts as an error, skip.
                            out.errors += 1;
                            continue;
                        }
                    }
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
        let scan = ScanConfig::new(4, 32);
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
                    let packed = random_stimulus(&mut packed_rng, bits);
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
