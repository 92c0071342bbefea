//! The decompressor/compactor TLM — an interface adaptor between the TAM
//! and a core wrapper (paper Section III.D), enabling plug & play
//! deployment of compression schemes.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use tve_tlm::{Command, LocalBoxFuture, ResponseStatus, TamIf, TamIfExt, Transaction};
use tve_tpg::{BitVec, Compressor, XorCompactor};

use crate::config_bus::ConfigClient;
use crate::wrapper::TestWrapper;

/// Static codec-adaptor parameters.
#[derive(Debug, Clone)]
pub struct CodecConfig {
    /// Adaptor name.
    pub name: String,
    /// Modeled stimulus compression ratio (volume mode); the paper's case
    /// study uses 50×.
    pub decompress_ratio: f64,
    /// Spatial response compaction ratio (responses shrink by this factor).
    pub compact_ratio: u32,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig {
            name: "codec".to_string(),
            decompress_ratio: 50.0,
            compact_ratio: 4,
        }
    }
}

/// The decompressor/compactor adaptor.
///
/// * **Write** transactions carry *compressed* stimuli; the adaptor expands
///   them (structurally via an attached [`Compressor`], or by volume) and
///   delivers full patterns to the downstream wrapper over a direct
///   channel — only compressed data occupies the TAM.
/// * **Read** transactions fetch the wrapper's response image, spatially
///   compacted by `compact_ratio` — only compacted data returns over the
///   TAM.
///
/// Like the wrapper it is configurable over the configuration scan ring and
/// supports a bypass mode (bit 0 of its register: `1` = active,
/// `0` = bypass).
pub struct DecompressorCompactor {
    cfg: CodecConfig,
    wrapper: Rc<TestWrapper>,
    codec: Option<Rc<dyn Compressor>>,
    /// Folds the wrapper's chains into the compacted response.
    compactor: XorCompactor,
    active: Cell<bool>,
    config: Cell<u64>,
    expanded_patterns: Cell<u64>,
    compressed_bits_in: Cell<u64>,
    compacted_bits_out: Cell<u64>,
    rejected: Cell<u64>,
}

impl fmt::Debug for DecompressorCompactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecompressorCompactor")
            .field("name", &self.cfg.name)
            .field("active", &self.active.get())
            .field("expanded_patterns", &self.expanded_patterns.get())
            .finish()
    }
}

impl DecompressorCompactor {
    /// Creates an adaptor in front of `wrapper`. Pass a [`Compressor`] to
    /// enable bit-true (full data policy) expansion; without one only
    /// volume expansion is available.
    ///
    /// # Panics
    ///
    /// Panics if `compact_ratio` is zero or `decompress_ratio < 1`.
    pub fn new(
        cfg: CodecConfig,
        wrapper: Rc<TestWrapper>,
        codec: Option<Rc<dyn Compressor>>,
    ) -> Self {
        assert!(cfg.compact_ratio > 0, "compact ratio must be positive");
        assert!(cfg.decompress_ratio >= 1.0, "decompress ratio must be >= 1");
        let chains = wrapper.scan_config().chains();
        let compactor = XorCompactor::new(chains, (chains / cfg.compact_ratio).max(1))
            .expect("outputs <= chains by construction");
        DecompressorCompactor {
            cfg,
            wrapper,
            codec,
            compactor,
            active: Cell::new(false),
            config: Cell::new(0),
            expanded_patterns: Cell::new(0),
            compressed_bits_in: Cell::new(0),
            compacted_bits_out: Cell::new(0),
            rejected: Cell::new(0),
        }
    }

    /// Expanded (wrapper-side) bits per pattern.
    pub(crate) fn expanded_bits(&self) -> u64 {
        self.wrapper.scan_config().bits_per_pattern()
    }

    /// Compressed (TAM-side) bits per pattern under the volume model.
    pub fn compressed_bits(&self) -> u64 {
        ((self.expanded_bits() as f64) / self.cfg.decompress_ratio).ceil() as u64
    }

    /// Compacted (TAM-side) response bits per pattern.
    pub fn compacted_bits(&self) -> u64 {
        self.expanded_bits().div_ceil(self.cfg.compact_ratio as u64)
    }

    /// Whether the adaptor is active (not bypassed).
    pub fn is_active(&self) -> bool {
        self.active.get()
    }

    fn reject(&self, txn: &mut Transaction) {
        self.rejected.set(self.rejected.get() + 1);
        txn.status = ResponseStatus::CommandError;
    }
}

impl TamIf for DecompressorCompactor {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            if !self.active.get() {
                // Bypass: hand the transaction to the wrapper unchanged.
                self.wrapper.do_transport(txn).await;
                return;
            }
            match txn.cmd {
                Command::Write | Command::WriteRead => {
                    // Compressed stimulus in; expand and forward.
                    let expanded_bits = self.expanded_bits();
                    let mut inner = if txn.is_volume_only() {
                        if txn.bit_len != self.compressed_bits() {
                            return self.reject(txn);
                        }
                        Transaction::volume(txn.initiator, Command::Write, 0, expanded_bits)
                    } else {
                        let Some(codec) = &self.codec else {
                            return self.reject(txn);
                        };
                        let seed = std::mem::take(&mut txn.data);
                        let stream = BitVec::from_words(seed, txn.bit_len as usize);
                        match codec.decompress(&stream) {
                            Ok(pattern) => Transaction::write(
                                txn.initiator,
                                0,
                                pattern.into_stimulus().into_words(),
                                expanded_bits,
                            ),
                            Err(_) => return self.reject(txn),
                        }
                    };
                    self.compressed_bits_in
                        .set(self.compressed_bits_in.get() + txn.bit_len);
                    self.wrapper.do_transport(&mut inner).await;
                    txn.status = inner.status;
                    if inner.status.is_ok() {
                        self.expanded_patterns.set(self.expanded_patterns.get() + 1);
                    }
                }
                Command::Read => {
                    // Fetch the full response image, return it compacted.
                    if txn.bit_len != self.compacted_bits() {
                        return self.reject(txn);
                    }
                    let full_bits = self.expanded_bits();
                    let mut inner = if txn.is_volume_only() || self.codec.is_none() {
                        Transaction::volume(txn.initiator, Command::Read, 0, full_bits)
                    } else {
                        Transaction::read(txn.initiator, 0, full_bits)
                    };
                    self.wrapper.do_transport(&mut inner).await;
                    txn.status = inner.status;
                    if inner.status.is_ok() {
                        if !inner.data.is_empty() {
                            let image = BitVec::from_words(inner.data, full_bits as usize);
                            txn.data = self.compactor.compact_image(&image).into_words();
                        }
                        self.compacted_bits_out
                            .set(self.compacted_bits_out.get() + txn.bit_len);
                    }
                }
            }
        })
    }
}

impl ConfigClient for DecompressorCompactor {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn config_len(&self) -> u32 {
        8
    }

    fn load_config(&self, value: u64) {
        self.config.set(value);
        self.active.set(value & 1 == 1);
    }

    fn read_config(&self) -> u64 {
        self.config.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_bus::ConfigClient;
    use crate::model::SyntheticLogicCore;
    use crate::wrapper::{WrapperConfig, WrapperMode};
    use tve_sim::Simulation;
    use tve_tlm::{InitiatorId, TamIfExt};
    use tve_tpg::{ReseedingCodec, ScanConfig, TestCube};

    fn setup(
        active: bool,
        with_codec: bool,
    ) -> (Simulation, Rc<DecompressorCompactor>, Rc<TestWrapper>) {
        let sim = Simulation::new();
        let scan = ScanConfig::new(4, 32); // 128 bits/pattern
        let core = Rc::new(SyntheticLogicCore::new("c", scan, 3));
        let wrapper = Rc::new(TestWrapper::new(
            &sim.handle(),
            WrapperConfig::default(),
            core,
        ));
        wrapper.load_config(WrapperMode::IntTest.encode());
        let codec: Option<Rc<dyn Compressor>> = if with_codec {
            Some(Rc::new(ReseedingCodec::new(scan, 32).unwrap()))
        } else {
            None
        };
        let dc = Rc::new(DecompressorCompactor::new(
            CodecConfig {
                name: "dc".to_string(),
                decompress_ratio: 8.0,
                compact_ratio: 4,
            },
            wrapper.clone(),
            codec,
        ));
        if active {
            dc.load_config(1);
        }
        (sim, dc, wrapper)
    }

    #[test]
    fn volume_expansion_sizes() {
        let (_sim, dc, _) = setup(true, false);
        assert_eq!(dc.expanded_bits(), 128);
        assert_eq!(dc.compressed_bits(), 16);
        assert_eq!(dc.compacted_bits(), 32);
    }

    #[test]
    fn volume_write_expands_to_wrapper() {
        let (mut sim, dc, wrapper) = setup(true, false);
        let d = Rc::clone(&dc);
        sim.spawn(async move {
            d.transfer_volume(InitiatorId(0), Command::Write, 0, 16)
                .await
                .unwrap();
        });
        sim.run();
        assert_eq!(dc.expanded_patterns.get(), 1);
        assert_eq!(wrapper.stats().patterns, 1);
    }

    #[test]
    fn wrong_compressed_size_is_rejected() {
        let (mut sim, dc, _) = setup(true, false);
        let d = Rc::clone(&dc);
        let jh = sim.spawn(async move {
            d.transfer_volume(InitiatorId(0), Command::Write, 0, 17)
                .await
        });
        sim.run();
        assert!(jh.try_take().unwrap().is_err());
        assert_eq!(dc.rejected.get(), 1);
    }

    #[test]
    fn bypass_mode_forwards_unchanged() {
        let (mut sim, dc, wrapper) = setup(false, false);
        let d = Rc::clone(&dc);
        sim.spawn(async move {
            // Full-size pattern goes straight through to the wrapper.
            d.transfer_volume(InitiatorId(0), Command::Write, 0, 128)
                .await
                .unwrap();
        });
        sim.run();
        assert_eq!(dc.expanded_patterns.get(), 0);
        assert_eq!(wrapper.stats().patterns, 1);
    }

    #[test]
    fn full_data_round_trip_decompresses_real_seeds() {
        let (mut sim, dc, wrapper) = setup(true, true);
        let scan = ScanConfig::new(4, 32);
        let codec = ReseedingCodec::new(scan, 32).unwrap();
        let cube = TestCube::random(scan, 12, 5);
        let stream = codec.compress(&cube).unwrap();
        let d = Rc::clone(&dc);
        let w = Rc::clone(&wrapper);
        sim.spawn(async move {
            d.write(InitiatorId(0), 0, stream.words(), stream.len() as u64)
                .await
                .unwrap();
            w.drain().await;
        });
        sim.run();
        assert_eq!(wrapper.stats().patterns, 1);
        // Expanded pattern satisfied the cube, so the wrapper saw real data
        // (covered in depth by the tpg codec tests; here we check wiring).
        assert_eq!(dc.expanded_patterns.get(), 1);
    }

    #[test]
    fn compacted_read_returns_reduced_image() {
        let (mut sim, dc, wrapper) = setup(true, true);
        let scan = ScanConfig::new(4, 32);
        let codec = ReseedingCodec::new(scan, 32).unwrap();
        let cube = TestCube::random(scan, 8, 9);
        let stream = codec.compress(&cube).unwrap();
        let d = Rc::clone(&dc);
        let jh = sim.spawn(async move {
            d.write(InitiatorId(0), 0, stream.words(), stream.len() as u64)
                .await
                .unwrap();
            d.read(InitiatorId(0), 0, 32).await.unwrap()
        });
        sim.run();
        let compacted = jh.try_take().unwrap();
        assert_eq!(compacted.len(), 1, "32 compacted bits fit one word");
        assert_eq!(wrapper.stats().patterns, 1);
    }

    #[test]
    fn config_toggles_active() {
        let (_sim, dc, _) = setup(false, false);
        assert!(!dc.is_active());
        dc.load_config(1);
        assert!(dc.is_active());
        assert_eq!(dc.read_config(), 1);
    }
}
