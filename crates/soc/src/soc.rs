//! The bus-based JPEG encoder SoC of the paper's Fig. 4, including the test
//! infrastructure (wrappers, decompressor/compactor, test controller, EBI,
//! configuration scan bus), with the system bus reused as TAM.

use std::rc::Rc;

use std::cell::RefCell;

use tve_core::{
    CodecConfig, ConfigClient, ConfigScanRing, DataPolicy, DecompressorCompactor, Ebi,
    ScanPowerProfile, SyntheticLogicCore, TestController, TestWrapper, VirtualAte, WrapperConfig,
};
use tve_obs::Recorder;
use tve_sim::{Duration, SimHandle};
use tve_tlm::{
    AddrRange, ArbiterPolicy, BusConfig, BusTam, FaultyTam, FaultyTamPolicy, InitiatorId,
    PowerMeter, SinkTarget, TamIf,
};
use tve_tpg::{Compressor, ReseedingCodec, ScanConfig};

use crate::cores::{ColorConversionCore, DctCore, MemoryCore};

/// TAM address of the memory window (word `i` at `MEM_BASE + i`).
pub const MEM_BASE: u32 = 0x1000_0000;
/// TAM address of the processor core's test wrapper.
pub const PROC_WRAPPER_ADDR: u32 = 0x2000_0000;
/// TAM address of the color conversion core's test wrapper.
pub const COLOR_WRAPPER_ADDR: u32 = 0x2100_0000;
/// TAM address of the DCT core's test wrapper.
pub(crate) const DCT_WRAPPER_ADDR: u32 = 0x2200_0000;
/// TAM address of the decompressor/compactor adaptor.
pub(crate) const CODEC_ADDR: u32 = 0x2300_0000;

/// Configuration-ring client index of the processor wrapper.
pub const RING_PROC: usize = 0;
/// Configuration-ring client index of the color conversion wrapper.
pub const RING_COLOR: usize = 1;
/// Configuration-ring client index of the DCT wrapper.
pub const RING_DCT: usize = 2;
/// Configuration-ring client index of the memory wrapper.
pub const RING_MEM: usize = 3;
/// Configuration-ring client index of the decompressor/compactor.
pub const RING_CODEC: usize = 4;
/// Configuration-ring client index of the EBI.
pub const RING_EBI: usize = 5;

/// Well-known initiator identities on the shared bus/TAM.
pub mod initiators {
    use tve_tlm::InitiatorId;
    /// The ATE (through the EBI).
    pub const ATE: InitiatorId = InitiatorId(0);
    /// The processor-core BIST pattern source.
    pub const BIST_PROC: InitiatorId = InitiatorId(1);
    /// The color-conversion BIST pattern source.
    pub const BIST_COLOR: InitiatorId = InitiatorId(2);
    /// The on-chip test controller.
    pub(crate) const CONTROLLER: InitiatorId = InitiatorId(3);
    /// The embedded processor (functional mode and test 7).
    pub const PROCESSOR: InitiatorId = InitiatorId(4);
}

/// Power-model parameters (arbitrary consistent units, milliwatt-like).
///
/// Scan power scales with core size: a wrapper's profile is
/// `base × chains/32 + toggle × chains/32 × density` (the processor core is
/// the reference size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Data-independent shift power of a 32-chain core.
    pub wrapper_base: f64,
    /// Toggle-dependent shift power of a 32-chain core at density 1.0.
    pub wrapper_toggle: f64,
    /// Power per accessed memory word.
    pub memory_op: f64,
    /// Bus power per occupied transfer cycle.
    pub bus_active: f64,
    /// Peak-power detection window in cycles.
    pub window: u64,
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams {
            wrapper_base: 60.0,
            wrapper_toggle: 120.0,
            memory_op: 70.0,
            bus_active: 25.0,
            window: 65_536,
        }
    }
}

/// Structural and calibration parameters of the SoC model.
///
/// [`SocConfig::paper`] reproduces the case study of Section IV (scan-chain
/// lengths, channel rates and per-operation costs are calibrated so the
/// published pattern counts yield Table I's test lengths and utilizations;
/// see `DESIGN.md`). [`SocConfig::small`] is a fast miniature for tests and
/// full-data validation runs.
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// System bus / TAM word width in bits.
    pub bus_width_bits: u32,
    /// Per-transaction bus overhead cycles.
    pub bus_overhead: u64,
    /// Bus arbitration policy.
    pub arbiter: ArbiterPolicy,
    /// Peak-utilization detection window.
    pub monitor_window: Duration,
    /// Processor core scan geometry (paper: 32 chains).
    pub proc_scan: ScanConfig,
    /// Color conversion core scan geometry.
    pub color_scan: ScanConfig,
    /// DCT core scan geometry (paper: 8 chains).
    pub dct_scan: ScanConfig,
    /// Capture cycles per scan pattern.
    pub capture_cycles: u64,
    /// Embedded memory size in 32-bit words (paper: 1 MiB = 262144).
    pub memory_words: u32,
    /// Spare words for built-in memory repair (Fig. 1's "Repair").
    pub memory_spares: u32,
    /// ATE stimulus channel rate (bits num/den per cycle).
    pub ate_down_rate: (u64, u64),
    /// ATE response channel rate.
    pub ate_up_rate: (u64, u64),
    /// Stimulus compression ratio of the decompressor (paper: 50×).
    pub decompress_ratio: f64,
    /// Spatial response compaction ratio of the compactor.
    pub compact_ratio: u32,
    /// Test-controller overhead per memory operation.
    pub controller_op_overhead: u64,
    /// Processor overhead per memory operation (test 7: march program in
    /// L1 cache).
    pub processor_op_overhead: u64,
    /// Configuration ring clock divider.
    pub ring_clock_div: u64,
    /// Default data policy for built test sequences.
    pub policy: DataPolicy,
    /// Optional power model; `None` disables power metering (faster).
    pub power: Option<PowerParams>,
    /// Bus burst segmentation; see
    /// [`BusConfig::max_burst_bits`](tve_tlm::BusConfig).
    pub max_burst_bits: Option<u64>,
    /// Fault injection: when set, a [`FaultyTam`] adaptor with this policy
    /// is interposed between the EBI and the system bus, corrupting or
    /// dropping ATE-path transactions. `None` (the default) builds a
    /// healthy TAM.
    pub tam_fault: Option<FaultyTamPolicy>,
}

impl SocConfig {
    /// The calibrated case-study configuration (see `DESIGN.md` §
    /// "Calibration notes").
    pub fn paper() -> Self {
        SocConfig {
            bus_width_bits: 48,
            bus_overhead: 1,
            arbiter: ArbiterPolicy::Fcfs,
            monitor_window: Duration::cycles(65_536),
            proc_scan: ScanConfig::new(32, 1296),
            color_scan: ScanConfig::new(32, 996),
            dct_scan: ScanConfig::new(8, 796),
            capture_cycles: 4,
            memory_words: 262_144,
            memory_spares: 8,
            ate_down_rate: (8, 1),
            ate_up_rate: (8, 1),
            decompress_ratio: 50.0,
            compact_ratio: 8,
            controller_op_overhead: 6,
            processor_op_overhead: 6,
            ring_clock_div: 1,
            policy: DataPolicy::Volume,
            power: None,
            max_burst_bits: None,
            tam_fault: None,
        }
    }

    /// A miniature of the same architecture: small scans and memory, suited
    /// to full-data validation runs and unit tests.
    pub fn small() -> Self {
        SocConfig {
            proc_scan: ScanConfig::new(4, 64),
            color_scan: ScanConfig::new(4, 48),
            dct_scan: ScanConfig::new(2, 32),
            memory_words: 256,
            policy: DataPolicy::Full,
            ..SocConfig::paper()
        }
    }
}

/// The four wrapped cores of the case study, in configuration-ring order.
///
/// Used by fault-injection campaigns to name a scan-cell injection site
/// and to rebuild the matching standalone scan view (see [`scan_view`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WrappedCore {
    /// The full-scan processor core (ring index [`RING_PROC`]).
    Processor,
    /// The color conversion core (ring index [`RING_COLOR`]).
    ColorConversion,
    /// The DCT core (ring index [`RING_DCT`]).
    Dct,
    /// The memory periphery logic (ring index [`RING_MEM`]).
    MemoryPeriphery,
}

impl WrappedCore {
    /// All four wrapped cores, in ring order.
    pub const ALL: [WrappedCore; 4] = [
        WrappedCore::Processor,
        WrappedCore::ColorConversion,
        WrappedCore::Dct,
        WrappedCore::MemoryPeriphery,
    ];

    /// A short stable label (used in campaign fault ids and CSV rows).
    pub fn label(self) -> &'static str {
        match self {
            WrappedCore::Processor => "proc",
            WrappedCore::ColorConversion => "color",
            WrappedCore::Dct => "dct",
            WrappedCore::MemoryPeriphery => "mem",
        }
    }
}

/// The synthetic scan view of `core` under `config` — the same name, scan
/// geometry and response seed [`JpegEncoderSoc::build`] wraps, as a
/// standalone core model.
///
/// This is the single source of truth for the per-core seeds: a diagnosis
/// cross-check can rebuild a golden/faulty wrapper pair for any core and
/// compare signatures against the full-SoC run.
pub fn scan_view(config: &SocConfig, core: WrappedCore) -> SyntheticLogicCore {
    match core {
        WrappedCore::Processor => SyntheticLogicCore::new("processor", config.proc_scan, 0x50C0),
        WrappedCore::ColorConversion => {
            SyntheticLogicCore::new("color-conv", config.color_scan, 0xC010)
        }
        WrappedCore::Dct => SyntheticLogicCore::new("dct", config.dct_scan, 0xDC70),
        WrappedCore::MemoryPeriphery => {
            SyntheticLogicCore::new("memory-periphery", ScanConfig::new(2, 64), 0x3E30)
        }
    }
}

/// The assembled SoC model: every block of Fig. 4, bound and configured
/// for simulation.
pub struct JpegEncoderSoc {
    /// The kernel handle the SoC was built against.
    pub handle: SimHandle,
    /// The configuration in effect.
    pub config: SocConfig,
    /// The system bus, reused as TAM.
    pub bus: Rc<BusTam>,
    /// The embedded memory core.
    pub memory: Rc<MemoryCore>,
    /// The color conversion core (functional data path).
    pub color_core: Rc<ColorConversionCore>,
    /// The DCT core (functional data path).
    pub dct_core: Rc<DctCore>,
    /// The processor core's test wrapper.
    pub proc_wrapper: Rc<TestWrapper>,
    /// The color conversion core's test wrapper.
    pub color_wrapper: Rc<TestWrapper>,
    /// The DCT core's test wrapper.
    pub dct_wrapper: Rc<TestWrapper>,
    /// The memory core's test wrapper.
    pub(crate) mem_wrapper: Rc<TestWrapper>,
    /// The decompressor/compactor in front of the processor wrapper.
    pub codec: Rc<DecompressorCompactor>,
    /// The reseeding compressor backing full-data compressed tests
    /// (`None` in volume configurations).
    pub(crate) reseeding: Option<Rc<ReseedingCodec>>,
    /// The external bus interface to the ATE.
    pub ebi: Rc<Ebi>,
    /// The configuration scan ring.
    pub ring: Rc<ConfigScanRing>,
    /// The on-chip test controller (drives test 6).
    pub controller: Rc<TestController>,
    /// The embedded processor acting as memory-test engine (test 7).
    pub(crate) processor: Rc<TestController>,
    /// The shared power meter, when `config.power` is set.
    pub(crate) power_meter: Option<Rc<RefCell<PowerMeter>>>,
}

impl JpegEncoderSoc {
    /// Builds the SoC against `handle`.
    ///
    /// # Panics
    ///
    /// Panics only on internal address-map conflicts, which would be a bug.
    pub fn build(handle: &SimHandle, config: SocConfig) -> Self {
        let bus = Rc::new(BusTam::new(
            handle,
            BusConfig {
                name: "system-bus/TAM".to_string(),
                width_bits: config.bus_width_bits,
                overhead_cycles: config.bus_overhead,
                policy: config.arbiter,
                monitor_window: config.monitor_window,
                max_burst_bits: config.max_burst_bits,
            },
        ));

        let wrapper_cfg = |name: &str| WrapperConfig {
            name: name.to_string(),
            capture_cycles: config.capture_cycles,
            ..WrapperConfig::default()
        };

        // Cores.
        let memory = Rc::new(MemoryCore::with_spares(
            "memory",
            MEM_BASE,
            config.memory_words as usize,
            config.memory_spares as usize,
        ));
        let color_core = Rc::new(ColorConversionCore::new("color-conv"));
        let dct_core = Rc::new(DctCore::new("dct"));

        // Wrappers (scan views are synthetic logic; functional views are
        // the real cores).
        let proc_wrapper = Rc::new(TestWrapper::new(
            handle,
            wrapper_cfg("proc-wrapper"),
            Rc::new(scan_view(&config, WrappedCore::Processor)),
        ));
        proc_wrapper.bind_functional(Rc::new(SinkTarget::new("proc-func")));
        let color_wrapper = Rc::new(TestWrapper::new(
            handle,
            wrapper_cfg("color-wrapper"),
            Rc::new(scan_view(&config, WrappedCore::ColorConversion)),
        ));
        color_wrapper.bind_functional(Rc::clone(&color_core) as Rc<dyn TamIf>);
        let dct_wrapper = Rc::new(TestWrapper::new(
            handle,
            wrapper_cfg("dct-wrapper"),
            Rc::new(scan_view(&config, WrappedCore::Dct)),
        ));
        dct_wrapper.bind_functional(Rc::clone(&dct_core) as Rc<dyn TamIf>);
        let mem_wrapper = Rc::new(TestWrapper::new(
            handle,
            wrapper_cfg("mem-wrapper"),
            Rc::new(scan_view(&config, WrappedCore::MemoryPeriphery)),
        ));
        mem_wrapper.bind_functional(Rc::clone(&memory) as Rc<dyn TamIf>);

        // Decompressor/compactor, privately channelled to the processor
        // wrapper. Full-data configurations get a real reseeding codec so
        // compressed stimuli are bit-true; volume configurations use the
        // static-ratio model (the paper's 50x).
        let reseeding = if config.policy == DataPolicy::Full {
            Some(Rc::new(
                ReseedingCodec::new(config.proc_scan, 64)
                    .expect("degree-64 reseeding codec is always constructible"),
            ))
        } else {
            None
        };
        let codec = Rc::new(DecompressorCompactor::new(
            CodecConfig {
                name: "decomp/compact".to_string(),
                decompress_ratio: config.decompress_ratio,
                compact_ratio: config.compact_ratio,
            },
            Rc::clone(&proc_wrapper),
            reseeding.clone().map(|c| c as Rc<dyn Compressor>),
        ));

        // Bind everything on the bus (the SystemC `bind` of Fig. 2).
        let bind = |range: AddrRange, t: Rc<dyn TamIf>| {
            bus.bind(range, t).expect("address map is conflict-free");
        };
        bind(
            AddrRange::new(MEM_BASE, config.memory_words),
            Rc::clone(&mem_wrapper) as Rc<dyn TamIf>,
        );
        bind(
            AddrRange::new(PROC_WRAPPER_ADDR, 0x1000),
            Rc::clone(&proc_wrapper) as Rc<dyn TamIf>,
        );
        bind(
            AddrRange::new(COLOR_WRAPPER_ADDR, 0x1000),
            Rc::clone(&color_wrapper) as Rc<dyn TamIf>,
        );
        bind(
            AddrRange::new(DCT_WRAPPER_ADDR, 0x1000),
            Rc::clone(&dct_wrapper) as Rc<dyn TamIf>,
        );
        bind(
            AddrRange::new(CODEC_ADDR, 0x1000),
            Rc::clone(&codec) as Rc<dyn TamIf>,
        );

        // EBI in front of the bus, rate-limited by the ATE channels. A
        // configured TAM fault interposes the corrupting adaptor here, so
        // every ATE-path transaction crosses the defective channel.
        let ebi_downstream = match config.tam_fault {
            Some(policy) => Rc::new(FaultyTam::new(
                "faulty-tam",
                Rc::clone(&bus) as Rc<dyn TamIf>,
                policy,
            )) as Rc<dyn TamIf>,
            None => Rc::clone(&bus) as Rc<dyn TamIf>,
        };
        let ebi = Rc::new(Ebi::new(
            handle,
            "ebi",
            ebi_downstream,
            config.ate_down_rate,
            config.ate_up_rate,
        ));

        // Configuration scan ring through all configurable blocks.
        let ring = Rc::new(ConfigScanRing::new(
            handle,
            vec![
                Rc::clone(&proc_wrapper) as Rc<dyn ConfigClient>,
                Rc::clone(&color_wrapper) as Rc<dyn ConfigClient>,
                Rc::clone(&dct_wrapper) as Rc<dyn ConfigClient>,
                Rc::clone(&mem_wrapper) as Rc<dyn ConfigClient>,
                Rc::clone(&codec) as Rc<dyn ConfigClient>,
                Rc::clone(&ebi) as Rc<dyn ConfigClient>,
            ],
            config.ring_clock_div,
        ));

        let controller = Rc::new(TestController::new(
            handle,
            "test-controller",
            Rc::clone(&bus) as Rc<dyn TamIf>,
            initiators::CONTROLLER,
        ));
        let processor = Rc::new(TestController::new(
            handle,
            "processor-march",
            Rc::clone(&bus) as Rc<dyn TamIf>,
            initiators::PROCESSOR,
        ));

        // Optional power instrumentation.
        let power_meter = config.power.map(|p| {
            let meter = Rc::new(RefCell::new(PowerMeter::new(tve_sim::Duration::cycles(
                p.window,
            ))));
            let profile_for = |w: &TestWrapper| {
                let scale = w.scan_config().chains() as f64 / 32.0;
                ScanPowerProfile {
                    base: p.wrapper_base * scale,
                    toggle_factor: p.wrapper_toggle * scale,
                }
            };
            for w in [&proc_wrapper, &color_wrapper, &dct_wrapper, &mem_wrapper] {
                w.attach_power_meter(Rc::clone(&meter), profile_for(w));
            }
            memory.attach_power_meter(handle, Rc::clone(&meter), p.memory_op);
            bus.attach_power_meter(Rc::clone(&meter), p.bus_active);
            meter
        });

        JpegEncoderSoc {
            handle: handle.clone(),
            config,
            bus,
            memory,
            color_core,
            dct_core,
            proc_wrapper,
            color_wrapper,
            dct_wrapper,
            mem_wrapper,
            codec,
            reseeding,
            ebi,
            ring,
            controller,
            processor,
            power_meter,
        }
    }

    /// Attaches an observability recorder to every instrumented block of
    /// the SoC — the system bus, all four test wrappers, the
    /// configuration scan ring and both memory-test engines — mirroring
    /// the power-meter fan-out. Call before running test sequences; the
    /// trace is then retrieved with [`tve_obs::Recorder::take_log`].
    pub(crate) fn attach_recorder(&self, recorder: &Rc<Recorder>) {
        self.bus.attach_recorder(Rc::clone(recorder));
        for w in [
            &self.proc_wrapper,
            &self.color_wrapper,
            &self.dct_wrapper,
            &self.mem_wrapper,
        ] {
            w.attach_recorder(Rc::clone(recorder));
        }
        self.ring.attach_recorder(Rc::clone(recorder));
        self.controller.attach_recorder(Rc::clone(recorder));
        self.processor.attach_recorder(Rc::clone(recorder));
    }

    /// A Virtual ATE attached to this SoC's ring and wrappers
    /// (wrapper indices match the `RING_*` constants).
    pub fn virtual_ate(&self) -> VirtualAte {
        VirtualAte::new(
            &self.handle,
            Rc::clone(&self.ring),
            vec![
                Rc::clone(&self.proc_wrapper),
                Rc::clone(&self.color_wrapper),
                Rc::clone(&self.dct_wrapper),
                Rc::clone(&self.mem_wrapper),
            ],
        )
    }

    /// The initiator id used by the embedded processor in functional mode.
    pub fn processor_initiator(&self) -> InitiatorId {
        initiators::PROCESSOR
    }

    /// The test wrapper of `core` — the injection point for scan-cell and
    /// WIR faults in a campaign.
    pub fn wrapper_of(&self, core: WrappedCore) -> &Rc<TestWrapper> {
        match core {
            WrappedCore::Processor => &self.proc_wrapper,
            WrappedCore::ColorConversion => &self.color_wrapper,
            WrappedCore::Dct => &self.dct_wrapper,
            WrappedCore::MemoryPeriphery => &self.mem_wrapper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_sim::Simulation;
    use tve_tlm::TamIfExt;

    #[test]
    fn soc_builds_with_paper_and_small_configs() {
        let sim = Simulation::new();
        let soc = JpegEncoderSoc::build(&sim.handle(), SocConfig::paper());
        assert_eq!(soc.bus.target_count(), 5);
        assert_eq!(soc.ring.client_count(), 6);
        assert_eq!(soc.memory.words(), 262_144);
        let sim2 = Simulation::new();
        let small = JpegEncoderSoc::build(&sim2.handle(), SocConfig::small());
        assert_eq!(small.memory.words(), 256);
    }

    #[test]
    fn dmi_chain_grants_in_quantum_mode_and_revokes_on_wir_load() {
        use tve_core::WrapperMode;
        use tve_sim::Duration;

        let mut sim = Simulation::with_quantum(Duration::cycles(4096));
        let soc = JpegEncoderSoc::build(&sim.handle(), SocConfig::small());
        let words = soc.config.memory_words;
        let bus = Rc::clone(&soc.bus);
        let wrapper = Rc::clone(&soc.mem_wrapper);
        let jh = sim.spawn(async move {
            // A window overhanging the memory mapping must not grant.
            assert!(Rc::clone(&bus)
                .dmi_window(MEM_BASE, words + 1, initiators::PROCESSOR)
                .is_none());
            let window = Rc::clone(&bus)
                .dmi_window(MEM_BASE, words, initiators::PROCESSOR)
                .expect("functional-mode memory window grants DMI");
            assert!(window.dmi_write(MEM_BASE + 3, 0xDEAD_BEEF));
            assert_eq!(window.dmi_read(MEM_BASE + 3), Some(0xDEAD_BEEF));
            // A WIR load revokes the outstanding grant...
            wrapper.load_config(WrapperMode::Bist.encode());
            assert!(!window.dmi_write(MEM_BASE + 3, 0));
            assert_eq!(window.dmi_read(MEM_BASE + 3), None);
            // ...and a non-forwarding mode declines fresh requests.
            assert!(Rc::clone(&bus)
                .dmi_window(MEM_BASE, words, initiators::PROCESSOR)
                .is_none());
            wrapper.load_config(WrapperMode::Functional.encode());
            assert!(Rc::clone(&bus)
                .dmi_window(MEM_BASE, words, initiators::PROCESSOR)
                .is_some());
        });
        sim.run();
        jh.try_take().expect("task ran to completion");
        // The two direct accesses hit the memory array and the wrapper's
        // forwarded counter just like transactional ones.
        let (reads, writes) = soc.memory.op_counts();
        assert_eq!((reads, writes), (1, 1));
        assert_eq!(soc.mem_wrapper.stats().forwarded, 2);
    }

    /// Another task alongside an accurate-mode word access.
    #[derive(Clone, Copy)]
    enum Sibling {
        None,
        /// Spawned after the accessing task: runnable when it accesses.
        Runnable,
        /// Spawned first, sleeping until this many cycles past one bus
        /// occupancy (`0`: a timer due exactly when the access ends).
        TimerAfterAccess(u64),
    }

    /// What a word write then read of `MEM_BASE + 5` leaves behind in
    /// accurate mode: which accesses DMI admitted, then bus (transfers,
    /// busy cycles, last activity end), end time, memory (reads,
    /// writes), wrapper forwards and kernel (polls, timers).
    type WordRun = ([bool; 2], (u64, u64, u64), u64, (u64, u64), u64, (u64, u64));

    /// Runs that access over a DMI grant falling back to the
    /// transactional path per access, as the test controller does
    /// (`dmi`), or transactionally only.
    fn word_run(dmi: bool, sibling: Sibling) -> WordRun {
        let mut sim = Simulation::new();
        let soc = JpegEncoderSoc::build(&sim.handle(), SocConfig::small());
        let occupancy = soc.bus.occupancy_of(32).as_cycles();
        if let Sibling::TimerAfterAccess(d) = sibling {
            let h = sim.handle();
            sim.spawn(async move { h.wait(tve_sim::Duration::cycles(occupancy + d)).await });
        }
        let (bus, words) = (Rc::clone(&soc.bus), soc.config.memory_words);
        let jh = sim.spawn(async move {
            let window = dmi.then(|| {
                Rc::clone(&bus)
                    .dmi_window(MEM_BASE, words, initiators::PROCESSOR)
                    .expect("functional-mode memory window grants DMI")
            });
            let addr = MEM_BASE + 5;
            let wrote = window.as_ref().is_some_and(|w| w.dmi_write(addr, 0xC0DE));
            if !wrote {
                bus.write(initiators::PROCESSOR, addr, &[0xC0DE], 32)
                    .await
                    .unwrap();
            }
            let read = window.as_ref().and_then(|w| w.dmi_read(addr));
            let word = match read {
                Some(word) => word,
                None => bus.read(initiators::PROCESSOR, addr, 32).await.unwrap()[0],
            };
            assert_eq!(word, 0xC0DE);
            [wrote, read.is_some()]
        });
        if let Sibling::Runnable = sibling {
            sim.spawn(async {});
        }
        let end = sim.run().cycles();
        let monitor = soc.bus.monitor();
        (
            jh.try_take().expect("task ran to completion"),
            (
                monitor.transfer_count(),
                monitor.total_busy_cycles(),
                monitor.last_activity_end().cycles(),
            ),
            end,
            soc.memory.op_counts(),
            soc.mem_wrapper.stats().forwarded,
            sim.kernel_stats(),
        )
    }

    #[test]
    fn accurate_dmi_is_admitted_exactly_when_the_access_completes_inline() {
        // A DMI word access is admitted exactly when the transactional
        // access would complete without suspending: not while a sibling
        // is runnable, nor when a timer is due at or before the end of
        // the access. Admitted or not, it leaves what the transactional
        // path leaves.
        for (sibling, admitted) in [
            (Sibling::None, [true, true]),
            // The sibling runs while the fallback write waits.
            (Sibling::Runnable, [false, true]),
            (Sibling::TimerAfterAccess(0), [false, true]),
            // The write ends before the timer; the read would end after.
            (Sibling::TimerAfterAccess(1), [true, false]),
        ] {
            let (flags, bus, end, mem, fwd, kernel) = word_run(true, sibling);
            let (none, bus0, end0, mem0, fwd0, kernel0) = word_run(false, sibling);
            assert_eq!((flags, none), (admitted, [false, false]));
            assert_eq!(
                (bus, end, mem, fwd, kernel),
                (bus0, end0, mem0, fwd0, kernel0)
            );
            assert_eq!((bus.0, mem, fwd), (2, (1, 1), 2));
        }
    }

    #[test]
    fn functional_memory_access_through_wrapper() {
        let mut sim = Simulation::new();
        let soc = JpegEncoderSoc::build(&sim.handle(), SocConfig::small());
        let bus = Rc::clone(&soc.bus);
        sim.spawn(async move {
            bus.write(initiators::PROCESSOR, MEM_BASE + 10, &[0xFEED], 32)
                .await
                .unwrap();
            let v = bus
                .read(initiators::PROCESSOR, MEM_BASE + 10, 32)
                .await
                .unwrap();
            assert_eq!(v, vec![0xFEED]);
        });
        sim.run();
        let (r, w) = soc.memory.op_counts();
        assert_eq!((r, w), (1, 1));
        assert!(soc.bus.monitor().total_busy_cycles() > 0);
    }

    #[test]
    fn ebi_must_be_enabled_before_ate_access() {
        let mut sim = Simulation::new();
        let soc = JpegEncoderSoc::build(&sim.handle(), SocConfig::small());
        let ebi = Rc::clone(&soc.ebi);
        let ring = Rc::clone(&soc.ring);
        let jh = sim.spawn(async move {
            let first = ebi.read(initiators::ATE, MEM_BASE, 32).await;
            ring.write(RING_EBI, 1).await;
            let second = ebi.read(initiators::ATE, MEM_BASE, 32).await;
            (first.is_err(), second.is_ok())
        });
        sim.run();
        assert_eq!(jh.try_take(), Some((true, true)));
    }

    #[test]
    fn tam_fault_config_interposes_the_adaptor() {
        let mut sim = Simulation::new();
        let cfg = SocConfig {
            tam_fault: Some(FaultyTamPolicy::drop(1, 1)),
            ..SocConfig::small()
        };
        let soc = JpegEncoderSoc::build(&sim.handle(), cfg);
        let ebi = Rc::clone(&soc.ebi);
        let ring = Rc::clone(&soc.ring);
        let jh = sim.spawn(async move {
            ring.write(RING_EBI, 1).await;
            ebi.read(initiators::ATE, MEM_BASE, 32).await.is_err()
        });
        sim.run();
        assert_eq!(jh.try_take(), Some(true), "every transaction is dropped");
    }

    #[test]
    fn scan_view_matches_built_wrappers() {
        let sim = Simulation::new();
        let cfg = SocConfig::small();
        let soc = JpegEncoderSoc::build(&sim.handle(), cfg.clone());
        for core in WrappedCore::ALL {
            let view = scan_view(&cfg, core);
            assert_eq!(
                soc.wrapper_of(core).scan_config(),
                tve_core::CoreModel::scan_config(&view),
                "{core:?}"
            );
        }
    }

    #[test]
    fn ring_reconfigures_wrappers() {
        use tve_core::WrapperMode;
        let mut sim = Simulation::new();
        let soc = JpegEncoderSoc::build(&sim.handle(), SocConfig::small());
        let ring = Rc::clone(&soc.ring);
        sim.spawn(async move {
            ring.write(RING_PROC, WrapperMode::Bist.encode()).await;
        });
        sim.run();
        assert_eq!(soc.proc_wrapper.mode(), tve_core::WrapperMode::Bist);
        assert_eq!(soc.color_wrapper.mode(), tve_core::WrapperMode::Functional);
    }
}
