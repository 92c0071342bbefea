//! The case-study SoC re-platformed on a mesh NoC TAM — the other end of
//! the paper's TAM spectrum (Section III.A), at full case-study scale.
//!
//! Same cores, wrappers, codec, EBI and configuration ring as
//! [`JpegEncoderSoc`](crate::JpegEncoderSoc), and the same seven test
//! sequences from the same builder, but the test data travels a 3×2 mesh
//! instead of the shared system bus: concurrent tests with disjoint routes
//! no longer contend, and the interesting metric becomes the *hottest
//! link* rather than one channel's utilization.

use std::rc::Rc;

use tve_core::{
    CodecConfig, ConfigClient, ConfigScanRing, DataPolicy, DecompressorCompactor, Ebi,
    SyntheticLogicCore, TestController, TestRun, TestWrapper, WrapperConfig,
};
use tve_noc::{MeshConfig, MeshNoc, NodeId};
use tve_sim::SimHandle;
use tve_tlm::{AddrRange, SinkTarget, TamIf};

use tve_tpg::{Compressor, ReseedingCodec};

use crate::cores::MemoryCore;
use crate::plan::{build_test_set, SocTestPlan, TestAccess};
use crate::soc::{
    initiators, SocConfig, CODEC_ADDR, COLOR_WRAPPER_ADDR, DCT_WRAPPER_ADDR, MEM_BASE,
    PROC_WRAPPER_ADDR,
};

/// Node placement of the NoC-TAM case study (3×2 mesh).
pub(crate) mod placement {
    use tve_noc::NodeId;
    /// Where the ATE's EBI injects.
    pub(crate) const ATE: NodeId = NodeId { x: 0, y: 0 };
    /// Processor wrapper and its decompressor/compactor.
    pub(crate) const PROC: NodeId = NodeId { x: 1, y: 0 };
    /// Embedded memory core.
    pub(crate) const MEM: NodeId = NodeId { x: 2, y: 0 };
    /// Color conversion wrapper.
    pub(crate) const COLOR: NodeId = NodeId { x: 0, y: 1 };
    /// DCT wrapper.
    pub(crate) const DCT: NodeId = NodeId { x: 1, y: 1 };
    /// Test controller and processor-march engine.
    pub(crate) const CONTROLLER: NodeId = NodeId { x: 2, y: 1 };
}

/// The JPEG encoder SoC with a mesh NoC as TAM.
pub struct NocJpegSoc {
    /// Kernel handle the SoC was built against.
    pub(crate) handle: SimHandle,
    /// The configuration in effect (bus-specific fields are ignored).
    pub(crate) config: SocConfig,
    /// The mesh TAM.
    pub noc: Rc<MeshNoc>,
    /// The decompressor/compactor in front of the processor wrapper.
    pub(crate) codec: Rc<DecompressorCompactor>,
    /// The reseeding compressor for full-data compressed tests.
    pub(crate) reseeding: Option<Rc<ReseedingCodec>>,
    /// The external bus interface to the ATE (downstream = a mesh port).
    pub(crate) ebi: Rc<Ebi>,
    /// The configuration scan ring.
    pub(crate) ring: Rc<ConfigScanRing>,
    /// The on-chip test controller (test 6).
    pub(crate) controller: Rc<TestController>,
    /// The processor as memory-test engine (test 7).
    pub(crate) processor: Rc<TestController>,
}

impl NocJpegSoc {
    /// Builds the NoC-TAM SoC. Link width is `config.bus_width_bits / 3`
    /// (the mesh spends its wire budget on several narrower links).
    pub fn build(handle: &SimHandle, config: SocConfig) -> Self {
        let noc = Rc::new(MeshNoc::new(
            handle,
            MeshConfig {
                cols: 3,
                rows: 2,
                link_width_bits: (config.bus_width_bits / 3).max(8),
                hop_overhead: 2,
            },
        ));

        let wrapper_cfg = |name: &str| WrapperConfig {
            name: name.to_string(),
            capture_cycles: config.capture_cycles,
            ..WrapperConfig::default()
        };
        let memory = Rc::new(MemoryCore::with_spares(
            "memory",
            MEM_BASE,
            config.memory_words as usize,
            config.memory_spares as usize,
        ));
        let proc_wrapper = Rc::new(TestWrapper::new(
            handle,
            wrapper_cfg("proc-wrapper"),
            Rc::new(SyntheticLogicCore::new(
                "processor",
                config.proc_scan,
                0x50C0,
            )),
        ));
        proc_wrapper.bind_functional(Rc::new(SinkTarget::new("proc-func")));
        let color_wrapper = Rc::new(TestWrapper::new(
            handle,
            wrapper_cfg("color-wrapper"),
            Rc::new(SyntheticLogicCore::new(
                "color-conv",
                config.color_scan,
                0xC010,
            )),
        ));
        let dct_wrapper = Rc::new(TestWrapper::new(
            handle,
            wrapper_cfg("dct-wrapper"),
            Rc::new(SyntheticLogicCore::new("dct", config.dct_scan, 0xDC70)),
        ));
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

        let bind = |node: NodeId, range: AddrRange, t: Rc<dyn TamIf>| {
            noc.bind(node, range, t)
                .expect("address map is conflict-free");
        };
        bind(
            placement::PROC,
            AddrRange::new(PROC_WRAPPER_ADDR, 0x1000),
            Rc::clone(&proc_wrapper) as Rc<dyn TamIf>,
        );
        bind(
            placement::PROC,
            AddrRange::new(CODEC_ADDR, 0x1000),
            Rc::clone(&codec) as Rc<dyn TamIf>,
        );
        bind(
            placement::COLOR,
            AddrRange::new(COLOR_WRAPPER_ADDR, 0x1000),
            Rc::clone(&color_wrapper) as Rc<dyn TamIf>,
        );
        bind(
            placement::DCT,
            AddrRange::new(DCT_WRAPPER_ADDR, 0x1000),
            Rc::clone(&dct_wrapper) as Rc<dyn TamIf>,
        );
        bind(
            placement::MEM,
            AddrRange::new(MEM_BASE, config.memory_words),
            Rc::clone(&memory) as Rc<dyn TamIf>,
        );

        let ebi = Rc::new(Ebi::new(
            handle,
            "ebi",
            Rc::new(noc.port(placement::ATE)) as Rc<dyn TamIf>,
            config.ate_down_rate,
            config.ate_up_rate,
        ));
        let ring = Rc::new(ConfigScanRing::new(
            handle,
            vec![
                Rc::clone(&proc_wrapper) as Rc<dyn ConfigClient>,
                Rc::clone(&color_wrapper) as Rc<dyn ConfigClient>,
                Rc::clone(&dct_wrapper) as Rc<dyn ConfigClient>,
                Rc::clone(&codec) as Rc<dyn ConfigClient>,
                Rc::clone(&ebi) as Rc<dyn ConfigClient>,
            ],
            config.ring_clock_div,
        ));
        let controller = Rc::new(TestController::new(
            handle,
            "test-controller",
            Rc::new(noc.port(placement::CONTROLLER)) as Rc<dyn TamIf>,
            initiators::CONTROLLER,
        ));
        let processor = Rc::new(TestController::new(
            handle,
            "processor-march",
            // The embedded processor sits at its own node; its march
            // traffic crosses the mesh to the memory.
            Rc::new(noc.port(placement::PROC)) as Rc<dyn TamIf>,
            initiators::PROCESSOR,
        ));

        NocJpegSoc {
            handle: handle.clone(),
            config,
            noc,
            codec,
            reseeding,
            ebi,
            ring,
            controller,
            processor,
        }
    }
}

/// Ring client index of the codec on the NoC SoC's (shorter) ring.
const NOC_RING_CODEC: usize = 3;
/// Ring client index of the EBI on the NoC SoC's ring.
const NOC_RING_EBI: usize = 4;

/// Builds the seven case-study test sequences against the NoC-TAM SoC,
/// through the same builder as [`build_test_runs`](crate::build_test_runs).
/// Only the access points differ: each on-chip BIST engine injects at its
/// own core's mesh node (per-core BIST — the NoC TAM's architectural
/// advantage: local test data never crosses a link), the ATE enters at
/// its corner, and the ring indices are those of this SoC's shorter ring.
pub fn build_test_runs_noc(soc: &NocJpegSoc, plan: &SocTestPlan) -> Vec<TestRun> {
    let port = |node| Rc::new(soc.noc.port(node));
    build_test_set(
        TestAccess {
            handle: &soc.handle,
            config: &soc.config,
            bist_proc: port(placement::PROC),
            bist_color: port(placement::COLOR),
            ebi: soc.ebi.clone(),
            codec: &soc.codec,
            reseeding: &soc.reseeding,
            ring: &soc.ring,
            ring_ebi: NOC_RING_EBI,
            ring_codec: NOC_RING_CODEC,
            controller: &soc.controller,
            processor: &soc.processor,
            recorder: None,
        },
        plan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::paper_schedules;
    use tve_core::execute_schedule;
    use tve_sim::Simulation;

    fn mini() -> SocConfig {
        let mut c = SocConfig::small();
        c.memory_words = 64;
        c
    }

    #[test]
    fn noc_soc_builds_and_routes() {
        let sim = Simulation::new();
        let soc = NocJpegSoc::build(&sim.handle(), mini());
        assert_eq!(soc.noc.link_count(), 14); // 3x2 mesh: 7 edges x 2
        assert_eq!(soc.ring.client_count(), 5);
        assert!(soc.noc.contains(placement::CONTROLLER));
    }

    #[test]
    fn all_four_schedules_run_clean_on_the_noc() {
        for schedule in paper_schedules() {
            let mut sim = Simulation::new();
            let soc = NocJpegSoc::build(&sim.handle(), mini());
            let tests = build_test_runs_noc(&soc, &SocTestPlan::small());
            let result = execute_schedule(&mut sim, tests, &schedule).unwrap();
            assert!(result.clean(), "{schedule}: {result}");
            assert!(soc.noc.total_busy_cycles() > 0);
            assert!(soc.noc.hottest_link().is_some());
        }
    }

    #[test]
    fn noc_runs_are_deterministic() {
        fn run() -> (u64, u64) {
            let mut sim = Simulation::new();
            let soc = NocJpegSoc::build(&sim.handle(), mini());
            let tests = build_test_runs_noc(&soc, &SocTestPlan::small());
            let result = execute_schedule(&mut sim, tests, &paper_schedules()[3]).unwrap();
            (result.total_cycles, soc.noc.total_busy_cycles())
        }
        assert_eq!(run(), run());
    }

    /// What one NoC run pins: total cycles, NoC busy cycles, the hottest
    /// link with its busy cycles, and an FNV-1a digest over every slot's
    /// name, patterns, stimulus and response bits, signature, start and
    /// end.
    fn noc_outcome(schedule: &tve_core::Schedule, policy: DataPolicy) -> (u64, u64, String, u64) {
        let mut sim = Simulation::new();
        let soc = NocJpegSoc::build(
            &sim.handle(),
            SocConfig {
                policy,
                ..SocConfig::small()
            },
        );
        let plan = SocTestPlan {
            policy,
            ..SocTestPlan::small()
        };
        let tests = build_test_runs_noc(&soc, &plan);
        let result = execute_schedule(&mut sim, tests, schedule).unwrap();
        assert!(result.clean(), "{schedule}: {result}");
        let mut bytes = Vec::new();
        for slot in &result.slots {
            let o = &slot.outcome;
            bytes.extend_from_slice(o.name.as_bytes());
            for v in [
                o.patterns,
                o.stimulus_bits,
                o.response_bits,
                o.signature.unwrap_or(0),
                o.start.cycles(),
                o.end.cycles(),
            ] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        let (link, busy) = soc.noc.hottest_link().unwrap();
        (
            result.total_cycles,
            soc.noc.total_busy_cycles(),
            format!("{link} {busy}"),
            tve_obs::fnv1a(&bytes),
        )
    }

    /// Every NoC slot outcome on [`SocConfig::small`], per paper schedule,
    /// in both data policies: the NoC test set must not drift.
    #[test]
    fn noc_outcomes_are_pinned() {
        let hot_proc = "(1,0)->(2,0) 9216";
        let hot_ctrl = "(2,1)->(2,0) 9216";
        let pins = [
            (
                DataPolicy::Volume,
                28138,
                9816,
                hot_proc,
                5717436879762532061,
            ),
            (
                DataPolicy::Volume,
                18516,
                9526,
                hot_ctrl,
                18444436867192108844,
            ),
            (
                DataPolicy::Volume,
                26358,
                9816,
                hot_proc,
                7035030993059879490,
            ),
            (
                DataPolicy::Volume,
                15868,
                9526,
                hot_ctrl,
                16082272697475836279,
            ),
            (DataPolicy::Full, 28138, 9816, hot_proc, 7667212336175954533),
            (DataPolicy::Full, 18616, 9556, hot_ctrl, 6857699945212484310),
            (
                DataPolicy::Full,
                26358,
                9816,
                hot_proc,
                10907249553100568986,
            ),
            (DataPolicy::Full, 15868, 9556, hot_ctrl, 2739006029981554550),
        ];
        let schedules = paper_schedules();
        for (k, (policy, cycles, busy, hottest, digest)) in pins.into_iter().enumerate() {
            let schedule = &schedules[k % 4];
            assert_eq!(
                noc_outcome(schedule, policy),
                (cycles, busy, hottest.to_string(), digest),
                "{schedule} under {policy:?}"
            );
        }
    }
}
