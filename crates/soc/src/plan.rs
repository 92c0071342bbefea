//! The case study's test plan (paper Section IV): the seven test sequences,
//! the four schedules, and the scenario runner producing Table I's metrics.

use std::fmt;
use std::rc::Rc;

use tve_core::{
    execute_schedule_traced, ConfigScanRing, DataPolicy, DecompressorCompactor, MemoryTestPlan,
    ReadBack, ScanKind, ScanSource, Schedule, ScheduleError, ScheduleResult, TestController,
    TestRun, WrapperMode,
};
use tve_memtest::{MarchTest, PatternTest};
use tve_obs::{Recorder, StoragePolicy, TraceLog};
use tve_sim::{Duration, SimHandle, Simulation};
use tve_tlm::TamIf;
use tve_tpg::ReseedingCodec;

use crate::soc::{
    initiators, JpegEncoderSoc, SocConfig, CODEC_ADDR, COLOR_WRAPPER_ADDR, DCT_WRAPPER_ADDR,
    MEM_BASE, PROC_WRAPPER_ADDR, RING_CODEC, RING_COLOR, RING_DCT, RING_EBI, RING_PROC,
};

/// Pattern counts for the seven test sequences.
///
/// The paper's counts ([`SocTestPlan::paper`]): 100 k pseudo-random
/// patterns for the processor BIST, 20 k deterministic (plain and 50×
/// compressed), 10 k for the color conversion BIST, 10 k for the DCT, and
/// MATS+ plus pattern tests over the full 1 MiB memory, controller- and
/// processor-driven.
#[derive(Debug, Clone)]
pub struct SocTestPlan {
    /// Test 1: processor LBIST pattern count.
    pub bist_proc_patterns: u64,
    /// Test 2: deterministic processor patterns (uncompressed, from ATE).
    pub det_proc_patterns: u64,
    /// Test 3: deterministic processor patterns at 50× compression.
    pub comp_proc_patterns: u64,
    /// Test 4: color conversion LBIST pattern count.
    pub bist_color_patterns: u64,
    /// Test 5: deterministic DCT patterns (from ATE).
    pub det_dct_patterns: u64,
    /// Memory march algorithm (tests 6 and 7).
    pub march: MarchTest,
    /// Memory background pattern tests (tests 6 and 7).
    pub pattern_tests: Vec<PatternTest>,
    /// Data policy for all sequences.
    pub policy: DataPolicy,
    /// Seed for all pattern generation.
    pub seed: u64,
}

impl SocTestPlan {
    /// The paper's pattern counts and memory test composition.
    pub fn paper() -> Self {
        SocTestPlan {
            bist_proc_patterns: 100_000,
            det_proc_patterns: 20_000,
            comp_proc_patterns: 20_000,
            bist_color_patterns: 10_000,
            det_dct_patterns: 10_000,
            march: MarchTest::mats_plus(),
            pattern_tests: vec![
                PatternTest::Checkerboard,
                PatternTest::Solid(0),
                PatternTest::Solid(u32::MAX),
                PatternTest::Solid(0x0F0F_0F0F),
                PatternTest::AddressInData,
            ],
            policy: DataPolicy::Volume,
            seed: 0xDA7E_2009,
        }
    }

    /// A proportionally scaled-down plan (`1/divisor` of every pattern
    /// count) for quick exploration runs.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn paper_scaled(divisor: u64) -> Self {
        assert!(divisor > 0, "divisor must be positive");
        let p = Self::paper();
        SocTestPlan {
            bist_proc_patterns: (p.bist_proc_patterns / divisor).max(1),
            det_proc_patterns: (p.det_proc_patterns / divisor).max(1),
            comp_proc_patterns: (p.comp_proc_patterns / divisor).max(1),
            bist_color_patterns: (p.bist_color_patterns / divisor).max(1),
            det_dct_patterns: (p.det_dct_patterns / divisor).max(1),
            ..p
        }
    }

    /// A tiny full-data plan for validation runs on [`SocConfig::small`].
    pub fn small() -> Self {
        SocTestPlan {
            bist_proc_patterns: 30,
            det_proc_patterns: 20,
            comp_proc_patterns: 10,
            bist_color_patterns: 20,
            det_dct_patterns: 20,
            march: MarchTest::mats_plus(),
            pattern_tests: vec![PatternTest::Checkerboard, PatternTest::AddressInData],
            policy: DataPolicy::Full,
            seed: 7,
        }
    }
}

/// Builds the seven test sequences of Section IV as schedulable
/// [`TestRun`]s, indexed `0..=6` for tests 1–7.
///
/// Each run first configures its target infrastructure over the
/// configuration scan ring (the step a hand-written test program can get
/// wrong — which the Virtual ATE then catches).
pub fn build_test_runs(soc: &JpegEncoderSoc, plan: &SocTestPlan) -> Vec<TestRun> {
    build_test_runs_traced(soc, plan, None)
}

/// [`build_test_runs`] with observability: when a recorder is given, every
/// pattern source additionally records its run as a
/// [`tve_obs::SpanKind::Burst`] span on its `src/<name>` track.
pub(crate) fn build_test_runs_traced(
    soc: &JpegEncoderSoc,
    plan: &SocTestPlan,
    recorder: Option<&Rc<Recorder>>,
) -> Vec<TestRun> {
    build_test_set(
        TestAccess {
            handle: &soc.handle,
            config: &soc.config,
            bist_proc: soc.bus.clone(),
            bist_color: soc.bus.clone(),
            ebi: soc.ebi.clone(),
            codec: &soc.codec,
            reseeding: &soc.reseeding,
            ring: &soc.ring,
            ring_ebi: RING_EBI,
            ring_codec: RING_CODEC,
            controller: &soc.controller,
            processor: &soc.processor,
            recorder,
        },
        plan,
    )
}

/// What the seven Section IV test sequences need from a SoC. The BIST
/// engines of tests 1 and 4 inject at `bist_proc` and `bist_color`, the
/// ATE of tests 2, 3 and 5 at `ebi`; `ring_ebi` and `ring_codec` are the
/// SoC's own ring indices of the EBI and the codec; `controller` and
/// `processor` drive the memory tests 6 and 7. With a `recorder`, every
/// pattern source records its run as a span. The bus and the NoC SoC
/// each fill one in.
pub(crate) struct TestAccess<'a> {
    pub(crate) handle: &'a SimHandle,
    pub(crate) config: &'a SocConfig,
    pub(crate) bist_proc: Rc<dyn TamIf>,
    pub(crate) bist_color: Rc<dyn TamIf>,
    pub(crate) ebi: Rc<dyn TamIf>,
    pub(crate) codec: &'a DecompressorCompactor,
    pub(crate) reseeding: &'a Option<Rc<ReseedingCodec>>,
    pub(crate) ring: &'a Rc<ConfigScanRing>,
    pub(crate) ring_ebi: usize,
    pub(crate) ring_codec: usize,
    pub(crate) controller: &'a Rc<TestController>,
    pub(crate) processor: &'a Rc<TestController>,
    pub(crate) recorder: Option<&'a Rc<Recorder>>,
}

/// The one builder of the seven Section IV test sequences, over any SoC
/// described by a [`TestAccess`].
pub(crate) fn build_test_set(soc: TestAccess<'_>, plan: &SocTestPlan) -> Vec<TestRun> {
    let cfg = soc.config;
    let recorder = soc.recorder;
    let (ring_ebi, ring_codec) = (soc.ring_ebi, soc.ring_codec);
    let mut runs = Vec::new();

    // Tests 1-5, the scan tests: BIST of the processor and the color
    // conversion core, deterministic tests of the processor (plain and
    // with 50x compressed test data) and of the DCT core. Each first
    // writes its ring segments: the ATE tests enable the EBI, and test 3
    // activates the codec too.
    let (bist, int_test) = (WrapperMode::Bist.encode(), WrapperMode::IntTest.encode());
    let ate = ScanKind::Ate {
        read_back: ReadBack::Combined,
    };
    let compressed = ScanKind::Compressed {
        compressed_bits: match plan.policy {
            DataPolicy::Volume => soc.codec.compressed_bits(),
            // Full data: the compressed stream is one reseeding seed.
            DataPolicy::Full => 64,
        },
        compacted_bits: soc.codec.compacted_bits(),
        codec: soc.reseeding.clone(),
        cares_per_cube: 24,
    };
    let scan_tests = [
        (
            "T1 proc BIST",
            soc.bist_proc,
            PROC_WRAPPER_ADDR,
            initiators::BIST_PROC,
            cfg.proc_scan,
            plan.bist_proc_patterns,
            1,
            ScanKind::Bist,
            vec![(RING_PROC, bist)],
        ),
        (
            "T2 proc det",
            Rc::clone(&soc.ebi),
            PROC_WRAPPER_ADDR,
            initiators::ATE,
            cfg.proc_scan,
            plan.det_proc_patterns,
            2,
            ate.clone(),
            vec![(ring_ebi, 1), (RING_PROC, int_test)],
        ),
        (
            "T3 proc det 50x",
            Rc::clone(&soc.ebi),
            CODEC_ADDR,
            initiators::ATE,
            cfg.proc_scan,
            plan.comp_proc_patterns,
            3,
            compressed,
            vec![(ring_ebi, 1), (RING_PROC, int_test), (ring_codec, 1)],
        ),
        (
            "T4 color BIST",
            soc.bist_color,
            COLOR_WRAPPER_ADDR,
            initiators::BIST_COLOR,
            cfg.color_scan,
            plan.bist_color_patterns,
            4,
            ScanKind::Bist,
            vec![(RING_COLOR, bist)],
        ),
        (
            "T5 dct det",
            soc.ebi,
            DCT_WRAPPER_ADDR,
            initiators::ATE,
            cfg.dct_scan,
            plan.det_dct_patterns,
            5,
            ate,
            vec![(ring_ebi, 1), (RING_DCT, int_test)],
        ),
    ];
    for (name, port, addr, initiator, scan, patterns, seed_mask, kind, ring_writes) in scan_tests {
        let ring = Rc::clone(soc.ring);
        let mut src = ScanSource::new(
            soc.handle,
            name,
            port,
            addr,
            initiator,
            scan,
            patterns,
            plan.policy,
            plan.seed ^ seed_mask,
            kind,
        );
        if let Some(rec) = recorder {
            src = src.with_recorder(Rc::clone(rec));
        }
        runs.push(TestRun::new(name, async move {
            for (segment, value) in ring_writes {
                ring.write(segment, value).await;
            }
            src.run().await
        }));
    }

    // Tests 6 and 7: the same array tests, driven by the controller's
    // dedicated BIST engine and by the processor from L1 cache. The
    // engine pipelines its accesses: the deep posted queue lets it
    // recover bandwidth lost while long scan bursts hold the TAM (and
    // thus saturate a contended one). The processor's load/store loop
    // completes each access before the next.
    for (engine, name, op_overhead, posted_depth) in [
        (
            soc.controller,
            "T6 mem march (ctrl)",
            cfg.controller_op_overhead,
            128,
        ),
        (
            soc.processor,
            "T7 mem march (proc)",
            cfg.processor_op_overhead,
            1,
        ),
    ] {
        let engine = Rc::clone(engine);
        let p = MemoryTestPlan {
            name: name.to_string(),
            march: plan.march.clone(),
            patterns: plan.pattern_tests.clone(),
            base_addr: MEM_BASE,
            words: cfg.memory_words,
            op_overhead: Duration::cycles(op_overhead),
            posted_depth,
            policy: plan.policy,
        };
        runs.push(TestRun::new(name, async move {
            engine.run_memory_test(&p).await
        }));
    }

    runs
}

/// The four test schedules of Section IV (test indices are zero-based:
/// test *k* of the paper is index `k-1`).
pub fn paper_schedules() -> [Schedule; 4] {
    [
        // 1) Sequential: tests 1, 2, 4, 5, 7.
        Schedule::new(
            "schedule 1 (seq, uncompressed)",
            vec![vec![0], vec![1], vec![3], vec![4], vec![6]],
        ),
        // 2) Sequential: tests 1, 3, 4, 5, 6.
        Schedule::new(
            "schedule 2 (seq, compressed)",
            vec![vec![0], vec![2], vec![3], vec![4], vec![5]],
        ),
        // 3) Concurrent {1,5}, then {2,4}, then 7.
        Schedule::new(
            "schedule 3 (conc, uncompressed)",
            vec![vec![0, 4], vec![1, 3], vec![6]],
        ),
        // 4) Concurrent {1,5}, then {3,4,6}.
        Schedule::new(
            "schedule 4 (conc, compressed)",
            vec![vec![0, 4], vec![2, 3, 5]],
        ),
    ]
}

/// Power figures of one simulated scenario (present when the SoC config
/// enables the power model).
#[derive(Debug, Clone)]
pub struct PowerSummary {
    /// Peak windowed power.
    pub peak: f64,
    /// Average power over the schedule.
    pub average: f64,
    /// Total energy (power x cycles).
    pub energy: f64,
    /// Per-component energy, alphabetically.
    pub per_source: Vec<(String, f64)>,
}

/// Table-I-style metrics of one simulated scenario.
#[derive(Debug, Clone)]
pub struct ScenarioMetrics {
    /// Schedule name.
    pub schedule: String,
    /// Peak TAM utilization in `[0, 1]`.
    pub peak_utilization: f64,
    /// Average TAM utilization in `[0, 1]`.
    pub avg_utilization: f64,
    /// Test length in cycles.
    pub total_cycles: u64,
    /// Host CPU time spent simulating.
    pub cpu: std::time::Duration,
    /// Power figures, when metered.
    pub power: Option<PowerSummary>,
    /// The underlying per-test results.
    pub result: ScheduleResult,
}

impl ScenarioMetrics {
    /// FNV-1a digest of every simulation-determined field — everything
    /// except host CPU times, which vary run to run. Two runs of the same
    /// scenario must produce equal digests regardless of host load or
    /// how many farm workers ran alongside; see `tve-sched`'s farm
    /// determinism tests.
    pub fn digest(&self) -> u64 {
        let mut h = tve_obs::Fnv1a::new();
        let mut eat = |b: &[u8]| h.write(b);
        eat(self.schedule.as_bytes());
        eat(&self.peak_utilization.to_bits().to_le_bytes());
        eat(&self.avg_utilization.to_bits().to_le_bytes());
        eat(&self.total_cycles.to_le_bytes());
        if let Some(p) = &self.power {
            eat(&p.peak.to_bits().to_le_bytes());
            eat(&p.average.to_bits().to_le_bytes());
            eat(&p.energy.to_bits().to_le_bytes());
            for (name, energy) in &p.per_source {
                eat(name.as_bytes());
                eat(&energy.to_bits().to_le_bytes());
            }
        }
        for slot in &self.result.slots {
            let o = &slot.outcome;
            eat(&(slot.phase as u64).to_le_bytes());
            eat(o.name.as_bytes());
            eat(&o.patterns.to_le_bytes());
            eat(&o.stimulus_bits.to_le_bytes());
            eat(&o.response_bits.to_le_bytes());
            eat(&o.signature.unwrap_or(0).to_le_bytes());
            eat(&o.mismatches.to_le_bytes());
            eat(&o.errors.to_le_bytes());
            for addr in &o.failing_addresses {
                eat(&addr.to_le_bytes());
            }
            eat(&o.start.cycles().to_le_bytes());
            eat(&o.end.cycles().to_le_bytes());
        }
        h.finish()
    }
}

impl fmt::Display for ScenarioMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: peak {:.0}%, avg {:.0}%, {:.1} Mcycles, {:.2?} CPU",
            self.schedule,
            self.peak_utilization * 100.0,
            self.avg_utilization * 100.0,
            self.total_cycles as f64 / 1e6,
            self.cpu
        )
    }
}

/// Builds a fresh SoC, executes `schedule` over the plan's test sequences
/// cycle-accurately, and reports the Table I metrics for that scenario.
/// [`run_scenario_quantum`] is the loosely-timed entry point.
///
/// # Errors
///
/// Returns [`ScheduleError`] if `schedule` is not well-formed for the
/// seven-test list.
pub fn run_scenario(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
) -> Result<ScenarioMetrics, ScheduleError> {
    run_scenario_impl(config, plan, schedule, Duration::ZERO, None, |_| {})
}

/// [`run_scenario`] at a loosely-timed quantum: a zero quantum is the
/// default cycle-accurate mode, a nonzero quantum opts into temporal
/// decoupling.
/// Results are deterministic for a fixed quantum; see
/// `tests/kernel_digests.rs` for the pinned digests of both modes.
///
/// # Errors
///
/// Returns [`ScheduleError`] if `schedule` is not well-formed for the
/// seven-test list.
pub fn run_scenario_quantum(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    quantum: Duration,
) -> Result<ScenarioMetrics, ScheduleError> {
    run_scenario_impl(config, plan, schedule, quantum, None, |_| {})
}

/// [`run_scenario`] with a preparation hook: `prepare` runs on the freshly
/// built SoC before any test sequence is constructed or executed — the
/// injection point of a fault campaign (stuck scan cells, memory faults,
/// WIR faults, broken ring segments).
///
/// With a no-op hook this is exactly [`run_scenario`].
///
/// # Errors
///
/// Returns [`ScheduleError`] if `schedule` is not well-formed for the
/// seven-test list.
pub fn run_scenario_prepared<F: FnOnce(&JpegEncoderSoc)>(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    prepare: F,
) -> Result<ScenarioMetrics, ScheduleError> {
    run_scenario_impl(config, plan, schedule, Duration::ZERO, None, prepare)
}

/// [`run_scenario_prepared`] with observability: a [`Recorder`] of the
/// given storage policy is attached to every block before `prepare` runs,
/// and the recorded [`TraceLog`] is returned (export it with
/// [`tve_obs::write_chrome_trace`] or [`tve_obs::write_spans_csv`]). Its
/// `Test` spans mirror the slot outcomes, which is why campaign cells can
/// run untraced and still report the same time-to-detection.
///
/// Tracing is pure observation: the metrics — including
/// [`ScenarioMetrics::digest`] — are identical to an untraced run; pass
/// `|_| {}` as `prepare` to trace a plain [`run_scenario`].
///
/// # Errors
///
/// Returns [`ScheduleError`] if `schedule` is not well-formed for the
/// seven-test list.
pub fn run_scenario_prepared_traced<F: FnOnce(&JpegEncoderSoc)>(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    storage: StoragePolicy,
    prepare: F,
) -> Result<(ScenarioMetrics, TraceLog), ScheduleError> {
    let rec = Rc::new(Recorder::new(storage));
    let metrics = run_scenario_impl(config, plan, schedule, Duration::ZERO, Some(&rec), prepare)?;
    Ok((metrics, rec.take_log()))
}

fn run_scenario_impl<F: FnOnce(&JpegEncoderSoc)>(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    quantum: Duration,
    recorder: Option<&Rc<Recorder>>,
    prepare: F,
) -> Result<ScenarioMetrics, ScheduleError> {
    // A zero quantum is the cycle-accurate mode (digest-stable, see
    // `tests/kernel_digests.rs`); a nonzero one opts this scenario into
    // loosely-timed temporal decoupling, where timings — and therefore
    // digests — may differ.
    let mut sim = Simulation::with_quantum(quantum);
    let soc = JpegEncoderSoc::build(&sim.handle(), config.clone());
    if let Some(rec) = recorder {
        soc.attach_recorder(rec);
    }
    prepare(&soc);
    let tests = build_test_runs_traced(&soc, plan, recorder);
    let result = execute_schedule_traced(&mut sim, tests, schedule, recorder)?;
    soc.bus.observe_monitor_until(sim.now());
    if let Some(rec) = recorder {
        // Keep the trace's observation span consistent with the monitor's,
        // so utilization recomputed from spans matches the monitor exactly.
        rec.observe_until(sim.now());
    }
    let monitor = soc.bus.monitor();
    // Average over the full observed activity span (simulation start to
    // last bus activity): consistent with the windows peak detection uses.
    let span = monitor.last_activity_end();
    let power = soc.power_meter.as_ref().map(|meter| {
        let mut m = meter.borrow_mut();
        m.observe_until(sim.now());
        let span = m.last_activity_end();
        PowerSummary {
            peak: m.peak_power(),
            average: m.average_power(span),
            energy: m.total_energy(),
            per_source: m.per_source().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    });
    Ok(ScenarioMetrics {
        schedule: schedule.name.clone(),
        peak_utilization: monitor.peak_utilization(),
        avg_utilization: monitor.average_utilization(span),
        total_cycles: result.total_cycles,
        cpu: result.wall,
        power,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_config() -> SocConfig {
        SocConfig {
            memory_words: 64,
            ..SocConfig::small()
        }
    }

    #[test]
    fn paper_schedules_are_well_formed() {
        for s in paper_schedules() {
            s.validate(7).unwrap();
        }
    }

    #[test]
    fn all_four_scenarios_run_clean_on_miniature() {
        let cfg = mini_config();
        let plan = SocTestPlan::small();
        for schedule in paper_schedules() {
            let m = run_scenario(&cfg, &plan, &schedule).unwrap();
            assert!(m.result.clean(), "{schedule:?}: {}", m.result);
            assert!(m.total_cycles > 0);
            assert!(m.peak_utilization > 0.0 && m.peak_utilization <= 1.0);
            assert!(m.avg_utilization > 0.0 && m.avg_utilization <= 1.0);
            assert!(m.peak_utilization >= m.avg_utilization);
        }
    }

    #[test]
    fn concurrent_schedules_are_shorter_sequential_equal_volume() {
        // On the miniature: schedule 3 must beat schedule 1 (same tests),
        // schedule 4 must beat schedule 2.
        let cfg = mini_config();
        let plan = SocTestPlan {
            policy: DataPolicy::Volume,
            ..SocTestPlan::small()
        };
        let s = paper_schedules();
        let m: Vec<_> = s
            .iter()
            .map(|sched| run_scenario(&cfg, &plan, sched).unwrap())
            .collect();
        assert!(
            m[2].total_cycles < m[0].total_cycles,
            "concurrency must shorten schedule 1: {} vs {}",
            m[2].total_cycles,
            m[0].total_cycles
        );
        assert!(
            m[3].total_cycles < m[1].total_cycles,
            "concurrency must shorten schedule 2: {} vs {}",
            m[3].total_cycles,
            m[1].total_cycles
        );
    }

    #[test]
    fn full_policy_produces_signatures() {
        let cfg = mini_config();
        let plan = SocTestPlan::small();
        let m = run_scenario(&cfg, &plan, &paper_schedules()[0]).unwrap();
        let t1 = m.result.slot("T1 proc BIST").unwrap();
        assert!(t1.outcome.signature.is_some());
        let t2 = m.result.slot("T2 proc det").unwrap();
        assert!(t2.outcome.signature.is_some());
    }

    #[test]
    fn traced_scenario_is_bit_identical_and_captures_spans() {
        use tve_obs::{SpanKind, StoragePolicy};
        let cfg = mini_config();
        let plan = SocTestPlan::small();
        let schedule = &paper_schedules()[2];
        let plain = run_scenario(&cfg, &plan, schedule).unwrap();
        let (traced, log) =
            run_scenario_prepared_traced(&cfg, &plan, schedule, StoragePolicy::Unbounded, |_| {})
                .unwrap();
        assert_eq!(plain.digest(), traced.digest(), "tracing must not perturb");
        // Every instrumented layer shows up: bus transfers, wrapper scans,
        // ring rotations, schedule phases and per-test spans.
        let tracks = log.tracks();
        assert!(tracks.contains(&"system-bus/TAM"), "{tracks:?}");
        assert!(tracks.contains(&"proc-wrapper"), "{tracks:?}");
        assert!(tracks.contains(&"config-ring"), "{tracks:?}");
        assert!(tracks.contains(&"schedule"), "{tracks:?}");
        assert!(tracks.contains(&"tests"), "{tracks:?}");
        assert!(log
            .spans_on("system-bus/TAM", SpanKind::Transfer)
            .next()
            .is_some());
        assert_eq!(
            log.spans_on("schedule", SpanKind::Phase).count(),
            schedule.phases.len()
        );
        // An Off recorder keeps no spans and still changes nothing.
        let (off, off_log) =
            run_scenario_prepared_traced(&cfg, &plan, schedule, StoragePolicy::Off, |_| {})
                .unwrap();
        assert_eq!(off.digest(), plain.digest());
        assert!(off_log.spans.is_empty());
    }

    #[test]
    fn prepared_hook_injects_faults_and_noop_matches_plain() {
        use crate::soc::WrappedCore;
        use tve_core::StuckCell;
        let cfg = mini_config();
        let plan = SocTestPlan::small();
        let schedule = &paper_schedules()[0];
        let plain = run_scenario(&cfg, &plan, schedule).unwrap();
        let noop = run_scenario_prepared(&cfg, &plan, schedule, |_| {}).unwrap();
        assert_eq!(plain.digest(), noop.digest(), "no-op hook must be inert");
        let faulty = run_scenario_prepared(&cfg, &plan, schedule, |soc| {
            soc.wrapper_of(WrappedCore::Processor)
                .inject_fault(Some(StuckCell {
                    chain: 0,
                    position: 3,
                    value: true,
                }));
        })
        .unwrap();
        assert_ne!(
            plain.digest(),
            faulty.digest(),
            "stuck cell must move the digest"
        );
    }

    #[test]
    fn scaled_plan_divides_counts() {
        let p = SocTestPlan::paper_scaled(100);
        assert_eq!(p.bist_proc_patterns, 1000);
        assert_eq!(p.det_dct_patterns, 100);
    }
}
