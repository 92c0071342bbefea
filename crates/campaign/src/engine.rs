//! The campaign engine: golden baselines, the (fault × schedule) matrix
//! fanned over the validation farm, and the diagnosis cross-check.

use std::collections::BTreeMap;
use std::rc::Rc;

use tve_core::{diagnose_bist, CoreModel, Schedule, StuckCell, TestWrapper, WrapperConfig};
use tve_sched::Farm;
use tve_sim::Simulation;
use tve_soc::{
    run_scenario_prepared, scan_view, JpegEncoderSoc, ScenarioMetrics, SocConfig, SocTestPlan,
    WrappedCore,
};

use crate::fault::FaultSpec;
use crate::matrix::{CampaignReport, CellOutcome, DiagnosisCheck};

/// Everything a campaign run needs, as plain (clonable) data.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The SoC under campaign.
    pub soc: SocConfig,
    /// The test plan every schedule executes.
    pub plan: SocTestPlan,
    /// The schedules to validate (typically the four Table-I schedules).
    pub schedules: Vec<Schedule>,
    /// The fault population (see [`crate::generate`]).
    pub population: Vec<FaultSpec>,
    /// Whether to run the diagnosis cross-check on detected scan faults.
    pub diagnosis: bool,
    /// BIST patterns per diagnosis run.
    pub diagnosis_patterns: u64,
    /// Signature-window size of the diagnosis phase 1.
    pub diagnosis_window: u64,
    /// Whether to statically pre-screen the schedules (`tve-lint`) and
    /// skip — rather than panic on — statically-rejected ones. Skipped
    /// schedules are recorded in [`CampaignReport::prescreened`].
    pub(crate) prescreen: bool,
}

impl CampaignConfig {
    /// A campaign over `schedules` with sensible diagnosis defaults.
    pub fn new(
        soc: SocConfig,
        plan: SocTestPlan,
        schedules: Vec<Schedule>,
        population: Vec<FaultSpec>,
    ) -> Self {
        CampaignConfig {
            soc,
            plan,
            schedules,
            population,
            diagnosis: true,
            diagnosis_patterns: 96,
            diagnosis_window: 16,
            prescreen: false,
        }
    }

    /// The same campaign with the static pre-screen enabled.
    #[must_use]
    pub fn with_prescreen(mut self) -> Self {
        self.prescreen = true;
        self
    }
}

/// Applies `fault` to a freshly built SoC (the `prepare` hook of
/// [`run_scenario_prepared`]). TAM corruption is config-driven
/// (the adaptor must exist before the EBI binds to the bus) and is a
/// no-op here.
pub fn apply_fault(soc: &JpegEncoderSoc, fault: &FaultSpec) {
    match fault {
        FaultSpec::ScanCell { core, cell } => {
            soc.wrapper_of(*core).inject_fault(Some(*cell));
        }
        FaultSpec::Memory { fault } => soc.memory.inject(*fault),
        FaultSpec::TamCorruption { .. } => {}
        FaultSpec::WirStuck { core, fault } => {
            soc.wrapper_of(*core).inject_wir_fault(Some(*fault));
        }
        FaultSpec::RingBreak { index } => soc.ring.break_segment(Some(*index)),
    }
}

/// The per-core BIST seed the plan's pattern sources use — diagnosis
/// replays the same pseudo-random stream.
fn plan_seed(plan: &SocTestPlan, core: WrappedCore) -> u64 {
    match core {
        WrappedCore::Processor => plan.seed ^ 1,
        WrappedCore::ColorConversion => plan.seed ^ 4,
        WrappedCore::Dct => plan.seed ^ 5,
        WrappedCore::MemoryPeriphery => plan.seed ^ 6,
    }
}

fn classify(golden: &ScenarioMetrics, faulty: &ScenarioMetrics) -> CellOutcome {
    if golden.digest() == faulty.digest() {
        return CellOutcome::Escape;
    }
    // Which tests deviated? Prefer data deviations (pattern counts,
    // signatures, mismatches, errors, failing addresses); fall back to
    // timing-only shifts when the data is identical but the digest moved.
    let golden_by_name: BTreeMap<&str, _> = golden
        .result
        .slots
        .iter()
        .map(|s| (s.outcome.name.as_str(), &s.outcome))
        .collect();
    let data_of = |o: &tve_core::TestOutcome| {
        (
            o.patterns,
            o.stimulus_bits,
            o.response_bits,
            o.signature,
            o.mismatches,
            o.errors,
            o.failing_addresses.clone(),
        )
    };
    let mut deviating: Vec<String> = faulty
        .result
        .slots
        .iter()
        .filter(|s| {
            golden_by_name
                .get(s.outcome.name.as_str())
                .is_none_or(|g| data_of(g) != data_of(&s.outcome))
        })
        .map(|s| s.outcome.name.clone())
        .collect();
    if deviating.is_empty() {
        deviating = faulty
            .result
            .slots
            .iter()
            .filter(|s| {
                golden_by_name
                    .get(s.outcome.name.as_str())
                    .is_none_or(|g| (g.start, g.end) != (s.outcome.start, s.outcome.end))
            })
            .map(|s| s.outcome.name.clone())
            .collect();
    }
    // Time-to-detection: the earliest completion of a deviating test —
    // the first simulated moment the tester could have flagged the part.
    // Each slot's outcome is exactly its test's `Test` span in a traced
    // run, so the cell needs no recorder.
    let latency_cycles = faulty
        .result
        .slots
        .iter()
        .filter(|s| deviating.contains(&s.outcome.name))
        .map(|s| s.outcome.end.cycles())
        .min()
        .unwrap_or(faulty.total_cycles);
    CellOutcome::Detected {
        latency_cycles,
        deviating,
    }
}

/// Runs one (fault × schedule) cell: builds a fresh SoC from `soc`,
/// injects `fault`, executes `schedule` under `plan`, and classifies the
/// outcome against the `golden` baseline of the same schedule.
///
/// This is exactly the per-cell body the campaign walk
/// ([`crate::run_campaign_shard_with`]) fans over the farm, exposed so
/// harnesses can time individual cells.
///
/// # Panics
///
/// Panics if `schedule` is not well-formed for the seven-test `plan`.
pub fn run_cell(
    soc: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    fault: &FaultSpec,
    golden: &ScenarioMetrics,
) -> CellOutcome {
    let mut soc = soc.clone();
    if let FaultSpec::TamCorruption { policy } = fault {
        soc.tam_fault = Some(*policy);
    }
    let metrics = run_scenario_prepared(&soc, plan, schedule, |soc| apply_fault(soc, fault))
        .unwrap_or_else(|e| panic!("schedule '{}' rejected: {e}", schedule.name));
    classify(golden, &metrics)
}

/// Takes one detected scan-cell fault to the (simulated) diagnosis
/// station: replays the plan's BIST stream against a golden and a faulty
/// wrapper and checks the located cell against the injected one.
///
/// Public for the same reason as [`run_cell`]: harnesses time
/// diagnosis checks individually.
pub fn diagnose_scan_fault(
    config: &CampaignConfig,
    core: WrappedCore,
    cell: StuckCell,
) -> DiagnosisCheck {
    let mut sim = Simulation::new();
    let handle = sim.handle();
    let model = Rc::new(scan_view(&config.soc, core));
    let scan = model.scan_config();
    let wrapper = |name: &str| {
        Rc::new(TestWrapper::new(
            &handle,
            WrapperConfig {
                name: name.to_string(),
                capture_cycles: config.soc.capture_cycles,
                ..WrapperConfig::default()
            },
            Rc::clone(&model) as Rc<dyn CoreModel>,
        ))
    };
    let golden = wrapper("diag-golden");
    let dut = wrapper("diag-dut");
    dut.inject_fault(Some(cell));
    let seed = plan_seed(&config.plan, core);
    let (patterns, window) = (config.diagnosis_patterns, config.diagnosis_window);
    let h = handle.clone();
    let g = Rc::clone(&golden);
    let d = Rc::clone(&dut);
    let jh =
        sim.spawn(async move { diagnose_bist(&h, &g, &d, scan, seed, patterns, window).await });
    sim.run();
    let report = jh.try_take().expect("diagnosis completes");
    let confirmed = report.failing_cells.len() == 1
        && report.failing_cells[0].chain == cell.chain
        && report.failing_cells[0].position == cell.position;
    DiagnosisCheck {
        fault_id: FaultSpec::ScanCell { core, cell }.id(),
        core,
        injected: cell,
        located: report.failing_cells.clone(),
        first_failing_pattern: report.first_failing_pattern,
        confirmed,
    }
}

/// Runs the full campaign on `farm`: golden baselines per schedule, then
/// every (fault × schedule) cell in parallel, then the diagnosis
/// cross-check on detected scan-cell faults.
///
/// Results are in submission order — fault-major, schedule-minor, exactly
/// the population × schedule order of `config` — regardless of worker
/// count, so the emitted matrix is byte-identical for any `TVE_JOBS`.
///
/// With `config.prescreen` set, every schedule is first linted against
/// the plan's static facts; schedules with error-severity diagnostics run
/// **zero** simulations and are reported in
/// [`CampaignReport::prescreened`] with their diagnostic codes — a
/// defective schedule costs microseconds instead of a golden-run panic.
///
/// This function is literally [`merge_shards`](crate::merge_shards) over
/// the single full shard `1/1` — the sharded scale-out path and the
/// single-process path are the same code, so `--shard k/n` runs merge to
/// artifacts byte-identical to this one by construction.
///
/// # Panics
///
/// Panics if a schedule is not well-formed for the seven-test plan (the
/// golden baseline fails), or if a golden run reports test errors. With
/// `config.prescreen` set, structurally defective schedules are screened
/// out before they can trip those panics.
pub fn run_campaign(config: &CampaignConfig, farm: &Farm) -> CampaignReport {
    let full = crate::shard::run_campaign_shard(config, farm, crate::shard::ShardSpec::full());
    crate::shard::merge_shards(config, std::slice::from_ref(&full))
        .expect("the full shard covers every cell")
}
