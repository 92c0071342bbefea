//! The soundness contract of the certified static bounds.
//!
//! **Soundness**: for every generated (SoC config × plan × schedule ×
//! quantum), the simulated `ScenarioMetrics` lands inside the static
//! [`ScheduleEnvelope`] — total cycles, per-TAM-channel busy cycles and
//! (when the power model is on) peak windowed power. Both TAM backends are
//! exercised in every case: the generated schedules always contain the
//! bus-fed tests (T1/T4/T6/T7) and the serial-fed ones (T2/T3/T5).
//!
//! **Exactness of pruning**: `explore_certified` with pruning returns a
//! Pareto front byte-identical to exhaustive exploration, and no pruned
//! candidate ever appears on the exhaustive front.

use proptest::prelude::*;

use tve::core::Schedule;
use tve::lint::{observe_metrics, schedule_envelope, soc_facts, task_bounds};
use tve::sched::{
    enumerate_schedules, estimate_tasks, explore_certified, CertifiedOutcome, Constraints,
};
use tve::sim::Duration;
use tve::soc::{
    paper_schedules, run_scenario, run_scenario_quantum, PowerParams, SocConfig, SocTestPlan,
};
use tve::tlm::ArbiterPolicy;
use tve::tpg::ScanConfig;

/// Deterministic splittable RNG (same update as the other contract tests).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A generated SoC + plan, small enough to simulate in milliseconds but
/// varied across chain geometry, bus and ATE-channel shape, data policy,
/// march composition and power metering.
fn generate_workload(rng: &mut SplitMix64) -> (SocConfig, SocTestPlan) {
    let mut cfg = SocConfig::small();
    let chains = 1 + rng.below(6) as u32;
    // >= 24 bits per pattern: T3's cube generator needs that many care
    // positions.
    let chain_len = 24 + rng.below(73) as u32;
    cfg.proc_scan = ScanConfig::new(chains, chain_len);
    cfg.color_scan = ScanConfig::new(1 + rng.below(4) as u32, 8 + rng.below(57) as u32);
    cfg.dct_scan = ScanConfig::new(1 + rng.below(3) as u32, 8 + rng.below(41) as u32);
    cfg.bus_width_bits = [16, 32, 48, 64][rng.below(4) as usize];
    cfg.bus_overhead = rng.below(4);
    cfg.capture_cycles = rng.below(9);
    cfg.arbiter = [
        ArbiterPolicy::Fcfs,
        ArbiterPolicy::RoundRobin,
        ArbiterPolicy::Priority,
    ][rng.below(3) as usize];
    cfg.ate_down_rate = (1 + rng.below(16), 1);
    cfg.ate_up_rate = (1 + rng.below(16), 1);
    cfg.decompress_ratio = (4 + rng.below(61)) as f64;
    cfg.compact_ratio = 2 + rng.below(15) as u32;
    cfg.controller_op_overhead = 1 + rng.below(8);
    cfg.processor_op_overhead = 1 + rng.below(8);
    cfg.memory_words = 32 + rng.below(225) as u32;
    cfg.power = (rng.below(2) == 0).then(|| PowerParams {
        window: [1024, 65_536][rng.below(2) as usize],
        ..PowerParams::default()
    });

    let mut plan = SocTestPlan::small();
    plan.bist_proc_patterns = 1 + rng.below(30);
    plan.det_proc_patterns = 1 + rng.below(30);
    plan.comp_proc_patterns = 1 + rng.below(30);
    plan.bist_color_patterns = 1 + rng.below(30);
    plan.det_dct_patterns = 1 + rng.below(30);
    plan.policy = if rng.below(2) == 0 {
        tve::core::DataPolicy::Volume
    } else {
        tve::core::DataPolicy::Full
    };
    (cfg, plan)
}

/// A random conflict-free schedule over all seven tests: a shuffled
/// permutation greedily packed into core-disjoint phases (the same
/// construction `tests/lint_contract.rs` proves lints and executes clean).
fn generate_schedule(
    rng: &mut SplitMix64,
    cfg: &SocConfig,
    plan: &SocTestPlan,
    name: String,
) -> Schedule {
    let facts = soc_facts(cfg, plan);
    let mut order: Vec<usize> = (0..facts.tests.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut phases: Vec<Vec<usize>> = Vec::new();
    for t in order {
        let compatible = |phase: &[usize]| {
            phase.iter().all(|&other| {
                facts.tests[t]
                    .cores
                    .iter()
                    .all(|c| !facts.tests[other].cores.contains(c))
            })
        };
        let slot = (rng.below(2) == 0)
            .then(|| phases.iter().position(|p| compatible(p)))
            .flatten();
        match slot {
            Some(i) => phases[i].push(t),
            None => phases.push(vec![t]),
        }
    }
    Schedule::new(name, phases)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The tentpole contract: simulation always lands inside the envelope,
    // in accurate mode and at every loosely-timed quantum.
    #[test]
    fn simulation_lands_inside_the_static_envelope(seed in any::<u64>(), q_idx in 0usize..4) {
        let quantum = [0u64, 64, 1024, 4096][q_idx];
        let mut rng = SplitMix64(seed);
        let (cfg, plan) = generate_workload(&mut rng);
        let schedule = generate_schedule(&mut rng, &cfg, &plan, format!("gen {seed:#x}"));
        let env = schedule_envelope(&cfg, &plan, &schedule, quantum);
        let metrics = if quantum == 0 {
            run_scenario(&cfg, &plan, &schedule)
        } else {
            run_scenario_quantum(&cfg, &plan, &schedule, Duration::cycles(quantum))
        }
        .expect("conflict-free schedules execute");
        let obs = observe_metrics(&metrics, &task_bounds(&cfg, &plan, quantum));
        let violations = env.check(&obs);
        prop_assert!(
            violations.is_empty(),
            "envelope violated for {:?} (quantum {quantum}):\n{}",
            schedule.phases,
            violations.join("\n")
        );
        if cfg.power.is_some() {
            prop_assert!(obs.peak_power.is_some(), "power model must be metered");
        }
    }

    // Pruning exactness on the mini workload: the certified front is
    // byte-identical to the exhaustive one for arbitrary power budgets and
    // extra candidate pools, and no pruned candidate is on the front.
    #[test]
    fn certified_front_is_byte_identical_to_exhaustive(seed in any::<u64>(), budget_sel in 0usize..4) {
        let mut cfg = SocConfig::small();
        cfg.memory_words = 32;
        let plan = SocTestPlan::small();
        let tasks = estimate_tasks(&cfg, &plan);
        let constraints = Constraints {
            tam_capacity: 1.0,
            power_budget: [u32::MAX, 500, 350, 250][budget_sel],
        };
        let mut rng = SplitMix64(seed);
        let mut extra: Vec<Schedule> = paper_schedules().into_iter().collect();
        extra.extend(enumerate_schedules(&tasks, &constraints, 4));
        for i in 0..3 {
            extra.push(generate_schedule(&mut rng, &cfg, &plan, format!("rand {seed:#x}/{i}")));
        }
        let exhaustive =
            explore_certified(&cfg, &plan, &tasks, &constraints, &extra, false);
        let certified =
            explore_certified(&cfg, &plan, &tasks, &constraints, &extra, true);
        prop_assert!(exhaustive.violations.is_empty(), "{:?}", exhaustive.violations);
        prop_assert!(certified.violations.is_empty(), "{:?}", certified.violations);
        prop_assert_eq!(exhaustive.pruned(), 0);
        let front = exhaustive.front_signature();
        prop_assert_eq!(
            &certified.front_signature(),
            &front,
            "pruning changed the front"
        );
        // No pruned candidate appears on the exhaustive front.
        for c in &certified.candidates {
            if let CertifiedOutcome::Pruned(p) = &c.outcome {
                prop_assert!(
                    !front.split(';').any(|pt| pt.starts_with(&format!("{}=", p.candidate))),
                    "pruned '{}' is on the exhaustive front {front}",
                    p.candidate
                );
            }
        }
    }
}

#[test]
fn paper_workload_sits_inside_its_envelopes_accurate_and_quantum() {
    // The reference workload at reduced pattern counts (and a matching
    // memory reduction, as the bench preset does), both TAM backends,
    // accurate and loosely-timed — the concrete anchor for the proptests.
    let mut cfg = SocConfig::paper();
    cfg.memory_words = 2622;
    let plan = SocTestPlan::paper_scaled(200);
    for quantum in [0u64, 1024] {
        for schedule in paper_schedules() {
            let env = schedule_envelope(&cfg, &plan, &schedule, quantum);
            let metrics = if quantum == 0 {
                run_scenario(&cfg, &plan, &schedule)
            } else {
                run_scenario_quantum(&cfg, &plan, &schedule, Duration::cycles(quantum))
            }
            .unwrap();
            let obs = observe_metrics(&metrics, &task_bounds(&cfg, &plan, quantum));
            let violations = env.check(&obs);
            assert!(
                violations.is_empty(),
                "{} (quantum {quantum}):\n{}",
                schedule.name,
                violations.join("\n")
            );
        }
    }
}

#[test]
fn paper_pool_prunes_29_of_31_candidates_with_an_identical_front() {
    // The paper workload at 1/200 pattern counts; the 4 paper schedules
    // plus 27 enumerated partitions.
    let mut cfg = SocConfig::paper();
    cfg.memory_words = 2622;
    let plan = SocTestPlan::paper_scaled(200);
    let tasks = estimate_tasks(&cfg, &plan);
    let constraints = Constraints {
        tam_capacity: 1.0,
        power_budget: 400,
    };
    let mut pool: Vec<Schedule> = paper_schedules().into_iter().collect();
    pool.extend(enumerate_schedules(&tasks, &constraints, 24));
    let exhaustive = explore_certified(&cfg, &plan, &tasks, &constraints, &pool, false);
    let certified = explore_certified(&cfg, &plan, &tasks, &constraints, &pool, true);
    assert!(
        exhaustive.violations.is_empty(),
        "{:?}",
        exhaustive.violations
    );
    assert!(
        certified.violations.is_empty(),
        "{:?}",
        certified.violations
    );
    assert_eq!(exhaustive.pruned(), 0);
    assert_eq!(certified.front_signature(), exhaustive.front_signature());
    assert_eq!(
        (
            certified.candidates.len(),
            certified.simulated(),
            certified.pruned(),
            certified.front_points().len()
        ),
        (31, 2, 29, 2)
    );
}
