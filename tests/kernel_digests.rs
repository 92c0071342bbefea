//! Pinned-digest regression contract for the simulation kernel.
//!
//! The kernel rework (slab arena, batched wakeups) must not change what
//! any shipped scenario *computes*: these digests were recorded on the
//! pre-rework Rc/RefCell + `BinaryHeap` kernel and are pinned as
//! constants. Every future kernel change has to reproduce them byte for
//! byte in the default (cycle-accurate) mode. Only the opt-in
//! loosely-timed quantum mode (`Simulation::with_quantum`)
//! is allowed to diverge, and it is never enabled here.
//!
//! Pinned surfaces:
//! * the four Table I schedules at the benchmark workload
//!   (`--scale 100 --mem-words 2622`), via [`ScenarioMetrics::digest`],
//! * one campaign detection matrix (seeded population x 4 schedules),
//!   via an FNV-1a digest of the emitted CSV,
//! * traced vs untraced runs of the same scenario (must agree with each
//!   other *and* with the pinned value),
//! * the four schedules on the Full data policy, accurate and
//!   loosely-timed, so the bit-true pattern path (PRPG, ATE stimuli,
//!   reseeding codec, XOR compaction, MISR signatures) cannot drift,
//! * the kernel and TAM work (polls, fired timers, bus transfers) of
//!   both workloads, cycle-accurate.

use tve::campaign::{generate, run_campaign, CampaignConfig, PopulationSpec};
use tve::core::{execute_schedule, Schedule};
use tve::obs::{fnv1a, StoragePolicy};
use tve::sched::Farm;
use tve::sim::{Duration, Simulation};
use tve::soc::{
    build_test_runs, paper_schedules, run_scenario, run_scenario_prepared_traced,
    run_scenario_quantum, JpegEncoderSoc, PlanOverrides, SocConfig, SocTestPlan, Workload,
};

/// Digests of schedules 1-4 on the benchmark workload, recorded on the
/// pre-rework kernel (commit f665d55 lineage). Do not update these to
/// "fix" a kernel change: a mismatch means the kernel changed observable
/// scheduling behavior.
const TABLE1_DIGESTS: [u64; 4] = [
    0x01c61020aad3c538,
    0xd50650152762ea03,
    0x629381307a4d099a,
    0x57b67ecd2b7a9b5c,
];

/// FNV-1a digest of the campaign matrix CSV for the pinned population
/// below, recorded on the pre-rework kernel.
const CAMPAIGN_CSV_DIGEST: u64 = 0x09239e0fc894db27;

/// Digests of schedules 1-4 on the benchmark workload in loosely-timed
/// mode with a 1024-cycle quantum, recorded *before* the DMI fast path
/// for memory marches existed. DMI skips the per-op transactional chain
/// but must replicate every observable side effect (simulated time, bus
/// utilization, power, counters) exactly, so these digests are pinned:
/// a mismatch means the DMI path diverged from the transactional one.
const QUANTUM_1024_DIGESTS: [u64; 4] = [
    0x572dc3e2a3afbe29,
    0xffa1d33ae1a86a69,
    0xb61a4dd285f7c1c8,
    0xa5aed2cd5ed4c260,
];

/// Digests of schedules 1-4 on the Full data policy (the inputs of the
/// repo benchmark's `campaign_full` workload), cycle-accurate. These
/// cover every stimulus, response and signature bit: a mismatch means a
/// pattern generator, codec or compactor changed its output.
const FULL_DATA_DIGESTS: [u64; 4] = [
    0xcca62460d32715b3,
    0x6594b9856d058642,
    0xaa7fb9e09c630d4d,
    0x1a2acd1b95ed7cf3,
];

/// The same Full-data runs in loosely-timed mode, 1024-cycle quantum.
const FULL_DATA_QUANTUM_1024_DIGESTS: [u64; 4] = [
    0xcca62460d32715b3,
    0x3f9324a5c02ed488,
    0x28af8f323e7440fa,
    0x2928415a2671179c,
];

fn bench_workload() -> (SocConfig, SocTestPlan) {
    let mut config = SocConfig::paper();
    config.memory_words = 2622;
    (config, SocTestPlan::paper_scaled(100))
}

#[test]
fn table1_digests_are_pinned() {
    let (config, plan) = bench_workload();
    let got: Vec<u64> = paper_schedules()
        .iter()
        .map(|s| {
            run_scenario(&config, &plan, s)
                .expect("well-formed")
                .digest()
        })
        .collect();
    println!(
        "table1 digests: [{}]",
        got.iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert_eq!(
        got,
        TABLE1_DIGESTS.to_vec(),
        "kernel rework changed default-mode scenario results"
    );
}

#[test]
fn quantum_digests_are_pinned_across_dmi() {
    let (config, plan) = bench_workload();
    let got: Vec<u64> = paper_schedules()
        .iter()
        .map(|s| {
            run_scenario_quantum(&config, &plan, s, Duration::cycles(1024))
                .expect("well-formed")
                .digest()
        })
        .collect();
    println!(
        "quantum-1024 digests: [{}]",
        got.iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert_eq!(
        got,
        QUANTUM_1024_DIGESTS.to_vec(),
        "the loosely-timed DMI fast path changed quantum-mode results"
    );
}

/// The small SoC on the Full data policy with the pattern counts of the
/// repo benchmark's `campaign_full` workload.
fn full_data_workload() -> (SocConfig, SocTestPlan) {
    let mut overrides = PlanOverrides::default();
    for (key, patterns) in [
        ("bist_proc_patterns", 900),
        ("det_proc_patterns", 600),
        ("comp_proc_patterns", 300),
        ("bist_color_patterns", 600),
        ("det_dct_patterns", 600),
    ] {
        assert!(overrides.set(key, patterns), "unknown plan key {key}");
    }
    Workload::small()
        .with_mem_words(128)
        .with_overrides(overrides)
        .build()
}

#[test]
fn full_data_digests_are_pinned() {
    let (config, plan) = full_data_workload();
    let accurate: Vec<u64> = paper_schedules()
        .iter()
        .map(|s| {
            run_scenario(&config, &plan, s)
                .expect("well-formed")
                .digest()
        })
        .collect();
    let quantum: Vec<u64> = paper_schedules()
        .iter()
        .map(|s| {
            run_scenario_quantum(&config, &plan, s, Duration::cycles(1024))
                .expect("well-formed")
                .digest()
        })
        .collect();
    for (label, got) in [("accurate", &accurate), ("quantum-1024", &quantum)] {
        println!(
            "full-data {label} digests: [{}]",
            got.iter()
                .map(|d| format!("{d:#018x}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    assert_eq!(
        accurate,
        FULL_DATA_DIGESTS.to_vec(),
        "the bit-true pattern path changed accurate-mode results"
    );
    assert_eq!(
        quantum,
        FULL_DATA_QUANTUM_1024_DIGESTS.to_vec(),
        "the bit-true pattern path changed loosely-timed results"
    );
}

#[test]
fn traced_run_matches_pinned_digest() {
    let (config, plan) = bench_workload();
    let schedule = &paper_schedules()[3];
    let (traced, _log) =
        run_scenario_prepared_traced(&config, &plan, schedule, StoragePolicy::Ring(1024), |_| {})
            .expect("well-formed");
    let untraced = run_scenario(&config, &plan, schedule).expect("well-formed");
    assert_eq!(
        traced.digest(),
        untraced.digest(),
        "tracing perturbed the simulation"
    );
    assert_eq!(
        traced.digest(),
        TABLE1_DIGESTS[3],
        "traced run diverged from the pinned pre-rework digest"
    );
}

#[test]
fn campaign_matrix_digest_is_pinned() {
    let mut config = SocConfig::small();
    config.memory_words = 64;
    let spec = PopulationSpec {
        seed: 20090417,
        scan_cells_per_core: 1,
        memory_faults: 2,
        ..PopulationSpec::default()
    };
    let population = generate(&spec, &config);
    let campaign = CampaignConfig::new(
        config,
        SocTestPlan::small(),
        paper_schedules().to_vec(),
        population,
    );
    let report = run_campaign(&campaign, &Farm::with_workers(2));
    let got = fnv1a(report.to_csv().as_bytes());
    println!("campaign csv digest: {got:#018x}");
    assert_eq!(
        got, CAMPAIGN_CSV_DIGEST,
        "kernel rework changed the campaign detection matrix"
    );
}

/// Kernel and TAM work `(polls, timers fired, bus transfers)` of
/// schedules 1-4, cycle-accurate, through the public
/// `Simulation::kernel_stats` and `UtilizationMonitor::transfer_count`.
/// Digests pin what a run computes; these pin how much work the kernel
/// and the bus do to compute it. Transfers count simulated events and
/// must not move. Polls count task resumptions: a change that completes
/// more work inline may lower them on purpose, and CHANGES.md then
/// records the old and new values. Timers count completed waits: they
/// may fall only where a wait is no longer made at all (the EBI's
/// same-time hand-off skips a download wait that an inline transfer has
/// already run past), again with the values in CHANGES.md.
const BENCH_WORK: [(u64, u64, u64); 4] = [
    (17, 81_464, 40_732),
    (79_035, 82_065, 40_932),
    (554, 81_441, 40_732),
    (60_888, 82_062, 40_932),
];

/// The same counts on the Full data policy (`full_data_workload`).
const FULL_DATA_WORK: [(u64, u64, u64); 4] = [
    (21, 7_713, 3_854),
    (2_320, 8_012, 3_854),
    (4_774, 8_556, 3_854),
    (6_226, 8_398, 3_854),
];

/// Runs one schedule as `run_scenario` does and returns its work counts.
fn work_counts(config: &SocConfig, plan: &SocTestPlan, schedule: &Schedule) -> (u64, u64, u64) {
    let mut sim = Simulation::new();
    let soc = JpegEncoderSoc::build(&sim.handle(), config.clone());
    let tests = build_test_runs(&soc, plan);
    let result = execute_schedule(&mut sim, tests, schedule).expect("well-formed");
    assert!(result.clean(), "{} reported errors", schedule.name);
    let (polls, timers_fired) = sim.kernel_stats();
    let transfers = soc.bus.monitor().transfer_count();
    (polls, timers_fired, transfers)
}

#[test]
fn kernel_work_is_pinned() {
    for (label, (config, plan), pinned) in [
        ("bench", bench_workload(), BENCH_WORK),
        ("full-data", full_data_workload(), FULL_DATA_WORK),
    ] {
        let got: Vec<_> = paper_schedules()
            .iter()
            .map(|s| work_counts(&config, &plan, s))
            .collect();
        println!("{label} work (polls, timers, transfers): {got:?}");
        assert_eq!(
            got,
            pinned.to_vec(),
            "{label}: kernel or TAM work changed; polls may move only on purpose"
        );
    }
}
