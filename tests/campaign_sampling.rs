//! Statistical contracts of the budgeted campaign modes: the stratified
//! estimator's pinned-seed confidence intervals must bracket the
//! exhaustive truth, the whole estimate must be bit-deterministic for
//! any farm worker count, every skipped fault must be enumerated (a
//! budget never silently narrows coverage), and the coverage-guided
//! selector must recover the exhaustive escape set within half the cell
//! budget.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use tve::campaign::{
    generate, run_campaign, run_guided_campaign, run_sampled_campaign, stratum_of, CampaignConfig,
    CampaignReport, PopulationSpec,
};
use tve::sched::Farm;
use tve::soc::{paper_schedules, SocConfig, SocTestPlan};

/// A population with guaranteed escapes: scan cells on the unscanned
/// memory-periphery core are undetectable by construction, so the true
/// union coverage is strictly below 1 and the estimator has something
/// nontrivial to bracket. Infrastructure faults are excluded — they are
/// not part of the coverage denominator.
fn config() -> CampaignConfig {
    // 3 scan cells on each of 4 cores + 2 memory faults = 14 faults,
    // big enough that the guided pilot (one fault per stratum) leaves
    // the selector budget to actually chase the escape-prone stratum.
    config_with(3, 2, 64)
}

fn config_with(scan_cells_per_core: usize, memory_faults: usize, words: u32) -> CampaignConfig {
    let mut soc = SocConfig::small();
    soc.memory_words = words;
    let population = generate(
        &PopulationSpec {
            scan_cells_per_core,
            memory_faults,
            infrastructure: false,
            include_unscanned: true,
            ..PopulationSpec::default()
        },
        &soc,
    );
    let mut config = CampaignConfig::new(
        soc,
        SocTestPlan::small(),
        paper_schedules().to_vec(),
        population,
    );
    config.diagnosis = false;
    config
}

/// The exhaustive run, computed once: ground truth for every property.
fn exhaustive() -> &'static (CampaignConfig, CampaignReport, f64) {
    static TRUTH: OnceLock<(CampaignConfig, CampaignReport, f64)> = OnceLock::new();
    TRUTH.get_or_init(|| {
        let config = config();
        let report = run_campaign(&config, &Farm::with_workers(2));
        let escapes = report.union_escapes().len();
        let truth = 1.0 - escapes as f64 / config.population.len() as f64;
        assert!(
            escapes > 0,
            "escape-seeded population produced no escapes — these tests are vacuous"
        );
        (config, report, truth)
    })
}

#[test]
fn pinned_seed_intervals_bracket_the_exhaustive_truth() {
    let (config, _, truth) = exhaustive();
    let farm = Farm::with_workers(2);
    let budget = config.population.len() / 2;
    for seed in [1u64, 0x5EED_CA3A, 0xFFFF_FFFF_FFFF_FFFF] {
        let sampled = run_sampled_campaign(config, &farm, budget, seed);
        let estimate = sampled.estimate.expect("stratified mode estimates");
        assert!(
            estimate.ci_low <= *truth && *truth <= estimate.ci_high,
            "seed {seed:#x}: 95% CI [{:.4}, {:.4}] misses the truth {truth:.4}",
            estimate.ci_low,
            estimate.ci_high
        );
        assert!(estimate.ci_low <= estimate.coverage && estimate.coverage <= estimate.ci_high);
        assert!(
            sampled.spent_cells <= budget * config.schedules.len(),
            "selector overspent its budget"
        );
    }
}

#[test]
fn estimate_is_deterministic_for_any_worker_count() {
    let (config, _, _) = exhaustive();
    let a = run_sampled_campaign(config, &Farm::with_workers(1), 5, 42);
    let b = run_sampled_campaign(config, &Farm::with_workers(3), 5, 42);
    assert_eq!(a, b, "the sampled campaign depends on the worker count");
    assert_eq!(a.to_json(), b.to_json());

    let g1 = run_guided_campaign(config, &Farm::with_workers(1), 24, 1, 42);
    let g3 = run_guided_campaign(config, &Farm::with_workers(3), 24, 1, 42);
    assert_eq!(g1, g3, "the guided campaign depends on the worker count");
}

#[test]
fn every_skipped_fault_is_enumerated() {
    let (config, _, _) = exhaustive();
    let sampled = run_sampled_campaign(config, &Farm::with_workers(2), 4, 7);

    // sampled + skipped, across all strata, must tile the population
    // exactly — a budget narrows the run, never the accounting.
    let mut seen = BTreeSet::new();
    for stratum in &sampled.strata {
        for id in stratum.sampled.iter().chain(&stratum.skipped) {
            assert!(seen.insert(id.clone()), "fault {id} accounted twice");
        }
        // Core faults never break the test infrastructure, so every
        // sampled fault is either detected or an escape.
        assert_eq!(stratum.sampled.len(), stratum.detected + stratum.escapes);
    }
    let population: BTreeSet<String> = config.population.iter().map(|f| f.id()).collect();
    assert_eq!(seen, population, "accounting does not tile the population");

    // The JSON artifact carries the same enumeration.
    let json = sampled.to_json();
    tve::obs::check_json(&json).expect("sample JSON well-formed");
    for stratum in &sampled.strata {
        for id in &stratum.skipped {
            assert!(
                json.contains(&format!("\"{id}\"")),
                "skipped {id} not in JSON"
            );
        }
    }
}

#[test]
fn strata_names_cover_the_population() {
    let (config, _, _) = exhaustive();
    let sampled = run_sampled_campaign(config, &Farm::with_workers(2), 4, 7);
    let names: BTreeSet<&str> = sampled.strata.iter().map(|s| s.name.as_str()).collect();
    for fault in &config.population {
        assert!(
            names.contains(stratum_of(fault).as_str()),
            "fault {} has no stratum row",
            fault.id()
        );
    }
}

#[test]
fn guided_selector_recovers_the_escape_set_within_half_budget() {
    let (config, report, _) = exhaustive();
    let total_cells = config.population.len() * config.schedules.len();
    let truth: BTreeSet<&str> = report.union_escapes().into_iter().collect();

    let guided = run_guided_campaign(config, &Farm::with_workers(2), total_cells / 2, 1, 42);
    let found: BTreeSet<&str> = guided.report.union_escapes().into_iter().collect();
    assert_eq!(
        found, truth,
        "guided selector missed escapes within 50% of the cell budget"
    );
    assert!(guided.spent_cells <= total_cells / 2);
    assert!(
        guided.estimate.is_none(),
        "adaptive selection must not report a confidence interval"
    );
}

/// The larger population (4 scan cells per core, 4 memory faults, 128
/// words: 20 faults x 4 schedules = 80 cells) pinned exactly: the
/// stratified estimate at one seed, bit for bit, and the guided
/// selector's spend.
#[test]
fn larger_population_estimate_and_guided_spend_are_pinned() {
    let config = config_with(4, 4, 128);
    let farm = Farm::with_workers(2);
    let total_cells = config.population.len() * config.schedules.len();
    assert_eq!(total_cells, 80);
    let exhaustive = run_campaign(&config, &farm);
    let truth_escapes: BTreeSet<&str> = exhaustive.union_escapes().into_iter().collect();
    assert_eq!(truth_escapes.len(), 4);
    let truth = 1.0 - truth_escapes.len() as f64 / config.population.len() as f64;

    let sampled = run_sampled_campaign(&config, &farm, config.population.len() / 2, 0x5EED_CA3A);
    let estimate = sampled.estimate.expect("stratified mode estimates");
    assert_eq!(sampled.spent_cells, 40);
    // Shortest round-trip literals: `==` here is equality of the bits.
    assert_eq!(
        (estimate.coverage, estimate.ci_low, estimate.ci_high, truth),
        (0.8, 0.6102273017208482, 0.9897726982791519, 0.8)
    );

    let guided = run_guided_campaign(&config, &farm, total_cells / 2, 1, 0x5EED_CA3A);
    assert_eq!(guided.spent_cells, 40);
    let found: BTreeSet<&str> = guided.report.union_escapes().into_iter().collect();
    assert_eq!(found, truth_escapes);
}
