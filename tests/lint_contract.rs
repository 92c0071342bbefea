//! The two-sided contract between `tve-lint` and the dynamic layer.
//!
//! **Soundness**: a schedule with no error-severity diagnostics never
//! produces a `ScheduleError` or an unclean run when actually simulated —
//! checked over the four Table-I schedules and a population of generated
//! conflict-free schedules farmed in one parallel batch.
//!
//! **Usefulness**: every `ScheduleError` variant, and every seeded
//! structural defect (core race, WIR conflict, stale ring config, power
//! overcommit, dead test), is caught *statically* with the right
//! diagnostic code — before any simulator exists.

use tve::core::{Schedule, ScheduleError};
use tve::lint::{
    codes, lint_program, lint_schedule, lint_schedule_report, soc_facts, Severity, WirWrite,
};
use tve::sched::{Farm, ScenarioJob};
use tve::soc::{paper_schedules, run_scenario, SocConfig, SocTestPlan, RING_MEM};

fn small_soc() -> SocConfig {
    let mut cfg = SocConfig::small();
    cfg.memory_words = 64;
    cfg
}

/// The deterministic splittable RNG used across the workspace for
/// reproducible populations (same update as `tve-campaign`'s sampler).
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

/// Generates a conflict-free schedule over the seven tests: a random
/// permutation greedily packed into phases whose members never claim a
/// common core (which, for this plan, also implies WIR compatibility),
/// with random phase breaks for shape diversity. Every test appears
/// exactly once, so the result must lint clean and execute clean.
fn random_conflict_free_schedule(rng: &mut SplitMix64, name: String) -> Schedule {
    let facts = soc_facts(&SocConfig::small(), &SocTestPlan::small());
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
        // Half the time try to join an existing compatible phase.
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

#[test]
fn soundness_paper_schedules_lint_clean_and_execute_clean() {
    let cfg = small_soc();
    let plan = SocTestPlan::small();
    let facts = soc_facts(&cfg, &plan);
    let jobs: Vec<ScenarioJob> = paper_schedules()
        .into_iter()
        .inspect(|s| {
            let report = lint_schedule_report(s, &facts);
            assert!(report.clean(), "'{}' has lint errors:\n{report}", s.name);
        })
        .map(|s| ScenarioJob::new(cfg.clone(), plan.clone(), s))
        .collect();
    let batch = Farm::new().run(&jobs);
    for outcome in &batch.outcomes {
        let metrics = outcome.expect_metrics();
        assert!(
            metrics.result.clean(),
            "lint-clean '{}' executed unclean: {}",
            outcome.label,
            metrics.result
        );
    }
}

#[test]
fn soundness_holds_over_generated_conflict_free_schedules() {
    // >= 100 generated schedules: all lint clean, then the whole
    // population is validated dynamically in one parallel farm batch.
    const POPULATION: usize = 120;
    let cfg = small_soc();
    let plan = SocTestPlan::small();
    let facts = soc_facts(&cfg, &plan);
    let mut rng = SplitMix64(0x2009_0417);
    let jobs: Vec<ScenarioJob> = (0..POPULATION)
        .map(|i| {
            let s = random_conflict_free_schedule(&mut rng, format!("generated {i}"));
            let report = lint_schedule_report(&s, &facts);
            assert!(report.clean(), "'{}' has lint errors:\n{report}", s.name);
            ScenarioJob::new(cfg.clone(), plan.clone(), s)
        })
        .collect();
    let batch = Farm::new().run(&jobs);
    assert!(batch.all_ok(), "a lint-clean schedule failed dynamically");
    for outcome in &batch.outcomes {
        assert!(
            outcome.expect_metrics().result.clean(),
            "lint-clean '{}' executed unclean",
            outcome.label
        );
    }
}

#[test]
fn usefulness_every_schedule_error_variant_is_predicted_statically() {
    // For each ScheduleError variant: the analyzer reports a diagnostic
    // whose code is exactly `err.code()`, and the dynamic layer then
    // fails with exactly that error.
    let cfg = small_soc();
    let plan = SocTestPlan::small();
    let facts = soc_facts(&cfg, &plan);
    let cases = [
        (Schedule::new("none", vec![]), ScheduleError::Empty),
        (
            Schedule::new("hole", vec![vec![0], vec![]]),
            ScheduleError::EmptyPhase,
        ),
        (
            Schedule::new("oob", vec![vec![9]]),
            ScheduleError::IndexOutOfRange(9),
        ),
        (
            Schedule::new("dup", vec![vec![0], vec![0]]),
            ScheduleError::DuplicateTest(0),
        ),
    ];
    for (schedule, want) in cases {
        let diags = lint_schedule(&schedule, &facts);
        let hit = diags
            .iter()
            .find(|d| d.code == want.code())
            .unwrap_or_else(|| panic!("'{}': no {} diagnostic", schedule.name, want.code()));
        assert_eq!(hit.severity, Severity::Error);
        assert_eq!(
            run_scenario(&cfg, &plan, &schedule).unwrap_err(),
            want,
            "'{}': dynamic error differs from the static prediction",
            schedule.name
        );
    }
}

#[test]
fn usefulness_merged_phases_of_any_paper_schedule_race_on_a_core() {
    // Merging the first two phases of every Table-I schedule puts two
    // processor tests in one phase — the analyzer must call the race.
    let facts = soc_facts(&SocConfig::small(), &SocTestPlan::small());
    for s in paper_schedules() {
        let mut phases = s.phases.clone();
        assert!(phases.len() >= 2);
        let merged_tail = phases.remove(1);
        phases[0].extend(merged_tail);
        let merged = Schedule::new(format!("{} (merged)", s.name), phases);
        let diags = lint_schedule(&merged, &facts);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::CORE_RACE && d.severity == Severity::Error),
            "'{}': merged phases not flagged: {diags:?}",
            merged.name
        );
    }
}

#[test]
fn usefulness_remaining_defect_classes_have_codes() {
    let base = soc_facts(&SocConfig::small(), &SocTestPlan::small());

    // Power overcommit: a budget below any phase's summed peak power.
    let hot = Schedule::new(
        "hot",
        vec![vec![0, 3], vec![1], vec![2], vec![4], vec![5], vec![6]],
    );
    let diags = lint_schedule(&hot, &base.clone().with_budget(200.0));
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::POWER_OVERCOMMIT && d.severity == Severity::Error),
        "{diags:?}"
    );

    // Stale ring config: a test latches a test mode into the memory
    // wrapper's client, then a march test needs it functional.
    let mut facts = base.clone();
    facts.tests[0].wir.push(WirWrite {
        client: RING_MEM,
        value: 3,
    });
    let stale = Schedule::new("stale", vec![vec![0], vec![5]]);
    let diags = lint_schedule(&stale, &facts);
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::RING_STALE && d.severity == Severity::Error),
        "{diags:?}"
    );

    // WIR conflict: two tests configuring one client differently.
    let mut facts = base.clone();
    facts.tests[3].wir = vec![WirWrite {
        client: 5,
        value: 7,
    }];
    let conflict = Schedule::new("wir", vec![vec![1, 3]]);
    let diags = lint_schedule(&conflict, &facts);
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::WIR_CONFLICT && d.severity == Severity::Error),
        "{diags:?}"
    );

    // Dead test: a warning, never an error (the schedule still runs).
    let partial = Schedule::new("partial", vec![vec![0]]);
    let diags = lint_schedule(&partial, &base);
    let dead: Vec<_> = diags
        .iter()
        .filter(|d| d.code == codes::DEAD_TEST)
        .collect();
    assert_eq!(dead.len(), 6);
    assert!(dead.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn usefulness_program_defects_are_caught_with_spans() {
    let facts = soc_facts(&SocConfig::small(), &SocTestPlan::small());
    let text = "config 9 bist\nrun 0\nrun 0\nexpect 7 0x1\n";
    let diags = lint_program("defects", text, &facts);
    for code in [
        codes::PROG_UNKNOWN_CLIENT,
        codes::PROG_DUP_RUN,
        codes::PROG_UNKNOWN_WRAPPER,
    ] {
        assert!(
            diags.iter().any(|d| d.code == code),
            "missing {code}: {diags:?}"
        );
    }
    // A parse failure carries the parser's exact span.
    let diags = lint_program("broken", "wait 5\nfrobnicate 1\n", &facts);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, codes::PROG_PARSE);
    assert_eq!(
        diags[0].location,
        tve::lint::Location::Span { line: 2, column: 1 }
    );
}
