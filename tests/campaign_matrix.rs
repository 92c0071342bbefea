//! End-to-end checks of the fault-injection campaign engine: the
//! acceptance criteria of the campaign subsystem, on a small population.
//!
//! * every injected stuck scan-cell and memory fault is detected by the
//!   union of the four Table-I schedules,
//! * every detected scan-cell fault is confirmed by diagnosis at exactly
//!   the injected (chain, position),
//! * the emitted matrix is byte-identical regardless of farm worker
//!   count,
//! * infrastructure faults (stuck WIR bits, broken config-ring segments,
//!   corrupting TAM channels) are detected or appear as named escapes —
//!   never silently absorbed,
//! * the untraced cells' time-to-detection equals the traced `Test`
//!   span end.

use tve::campaign::{
    apply_fault, generate, run_campaign, CampaignConfig, CellOutcome, FaultSpec, PopulationSpec,
};
use tve::core::{StuckCell, StuckWirBit};
use tve::obs::{earliest_span_end, SpanKind, StoragePolicy};
use tve::sched::Farm;
use tve::soc::{
    paper_schedules, run_scenario_prepared_traced, SocConfig, SocTestPlan, WrappedCore, RING_EBI,
};

fn small_soc() -> SocConfig {
    let mut cfg = SocConfig::small();
    cfg.memory_words = 64;
    cfg
}

fn campaign_config(population: Vec<FaultSpec>) -> CampaignConfig {
    CampaignConfig::new(
        small_soc(),
        SocTestPlan::small(),
        paper_schedules().to_vec(),
        population,
    )
}

#[test]
fn all_core_faults_detected_and_diagnosis_confirms() {
    let spec = PopulationSpec {
        seed: 20090417,
        scan_cells_per_core: 1,
        memory_faults: 2,
        ..PopulationSpec::default()
    };
    let population = generate(&spec, &small_soc());
    let config = campaign_config(population);
    let report = run_campaign(&config, &Farm::with_workers(2));

    assert_eq!(
        report.cells.len(),
        config.population.len() * 4,
        "one cell per (fault x schedule)"
    );

    // 100 % detection of core faults by the schedule union.
    assert!(
        report.union_escapes().is_empty(),
        "core faults escaped every schedule: {:?}",
        report.union_escapes()
    );
    // In this SoC every schedule runs all seven tests, so each schedule
    // individually reaches full core-fault coverage as well.
    for s in &report.schedules {
        assert_eq!(
            report.core_coverage(s),
            1.0,
            "schedule '{s}' missed core faults: {:?}",
            report.escapes(s)
        );
    }

    // Every detected scan-cell fault went to diagnosis and was located
    // at exactly the injected (chain, position).
    let scan_faults = config
        .population
        .iter()
        .filter(|f| matches!(f, FaultSpec::ScanCell { .. }))
        .count();
    assert_eq!(report.diagnosis.len(), scan_faults);
    for d in &report.diagnosis {
        assert!(
            d.confirmed,
            "{}: diagnosis located {:?}, injected {:?}",
            d.fault_id, d.located, d.injected
        );
        assert!(d.first_failing_pattern.is_some());
    }

    // Infrastructure faults never vanish: each is noticed somewhere
    // (detected or infra-failure) or is present as a per-schedule escape
    // row in the matrix.
    for fault in config.population.iter().filter(|f| f.is_infrastructure()) {
        let rows: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.fault_id == fault.id())
            .collect();
        assert_eq!(rows.len(), 4, "{fault}: one row per schedule");
        let noticed = rows.iter().any(|c| c.outcome.noticed());
        let named_escape = rows.iter().any(|c| c.outcome == CellOutcome::Escape);
        assert!(
            noticed || named_escape,
            "{fault}: absent from both detections and escapes"
        );
    }
}

#[test]
fn matrix_is_byte_identical_across_worker_counts() {
    let spec = PopulationSpec {
        seed: 7,
        scan_cells_per_core: 1,
        memory_faults: 1,
        infrastructure: false,
        ..PopulationSpec::default()
    };
    let population = generate(&spec, &small_soc());
    let mut config = campaign_config(population);
    config.diagnosis = false;

    let serial = run_campaign(&config, &Farm::with_workers(1));
    let parallel = run_campaign(&config, &Farm::with_workers(8));
    assert_eq!(serial, parallel, "reports diverge across worker counts");
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_json(), parallel.to_json());
    tve::obs::check_json(&serial.to_json()).expect("campaign JSON is well-formed");
}

#[test]
fn wir_stuck_bit_fault_is_caught() {
    // WIR bit 0 stuck at 1 turns the BIST opcode (100) into an invalid
    // one (101), dropping the wrapper to functional mode: pattern writes
    // land in the functional sink and the signature read returns zeros,
    // so the BIST outcome must deviate from the golden run.
    let fault = FaultSpec::WirStuck {
        core: WrappedCore::Processor,
        fault: StuckWirBit {
            bit: 0,
            value: true,
        },
    };
    let mut config = campaign_config(vec![fault]);
    config.diagnosis = false;
    let report = run_campaign(&config, &Farm::with_workers(2));
    assert_eq!(report.cells.len(), 4);
    for cell in &report.cells {
        assert!(
            matches!(cell.outcome, CellOutcome::Detected { .. }),
            "WIR stuck bit escaped '{}': {:?}",
            cell.schedule,
            cell.outcome
        );
    }
}

#[test]
fn ring_breaks_and_tam_corruption_are_never_silent() {
    let population = vec![
        FaultSpec::RingBreak { index: 0 },
        FaultSpec::RingBreak { index: RING_EBI },
        FaultSpec::TamCorruption {
            policy: tve::tlm::FaultyTamPolicy::corrupt(99, 3),
        },
    ];
    let mut config = campaign_config(population);
    config.diagnosis = false;
    let report = run_campaign(&config, &Farm::with_workers(2));
    for cell in &report.cells {
        assert!(
            cell.outcome.noticed(),
            "infrastructure fault {} slipped through '{}' unnoticed",
            cell.fault_id,
            cell.schedule
        );
    }
}

#[test]
fn prescreen_skips_defective_schedules_instead_of_panicking() {
    // A duplicate-test schedule would panic the golden baseline; with the
    // static pre-screen it runs zero simulations and is reported instead.
    let fault = FaultSpec::ScanCell {
        core: WrappedCore::Processor,
        cell: StuckCell {
            chain: 0,
            position: 1,
            value: true,
        },
    };
    let mut schedules = paper_schedules().to_vec();
    schedules.push(tve::core::Schedule::new(
        "defective (dup)",
        vec![vec![0], vec![0]],
    ));
    let mut config = CampaignConfig::new(small_soc(), SocTestPlan::small(), schedules, vec![fault])
        .with_prescreen();
    config.diagnosis = false;
    let report = run_campaign(&config, &Farm::with_workers(2));
    // The defective schedule is gone from the matrix but named in the
    // report, with the diagnostic code that condemned it.
    assert_eq!(report.schedules.len(), 4);
    assert_eq!(report.cells.len(), 4, "one cell per surviving schedule");
    assert_eq!(report.prescreened.len(), 1);
    assert_eq!(report.prescreened[0].schedule, "defective (dup)");
    assert_eq!(report.prescreened[0].codes, vec!["sched-dup-test"]);
    let json = report.to_json();
    assert!(
        json.contains("defective (dup)"),
        "prescreen missing in JSON"
    );
    tve::obs::check_json(&json).expect("campaign JSON is well-formed");
}

#[test]
fn scan_fault_detection_latency_is_plausible() {
    // A processor scan fault is caught by T1 (the first proc test in
    // every schedule), so its detection latency must be well below the
    // schedule's total length.
    let fault = FaultSpec::ScanCell {
        core: WrappedCore::Processor,
        cell: StuckCell {
            chain: 0,
            position: 3,
            value: true,
        },
    };
    let mut config = campaign_config(vec![fault]);
    config.diagnosis = false;
    let report = run_campaign(&config, &Farm::with_workers(1));
    for cell in &report.cells {
        match &cell.outcome {
            CellOutcome::Detected {
                latency_cycles,
                deviating,
            } => {
                assert!(*latency_cycles > 0);
                assert!(
                    deviating.iter().any(|n| n.contains("proc")),
                    "'{}': deviation blamed on {deviating:?}",
                    cell.schedule
                );
            }
            other => panic!(
                "'{}': proc scan fault not detected: {other:?}",
                cell.schedule
            ),
        }
    }
}

/// Cells run untraced and take time-to-detection from their slot
/// outcomes. That must equal what a traced run of the same cell gives:
/// the earliest end of a deviating test's `Test` span.
#[test]
fn slot_derived_latency_equals_traced_test_span_end() {
    let spec = PopulationSpec {
        seed: 20090417,
        scan_cells_per_core: 1,
        memory_faults: 2,
        ..PopulationSpec::default()
    };
    let mut config = campaign_config(generate(&spec, &small_soc()));
    config.diagnosis = false;
    let report = run_campaign(&config, &Farm::with_workers(2));
    let cells = config
        .population
        .iter()
        .flat_map(|fault| config.schedules.iter().map(move |s| (fault, s)));
    let mut detected = 0;
    for (cell, (fault, schedule)) in report.cells.iter().zip(cells) {
        assert_eq!(
            (cell.fault_id.as_str(), cell.schedule.as_str()),
            (fault.id().as_str(), schedule.name.as_str())
        );
        let CellOutcome::Detected {
            latency_cycles,
            deviating,
        } = &cell.outcome
        else {
            continue;
        };
        let mut soc = config.soc.clone();
        if let FaultSpec::TamCorruption { policy } = fault {
            soc.tam_fault = Some(*policy);
        }
        let (metrics, log) = run_scenario_prepared_traced(
            &soc,
            &config.plan,
            schedule,
            StoragePolicy::Unbounded,
            |soc| apply_fault(soc, fault),
        )
        .unwrap();
        let names: Vec<&str> = deviating.iter().map(String::as_str).collect();
        let traced = earliest_span_end(log.spans.iter(), SpanKind::Test, &names)
            .map_or(metrics.total_cycles, |t| t.cycles());
        assert_eq!(
            *latency_cycles, traced,
            "{} x {}",
            cell.fault_id, cell.schedule
        );
        detected += 1;
    }
    assert!(detected > 0, "the pinned population has detected cells");
}
