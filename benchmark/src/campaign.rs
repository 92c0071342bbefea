//! `campaign_full`: a bit-true fault campaign on the small SoC — the only
//! workload on the Full data policy. It covers PRPG/MISR and the
//! reseeding codec, wrapper shifts with data, one SoC build and one span
//! recorder per cell, and farm dispatch; a Volume-only win must show no
//! change here.
//!
//! `--seed` seeds the fault population. Each pass runs the campaign
//! twice: through `run_campaign`, the user's entry point, which gives
//! `wall_s`; then assembled from its public parts — goldens,
//! `Farm::run_map` over `run_cell`, then over `diagnose_scan_fault` —
//! which exposes the per-cell latencies (`p50_ms`,
//! `campaign.cell_p99_ms`). Every run must emit the same detection
//! matrix, byte for byte. The campaign is sized so a pass takes a few
//! seconds, and a run's medians span several passes.

use std::time::Instant;

use tve_campaign::{
    diagnose_scan_fault, generate, run_campaign, run_cell, CampaignConfig, CampaignReport,
    CellOutcome, CellResult, FaultSpec, PopulationSpec,
};
use tve_sched::Farm;
use tve_soc::{paper_schedules, PlanOverrides, Workload};

use crate::report::{timed_passes, Report, SetupTimer};
use crate::scenario::{run_decomposed, Counts};
use crate::trace::Tracer;
use crate::{Opts, Size};

/// Farm workers (the host has two cores).
const WORKERS: usize = 2;

/// The campaign under test: 71 faults × 4 schedules = 284 cells at full
/// size.
pub fn campaign_config(seed: u64, size: Size) -> CampaignConfig {
    let (workload, spec) = match size {
        Size::Full => {
            let mut o = PlanOverrides::default();
            for (key, patterns) in [
                ("bist_proc_patterns", 900),
                ("det_proc_patterns", 600),
                ("comp_proc_patterns", 300),
                ("bist_color_patterns", 600),
                ("det_dct_patterns", 600),
            ] {
                o.set(key, patterns);
            }
            let spec = PopulationSpec {
                seed,
                scan_cells_per_core: 16,
                memory_faults: 16,
                infrastructure: true,
                ..PopulationSpec::default()
            };
            (
                Workload::small().with_mem_words(128).with_overrides(o),
                spec,
            )
        }
        Size::Quick => (
            Workload::small().with_mem_words(64),
            PopulationSpec {
                seed,
                scan_cells_per_core: 1,
                memory_faults: 1,
                ..PopulationSpec::default()
            },
        ),
    };
    let (soc, plan) = workload.build();
    let population = generate(&spec, &soc);
    CampaignConfig::new(soc, plan, paper_schedules().to_vec(), population)
}

/// The campaign assembled from its public parts, as `run_campaign` runs
/// the full shard. Goldens run in decomposed form (their kernel/TLM
/// counts are returned); farm items record spans under `parent`.
/// Returns the report and each cell's host time in seconds.
fn assembled(
    config: &CampaignConfig,
    farm: &Farm,
    tracer: &Tracer,
    parent: u64,
) -> Result<(CampaignReport, Vec<f64>, Counts), String> {
    let p = Some(parent);
    let mut counts = Counts::default();
    let mut golden = std::collections::BTreeMap::new();
    for s in &config.schedules {
        let (m, c) = tracer.span(p, "campaign.golden", |g| {
            run_decomposed(&config.soc, &config.plan, s, 0, tracer, g)
        })?;
        counts.add(&c);
        golden.insert(s.name.clone(), m);
    }
    let n = config.schedules.len();
    let cells: Vec<(usize, usize)> = (0..config.population.len())
        .flat_map(|f| (0..n).map(move |s| (f, s)))
        .collect();
    let (outcomes, _, _) = tracer.span(p, "sched.run_map", |map| {
        farm.run_map(&cells, |&(fi, si)| {
            tracer.span(Some(map), "campaign.cell", |_| {
                let s = &config.schedules[si];
                run_cell(
                    &config.soc,
                    &config.plan,
                    s,
                    &config.population[fi],
                    &golden[&s.name],
                )
            })
        })
    });
    let cell_s: Vec<f64> = outcomes.iter().map(|(d, _)| d.as_secs_f64()).collect();
    let cells: Vec<CellResult> = cells
        .iter()
        .zip(outcomes)
        .map(|(&(fi, si), (_, outcome))| {
            let fault = &config.population[fi];
            CellResult {
                fault_id: fault.id(),
                fault_class: fault.class().to_string(),
                schedule: config.schedules[si].name.clone(),
                outcome: outcome.unwrap_or_else(|error| CellOutcome::InfraFailure { error }),
            }
        })
        .collect();
    let detected_scan: Vec<_> = config
        .population
        .iter()
        .filter_map(|f| match f {
            FaultSpec::ScanCell { core, cell } => cells
                .iter()
                .any(|r| r.fault_id == f.id() && matches!(r.outcome, CellOutcome::Detected { .. }))
                .then_some((*core, *cell)),
            _ => None,
        })
        .collect();
    let (checks, _, _) = tracer.span(p, "sched.run_map", |map| {
        farm.run_map(&detected_scan, |&(core, cell)| {
            tracer.span(Some(map), "campaign.diagnosis", |_| {
                diagnose_scan_fault(config, core, cell)
            })
        })
    });
    let diagnosis = checks
        .into_iter()
        .map(|(_, r)| r.map_err(|e| format!("diagnosis panicked: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let report = CampaignReport {
        schedules: config.schedules.iter().map(|s| s.name.clone()).collect(),
        prescreened: Vec::new(),
        cells,
        diagnosis,
    };
    Ok((report, cell_s, counts))
}

/// Runs `campaign_full`.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut setups = SetupTimer::default();
    let config = setups.batch(|| campaign_config(opts.seed, opts.size));
    let farm = Farm::with_workers(WORKERS);
    eprintln!(
        "campaign: {} faults x {} schedules = {} cells on {WORKERS} farm workers",
        config.population.len(),
        config.schedules.len(),
        config.population.len() * config.schedules.len()
    );

    let mut reference: Option<String> = None;
    let mut check = |report: &mut Report, matrix: &CampaignReport, source: &str| {
        report.attempted += (matrix.cells.len() + matrix.diagnosis.len()) as u64;
        let csv = matrix.to_csv();
        match &reference {
            None => reference = Some(csv),
            Some(r) => report.gate(*r == csv, || {
                format!("the {source} matrix differs from the first pass's")
            }),
        }
        let escapes = matrix.union_escapes();
        report.gate(escapes.is_empty(), || {
            format!("{} core faults escaped every schedule", escapes.len())
        });
        report.gate(matrix.all_diagnoses_confirmed(), || {
            "a diagnosis did not confirm its injected cell".into()
        });
        escapes.len()
    };
    // A pass runs the campaign twice: through `run_campaign`, whose time is
    // `wall_s`, then assembled from its parts, whose farm items give the
    // cell latencies. The host reference is not timed: it tracks the
    // simulator of the paper-scale SoC, and scaled the small SoC's cells
    // by more than the host moved them.
    let (mut walls, mut cell_s, mut escaped) = (Vec::new(), Vec::new(), None);
    let between = || drop(setups.batch(|| campaign_config(opts.seed, opts.size)));
    timed_passes(opts.measure_s(), between, |_, _| {
        let t = Instant::now();
        let matrix = run_campaign(&config, &farm);
        walls.push(t.elapsed().as_secs_f64());
        check(&mut report, &matrix, "run_campaign");
        match assembled(&config, &farm, &Tracer::new(), 0) {
            Ok((matrix, cells, _)) => {
                cell_s.extend(cells);
                escaped = Some(check(&mut report, &matrix, "assembled"));
            }
            Err(e) => report.gate(false, || format!("assembled campaign: {e}")),
        }
    });
    setups.put(&mut report);
    report.put("wall_s", crate::stats::median(&walls), walls.len());
    report.latencies(&cell_s, Some("campaign.cell_p99_ms"));
    if let Some(escaped) = escaped {
        let core = core_faults(&config);
        report.put(
            "fidelity_pct",
            100.0 * (core - escaped) as f64 / core.max(1) as f64,
            core,
        );
    }

    if opts.trace {
        let tracer = Tracer::new();
        let traced = tracer.span(None, "bench.pass", |root| {
            tracer.span(Some(root), "campaign.generate", |_| {
                campaign_config(opts.seed, opts.size)
            });
            assembled(&config, &farm, &tracer, root)
        });
        match traced {
            Ok((matrix, _, counts)) => {
                check(&mut report, &matrix, "traced");
                report.spans = tracer.spans();
                report.put_scenario_layers(&counts);
            }
            Err(e) => report.gate(false, || format!("traced campaign: {e}")),
        }
    }
    report
}

/// How many faults of the population sit in a core (scan cells and
/// memory) rather than in the test infrastructure: the faults the
/// schedules together must detect.
fn core_faults(config: &CampaignConfig) -> usize {
    config
        .population
        .iter()
        .filter(|f| matches!(f, FaultSpec::ScanCell { .. } | FaultSpec::Memory { .. }))
        .count()
}
