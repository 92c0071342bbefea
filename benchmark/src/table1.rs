//! `table1_accurate` and `table1_loose`: the paper's Table I at paper
//! scale — 1 MiB memory, the paper's pattern counts, Volume policy — in
//! cycle-accurate mode and at a loosely-timed quantum of 100 000 cycles.
//!
//! Per schedule the accurate mode fires millions of kernel timers and
//! bus transfers, so kernel timer drain, TLM transport and the 1 MiB
//! march dominate; the loosely-timed mode drops kernel polls ~40× and
//! moves host time to the TLM sync/DMI fast paths and the wrappers. A
//! win that only helps the accurate timer drain must show no change on
//! the loose workload.
//!
//! The inputs are pinned to the paper's plan so the results stay
//! comparable with the paper's reference values; `--seed` only rotates
//! the order in which a pass runs the four schedules.

use std::time::Instant;

use tve_core::Schedule;
use tve_sim::Duration;
use tve_soc::{
    build_test_runs, paper_schedules, run_scenario_quantum, JpegEncoderSoc, ScenarioMetrics,
    SocConfig, SocTestPlan, Workload,
};

use crate::report::{timed_passes, Report, SetupTimer};
use crate::scenario::{envelope_violations, functional, run_decomposed, Counts};
use crate::trace::Tracer;
use crate::{Opts, Size};

/// The loosely-timed quantum of `table1_loose`, in cycles.
pub const LOOSE_QUANTUM: u64 = 100_000;

/// The paper's Table I: (peak %, avg %, test length in Mcycles).
const PAPER: [(f64, f64, f64); 4] = [
    (67.0, 45.0, 281.0),
    (67.0, 58.0, 184.0),
    (80.0, 47.0, 263.0),
    (100.0, 64.0, 167.0),
];

fn workload(size: Size) -> Workload {
    match size {
        Size::Full => Workload::paper(),
        Size::Quick => Workload::paper().with_scale(2000).with_mem_words(512),
    }
}

/// Everything a Table I run prepares before it simulates: the config and
/// plan, the certified envelopes, and one elaborated SoC with its test
/// sequences (which proves the plan builds).
fn setup(size: Size, quantum: u64) -> (SocConfig, SocTestPlan, [Schedule; 4]) {
    let (config, plan) = workload(size).build();
    let schedules = paper_schedules();
    for s in &schedules {
        std::hint::black_box(tve_lint::schedule_envelope(&config, &plan, s, quantum));
    }
    let sim = tve_sim::Simulation::with_quantum(Duration::cycles(quantum));
    let soc = JpegEncoderSoc::build(&sim.handle(), config.clone());
    std::hint::black_box(build_test_runs(&soc, &plan).len());
    (config, plan, schedules)
}

/// `|measured - reference| / reference` in percent.
fn rel_err_pct(measured: f64, reference: f64) -> f64 {
    ((measured - reference) / reference).abs() * 100.0
}

/// Largest relative error (%) of peak utilization, average utilization
/// and test length against the paper's Table I.
pub fn table1_err_pct(rows: &[ScenarioMetrics]) -> f64 {
    rows.iter()
        .zip(PAPER)
        .flat_map(|(m, (peak, avg, mcycles))| {
            [
                rel_err_pct(m.peak_utilization * 100.0, peak),
                rel_err_pct(m.avg_utilization * 100.0, avg),
                rel_err_pct(m.total_cycles as f64 / 1e6, mcycles),
            ]
        })
        .fold(0.0, f64::max)
}

/// Runs one Table I workload at `quantum` (0 = cycle-accurate).
pub fn run(opts: &Opts, quantum: u64) -> Report {
    let mut report = Report::default();
    let mut setups = SetupTimer::default();
    let (config, plan, schedules) = setups.batch(|| setup(opts.size, quantum));

    // Measured passes: each Table I row through the one-call entry point,
    // with the host reference timed after every row.
    let mut rows: Vec<Option<ScenarioMetrics>> = vec![None; 4];
    let mut row_s: [Vec<f64>; 4] = Default::default();
    let between = || drop(setups.batch(|| setup(opts.size, quantum)));
    let passes = timed_passes(opts.measure_s(), between, |pass, host| {
        for k in 0..4 {
            let i = ((opts.seed % 4) as usize + pass + k) % 4;
            report.attempted += 1;
            let t = Instant::now();
            let result =
                run_scenario_quantum(&config, &plan, &schedules[i], Duration::cycles(quantum));
            let elapsed_s = t.elapsed().as_secs_f64();
            host.after(elapsed_s);
            match result {
                Ok(m) => {
                    row_s[i].push(elapsed_s);
                    match &rows[i] {
                        None => rows[i] = Some(m),
                        Some(first) => report.gate(first.digest() == m.digest(), || {
                            format!("{}: digest differs between passes", m.schedule)
                        }),
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    eprintln!("error: {}: {e}", schedules[i].name);
                }
            }
        }
    });
    setups.put(&mut report);
    report.put(
        "wall_s",
        crate::stats::median(&passes.walls),
        passes.walls.len(),
    );
    report.host_ref_s = passes.host_ref_s;
    // A row's latency is its median over the passes, so one slow pass
    // does not move it. Four rows have no tail to report.
    report.latencies(&row_s.map(|t| crate::stats::median(&t)), None);
    let Some(rows) = rows.into_iter().collect::<Option<Vec<_>>>() else {
        report.gate(false, || "a Table I row never completed".into());
        return report;
    };

    for (m, s) in rows.iter().zip(&schedules) {
        report.gate(m.result.clean(), || {
            format!("{} reported errors", m.schedule)
        });
        let violations = envelope_violations(&config, &plan, s, quantum, m);
        report.gate(violations.is_empty(), || violations.join("; "));
    }
    let err = table1_err_pct(&rows);
    report.put("fidelity_pct", 100.0 - err, 12);
    print_rows(&rows, err, quantum);

    // Functional results must not depend on the timing mode: the
    // accurate workload re-runs Table I loosely timed and compares.
    let loose = (quantum == 0).then(|| {
        let scratch = Tracer::new();
        let mut counts = Counts::default();
        for (m, s) in rows.iter().zip(&schedules) {
            match run_decomposed(&config, &plan, s, LOOSE_QUANTUM, &scratch, 0) {
                Ok((lm, c)) => {
                    counts.add(&c);
                    report.gate(functional(&lm) == functional(m), || {
                        format!("{}: functional results differ between modes", s.name)
                    });
                }
                Err(e) => report.gate(false, || format!("loosely-timed check: {e}")),
            }
        }
        counts
    });

    if opts.trace {
        let tracer = Tracer::new();
        let mut counts = Counts::default();
        tracer.span(None, "bench.pass", |root| {
            for (m, s) in rows.iter().zip(&schedules) {
                match run_decomposed(&config, &plan, s, quantum, &tracer, root) {
                    Ok((tm, c)) => {
                        counts.add(&c);
                        report.gate(tm.digest() == m.digest(), || {
                            format!("{}: traced digest differs from untraced", s.name)
                        });
                    }
                    Err(e) => report.gate(false, || format!("traced pass: {e}")),
                }
            }
        });
        if let Some(loose) = loose {
            report.gate(counts.functional() == loose.functional(), || {
                format!(
                    "tlm/core counts differ between modes: {:?} accurate vs {:?} loose",
                    counts.functional(),
                    loose.functional()
                )
            });
        }
        report.spans = tracer.spans();
        report.put_scenario_layers(&counts);
    }
    report
}

fn print_rows(rows: &[ScenarioMetrics], err: f64, quantum: u64) {
    eprintln!("Table I, quantum {quantum} (paper values in parentheses):");
    for (m, (peak, avg, mcycles)) in rows.iter().zip(PAPER) {
        eprintln!(
            "  {:<34} peak {:>5.1}% ({peak:.0}%)  avg {:>5.1}% ({avg:.0}%)  {:>7.1} Mcycles ({mcycles:.0})  {:.2} s host",
            m.schedule,
            m.peak_utilization * 100.0,
            m.avg_utilization * 100.0,
            m.total_cycles as f64 / 1e6,
            m.cpu.as_secs_f64()
        );
    }
    eprintln!("  max relative error vs the paper: {err:.1}%");
}
