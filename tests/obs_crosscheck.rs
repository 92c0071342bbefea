//! Tier-2 cross-check of the observability subsystem against the live
//! TLM instrumentation: utilization recomputed from recorded transfer
//! spans must agree *exactly* (same f64 bits) with the
//! `UtilizationMonitor` figures of the same run, tracing must never
//! perturb the simulation, and the exporters must emit well-formed
//! output.

use tve::obs::{
    check_json, utilization_from_spans, write_chrome_trace, write_metrics_csv, write_spans_csv,
    SpanKind, StoragePolicy,
};
use tve::sched::{Farm, ScenarioJob};
use tve::soc::{
    paper_schedules, run_scenario, run_scenario_prepared_traced, SocConfig, SocTestPlan,
};

fn workload() -> (SocConfig, SocTestPlan) {
    let mut config = SocConfig::paper();
    config.memory_words = 2622;
    (config, SocTestPlan::paper_scaled(100))
}

#[test]
fn trace_derived_utilization_matches_monitor_exactly() {
    let (config, plan) = workload();
    let window = config.monitor_window.as_cycles();
    for schedule in &paper_schedules() {
        let (metrics, log) = run_scenario_prepared_traced(
            &config,
            &plan,
            schedule,
            StoragePolicy::Unbounded,
            |_| {},
        )
        .expect("well-formed");
        assert!(metrics.result.clean());
        let u = utilization_from_spans(
            log.spans_on("system-bus/TAM", SpanKind::Transfer),
            window,
            log.observed_end,
        );
        // Exact equality, not approximate: both sides split busy intervals
        // on the same window boundaries and normalize by the same observed
        // span, so any divergence is a double-count or a missed transfer.
        assert_eq!(
            u.peak(),
            metrics.peak_utilization,
            "{}: span-derived peak != monitor peak",
            schedule.name
        );
        assert_eq!(
            u.average(),
            metrics.avg_utilization,
            "{}: span-derived average != monitor average",
            schedule.name
        );
        assert!(u.transfers > 0, "no transfer spans recorded");
    }
}

#[test]
fn tracing_never_changes_the_simulation() {
    let (config, plan) = workload();
    for schedule in &paper_schedules() {
        let plain = run_scenario(&config, &plan, schedule).expect("well-formed");
        for storage in [
            StoragePolicy::Off,
            StoragePolicy::Unbounded,
            StoragePolicy::Ring(64),
        ] {
            let (traced, _) =
                run_scenario_prepared_traced(&config, &plan, schedule, storage, |_| {})
                    .expect("well-formed");
            assert_eq!(
                plain.digest(),
                traced.digest(),
                "{}: tracing with {storage:?} perturbed the run",
                schedule.name
            );
        }
    }
}

#[test]
fn exporters_emit_wellformed_output() {
    let (config, plan) = workload();
    let schedule = &paper_schedules()[3];
    let (_, log) =
        run_scenario_prepared_traced(&config, &plan, schedule, StoragePolicy::Unbounded, |_| {})
            .expect("well-formed");

    let mut chrome = Vec::new();
    write_chrome_trace(&log, &mut chrome).unwrap();
    let chrome = String::from_utf8(chrome).unwrap();
    check_json(&chrome).expect("chrome trace must be valid JSON");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("system-bus/TAM"));

    let mut spans = Vec::new();
    write_spans_csv(&log, &mut spans).unwrap();
    let spans = String::from_utf8(spans).unwrap();
    let header = spans.lines().next().unwrap();
    assert_eq!(
        header,
        "track,kind,name,start_cycles,end_cycles,duration_cycles,initiator,bits"
    );
    let cols = header.split(',').count();
    for line in spans.lines().skip(1).take(100) {
        assert_eq!(line.split(',').count(), cols, "ragged CSV row: {line}");
    }

    let mut metrics_csv = Vec::new();
    write_metrics_csv(&log, &mut metrics_csv).unwrap();
    let metrics_csv = String::from_utf8(metrics_csv).unwrap();
    assert!(metrics_csv.starts_with("metric,kind,value"));
    assert!(metrics_csv.lines().count() > 1, "no metrics exported");
}

#[test]
fn ring_policy_bounds_retained_spans() {
    let (config, plan) = workload();
    let schedule = &paper_schedules()[0];
    let cap = 128;
    let (_, log) =
        run_scenario_prepared_traced(&config, &plan, schedule, StoragePolicy::Ring(cap), |_| {})
            .expect("well-formed");
    assert!(
        log.spans.len() <= cap,
        "ring retained {} > {cap}",
        log.spans.len()
    );
    assert!(
        log.dropped > 0,
        "this workload must overflow a {cap}-span ring"
    );
}

#[test]
fn farm_traced_batch_merges_per_job_timelines() {
    let (config, plan) = workload();
    let jobs: Vec<ScenarioJob> = paper_schedules()
        .into_iter()
        .take(2)
        .map(|s| ScenarioJob::new(config.clone(), plan.clone(), s))
        .collect();
    let plain = Farm::new().run(&jobs);
    let traced = Farm::new().run_traced(&jobs, StoragePolicy::Unbounded);
    for (a, b) in plain.outcomes.iter().zip(&traced.report.outcomes) {
        assert_eq!(
            a.expect_metrics().digest(),
            b.expect_metrics().digest(),
            "farm tracing perturbed job '{}'",
            a.label
        );
    }
    let merged = traced.merged();
    let farm_jobs = merged.spans_on("farm", SpanKind::Job).count();
    assert_eq!(farm_jobs, jobs.len(), "one Job span per farmed scenario");
    for job in &jobs {
        let prefixed = format!("{}/system-bus/TAM", job.label);
        assert!(
            merged.tracks().iter().any(|t| *t == prefixed),
            "missing merged track {prefixed}"
        );
    }
}
