//! Observability overhead: the tve-obs acceptance claim that a disabled
//! recorder costs (near) nothing.
//!
//! Three variants of the same scaled Table I scenario are compared:
//!
//! * `baseline` — `run_scenario`, no recorder attached anywhere,
//! * `traced_off` — `run_scenario_prepared_traced` with `StoragePolicy::Off`: every
//!   hook site is wired but the recorder drops everything before
//!   constructing a span (the `record_with` fast path),
//! * `traced_unbounded` — full span capture, for scale.
//!
//! All three must produce bit-identical `ScenarioMetrics` digests —
//! tracing is bookkeeping, never timing. The measured `traced_off`
//! overhead is printed as a percentage; set `TVE_OBS_OVERHEAD_ASSERT=1`
//! to turn the <2% budget into a hard assertion (off by default so a
//! noisy shared CI runner cannot flake the suite).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use tve_obs::StoragePolicy;
use tve_soc::{
    paper_schedules, run_scenario, run_scenario_prepared_traced, SocConfig, SocTestPlan,
};

fn workload() -> (SocConfig, SocTestPlan) {
    let mut config = SocConfig::paper();
    config.memory_words = 2622; // scale memory with pattern counts
    (config, SocTestPlan::paper_scaled(100))
}

/// Median wall time of `runs` invocations of `f`.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_obs_overhead(c: &mut Criterion) {
    let (config, plan) = workload();
    let schedule = &paper_schedules()[3];

    // Correctness gate first: identical digests traced or not.
    let base = run_scenario(&config, &plan, schedule).unwrap();
    let (off, off_log) =
        run_scenario_prepared_traced(&config, &plan, schedule, StoragePolicy::Off, |_| {}).unwrap();
    let (full, full_log) =
        run_scenario_prepared_traced(&config, &plan, schedule, StoragePolicy::Unbounded, |_| {})
            .unwrap();
    assert_eq!(
        base.digest(),
        off.digest(),
        "Off-policy tracing changed the run"
    );
    assert_eq!(
        base.digest(),
        full.digest(),
        "Unbounded tracing changed the run"
    );
    assert!(off_log.spans.is_empty(), "Off policy must not retain spans");
    assert!(
        !full_log.spans.is_empty(),
        "Unbounded policy lost its spans"
    );

    // One explicit overhead figure, printed machine-readably.
    const RUNS: usize = 7;
    let t_base = median_secs(RUNS, || {
        run_scenario(&config, &plan, schedule).unwrap();
    });
    let t_off = median_secs(RUNS, || {
        run_scenario_prepared_traced(&config, &plan, schedule, StoragePolicy::Off, |_| {}).unwrap();
    });
    let t_full = median_secs(RUNS, || {
        run_scenario_prepared_traced(&config, &plan, schedule, StoragePolicy::Unbounded, |_| {})
            .unwrap();
    });
    let off_pct = (t_off / t_base - 1.0) * 100.0;
    let full_pct = (t_full / t_base - 1.0) * 100.0;
    println!(
        "obs_overhead: baseline {t_base:.4}s, traced_off {t_off:.4}s ({off_pct:+.2}%), \
         traced_unbounded {t_full:.4}s ({full_pct:+.2}%), {} spans",
        full_log.spans.len()
    );
    if std::env::var("TVE_OBS_OVERHEAD_ASSERT").is_ok_and(|v| v == "1") {
        assert!(
            off_pct < 2.0,
            "disabled-recorder overhead {off_pct:.2}% exceeds the 2% budget"
        );
    }

    let mut g = c.benchmark_group("obs/overhead");
    g.sample_size(10);
    g.bench_function("baseline", |b| {
        b.iter(|| run_scenario(&config, &plan, schedule).unwrap().total_cycles);
    });
    g.bench_function("traced_off", |b| {
        b.iter(|| {
            run_scenario_prepared_traced(&config, &plan, schedule, StoragePolicy::Off, |_| {})
                .unwrap()
                .0
                .total_cycles
        });
    });
    g.bench_function("traced_unbounded", |b| {
        b.iter(|| {
            run_scenario_prepared_traced(&config, &plan, schedule, StoragePolicy::Unbounded, |_| {})
                .unwrap()
                .0
                .total_cycles
        });
    });
    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
