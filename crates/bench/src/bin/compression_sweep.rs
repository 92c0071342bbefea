//! Compression-ratio exploration: the paper's introduction names "the
//! choice among a large number of test data compression schemes" as a
//! decision the test engineer must explore. This harness sweeps the
//! decompressor ratio and simulates schedule 2 (sequential, compressed)
//! and schedule 4 (concurrent, compressed) at each point — showing where
//! compression stops paying because the scan chains, not the ATE channel,
//! become the bottleneck.
//!
//! Usage: `compression_sweep [--scale N] [--csv [path]]` (default scale
//! 20). `--csv` writes the sweep as a machine-readable table (default
//! `target/compression_sweep.csv`) for plotting.
//!
//! All (ratio, schedule) points are independent simulations and run as
//! one farm batch (`TVE_JOBS` overrides the worker count).

use std::path::PathBuf;

use tve_bench::{format_row, write_artifact};
use tve_sched::{Farm, ScenarioJob};
use tve_soc::{paper_schedules, SocConfig, SocTestPlan};

const RATIOS: [f64; 8] = [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(20);
    let csv = args.iter().position(|a| a == "--csv").map(|i| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/compression_sweep.csv"))
    });

    let plan = SocTestPlan::paper_scaled(scale);
    let schedules = paper_schedules();
    println!(
        "test time vs stimulus compression ratio (scale 1/{scale}; \
         schedule 2 sequential, schedule 4 concurrent)\n"
    );
    let widths = [8usize, 22, 22, 14];
    println!(
        "{}",
        format_row(
            &[
                "ratio".into(),
                "sched 2 (Mcycles)".into(),
                "sched 4 (Mcycles)".into(),
                "sched 4 peak".into(),
            ],
            &widths
        )
    );
    // The whole sweep — every ratio under both schedules — is one farm
    // batch; results come back in submission order.
    let jobs: Vec<ScenarioJob> = RATIOS
        .iter()
        .flat_map(|&ratio| {
            let mut config = SocConfig::paper();
            config.memory_words = (262_144 / scale as u32).max(64);
            config.decompress_ratio = ratio;
            [
                ScenarioJob::labeled(
                    format!("{ratio:.0}x sched 2"),
                    config.clone(),
                    plan.clone(),
                    schedules[1].clone(),
                ),
                ScenarioJob::labeled(
                    format!("{ratio:.0}x sched 4"),
                    config,
                    plan.clone(),
                    schedules[3].clone(),
                ),
            ]
        })
        .collect();
    let batch = Farm::new().run(&jobs);

    let mut prev2 = f64::INFINITY;
    let mut rows = String::from("ratio,sched2_mcycles,sched4_mcycles,sched4_peak_pct\n");
    for (pair, &ratio) in batch.outcomes.chunks(2).zip(RATIOS.iter()) {
        let m2 = pair[0].expect_metrics();
        let m4 = pair[1].expect_metrics();
        assert!(m2.result.clean() && m4.result.clean());
        rows.push_str(&format!(
            "{ratio},{},{},{}\n",
            m2.total_cycles as f64 / 1e6,
            m4.total_cycles as f64 / 1e6,
            m4.peak_utilization * 100.0
        ));
        println!(
            "{}",
            format_row(
                &[
                    format!("{ratio:.0}x"),
                    format!("{:.2}", m2.total_cycles as f64 / 1e6),
                    format!("{:.2}", m4.total_cycles as f64 / 1e6),
                    format!("{:.0}%", m4.peak_utilization * 100.0),
                ],
                &widths
            )
        );
        let t2 = m2.total_cycles as f64;
        assert!(
            t2 <= prev2 * 1.001,
            "more compression must never lengthen the sequential schedule"
        );
        prev2 = t2;
    }
    println!(
        "\nthe curve saturates once the compressed stream is thinner than \
         the scan-shift bottleneck: beyond that, a stronger codec buys ATE \
         storage, not test time — the knee the exploration is for."
    );
    if let Some(path) = csv {
        write_artifact(&path, &rows);
        println!("sweep CSV: {}", path.display());
    }
}
