//! Campaign scale-out snapshot for the `BENCH_campaign_scale.json`
//! trajectory: measures — and *asserts* — the equivalence claims behind
//! sharding, checkpoint/resume and budgeted sampling.
//!
//! Four sections, each an acceptance criterion before it is a number:
//!
//! 1. **shard** — the campaign matrix run as 3 shards and merged must
//!    be byte-identical (CSV and JSON) to the unsharded run.
//! 2. **resume** — a journaled run whose journal is truncated
//!    mid-matrix must resume to the byte-identical artifact, reporting
//!    exactly how many cells came from the journal.
//! 3. **sampling** — the stratified estimator's 95% confidence interval
//!    must contain the exhaustive run's true union core-fault coverage,
//!    and the estimate is deterministic under any `TVE_JOBS`.
//! 4. **guided** — the coverage-guided selector must rediscover the
//!    exhaustive run's entire escape set while spending at most 50% of
//!    the cell budget (population seeded with guaranteed escapes:
//!    unscanned-core scan cells, no infrastructure faults).
//!
//! Usage: `campaign_scale [--out PATH] [--check [BASELINE]] [--quick]`
//!
//! `--out` (default `target/BENCH_campaign_scale.json`) is the fresh
//! snapshot; pass `--out BENCH_campaign_scale.json` to re-record the
//! committed baseline. `--check` additionally gates every deterministic
//! scalar against the committed baseline at ±25% — the counts and
//! estimates are bit-deterministic, so any drift means the campaign
//! semantics changed, not the machine. Wall-clocks are recorded for
//! trend reading but never gated. `--quick` shrinks the workload and
//! skips the baseline gate (the equivalence assertions still run).

use std::path::{Path, PathBuf};
use std::time::Instant;

use tve_bench::{drift_failures, write_artifact};
use tve_campaign::{
    generate, merge_shards, run_campaign, run_campaign_journaled, run_campaign_shard,
    run_guided_campaign, run_sampled_campaign, CampaignConfig, PopulationSpec, ShardSpec,
};
use tve_sched::Farm;
use tve_soc::Workload;

fn fail(message: &str) -> ! {
    eprintln!("campaign_scale FAILED: {message}");
    std::process::exit(1);
}

struct Snapshot {
    shard_cells: usize,
    shard_count: usize,
    unsharded_wall_s: f64,
    sharded_wall_s: f64,
    resume_records_kept: usize,
    resume_resumed_cells: usize,
    resume_simulated_cells: usize,
    sampling_budget_faults: usize,
    sampling_spent_cells: usize,
    sampling_coverage: f64,
    sampling_ci_low: f64,
    sampling_ci_high: f64,
    sampling_truth: f64,
    guided_total_cells: usize,
    guided_budget_cells: usize,
    guided_spent_cells: usize,
    guided_escapes_true: usize,
    guided_escapes_found: usize,
}

impl Snapshot {
    fn guided_budget_fraction(&self) -> f64 {
        self.guided_spent_cells as f64 / self.guided_total_cells as f64
    }

    fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"tve-campaign-scale-bench/1\",\n  \"shard\": {{\n    \
             \"cells\": {},\n    \"shards\": {},\n    \
             \"unsharded_wall_s\": {:.4},\n    \"sharded_wall_s\": {:.4},\n    \
             \"identical\": true\n  }},\n  \"resume\": {{\n    \
             \"records_kept\": {},\n    \"resumed_cells\": {},\n    \
             \"resimulated_cells\": {},\n    \"identical\": true\n  }},\n  \
             \"sampling\": {{\n    \"budget_faults\": {},\n    \
             \"spent_cells\": {},\n    \"coverage\": {:.6},\n    \
             \"ci_low\": {:.6},\n    \"ci_high\": {:.6},\n    \
             \"truth\": {:.6},\n    \"contained\": true\n  }},\n  \
             \"guided\": {{\n    \"total_cells\": {},\n    \
             \"budget_cells\": {},\n    \"guided_spent_cells\": {},\n    \
             \"budget_fraction\": {:.6},\n    \"escapes_true\": {},\n    \
             \"escapes_found\": {},\n    \"recovered\": true\n  }}\n}}\n",
            self.shard_cells,
            self.shard_count,
            self.unsharded_wall_s,
            self.sharded_wall_s,
            self.resume_records_kept,
            self.resume_resumed_cells,
            self.resume_simulated_cells,
            self.sampling_budget_faults,
            self.sampling_spent_cells,
            self.sampling_coverage,
            self.sampling_ci_low,
            self.sampling_ci_high,
            self.sampling_truth,
            self.guided_total_cells,
            self.guided_budget_cells,
            self.guided_spent_cells,
            self.guided_budget_fraction(),
            self.guided_escapes_true,
            self.guided_escapes_found,
        )
    }
}

fn campaign_config(mem_words: u32, spec: PopulationSpec) -> CampaignConfig {
    let (soc, plan) = Workload::small().with_mem_words(mem_words).build();
    let population = generate(&spec, &soc);
    let mut config =
        CampaignConfig::new(soc, plan, tve_soc::paper_schedules().to_vec(), population);
    config.diagnosis = true;
    config
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "target/BENCH_campaign_scale.json".into());
    let check = args.iter().position(|a| a == "--check").map(|i| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_campaign_scale.json".into())
    });

    let (faults, mem_words) = if quick { (2, 64) } else { (4, 128) };
    let farm = Farm::new();

    // --- 1. shard equivalence: 3 shards merge byte-identical ----------
    let spec = PopulationSpec {
        scan_cells_per_core: faults,
        memory_faults: faults,
        ..PopulationSpec::default()
    };
    let config = campaign_config(mem_words, spec);
    let cells = config.population.len() * config.schedules.len();
    eprintln!(
        "shard: {} faults x {} schedules = {cells} cells, unsharded vs 3 shards",
        config.population.len(),
        config.schedules.len()
    );
    let t = Instant::now();
    let baseline = run_campaign(&config, &farm);
    let unsharded_wall_s = t.elapsed().as_secs_f64();
    let (baseline_csv, baseline_json) = (baseline.to_csv(), baseline.to_json());

    let shard_count = 3;
    let t = Instant::now();
    let reports: Vec<_> = (0..shard_count)
        .map(|k| run_campaign_shard(&config, &farm, ShardSpec::new(k, shard_count).unwrap()))
        .collect();
    let merged = merge_shards(&config, &reports).unwrap_or_else(|e| fail(&format!("merge: {e}")));
    let sharded_wall_s = t.elapsed().as_secs_f64();
    if merged.to_csv() != baseline_csv || merged.to_json() != baseline_json {
        fail("sharded merge is not byte-identical to the unsharded artifact");
    }
    println!("shard: OK — 3-shard merge byte-identical ({cells} cells)");

    // --- 2. resume equivalence: truncate the journal mid-matrix -------
    let journal = PathBuf::from(format!(
        "target/campaign_scale_journal_{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let (first, _) = run_campaign_journaled(&config, &farm, ShardSpec::full(), &journal)
        .unwrap_or_else(|e| fail(&format!("journaled run: {e}")));
    let first_report =
        merge_shards(&config, &[first]).unwrap_or_else(|e| fail(&format!("merge: {e}")));
    if first_report.to_csv() != baseline_csv {
        fail("journaled run is not byte-identical to the plain run");
    }
    // Keep the header plus half the cell records — the state a SIGKILL
    // halfway through the matrix leaves behind.
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    let records_kept = 1 + cells / 2;
    let keep: usize = text
        .split_inclusive('\n')
        .take(records_kept)
        .map(str::len)
        .sum();
    std::fs::write(&journal, &text[..keep]).expect("journal truncatable");
    let (second, resume) = run_campaign_journaled(&config, &farm, ShardSpec::full(), &journal)
        .unwrap_or_else(|e| fail(&format!("resumed run: {e}")));
    let resumed_report =
        merge_shards(&config, &[second]).unwrap_or_else(|e| fail(&format!("merge: {e}")));
    if resumed_report.to_csv() != baseline_csv || resumed_report.to_json() != baseline_json {
        fail("resumed run is not byte-identical to the uninterrupted artifact");
    }
    if resume.resumed_cells != cells / 2 {
        fail(&format!(
            "resume reused {} cells, expected {}",
            resume.resumed_cells,
            cells / 2
        ));
    }
    let _ = std::fs::remove_file(&journal);
    println!(
        "resume: OK — {} cells reused, {} resimulated, artifact byte-identical",
        resume.resumed_cells, resume.simulated_cells
    );

    // --- 3+4. budgeted runs on a population with guaranteed escapes ---
    // Unscanned-core scan cells escape every schedule; infrastructure
    // faults are excluded so "escape" means exactly "undetected core
    // fault" and the true coverage is strictly below 1.
    let spec = PopulationSpec {
        scan_cells_per_core: faults,
        memory_faults: faults,
        infrastructure: false,
        include_unscanned: true,
        ..PopulationSpec::default()
    };
    let mut config = campaign_config(mem_words, spec);
    config.diagnosis = false;
    let total_cells = config.population.len() * config.schedules.len();
    eprintln!(
        "sampling/guided: {} faults x {} schedules = {total_cells} cells, escapes seeded",
        config.population.len(),
        config.schedules.len()
    );
    let exhaustive = run_campaign(&config, &farm);
    let mut escapes_true: Vec<String> = exhaustive
        .union_escapes()
        .into_iter()
        .map(str::to_string)
        .collect();
    escapes_true.sort();
    let core_faults = config
        .population
        .iter()
        .filter(|f| !f.is_infrastructure())
        .count();
    let truth = 1.0 - escapes_true.len() as f64 / core_faults as f64;
    if escapes_true.is_empty() {
        fail("escape-seeded population produced no escapes — the guided section is vacuous");
    }

    let budget_faults = config.population.len() / 2;
    let sampled = run_sampled_campaign(&config, &farm, budget_faults, 0x5EED_CA3A);
    let estimate = sampled
        .estimate
        .clone()
        .unwrap_or_else(|| fail("stratified run returned no estimate"));
    if !(estimate.ci_low <= truth && truth <= estimate.ci_high) {
        fail(&format!(
            "95% CI [{:.4}, {:.4}] does not contain the exhaustive coverage {truth:.4}",
            estimate.ci_low, estimate.ci_high
        ));
    }
    println!(
        "sampling: OK — coverage {:.3}, 95% CI [{:.3}, {:.3}] contains truth {truth:.3} \
         ({} of {} cells spent)",
        estimate.coverage, estimate.ci_low, estimate.ci_high, sampled.spent_cells, total_cells
    );

    let budget_cells = total_cells / 2;
    let guided = run_guided_campaign(&config, &farm, budget_cells, 1, 0x5EED_CA3A);
    let mut escapes_found: Vec<String> = guided
        .report
        .union_escapes()
        .into_iter()
        .map(str::to_string)
        .collect();
    escapes_found.sort();
    if escapes_found != escapes_true {
        fail(&format!(
            "guided selector found escapes {escapes_found:?}, exhaustive truth is {escapes_true:?}"
        ));
    }
    if guided.spent_cells > budget_cells {
        fail(&format!(
            "guided selector spent {} cells, budget was {budget_cells}",
            guided.spent_cells
        ));
    }
    println!(
        "guided: OK — all {} escapes rediscovered with {} of {total_cells} cells ({:.0}%)",
        escapes_true.len(),
        guided.spent_cells,
        guided.spent_cells as f64 / total_cells as f64 * 100.0
    );

    let snap = Snapshot {
        shard_cells: cells,
        shard_count,
        unsharded_wall_s,
        sharded_wall_s,
        resume_records_kept: records_kept,
        resume_resumed_cells: resume.resumed_cells,
        resume_simulated_cells: resume.simulated_cells,
        sampling_budget_faults: budget_faults,
        sampling_spent_cells: sampled.spent_cells,
        sampling_coverage: estimate.coverage,
        sampling_ci_low: estimate.ci_low,
        sampling_ci_high: estimate.ci_high,
        sampling_truth: truth,
        guided_total_cells: total_cells,
        guided_budget_cells: budget_cells,
        guided_spent_cells: guided.spent_cells,
        guided_escapes_true: escapes_true.len(),
        guided_escapes_found: escapes_found.len(),
    };

    // Read the baseline before writing: with `--out
    // BENCH_campaign_scale.json` they are the same file.
    let baseline_text =
        check
            .as_ref()
            .filter(|_| !quick)
            .map(|path| match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read baseline {path}: {e}");
                    std::process::exit(2);
                }
            });

    write_artifact(Path::new(&out), &snap.to_json());
    write_artifact(
        Path::new("target/campaign_scale_sampled.json"),
        &sampled.to_json(),
    );
    write_artifact(
        Path::new("target/campaign_scale_guided.json"),
        &guided.to_json(),
    );
    println!("wrote {out}");

    let Some(baseline_path) = check else { return };
    if quick {
        println!("--quick: skipping baseline gate");
        return;
    }
    let baseline_text = baseline_text.expect("baseline read above when checking");
    let mut failures = Vec::new();

    if snap.guided_budget_fraction() > 0.5 {
        failures.push(format!(
            "guided selector needed {:.0}% of the cell budget (acceptance bound: 50%)",
            snap.guided_budget_fraction() * 100.0
        ));
    }

    // Every gated scalar is bit-deterministic, so the ±25% band is pure
    // headroom for intentional workload re-sizing — real drift means the
    // campaign semantics changed.
    let tracked = [
        ("cells", snap.shard_cells as f64),
        ("resumed_cells", snap.resume_resumed_cells as f64),
        ("spent_cells", snap.sampling_spent_cells as f64),
        ("coverage", snap.sampling_coverage),
        ("ci_low", snap.sampling_ci_low),
        ("ci_high", snap.sampling_ci_high),
        ("truth", snap.sampling_truth),
        ("guided_spent_cells", snap.guided_spent_cells as f64),
        ("budget_fraction", snap.guided_budget_fraction()),
        ("escapes_true", snap.guided_escapes_true as f64),
        ("escapes_found", snap.guided_escapes_found as f64),
    ];
    failures.extend(drift_failures(&baseline_text, &baseline_path, &tracked));

    if failures.is_empty() {
        println!(
            "scale gate: OK (all metrics within ±25% of {baseline_path}, acceptance bounds hold)"
        );
    } else {
        eprintln!("scale gate FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
