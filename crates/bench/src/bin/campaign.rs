//! Fault-injection campaign over the JPEG encoder SoC: crosses a
//! deterministic fault population (stuck scan cells, memory faults, TAM
//! corruption, stuck WIR bits, broken config-ring segments) with the
//! Table-I schedules, farms every (fault × schedule) cell in parallel,
//! and emits the detection matrix as CSV and JSON.
//!
//! Usage: `campaign [--schedule 1-4|all] [--faults N] [--seed S]
//! [--mem-words N] [--csv PATH] [--json PATH] [--no-diagnosis]` —
//! `--faults` sets the sampled scan cells per core *and* memory faults
//! (default 4 each), `--seed` reseeds the population sampler, and the
//! matrix lands at `target/campaign_matrix.csv` / `.json` by default.
//! `TVE_JOBS` overrides the farm's worker count; the artifacts are
//! byte-identical for any worker count. `tve-client campaign` with the
//! same `--faults`, `--seed` and `--mem-words` runs the campaign on a
//! `tve-serve` daemon, which serves previously simulated
//! (fault × schedule) cells from its result cache and returns
//! byte-identical artifacts.
//!
//! Scale-out flags (see `DESIGN.md`, "Campaign scale-out"):
//!
//! - `--shard k/n [--shard-out PATH]` simulates only the cells shard
//!   `k/n` owns and writes a shard report
//!   (`target/campaign_shard_k_of_n.json` by default) instead of the
//!   matrix artifacts.
//! - `--merge FILE...` (repeatable) merges shard reports back into the
//!   full matrix; the merged CSV/JSON are byte-identical to an
//!   unsharded run of the same flags, and an incomplete or mixed shard
//!   set is a hard error.
//! - `--journal PATH` checkpoints every finished cell to an append-only
//!   self-validating journal; re-running the identical command after a
//!   crash (or `kill -9`) resumes from the journal and produces the
//!   identical artifact.
//!
//! When all four schedules run, the binary *asserts* the campaign's
//! acceptance criteria — 100 % union detection of scan-cell and memory
//! faults, every detected scan fault confirmed by diagnosis at the
//! injected (chain, position), and no silently absorbed infrastructure
//! fault — and exits nonzero otherwise, so CI can run it as a check.

use std::path::{Path, PathBuf};

use tve_bench::write_artifact;
use tve_campaign::{
    generate, merge_shards, run_campaign, run_campaign_journaled, run_campaign_shard,
    CampaignConfig, CampaignReport, PopulationSpec, ShardReport, ShardSpec,
};
use tve_obs::check_json;
use tve_sched::Farm;
use tve_soc::{paper_schedules, Workload};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Every value of a repeatable flag, in order.
fn arg_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1))
        .cloned()
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let schedule_sel = arg_value(&args, "--schedule").unwrap_or_else(|| "all".into());
    let faults = arg_value(&args, "--faults")
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(4);
    let seed = arg_value(&args, "--seed")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(PopulationSpec::default().seed);
    let mem_words = arg_value(&args, "--mem-words")
        .and_then(|s| s.parse::<u32>().ok())
        .unwrap_or(128);
    let csv_path = PathBuf::from(
        arg_value(&args, "--csv").unwrap_or_else(|| "target/campaign_matrix.csv".into()),
    );
    let json_path = PathBuf::from(
        arg_value(&args, "--json").unwrap_or_else(|| "target/campaign_matrix.json".into()),
    );
    let shard_arg = arg_value(&args, "--shard").map(|s| {
        ShardSpec::parse(&s).unwrap_or_else(|e| {
            eprintln!("error: --shard: {e}");
            std::process::exit(2);
        })
    });
    let shard_out = arg_value(&args, "--shard-out").map(PathBuf::from);
    let merge_files = arg_values(&args, "--merge");
    let journal_path = arg_value(&args, "--journal").map(PathBuf::from);

    let (soc, plan) = Workload::small().with_mem_words(mem_words).build();

    let all = paper_schedules();
    let indices: Vec<usize> = match schedule_sel.as_str() {
        "all" => (1..=all.len()).collect(),
        sel => {
            let i: usize = sel
                .parse()
                .ok()
                .filter(|i| (1..=all.len()).contains(i))
                .unwrap_or_else(|| {
                    eprintln!("error: --schedule wants 1..={} or 'all'", all.len());
                    std::process::exit(2);
                });
            vec![i]
        }
    };
    let schedules: Vec<_> = indices.iter().map(|&i| all[i - 1].clone()).collect();
    let complete = schedules.len() == all.len();
    let diagnosis = !args.iter().any(|a| a == "--no-diagnosis");

    let spec = PopulationSpec {
        seed,
        scan_cells_per_core: faults,
        memory_faults: faults,
        ..PopulationSpec::default()
    };
    let population = generate(&spec, &soc);
    let core_faults = population.iter().filter(|f| !f.is_infrastructure()).count();
    let infra_faults = population.len() - core_faults;

    let config = {
        let mut c = CampaignConfig::new(soc, plan, schedules, population);
        c.diagnosis = diagnosis;
        c
    };

    // --merge: reassemble shard reports written by earlier --shard runs.
    if !merge_files.is_empty() {
        let report = merge_files_into_report(&config, &merge_files);
        report_and_check(&config, &report, &csv_path, &json_path, complete);
        return;
    }

    let farm = Farm::new();

    // --shard k/n: simulate only the owned cells, emit a shard report.
    if let Some(shard) = shard_arg {
        let shard_report = match &journal_path {
            Some(path) => run_journaled(&config, &farm, shard, path),
            None => run_campaign_shard(&config, &farm, shard),
        };
        let out = shard_out.unwrap_or_else(|| {
            PathBuf::from(format!(
                "target/campaign_shard_{}_of_{}.json",
                shard.index + 1,
                shard.count
            ))
        });
        write_artifact(&out, &shard_report.to_json());
        println!(
            "shard {shard}: {} of {} cells -> {}",
            shard_report.cells.len(),
            shard_report.total_cells,
            out.display()
        );
        return;
    }

    println!(
        "fault campaign: {} faults ({core_faults} core + {infra_faults} infra) x {} schedules = {} cells, {} workers, seed {seed:#x}",
        config.population.len(),
        config.schedules.len(),
        config.population.len() * config.schedules.len(),
        farm.workers(),
    );

    let report = match &journal_path {
        Some(path) => {
            let shard_report = run_journaled(&config, &farm, ShardSpec::full(), path);
            merge_shards(&config, &[shard_report]).expect("the full shard merges")
        }
        None => run_campaign(&config, &farm),
    };
    report_and_check(&config, &report, &csv_path, &json_path, complete);
}

/// Runs (or resumes) one shard against the checkpoint journal at
/// `path`, reporting how much came back from the journal.
fn run_journaled(
    config: &CampaignConfig,
    farm: &Farm,
    shard: ShardSpec,
    path: &Path,
) -> ShardReport {
    let (report, resume) = run_campaign_journaled(config, farm, shard, path).unwrap_or_else(|e| {
        eprintln!("error: journaled campaign: {e}");
        std::process::exit(2);
    });
    if let Some(defect) = &resume.defect {
        println!("journal damage absorbed by truncation: {defect}");
    }
    println!(
        "journal {}: resumed {} cells + {} diagnoses, simulated {} cells + {} diagnoses",
        path.display(),
        resume.resumed_cells,
        resume.resumed_diagnosis,
        resume.simulated_cells,
        resume.simulated_diagnosis
    );
    report
}

/// Reads shard-report files and merges them; any incomplete, mixed or
/// inconsistent set is a hard error from `merge_shards`.
fn merge_files_into_report(config: &CampaignConfig, files: &[String]) -> CampaignReport {
    let reports: Vec<ShardReport> = files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: reading shard report {path}: {e}");
                std::process::exit(2);
            });
            ShardReport::from_json(&text).unwrap_or_else(|e| {
                eprintln!("error: shard report {path}: {e}");
                std::process::exit(2);
            })
        })
        .collect();
    println!("merging {} shard reports", reports.len());
    merge_shards(config, &reports).unwrap_or_else(|e| {
        eprintln!("error: merge: {e}");
        std::process::exit(1);
    })
}

/// Prints the per-schedule summary, writes the matrix artifacts, and —
/// when all four schedules ran — asserts the campaign's acceptance
/// criteria, exiting nonzero on violation. Shared by the local,
/// journaled and merged paths, so every mode emits the identical
/// artifact for the identical configuration.
fn report_and_check(
    config: &CampaignConfig,
    report: &CampaignReport,
    csv_path: &Path,
    json_path: &Path,
    complete: bool,
) {
    println!("\nper-schedule core-fault coverage (scan-cell + memory):");
    for s in &report.schedules {
        let escapes = report.escapes(s);
        println!(
            "  {:<36} {:>5.1}%  ({} escapes{})",
            s,
            report.core_coverage(s) * 100.0,
            escapes.len(),
            if escapes.is_empty() {
                String::new()
            } else {
                format!(": {}", escapes.join(", "))
            }
        );
    }

    let infra = report.infra_failures();
    if !infra.is_empty() {
        println!("\ninfrastructure failures (fault broke the test equipment):");
        for (fault, schedule, error) in &infra {
            let brief = error.lines().next().unwrap_or(error);
            println!("  {fault} x {schedule}: {brief}");
        }
    }
    println!(
        "\ndiagnosis cross-check: {}/{} detected scan faults confirmed at the injected cell",
        report.diagnosis.iter().filter(|d| d.confirmed).count(),
        report.diagnosis.len()
    );

    let json = report.to_json();
    if let Err(e) = check_json(&json) {
        eprintln!("error: campaign JSON is not well-formed: {e}");
        std::process::exit(2);
    }
    write_artifact(csv_path, &report.to_csv());
    write_artifact(json_path, &json);
    println!(
        "matrix: {} and {} ({} cells)",
        csv_path.display(),
        json_path.display(),
        report.cells.len()
    );

    let mut failed = false;
    if complete {
        let union_escapes = report.union_escapes();
        if union_escapes.is_empty() {
            println!("OK: 100% of scan-cell and memory faults detected by the schedule union");
        } else {
            eprintln!("FAIL: core faults escaped every schedule: {union_escapes:?}");
            failed = true;
        }
        if config.diagnosis && !report.all_diagnoses_confirmed() {
            let bad: Vec<&str> = report
                .diagnosis
                .iter()
                .filter(|d| !d.confirmed)
                .map(|d| d.fault_id.as_str())
                .collect();
            eprintln!("FAIL: diagnosis disagreed with the injected cell for: {bad:?}");
            failed = true;
        }
        // Infrastructure faults must never vanish: each one is either
        // noticed in some schedule (digest deviation or infra failure)
        // or reported above as a named per-schedule escape.
        let unnoticed: Vec<String> = config
            .population
            .iter()
            .filter(|f| f.is_infrastructure())
            .map(|f| f.id())
            .filter(|id| {
                !report
                    .cells
                    .iter()
                    .any(|c| &c.fault_id == id && c.outcome.noticed())
            })
            .collect();
        if unnoticed.is_empty() {
            println!("OK: every infrastructure fault was noticed by at least one schedule");
        } else {
            println!(
                "named infrastructure escapes (present in the matrix, detected nowhere): {unnoticed:?}"
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
