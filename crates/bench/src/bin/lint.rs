//! Static analysis of the paper's schedules and example ATE programs —
//! the `tve-lint` front end.
//!
//! Lints the four Table-I schedules and the example test programs against
//! the seven-test plan's static facts, prints a human table, writes the
//! structured reports as a JSON artifact, and exits nonzero when any
//! error-severity diagnostic is present — so CI can run it as a check.
//!
//! Usage: `lint [--seed-defect] [--budget P] [--json PATH] [--bounds]
//! [--bounds-json PATH] [--program PATH]...` —
//! `--seed-defect` adds a deliberately broken schedule and program (the
//! walkthrough exhibits; the exit code must go nonzero), `--budget`
//! enables the phase power check, extra `--program` files are linted
//! alongside the embedded examples, and the artifact lands at
//! `target/lint_report.json` by default. `--bounds` additionally
//! computes the certified static envelopes of every linted schedule
//! (human table plus a versioned JSON artifact, default
//! `target/bounds_report.json`) — pure analysis, no simulation.
//! `tve-client --preset paper lint --program
//! examples/programs/production.tvp` and `tve-client --preset paper
//! bounds` ask a `tve-serve` daemon for the same reports of the four
//! schedules and the production program.

use std::path::PathBuf;

use tve_bench::write_artifact;
use tve_core::Schedule;
use tve_lint::{lint_program_report, lint_schedule_report, reports_to_json, soc_facts, LintReport};
use tve_obs::check_json;
use tve_soc::{paper_schedules, Workload};

const PRODUCTION_TVP: &str = include_str!("../../../../examples/programs/production.tvp");
const SEEDED_DEFECT_TVP: &str = include_str!("../../../../examples/programs/seeded_defect.tvp");

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

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
    let seed_defect = args.iter().any(|a| a == "--seed-defect");
    let bounds = args.iter().any(|a| a == "--bounds");
    let budget = arg_value(&args, "--budget").and_then(|s| s.parse::<f64>().ok());
    let json_path = PathBuf::from(
        arg_value(&args, "--json").unwrap_or_else(|| "target/lint_report.json".into()),
    );
    let bounds_path = PathBuf::from(
        arg_value(&args, "--bounds-json").unwrap_or_else(|| "target/bounds_report.json".into()),
    );

    let (config, plan) = Workload::paper().build();
    let mut facts = soc_facts(&config, &plan);
    if let Some(b) = budget {
        facts = facts.with_budget(b);
    }

    let mut schedules: Vec<Schedule> = paper_schedules().to_vec();
    if seed_defect {
        // The walkthrough exhibit: phases 1 and 2 of schedule 1 merged —
        // T1 and T2 race for the processor — plus a duplicated test.
        schedules.push(Schedule::new(
            "seeded defect (proc race + dup)",
            vec![vec![0, 1], vec![3], vec![4], vec![6], vec![0]],
        ));
    }

    let mut reports: Vec<LintReport> = schedules
        .iter()
        .map(|s| lint_schedule_report(s, &facts))
        .collect();

    reports.push(lint_program_report(
        "examples/programs/production.tvp",
        PRODUCTION_TVP,
        &facts,
    ));
    if seed_defect {
        reports.push(lint_program_report(
            "examples/programs/seeded_defect.tvp",
            SEEDED_DEFECT_TVP,
            &facts,
        ));
    }
    for path in arg_values(&args, "--program") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read program '{path}': {e}");
            std::process::exit(2);
        });
        reports.push(lint_program_report(&path, &text, &facts));
    }

    println!(
        "static analysis: {} schedules, {} programs, {} tests in plan{}",
        schedules.len(),
        reports.len() - schedules.len(),
        facts.tests.len(),
        budget.map_or_else(String::new, |b| format!(", power budget {b}")),
    );
    for report in &reports {
        println!();
        println!("{report}");
    }

    if bounds {
        let envelopes = tve_lint::schedule_envelopes(&config, &plan, &schedules, 0);
        println!("\ncertified static bounds (cycle-accurate):");
        print!("{}", tve_lint::bounds_table(&envelopes));
        let bounds_json = tve_lint::bounds_reports_to_json(&envelopes);
        if let Err(e) = check_json(&bounds_json) {
            eprintln!("error: bounds JSON is not well-formed: {e}");
            std::process::exit(2);
        }
        write_artifact(&bounds_path, &bounds_json);
        println!(
            "{} envelope(s) -> {}",
            envelopes.len(),
            bounds_path.display()
        );
    }

    let errors: usize = reports.iter().map(LintReport::error_count).sum();
    let warnings: usize = reports.iter().map(LintReport::warning_count).sum();

    let json = reports_to_json(&reports);
    if let Err(e) = check_json(&json) {
        eprintln!("error: lint JSON is not well-formed: {e}");
        std::process::exit(2);
    }
    write_artifact(&json_path, &json);
    println!(
        "\n{} report(s), {errors} error(s), {warnings} warning(s) -> {}",
        reports.len(),
        json_path.display()
    );

    if errors > 0 {
        eprintln!("FAIL: error-severity diagnostics present");
        std::process::exit(1);
    }
    println!("OK: no error-severity diagnostics");
}
