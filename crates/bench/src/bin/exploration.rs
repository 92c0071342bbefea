//! Scheduler design-space exploration harness: coarse estimation over
//! candidate schedules, Pareto front, and simulation-based validation of
//! the finalists — the full "test exploration and validation" loop of the
//! paper's title, beyond the four hand-written schedules of Table I.
//!
//! Usage: `exploration [--power-budget N] [--scale N] [--certified]
//! [--trace [path]]`.
//!
//! With `--certified` the validation pass runs through
//! [`tve_sched::explore_certified`]: every candidate gets a certified
//! static envelope, and candidates whose lower bound is dominated by an
//! already-simulated incumbent are discarded with a machine-checkable
//! proof record instead of being simulated — the printed Pareto front
//! is identical to exhaustive validation by construction.
//!
//! With `--trace` (or `TVE_TRACE`) the best finalist is re-simulated with
//! the span recorder attached and a Chrome-trace JSON is written (default
//! `target/trace_exploration.json`) — the timeline Perfetto view of the
//! winning schedule.

use tve_bench::{trace_output, write_artifact};
use tve_core::Schedule;
use tve_obs::{check_json, write_chrome_trace, StoragePolicy};
use tve_sched::{
    default_workers, enumerate_schedules, estimate_tasks, explore, explore_certified,
    validate_schedules, Constraints,
};
use tve_soc::{paper_schedules, run_scenario_prepared_traced, SocConfig, SocTestPlan};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |name: &str, default: u64| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(default)
    };
    let power_budget = arg("--power-budget", 400) as u32;
    let scale = arg("--scale", 20);
    let certified = args.iter().any(|a| a == "--certified");

    let config = SocConfig::paper();
    let plan = SocTestPlan::paper();
    let tasks = estimate_tasks(&config, &plan);

    println!("task descriptions (coarse scheduler view):");
    for t in &tasks {
        println!(
            "  {t}  [{}]",
            t.resources
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    let constraints = Constraints {
        tam_capacity: 1.0,
        power_budget,
    };
    let report = explore(&tasks, &constraints, &paper_schedules());
    println!("\ncandidates under power budget {power_budget} (fastest first):");
    for c in &report.candidates {
        println!("  {c}");
    }
    println!("\nPareto front (test time x peak power):");
    for c in report.pareto_front() {
        println!("  {c}");
    }

    let sim_plan = SocTestPlan::paper_scaled(scale);
    let sim_tasks = estimate_tasks(&config, &sim_plan);

    if certified {
        let mut pool: Vec<Schedule> = paper_schedules().into_iter().collect();
        pool.extend(enumerate_schedules(&sim_tasks, &constraints, 12));
        // `explore` adds its own schedules (optimal, greedy, sequential)
        // to the pool, so the count is the report's.
        let report = explore_certified(&config, &sim_plan, &sim_tasks, &constraints, &pool, true);
        assert!(
            report.violations.is_empty(),
            "envelope soundness violated: {:?}",
            report.violations
        );
        println!(
            "\ncertified exploration over {} candidates (prune on static lower bounds):",
            report.candidates.len()
        );
        println!(
            "  {} simulated, {} pruned without simulation ({:.0}%)",
            report.simulated(),
            report.pruned(),
            report.pruned_fraction() * 100.0
        );
        println!(
            "  static analysis: {:.2} ms host time",
            report.analysis_ns as f64 / 1e6
        );
        for proof in report.proofs() {
            println!("  {proof}");
        }
        println!("  certified Pareto front (identical to exhaustive by construction):");
        for (name, cycles, power) in report.front_points() {
            println!("    {name}: {cycles} cycles, peak power {power}");
        }
    }

    println!(
        "\nvalidating the top three by TLM simulation \
         (1/{scale} scale, farm of {} workers):",
        default_workers()
    );
    let finalists: Vec<_> = report
        .candidates
        .iter()
        .take(3)
        .map(|c| c.schedule.clone())
        .collect();
    let validations = validate_schedules(&config, &sim_plan, &sim_tasks, &finalists);
    for (schedule, validation) in finalists.iter().zip(&validations) {
        match validation {
            Ok(v) => println!("  {:<34} {v}", schedule.name),
            Err(e) => println!("  {:<34} invalid: {e}", schedule.name),
        }
    }

    if let Some(path) = trace_output(&args, "target/trace_exploration.json") {
        let best = &finalists[0];
        let (metrics, log) = run_scenario_prepared_traced(
            &config,
            &sim_plan,
            best,
            StoragePolicy::Unbounded,
            |_| {},
        )
        .expect("best finalist validated above, so it must simulate");
        assert!(metrics.result.clean());
        let mut buf = Vec::new();
        write_chrome_trace(&log, &mut buf).expect("in-memory trace serialization");
        let text = String::from_utf8(buf).expect("chrome trace is UTF-8");
        if let Err(e) = check_json(&text) {
            eprintln!("error: generated chrome trace is not valid JSON: {e}");
            std::process::exit(2);
        }
        write_artifact(&path, &text);
        println!(
            "\nchrome trace of '{}': {} ({} spans, {} tracks) — open in \
             https://ui.perfetto.dev",
            best.name,
            path.display(),
            log.spans.len(),
            log.tracks().len()
        );
    }
}
