//! Certified-pruning snapshot for the `BENCH_static_bounds.json`
//! trajectory: measures — and *asserts* — the two claims behind
//! proof-carrying exploration pruning.
//!
//! 1. **Exactness** — `explore_certified` with pruning returns a Pareto
//!    front byte-identical to exhaustive validation of the same
//!    candidate pool, and every simulated run lands inside its static
//!    envelope (zero soundness violations).
//! 2. **Payoff** — at least 30% of the candidates are discarded on
//!    their static lower bound alone, without simulation, and the
//!    static analysis costs microseconds per candidate against
//!    simulations costing milliseconds.
//!
//! Usage: `bounds_bench [--out PATH] [--check [BASELINE]] [--quick]`
//!
//! `--out` (default `target/BENCH_static_bounds.json`) is the fresh
//! snapshot; pass `--out BENCH_static_bounds.json` to re-record the
//! committed baseline. `--check` additionally gates every deterministic
//! scalar against the committed baseline at ±25% — candidate counts,
//! pruning fraction and front size are bit-deterministic, so any drift
//! means the analysis or the dominance rule changed, not the machine.
//! Wall-clocks are recorded for trend reading but never gated.
//! `--quick` shrinks the workload and skips the baseline gate (the
//! exactness assertions still run).

use std::path::Path;
use std::time::Instant;

use tve_bench::{drift_failures, write_artifact};
use tve_core::Schedule;
use tve_sched::{enumerate_schedules, estimate_tasks, explore_certified, Constraints};
use tve_soc::{paper_schedules, SocConfig, SocTestPlan};

fn fail(message: &str) -> ! {
    eprintln!("bounds_bench FAILED: {message}");
    std::process::exit(1);
}

struct Snapshot {
    candidates: usize,
    simulated: usize,
    pruned: usize,
    front_size: usize,
    analysis_us_per_candidate: f64,
    exhaustive_wall_s: f64,
    certified_wall_s: f64,
}

impl Snapshot {
    fn pruned_fraction(&self) -> f64 {
        self.pruned as f64 / self.candidates as f64
    }

    fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"tve-static-bounds-bench/1\",\n  \
             \"candidates\": {},\n  \"simulated\": {},\n  \
             \"pruned\": {},\n  \"pruned_fraction\": {:.6},\n  \
             \"front_size\": {},\n  \"front_identical\": true,\n  \
             \"violations\": 0,\n  \
             \"analysis_us_per_candidate\": {:.3},\n  \
             \"exhaustive_wall_s\": {:.4},\n  \"certified_wall_s\": {:.4}\n}}\n",
            self.candidates,
            self.simulated,
            self.pruned,
            self.pruned_fraction(),
            self.front_size,
            self.analysis_us_per_candidate,
            self.exhaustive_wall_s,
            self.certified_wall_s,
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "target/BENCH_static_bounds.json".into());
    let check = args.iter().position(|a| a == "--check").map(|i| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_static_bounds.json".into())
    });

    // The bench SoC: the paper workload at reduced pattern counts (and
    // a matching memory reduction, as the bench preset does) so each
    // simulation takes tens of milliseconds and the pool finishes in
    // seconds. The envelopes are exact at any scale.
    let (scale, pool_limit) = if quick { (1000, 8) } else { (200, 24) };
    let mut config = SocConfig::paper();
    config.memory_words = 2622;
    let plan = SocTestPlan::paper_scaled(scale);
    let tasks = estimate_tasks(&config, &plan);
    let constraints = Constraints {
        tam_capacity: 1.0,
        power_budget: 400,
    };
    let mut pool: Vec<Schedule> = paper_schedules().into_iter().collect();
    pool.extend(enumerate_schedules(&tasks, &constraints, pool_limit));
    eprintln!(
        "pool: 4 paper schedules + {} enumerated partitions (scale 1/{scale})",
        pool.len() - 4
    );

    // --- exhaustive: simulate everything ------------------------------
    let t = Instant::now();
    let exhaustive = explore_certified(&config, &plan, &tasks, &constraints, &pool, false);
    let exhaustive_wall_s = t.elapsed().as_secs_f64();
    if !exhaustive.violations.is_empty() {
        fail(&format!(
            "exhaustive run violated its own envelopes: {:?}",
            exhaustive.violations
        ));
    }
    if exhaustive.pruned() != 0 {
        fail("exhaustive run must not prune");
    }

    // --- certified: prune on static lower bounds ----------------------
    let t = Instant::now();
    let certified = explore_certified(&config, &plan, &tasks, &constraints, &pool, true);
    let certified_wall_s = t.elapsed().as_secs_f64();
    if !certified.violations.is_empty() {
        fail(&format!(
            "certified run violated its envelopes: {:?}",
            certified.violations
        ));
    }
    let front = exhaustive.front_signature();
    if certified.front_signature() != front {
        fail(&format!(
            "pruning changed the front:\n  exhaustive: {front}\n  certified:  {}",
            certified.front_signature()
        ));
    }
    println!(
        "exactness: OK — certified front identical to exhaustive ({} points)",
        certified.front_points().len()
    );
    for proof in certified.proofs() {
        println!("  {proof}");
    }

    let snap = Snapshot {
        candidates: certified.candidates.len(),
        simulated: certified.simulated(),
        pruned: certified.pruned(),
        front_size: certified.front_points().len(),
        analysis_us_per_candidate: certified.analysis_ns as f64
            / 1e3
            / certified.candidates.len() as f64,
        exhaustive_wall_s,
        certified_wall_s,
    };
    println!(
        "payoff: {} of {} candidates pruned without simulation ({:.0}%), \
         analysis {:.1} us/candidate, wall {:.2}s vs {:.2}s exhaustive",
        snap.pruned,
        snap.candidates,
        snap.pruned_fraction() * 100.0,
        snap.analysis_us_per_candidate,
        certified_wall_s,
        exhaustive_wall_s
    );
    if !quick && snap.pruned_fraction() < 0.30 {
        fail(&format!(
            "pruned fraction {:.2} below the 30% acceptance bound",
            snap.pruned_fraction()
        ));
    }

    // Read the baseline before writing: with `--out
    // BENCH_static_bounds.json` they are the same file.
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
    println!("wrote {out}");

    let Some(baseline_path) = check else { return };
    if quick {
        println!("--quick: skipping baseline gate");
        return;
    }
    let baseline_text = baseline_text.expect("baseline read above when checking");

    // Every gated scalar is bit-deterministic, so the ±25% band is pure
    // headroom for intentional pool re-sizing — real drift means the
    // envelopes or the dominance rule changed.
    let tracked = [
        ("candidates", snap.candidates as f64),
        ("simulated", snap.simulated as f64),
        ("pruned", snap.pruned as f64),
        ("pruned_fraction", snap.pruned_fraction()),
        ("front_size", snap.front_size as f64),
    ];
    let failures = drift_failures(&baseline_text, &baseline_path, &tracked);

    if failures.is_empty() {
        println!(
            "bounds gate: OK (all metrics within ±25% of {baseline_path}, \
             front identical, >=30% pruned)"
        );
    } else {
        eprintln!("bounds gate FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
