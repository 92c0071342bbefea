//! The repository benchmark: Table I in cycle-accurate and loosely-timed
//! mode, a bit-true fault campaign and a served-job mix, each with its
//! host time attributed to the workspace layers it exercises.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--out PATH]
//! benchmark compare A.json[,A2.json...] B.json[,B2.json...]
//! ```
//!
//! Every workload runs in its own child process with the `TVE_*`
//! environment scrubbed, measures for about `--seconds`, checks its
//! outputs, scales its timings to a nominal host speed where a reference
//! kernel tracks the host (see `host`), and prints one JSON line: the
//! end-to-end metrics, or with
//! `--trace 1` the per-layer metrics of an extra traced pass (written as
//! Chrome-trace JSON to `target/benchmark/trace-<workload>.json`). All
//! metrics of every workload run also go to the results file (`--out`,
//! default `target/benchmark/results.json`), which `compare` reads.

mod campaign;
mod compare;
mod host;
mod micro;
mod report;
mod scenario;
mod serve;
mod stats;
mod table1;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{metrics_json, peak_rss_mb, Report, END_TO_END, PER_LAYER};

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = [
    "table1_accurate",
    "table1_loose",
    "campaign_full",
    "serve_mix",
];

/// Per-layer metrics that only one workload measures: the result cache
/// and the round-trip tail of the served mix, and the cell tail of the
/// campaign.
const ONE_WORKLOAD_METRICS: [(&str, &str); 3] = [
    ("serve.hit_rate_pct", "serve_mix"),
    ("serve.rtt_p99_ms", "serve_mix"),
    ("campaign.cell_p99_ms", "campaign_full"),
];

/// Where sockets, traces and results go.
pub const OUT_DIR: &str = "target/benchmark";

/// Environment variables that would silently change what a workload
/// measures (timing mode, farm size, tracing, daemon socket).
const SCRUBBED_ENV: [&str; 4] = ["TVE_QUANTUM", "TVE_JOBS", "TVE_TRACE", "TVE_SERVE_SOCKET"];

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--out PATH]\n       \
                     benchmark compare A.json[,A2.json...] B.json[,B2.json...]";

/// Input size: the benchmark itself, or a seconds-long smoke run of the
/// same code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// Tiny inputs through the same code paths.
    Quick,
}

/// How one workload runs.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether to add a traced pass and the layer microbenchmarks.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Where to write the Chrome trace (`None` = validate only).
    pub trace_out: Option<PathBuf>,
}

impl Opts {
    /// Seconds of untraced passes: a traced run spends half its budget
    /// on them (the tracing-overhead reference) and the rest on the
    /// traced pass and the microbenchmarks.
    pub fn measure_s(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Runs workload `name` in this process.
pub fn run_workload(name: &str, opts: &Opts) -> Report {
    let mut report = match name {
        "table1_accurate" => table1::run(opts, 0),
        "table1_loose" => table1::run(opts, table1::LOOSE_QUANTUM),
        "campaign_full" => campaign::run(opts),
        "serve_mix" => serve::run(opts),
        other => unreachable!("unknown workload {other}"),
    };
    if opts.trace {
        finish_trace(name, &mut report, opts);
        micro::run(&mut report, opts.size);
        // Metrics only one workload measures read 0 with no samples
        // elsewhere, so every traced run carries every per-layer metric.
        for (metric, only_on) in ONE_WORKLOAD_METRICS {
            if name != only_on {
                report.put(metric, 0.0, 0);
            }
        }
    }
    report.calibrate();
    match peak_rss_mb() {
        Some(mb) => report.put("peak_rss_mb", mb, 1),
        None => report.gate(false, || "cannot read VmHWM from /proc/self/status".into()),
    }
    report
}

/// Checks and reports the traced pass: per-layer self time, tracing
/// overhead, and a Chrome trace that parses.
fn finish_trace(name: &str, report: &mut Report, opts: &Opts) {
    let spans = std::mem::take(&mut report.spans);
    let own = trace::self_times(&spans);
    // Every root's self time is time no layer span covered: the
    // harness's own share, which must stay under 5% of the root.
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        let share = own[&root.id] as f64 / root.dur_ns().max(1) as f64;
        report.gate(share <= 0.05, || {
            format!(
                "{}: {:.1}% of the traced wall is not attributed to a layer",
                root.name,
                share * 100.0
            )
        });
    }
    let traced_s = spans
        .iter()
        .find(|s| s.name == "bench.pass")
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e9);
    let untraced_s = report.metrics.get("wall_s").map_or(0.0, |m| m.value);
    report.put(
        "obs.trace_overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        1,
    );
    eprintln!(
        "{name}: traced pass {traced_s:.3} s vs untraced median {untraced_s:.3} s; self time by layer:"
    );
    let layers = trace::layer_self_s(&spans);
    let total: f64 = layers.values().sum();
    for (layer, s) in &layers {
        eprintln!("  {layer:<9} {s:>9.4} s  {:>5.1}%", s / total * 100.0);
    }
    let json = trace::chrome_json(&spans);
    report.gate(tve_obs::check_json(&json).is_ok(), || {
        "the Chrome trace is not valid JSON".into()
    });
    if let Some(path) = &opts.trace_out {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, &json));
        report.gate(written.is_ok(), || {
            format!("cannot write {}", path.display())
        });
    }
}

struct Cli {
    workloads: Vec<String>,
    opts: Opts,
    child: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        opts: Opts {
            seed: 1,
            seconds: 25.0,
            trace: false,
            size: Size::Full,
            trace_out: None,
        },
        child: false,
        out: PathBuf::from(format!("{OUT_DIR}/results.json")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} wants a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; known: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                cli.workloads.push(w.clone());
            }
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if cli.opts.seconds.is_nan() || cli.opts.seconds < 0.0 {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other:?}")),
                }
            }
            "--quick" => cli.opts.size = Size::Quick,
            "--out" => cli.out = PathBuf::from(value()?),
            "--child" => cli.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(cli)
}

/// The child: runs one workload and prints its report as the last line.
fn child(name: &str, mut opts: Opts) -> ExitCode {
    if opts.trace {
        opts.trace_out = Some(PathBuf::from(format!("{OUT_DIR}/trace-{name}.json")));
    }
    let report = run_workload(name, &opts);
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `name` in a child process of this executable with the `TVE_*`
/// environment removed, and reads back its report.
fn spawn_child(name: &str, cli: &Cli) -> Report {
    let failed = |why: String| {
        let mut r = Report::default();
        r.gate(false, || why);
        r
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("cannot locate this executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", name])
        .args(["--seed", &cli.opts.seed.to_string()])
        .args(["--seconds", &cli.opts.seconds.to_string()])
        .args(["--trace", if cli.opts.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if cli.opts.size == Size::Quick {
        cmd.arg("--quick");
    }
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => return failed(format!("cannot run the {name} child: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_string())
        .and_then(|line| tve_obs::parse_json(line).map_err(|e| e.to_string()))
        .and_then(|v| Report::from_json(&v));
    match parsed {
        Ok(mut r) => {
            if !output.status.success() && r.correct() {
                r.gate(false, || {
                    format!("{name} child exited with {}", output.status)
                });
            }
            r
        }
        Err(e) => failed(format!("{name} child ({}): {e}", output.status)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.child {
        return child(&cli.workloads[0], cli.opts.clone());
    }

    let mut all_correct = true;
    let mut results = format!(
        "{{\"schema\":\"tve-benchmark/1\",\"seed\":{},\"seconds\":{},\"trace\":{},\"workloads\":{{",
        cli.opts.seed, cli.opts.seconds, cli.opts.trace
    );
    for (i, name) in cli.workloads.iter().enumerate() {
        let report = spawn_child(name, &cli);
        all_correct &= report.correct();
        summarize(name, &report);
        let shown: Vec<&str> = if cli.opts.trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            report.correct(),
            report.attempted.max(1),
            report.failed,
            metrics_json(&report.metrics, |n| shown.contains(&n), false)
        );
        if i > 0 {
            results.push(',');
        }
        results.push_str(&format!("\"{name}\":{}", report.to_json()));
    }
    results.push_str("}}\n");
    let written = cli
        .out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&cli.out, results));
    if let Err(e) = written {
        eprintln!("error: cannot write {}: {e}", cli.out.display());
        all_correct = false;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints every metric of one workload with its unit and sample count.
fn summarize(name: &str, report: &Report) {
    eprintln!(
        "== {name}: {} ({} attempted, {} failed)",
        if report.correct() {
            "correct"
        } else {
            "INCORRECT"
        },
        report.attempted,
        report.failed
    );
    for f in &report.failures {
        eprintln!("   gate failed: {f}");
    }
    for (metric, m) in &report.metrics {
        eprintln!("   {metric:<28} {:>16.6} {:<6} n={}", m.value, m.unit, m.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_of_every_workload_reports_every_metric() {
        let opts = Opts {
            seed: 3,
            seconds: 0.0,
            trace: true,
            size: Size::Quick,
            trace_out: None,
        };
        let started = std::time::Instant::now();
        for name in WORKLOADS {
            let report = run_workload(name, &opts);
            assert!(report.correct(), "{name}: {:?}", report.failures);
            assert!(report.attempted > 0, "{name}");
            let names = END_TO_END.iter().map(|m| m.0);
            for metric in names.chain(PER_LAYER.iter().map(|m| m.0)) {
                let m = report.metrics.get(metric);
                assert!(
                    m.is_some_and(|m| m.value.is_finite()),
                    "{name}: {metric} missing"
                );
            }
        }
        eprintln!("quick run took {:.1} s", started.elapsed().as_secs_f64());
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse(&args(
            "--workload serve_mix --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workloads, vec!["serve_mix"]);
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (9, 10.0, true)
        );
        assert_eq!(parse(&[]).unwrap().workloads.len(), 4);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds")).is_err());
        assert!(parse(&args("--seconds -1")).is_err());
    }
}
