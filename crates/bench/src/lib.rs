//! # tve-bench — experiment harnesses and microbenchmarks
//!
//! Binaries regenerating the paper's evaluation artifacts:
//!
//! * `table1` — Table I (peak/avg TAM utilization, test length, CPU time
//!   for the four schedules); pass `--scale N` to divide pattern counts.
//! * `abstraction_sweep` — the Section IV speed claim (TLM vs RTL
//!   granularity, cycles/second and extrapolated time for 300 Mcycles).
//! * `exploration` — scheduler design-space exploration with
//!   simulation-based validation (estimate vs simulated error).
//! * `compression_sweep` — test-data compression ratio exploration.
//! * `tam_architectures` — serial chain vs bus vs NoC TAM on the same
//!   workloads.
//! * `tam_width_staircase` — test time versus TAM width.
//! * `noc_soc_scenarios` — the Table I schedules on the NoC-TAM SoC.
//! * `power_profile` — peak/average power of the four schedules.
//! * `bist_coverage` — random-pattern BIST fault-coverage curve.
//! * `aliasing_study` — empirical MISR aliasing rates.
//! * `lint` — static analysis and certified bound envelopes of the
//!   schedules and ATE programs.
//! * `campaign` — the fault-injection campaign matrix, sharded or
//!   journaled.
//!
//! These binaries run in-process. `tve-client` (in `tve-serve`) is the
//! one client that sends the same schedule, campaign, lint and bounds
//! work to a running daemon.
//!
//! Criterion microbenchmarks live in `benches/` (kernel throughput, bus
//! arbitration, pattern generation, march engine, scenario ablations).
//! End-to-end and per-layer timings are the repo benchmark's
//! (`benchmark/`); exact invariants are `cargo test` assertions.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use std::path::{Path, PathBuf};

/// Formats a Table-I-style row for terminal output.
pub fn format_row(cols: &[String], widths: &[usize]) -> String {
    cols.iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Relative error `|measured - reference| / |reference|` in percent.
pub fn rel_err_pct(measured: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    ((measured - reference) / reference).abs() * 100.0
}

/// Writes a benchmark artifact to `path`, creating parent directories.
///
/// All bench binaries route their file output through this helper so a
/// failure (read-only target dir, bad path from `--trace`) produces one
/// clear diagnostic on stderr and a nonzero exit instead of an opaque
/// `unwrap` panic.
pub fn write_artifact(path: &Path, contents: &str) {
    let attempt = (|| -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, contents)
    })();
    if let Err(e) = attempt {
        eprintln!("error: cannot write artifact {}: {e}", path.display());
        std::process::exit(2);
    }
}

/// Resolves the trace-output path requested on the command line.
///
/// Returns `Some(path)` when tracing was requested, `None` otherwise:
///
/// * `--trace <path>` uses the explicit path (a following argument that
///   itself starts with `--` is treated as the next flag, not a path),
/// * bare `--trace` falls back to `default`,
/// * the `TVE_TRACE` environment variable acts like `--trace [path]`
///   (empty value or `1` means "use the default path", `0` means off).
pub fn trace_output(args: &[String], default: &str) -> Option<PathBuf> {
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let explicit = args
            .get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .map(PathBuf::from);
        return Some(explicit.unwrap_or_else(|| PathBuf::from(default)));
    }
    match std::env::var("TVE_TRACE") {
        Ok(v) if v == "0" => None,
        Ok(v) if v.is_empty() || v == "1" => Some(PathBuf::from(default)),
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formatting_aligns_right() {
        let row = format_row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(row, "  a    bb");
    }

    #[test]
    fn relative_error() {
        assert_eq!(rel_err_pct(110.0, 100.0), 10.0);
        assert_eq!(rel_err_pct(90.0, 100.0), 10.0);
        assert_eq!(rel_err_pct(5.0, 0.0), 0.0);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn trace_flag_with_explicit_path() {
        let out = trace_output(&args(&["bin", "--trace", "out/t.json"]), "d.json");
        assert_eq!(out, Some(PathBuf::from("out/t.json")));
    }

    #[test]
    fn trace_flag_bare_uses_default() {
        let out = trace_output(&args(&["bin", "--trace"]), "d.json");
        assert_eq!(out, Some(PathBuf::from("d.json")));
        // A following flag is not consumed as the path.
        let out = trace_output(&args(&["bin", "--trace", "--detail"]), "d.json");
        assert_eq!(out, Some(PathBuf::from("d.json")));
        // `TVE_TRACE=0` is off, not a path named `0`; the flag still wins.
        std::env::set_var("TVE_TRACE", "0");
        assert_eq!(trace_output(&args(&["bin"]), "d.json"), None);
        let out = trace_output(&args(&["bin", "--trace"]), "d.json");
        std::env::remove_var("TVE_TRACE");
        assert_eq!(out, Some(PathBuf::from("d.json")));
    }

    #[test]
    fn write_artifact_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("tve-bench-artifact-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/deep/file.txt");
        write_artifact(&path, "payload");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "payload");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
