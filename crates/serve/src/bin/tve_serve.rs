//! `tve-serve` — the validation daemon.
//!
//! Binds a Unix-domain socket, warms a `tve-sched` farm, and serves
//! schedule/campaign/lint jobs from the content-addressed result cache
//! until a client sends `shutdown`. See `tve-client` for the matching
//! CLI and `DESIGN.md` for the protocol.

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use tve_serve::{install_sigterm_drain, serve, ServeOptions};

const USAGE: &str = "usage: tve-serve [options]
  --socket PATH        listen here (default target/tve-serve.sock,
                       or $TVE_SERVE_SOCKET)
  --workers N          farm worker count (default: TVE_JOBS / cores)
  --verify-cache F     re-execute each cache hit with probability F
                       in [0, 1] and require bit-identical results
  --cache-file PATH    load the result cache from PATH on start and
                       persist it there on clean shutdown
  --max-running N      admission run cap (default 2)
  --max-queue N        admission queue bound before shedding (default 8)
  --cost-cap NS        shed schedule and campaign submissions whose
                       certified cost estimate would push committed
                       load past NS
  --deadline-ms MS     default per-job deadline (jobs may override)
  --retries N          supervised-farm retry budget: a panicked worker
                       attempt is retried on a fresh worker (default 1)
  --read-timeout-ms MS per-connection read timeout (default 30000)
  --chaos SPEC         deterministic fault injection, e.g.
                       worker-panic@1,frame-corrupt@2,snapshot-enospc@1
  --quiet              suppress per-request logging
SIGTERM drains gracefully: running jobs finish, the cache snapshot is
persisted, new submissions are refused with a typed error.
";

/// Parses a flag's numeric value; the error names the flag.
fn num<T: FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

fn main() -> ExitCode {
    let mut options = ServeOptions::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} wants a value"))
        };
        let parsed: Result<(), String> = (|| {
            match flag {
                "--socket" => options.socket = PathBuf::from(value()?),
                "--workers" => options.workers = Some(num::<usize>(flag, &value()?)?.max(1)),
                "--verify-cache" => {
                    let fraction: f64 = num(flag, &value()?)?;
                    if !(0.0..=1.0).contains(&fraction) {
                        return Err("--verify-cache wants a fraction in [0, 1]".into());
                    }
                    options.verify = Some(fraction);
                }
                "--cache-file" => options.cache_file = Some(PathBuf::from(value()?)),
                "--max-running" => options.max_running = num::<usize>(flag, &value()?)?.max(1),
                "--max-queue" => options.max_queue = num(flag, &value()?)?,
                "--cost-cap" => {
                    options.cost_cap = num(flag, &value()?)?;
                    if options.cost_cap <= 0.0 {
                        return Err("--cost-cap wants a positive number".into());
                    }
                }
                "--deadline-ms" => options.deadline_ms = Some(num::<u64>(flag, &value()?)?.max(1)),
                "--retries" => options.retries = num(flag, &value()?)?,
                "--read-timeout-ms" => {
                    options.read_timeout_ms = num::<u64>(flag, &value()?)?.max(1)
                }
                "--chaos" => options.chaos = value()?,
                "--quiet" => options.quiet = true,
                "--help" | "-h" => {
                    print!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
            Ok(())
        })();
        if let Err(message) = parsed {
            eprintln!("tve-serve: {message}");
            return ExitCode::from(2);
        }
        i += 1;
    }
    options.watch_signals = true;
    install_sigterm_drain();
    match serve(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tve-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
