//! `tve-client` — CLI for the `tve-serve` daemon.
//!
//! ```text
//! tve-client [--socket PATH] <command> [flags]
//! ```
//!
//! Commands: `ping`, `stats`, `shutdown`, `drain`, `schedule`, `campaign`,
//! `lint`, `bounds`, `invalidate`. Every job is answered on the
//! connection that submitted it. Workload flags
//! (`--preset`, `--scale`, `--mem-words`, `--set key=value`) select
//! what the job runs against; see `DESIGN.md` for the full protocol.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use tve_obs::JsonValue;
use tve_serve::{
    render_response, request_with_retry, submit_with_retry, Client, JobKind, JobSpec, RetryPolicy,
};
use tve_soc::{PlanOverrides, Workload, WorkloadPreset};

const USAGE: &str = "usage: tve-client [--socket PATH] <command> [flags]
commands:
  ping                       round-trip the daemon
  stats                      cache/serving statistics
  shutdown                   stop the daemon cleanly
  drain                      SIGTERM equivalent: finish running jobs,
                             persist the cache, refuse new submissions
  schedule  --index N        run one Table-I schedule fault-free
  campaign                   run a fault campaign
    [--schedules 1,3] [--faults N] [--seed S] [--no-diagnosis]
    [--csv FILE] [--json FILE]
  lint                       static schedule (and program) lint
    [--schedules 1,2] [--program FILE] [--json FILE]
  bounds                     certified static bound envelopes — answered
    [--schedules 1,2] [--json FILE]  without simulation
                             (--json writes the report artifact)
  invalidate --set k=v ...   predict an edit's blast radius and evict
workload flags (schedule/campaign/lint/invalidate):
  --preset paper|small|bench   base workload (default small)
  --scale N                    divide pattern counts by N
  --mem-words N                memory size override
  --set key=value              plan override (repeatable)
job flags:
  --verify F                 re-execute cache hits with probability F
  --out FILE                 also write the result JSON to FILE
  --deadline MS              per-job deadline; overruns are cancelled at
                             the next kernel quantum and reported typed
robustness flags:
  --retries N                retry transport failures and overloaded
                             rejections with seeded exponential backoff
                             (default 0: one attempt)
  --retry-seed S             backoff jitter seed (deterministic)
";

struct Cli {
    socket: String,
    command: Option<String>,
    index: Option<usize>,
    schedules: Option<Vec<usize>>,
    faults: usize,
    seed: u64,
    diagnosis: bool,
    verify: Option<f64>,
    preset: WorkloadPreset,
    scale: u64,
    mem_words: Option<u32>,
    overrides: PlanOverrides,
    program: Option<String>,
    csv: Option<String>,
    json: Option<String>,
    out: Option<String>,
    deadline_ms: Option<u64>,
    retries: u32,
    retry_seed: Option<u64>,
}

impl Cli {
    /// The retry policy of `--retries` (0: one attempt) and
    /// `--retry-seed`.
    fn retry_policy(&self) -> RetryPolicy {
        let default = RetryPolicy::default();
        RetryPolicy {
            retries: self.retries,
            seed: self.retry_seed.unwrap_or(default.seed),
            ..default
        }
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("cannot connect to {}: {e}", self.socket))
    }

    /// Sends `request` through [`request_with_retry`].
    fn request(&self, request: &str) -> Result<JsonValue, String> {
        request_with_retry(&self.socket, request, &self.retry_policy()).map_err(|e| e.to_string())
    }
}

/// Parses a flag's numeric value; the error names the flag.
fn num<T: FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        socket: std::env::var("TVE_SERVE_SOCKET")
            .unwrap_or_else(|_| tve_serve::DEFAULT_SOCKET.into()),
        command: None,
        index: None,
        schedules: None,
        faults: 2,
        seed: 20090417,
        diagnosis: true,
        verify: None,
        preset: WorkloadPreset::Small,
        scale: 1,
        mem_words: None,
        overrides: PlanOverrides::default(),
        program: None,
        csv: None,
        json: None,
        out: None,
        deadline_ms: None,
        retries: 0,
        retry_seed: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut value = || -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} wants a value"))
        };
        match flag.as_str() {
            "--socket" => cli.socket = value()?,
            "--index" => cli.index = Some(num(&flag, &value()?)?),
            "--schedules" => {
                let mut indices = Vec::new();
                for part in value()?.split(',') {
                    indices.push(
                        part.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|i| (1..=4).contains(i))
                            .ok_or("--schedules wants comma-separated indices in 1..=4")?,
                    );
                }
                cli.schedules = Some(indices);
            }
            "--faults" => cli.faults = num(&flag, &value()?)?,
            "--seed" => cli.seed = num(&flag, &value()?)?,
            "--no-diagnosis" => cli.diagnosis = false,
            "--verify" => {
                let fraction: f64 = num(&flag, &value()?)?;
                if !(0.0..=1.0).contains(&fraction) {
                    return Err("--verify wants a fraction in [0, 1]".into());
                }
                cli.verify = Some(fraction);
            }
            "--preset" => {
                let name = value()?;
                cli.preset = WorkloadPreset::parse(&name)
                    .ok_or_else(|| format!("unknown preset {name:?}"))?;
            }
            "--scale" => cli.scale = num(&flag, &value()?)?,
            "--mem-words" => cli.mem_words = Some(num(&flag, &value()?)?),
            "--set" => {
                let pair = value()?;
                let (key, raw) = pair.split_once('=').ok_or("--set wants key=value")?;
                if !cli.overrides.set(key, num(&format!("--set {key}"), raw)?) {
                    return Err(format!(
                        "unknown plan key {key:?} (known: {})",
                        tve_soc::PLAN_OVERRIDE_KEYS.join(", ")
                    ));
                }
            }
            "--program" => cli.program = Some(value()?),
            "--csv" => cli.csv = Some(value()?),
            "--json" => cli.json = Some(value()?),
            "--out" => cli.out = Some(value()?),
            "--deadline" => {
                let ms: u64 = num(&flag, &value()?)?;
                if ms == 0 {
                    return Err("--deadline wants a positive millisecond count".into());
                }
                cli.deadline_ms = Some(ms);
            }
            "--retries" => cli.retries = num(&flag, &value()?)?,
            "--retry-seed" => cli.retry_seed = Some(num(&flag, &value()?)?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"))
            }
            command => {
                if cli.command.is_some() {
                    return Err(format!("unexpected argument {command:?}"));
                }
                cli.command = Some(command.to_string());
            }
        }
        i += 1;
    }
    Ok(cli)
}

fn workload(cli: &Cli) -> Workload {
    let mut w = Workload::new(cli.preset).with_scale(cli.scale);
    if let Some(words) = cli.mem_words {
        w = w.with_mem_words(words);
    }
    w.with_overrides(cli.overrides)
}

fn job_spec(cli: &Cli, kind: JobKind) -> JobSpec {
    JobSpec {
        workload: workload(cli),
        kind,
        verify: cli.verify,
        deadline_ms: cli.deadline_ms,
    }
}

fn write_out(path: &Option<String>, text: &str, what: &str) -> Result<(), String> {
    if let Some(path) = path {
        std::fs::write(path, text).map_err(|e| format!("writing {what} to {path}: {e}"))?;
        eprintln!("tve-client: wrote {what} to {path}");
    }
    Ok(())
}

fn submit(cli: &Cli, kind: JobKind) -> Result<JsonValue, String> {
    let job = job_spec(cli, kind);
    let result =
        submit_with_retry(&cli.socket, &job, &cli.retry_policy()).map_err(|e| e.to_string())?;
    write_out(&cli.out, &render_response(&result), "result")?;
    Ok(result)
}

fn run() -> Result<(), String> {
    let cli = parse_cli()?;
    let command = cli.command.clone().ok_or(USAGE.to_string())?;
    let schedules = cli.schedules.clone().unwrap_or_else(|| (1..=4).collect());
    match command.as_str() {
        "ping" => println!("{}", render_response(&cli.request("{\"cmd\":\"ping\"}")?)),
        "stats" => println!("{}", render_response(&cli.connect()?.stats()?)),
        "shutdown" => {
            cli.connect()?.shutdown()?;
            println!("{{\"ok\":true}}");
        }
        "drain" => {
            cli.connect()?.drain()?;
            println!("{{\"ok\":true,\"draining\":true}}");
        }
        "schedule" => {
            let index = cli.index.ok_or("schedule wants --index N (1..=4)")?;
            let result = submit(&cli, JobKind::Schedule { index })?;
            println!("{}", render_response(&result));
        }
        "campaign" => {
            let kind = JobKind::Campaign {
                schedules,
                seed: cli.seed,
                faults: cli.faults,
                diagnosis: cli.diagnosis,
                shard: None,
            };
            let result = submit(&cli, kind)?;
            write_out(&cli.csv, result.str_field("csv")?, "campaign CSV")?;
            write_out(&cli.json, result.str_field("json")?, "campaign JSON")?;
            // The matrix artifacts go to files; print the summary without
            // them.
            let JsonValue::Obj(fields) = &result else {
                return Err("campaign result was not an object".into());
            };
            let summary = JsonValue::Obj(
                fields
                    .iter()
                    .filter(|(name, _)| name != "csv" && name != "json")
                    .cloned()
                    .collect(),
            );
            println!("{}", render_response(&summary));
        }
        "lint" => {
            let program = match &cli.program {
                None => None,
                Some(path) => Some((
                    path.clone(),
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
                )),
            };
            let kind = JobKind::Lint { schedules, program };
            let result = submit(&cli, kind)?;
            write_out(&cli.json, result.str_field("report")?, "lint report")?;
            println!("{}", render_response(&result));
        }
        "bounds" => {
            let kind = JobKind::Bounds { schedules };
            let result = submit(&cli, kind)?;
            write_out(&cli.json, result.str_field("report")?, "bounds report")?;
            println!("{}", render_response(&result));
        }
        "invalidate" => {
            let response = cli.connect()?.invalidate(&workload(&cli), &cli.overrides)?;
            println!("{}", render_response(&response));
        }
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tve-client: {message}");
            ExitCode::FAILURE
        }
    }
}
