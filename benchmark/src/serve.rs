//! `serve_mix`: the only workload with the `serve` layer — frame decode,
//! admission, result cache and encode — on the critical path.
//!
//! Each pass starts a fresh in-process daemon (two farm workers) on a
//! private socket and drives it with a closed loop: two client
//! connections, each on its own thread, send their next request as soon
//! as the previous reply arrives. The request stream comes from `--seed`:
//! 75% schedule jobs on the bench workload with a plan-seed override
//! drawn from [`VARIANTS`] variants, 13% bounds jobs, 10% lint jobs and 2%
//! small campaigns. This mix is assumed, not taken from recorded traffic.
//! Repeats are cache hits, so `p50_ms` is a hit and `serve.rtt_p99_ms` a
//! simulated miss: protocol wins show in `p50_ms`, simulator wins in
//! `wall_s` (which the misses dominate) and `serve.rtt_p99_ms`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tve_obs::JsonValue;
use tve_serve::{spawn, Client, JobKind, JobSpec, ServeOptions};
use tve_soc::{paper_schedules, PlanOverrides, Workload};

use crate::report::{timed_passes, Report};
use crate::scenario::{run_decomposed, Counts};
use crate::stats::{self, percentile, SplitMix};
use crate::trace::Tracer;
use crate::{Opts, Size};

/// Plan variants schedule, bounds and lint jobs draw from. With four
/// schedules a pass has at most 48 distinct schedule jobs, so about one
/// request in twenty is a schedule job the daemon must simulate:
/// `p50_ms` is a cache hit and the 99th percentile a simulation. With
/// 200 variants about half of a 1000-request pass is simulated, and
/// `p50_ms` lands between the two modes.
pub const VARIANTS: u64 = 12;
/// Campaign seeds the campaign jobs draw from.
const CAMPAIGN_SEEDS: [u64; 2] = [0x2009_0417, 0x2009_0418];
/// Plan seed of variant 0.
const PLAN_SEED_BASE: u64 = 0xDA7E_0000;
/// Client connections (one thread each; the host has two cores).
const CLIENTS: usize = 2;

/// Job kind names, indexed by [`Request::kind`].
pub const KINDS: [&str; 4] = ["schedule", "bounds", "lint", "campaign"];

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Run Table-I schedule `index` on plan variant `variant`.
    Schedule { variant: u64, index: usize },
    /// Certified bounds of schedule `index` on plan variant `variant`.
    Bounds { variant: u64, index: usize },
    /// Lint schedule `index` against plan variant `variant`.
    Lint { variant: u64, index: usize },
    /// A small fault campaign on the small SoC.
    Campaign { seed: u64 },
}

impl Request {
    /// Index into [`KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            Request::Schedule { .. } => 0,
            Request::Bounds { .. } => 1,
            Request::Lint { .. } => 2,
            Request::Campaign { .. } => 3,
        }
    }

    /// The bench workload with plan variant `variant`.
    pub fn workload(variant: u64) -> Workload {
        Workload::bench().with_overrides(PlanOverrides {
            seed: Some(PLAN_SEED_BASE + variant),
            ..PlanOverrides::default()
        })
    }

    /// The job this request submits.
    pub fn job(&self) -> JobSpec {
        let (workload, kind) = match *self {
            Request::Schedule { variant, index } => {
                (Self::workload(variant), JobKind::Schedule { index })
            }
            Request::Bounds { variant, index } => (
                Self::workload(variant),
                JobKind::Bounds {
                    schedules: vec![index],
                },
            ),
            Request::Lint { variant, index } => (
                Self::workload(variant),
                JobKind::Lint {
                    schedules: vec![index],
                    program: None,
                },
            ),
            Request::Campaign { seed } => (
                Workload::small(),
                JobKind::Campaign {
                    schedules: vec![1],
                    seed,
                    faults: 2,
                    diagnosis: true,
                    shard: None,
                },
            ),
        };
        JobSpec {
            workload,
            kind,
            verify: None,
            deadline_ms: None,
        }
    }
}

/// The `count` requests client `client` sends, derived from `seed`.
pub fn request_stream(seed: u64, client: u64, count: usize) -> Vec<Request> {
    let mut rng = SplitMix(seed ^ (client + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    (0..count)
        .map(|_| {
            let roll = rng.below(100);
            let variant = rng.below(VARIANTS);
            let index = 1 + rng.below(4) as usize;
            match roll {
                0..=74 => Request::Schedule { variant, index },
                75..=87 => Request::Bounds { variant, index },
                88..=97 => Request::Lint { variant, index },
                _ => Request::Campaign {
                    seed: CAMPAIGN_SEEDS[rng.below(CAMPAIGN_SEEDS.len() as u64) as usize],
                },
            }
        })
        .collect()
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
struct Record {
    request: Request,
    /// Schedule responses: the metrics digest.
    digest: Option<u64>,
    error: Option<String>,
    sample: Sample,
}

/// What a run keeps of every request: kept small, so memory does not
/// grow with the number of passes a run fits in.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: usize,
    cached: bool,
    rtt_s: f64,
    /// The daemon's own job time (`wall_us`).
    exec_s: f64,
}

/// A fresh private socket path under `target/benchmark/`.
pub fn socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    PathBuf::from(format!(
        "{}/serve-{}-{}.sock",
        crate::OUT_DIR,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Spawns a daemon with two farm workers and connects `CLIENTS` clients.
pub fn start_daemon() -> Result<(tve_serve::DaemonHandle, Vec<Client>), String> {
    let daemon = spawn(&ServeOptions {
        socket: socket_path(),
        workers: Some(2),
        quiet: true,
        ..ServeOptions::default()
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(&daemon.socket))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    Ok((daemon, clients))
}

/// Shuts the daemon down and waits for it.
pub fn stop_daemon(
    daemon: tve_serve::DaemonHandle,
    mut clients: Vec<Client>,
) -> Result<(), String> {
    clients[0].shutdown()?;
    drop(clients);
    daemon.join().map_err(|e| format!("daemon exit: {e}"))
}

fn submit(client: &mut Client, request: Request) -> Record {
    let t = Instant::now();
    let response = client.submit(&request.job());
    let mut record = Record {
        request,
        digest: None,
        error: None,
        sample: Sample {
            kind: request.kind(),
            cached: false,
            rtt_s: t.elapsed().as_secs_f64(),
            exec_s: 0.0,
        },
    };
    match response {
        Ok(v) => {
            record.sample.exec_s =
                v.get("wall_us").and_then(JsonValue::as_f64).unwrap_or(0.0) / 1e6;
            record.sample.cached = v.get("cached").and_then(JsonValue::as_bool) == Some(true);
            if request.kind() == 0 {
                if v.get("clean").and_then(JsonValue::as_bool) != Some(true) {
                    record.error = Some("schedule reported errors".into());
                }
                record.digest = v
                    .get("digest")
                    .and_then(JsonValue::as_str)
                    .and_then(|d| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok());
            }
        }
        Err(e) => record.error = Some(e),
    }
    record
}

/// Daemon `stats` counters.
fn counter(stats: &JsonValue, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_default()
}

struct Pass {
    records: Vec<Record>,
    /// Daemon spawn and client connections.
    setup_s: f64,
    /// The closed-loop batch alone.
    wall_s: f64,
    hits: u64,
    misses: u64,
    shed: u64,
}

/// One closed-loop pass on a fresh daemon. With a tracer, the pass is a
/// `bench.pass` span and every request a `serve.submit` span under it,
/// with a `serve.exec` child for the daemon's job time; both carry the
/// request id.
fn pass(streams: &[Vec<Request>], tracer: Option<&Tracer>) -> Result<Pass, String> {
    let t = Instant::now();
    let (daemon, mut clients) = start_daemon()?;
    let setup_s = t.elapsed().as_secs_f64();
    let before = clients[0].stats()?;
    let tracer = tracer.map(|t| (t, t.reserve()));
    let start = Instant::now();
    let per_client: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(c, (client, stream))| {
                scope.spawn(move || {
                    stream
                        .iter()
                        .enumerate()
                        .map(|(i, &request)| {
                            let start = Instant::now();
                            let record = submit(client, request);
                            if let Some((tracer, root)) = tracer {
                                let end = Instant::now();
                                let req = (c * stream.len() + i + 1) as u64;
                                let id = tracer.reserve();
                                tracer.record(id, Some(root), "serve.submit", req, start, end);
                                let exec = std::time::Duration::from_secs_f64(
                                    record.sample.exec_s.min(record.sample.rtt_s),
                                );
                                let exec_start = start + (end - start - exec) / 2;
                                let exec_id = tracer.reserve();
                                let exec_end = exec_start + exec;
                                tracer.record(
                                    exec_id,
                                    Some(id),
                                    "serve.exec",
                                    req,
                                    exec_start,
                                    exec_end,
                                );
                            }
                            record
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = Instant::now();
    if let Some((tracer, root)) = tracer {
        tracer.record(root, None, "bench.pass", 0, start, end);
    }
    let after = clients[0].stats()?;
    stop_daemon(daemon, clients)?;
    let delta = |key: &str| counter(&after, key) - counter(&before, key);
    Ok(Pass {
        records: per_client.into_iter().flatten().collect(),
        setup_s,
        wall_s: (end - start).as_secs_f64(),
        hits: delta("hits"),
        misses: delta("misses"),
        shed: counter(&after, "shed"),
    })
}

/// Requests per client per pass, and schedule responses checked
/// against a local simulation.
fn sizes(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (500, 8),
        Size::Quick => (6, 2),
    }
}

/// Runs `serve_mix`.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let (per_client, verify_sample) = sizes(opts.size);
    let streams: Vec<Vec<Request>> = (0..CLIENTS as u64)
        .map(|c| request_stream(opts.seed, c, per_client))
        .collect();
    if let Err(e) = std::fs::create_dir_all(crate::OUT_DIR) {
        report.gate(false, || format!("cannot create {}: {e}", crate::OUT_DIR));
        return report;
    }

    let mut samples: Vec<Sample> = Vec::new();
    // Every pass must serve the same digest for the same schedule job.
    let mut digests: BTreeMap<(u64, usize), u64> = BTreeMap::new();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0, 0);
    report.host_ref_s = timed_passes(
        opts.measure_s(),
        || {},
        |_, host| match pass(&streams, None) {
            Ok(p) => {
                host.after(p.wall_s);
                report.gate(p.shed == 0, || format!("the daemon shed {} jobs", p.shed));
                setups.push(p.setup_s);
                walls.push(p.wall_s);
                hits += p.hits;
                misses += p.misses;
                for r in p.records {
                    report.attempted += 1;
                    if let Some(e) = &r.error {
                        report.failed += 1;
                        eprintln!("error: {:?}: {e}", r.request);
                    }
                    if let (Request::Schedule { variant, index }, Some(d)) = (r.request, r.digest) {
                        let first = *digests.entry((variant, index)).or_insert(d);
                        report.gate(first == d, || {
                            format!("{:?}: digest differs between passes", r.request)
                        });
                    }
                    samples.push(r.sample);
                }
            }
            Err(e) => report.gate(false, || format!("serve pass: {e}")),
        },
    )
    .host_ref_s;
    report.put("setup_s", stats::median(&setups), setups.len());
    report.put("wall_s", stats::median(&walls), walls.len());
    let rtt: Vec<f64> = samples.iter().map(|r| r.rtt_s).collect();
    report.latencies(&rtt, Some("serve.rtt_p99_ms"));
    let hit_rate_pct = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
    report.put("serve.hit_rate_pct", hit_rate_pct, (hits + misses) as usize);
    describe(&samples, hit_rate_pct);

    // A sample of the served digests must equal a local simulation.
    let sample: Vec<((u64, usize), u64)> = digests.into_iter().take(verify_sample).collect();
    let tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut matched = 0;
    tracer.span(None, "bench.verify", |root| {
        let schedules = paper_schedules();
        for ((variant, index), digest) in &sample {
            let (config, plan) = Request::workload(*variant).build();
            match run_decomposed(&config, &plan, &schedules[index - 1], 0, &tracer, root) {
                Ok((m, c)) => {
                    counts.add(&c);
                    let local = m.digest();
                    matched += usize::from(local == *digest);
                    report.gate(local == *digest, || {
                        format!(
                            "variant {variant} schedule {index}: served {digest:#018x}, local {local:#018x}"
                        )
                    });
                }
                Err(e) => report.gate(false, || format!("local verification: {e}")),
            }
        }
    });
    report.put(
        "fidelity_pct",
        100.0 * matched as f64 / sample.len().max(1) as f64,
        sample.len(),
    );

    if opts.trace {
        // The verification runs above supply the scenario layers.
        match pass(&streams, Some(&tracer)) {
            Ok(p) => {
                let errors = p.records.iter().filter(|r| r.error.is_some()).count();
                report.gate(errors == 0, || {
                    format!("traced pass: {errors} requests failed")
                });
            }
            Err(e) => report.gate(false, || format!("traced serve pass: {e}")),
        }
        report.spans = tracer.spans();
        report.put_scenario_layers(&counts);
    }
    report
}

/// Prints the mix's per-kind shares and latencies, its cache hit rate and
/// the split of round trips into daemon job time and serving overhead.
fn describe(samples: &[Sample], hit_rate_pct: f64) {
    let ms = |v: Vec<f64>, p: f64| {
        percentile(&v, p).map_or("-".to_string(), |x| {
            format!("{:.3} ms (n={})", x.value * 1e3, x.n)
        })
    };
    let rtt_where = |keep: &dyn Fn(&Sample) -> bool| {
        samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.rtt_s)
            .collect()
    };
    eprintln!(
        "serve: {} requests, cache hit rate {hit_rate_pct:.2}%",
        samples.len()
    );
    for (k, name) in KINDS.iter().enumerate() {
        let rtt: Vec<f64> = rtt_where(&|s| s.kind == k);
        eprintln!(
            "  {name:<9} {:>5.2}% of requests, p50 {}",
            100.0 * rtt.len() as f64 / samples.len().max(1) as f64,
            ms(rtt, 50.0)
        );
    }
    eprintln!(
        "  hit rtt p50 {}, schedule miss rtt p99 {}",
        ms(rtt_where(&|s| s.cached), 50.0),
        ms(rtt_where(&|s| s.kind == 0 && !s.cached), 99.0)
    );
    let exec: Vec<f64> = samples.iter().map(|s| s.exec_s).collect();
    let overhead: Vec<f64> = samples.iter().map(|s| s.rtt_s - s.exec_s).collect();
    eprintln!(
        "  exec p50 {} p99 {}; overhead p50 {} p99 {}",
        ms(exec.clone(), 50.0),
        ms(exec, 99.0),
        ms(overhead.clone(), 50.0),
        ms(overhead, 99.0)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_deterministic_per_seed_and_differs_across_seeds() {
        let a = request_stream(1, 0, 2000);
        assert_eq!(a, request_stream(1, 0, 2000));
        assert_ne!(a, request_stream(2, 0, 2000));
        assert_ne!(
            a,
            request_stream(1, 1, 2000),
            "clients get distinct streams"
        );
        let share = |k: usize| a.iter().filter(|r| r.kind() == k).count() as f64 / 2000.0;
        assert!(
            (share(0) - 0.75).abs() < 0.05,
            "schedule share {}",
            share(0)
        );
        assert!((share(1) - 0.13).abs() < 0.03, "bounds share {}", share(1));
        assert!((share(2) - 0.10).abs() < 0.03, "lint share {}", share(2));
        assert!(
            share(3) > 0.0 && share(3) < 0.05,
            "campaign share {}",
            share(3)
        );
    }

    #[test]
    fn sockets_are_private_and_distinct() {
        let (a, b) = (socket_path(), socket_path());
        assert_ne!(a, b);
        assert!(a.starts_with(crate::OUT_DIR));
    }
}
