//! Graceful-degradation snapshot for the `BENCH_resilience.json`
//! trajectory: injects one infrastructure fault at a time into the
//! serving stack and *asserts* — before recording any number — that the
//! system degrades the only two ways it is allowed to:
//!
//! - the final artifact is **byte-identical** to the fault-free run
//!   (the fault was absorbed by supervision, retry, or recovery), or
//! - the client receives a **typed error** (`deadline`, `overloaded`,
//!   `draining`, `protocol`, or a client-side `transport`) it can act
//!   on — never a hang, never a silent partial result.
//!
//! Five sections:
//!
//! 1. **supervision** — a worker panic and a slow worker injected into
//!    a served campaign; the supervised farm respawns/retries and the
//!    campaign artifact must match the clean run byte for byte.
//! 2. **deadline** — a 1 ms deadline on that campaign; the job must
//!    come back as a typed `deadline` error at a kernel-quantum
//!    boundary, and the daemon must stay healthy.
//! 3. **overload** — 4x more campaigns than the admission queue holds;
//!    every submission either completes or is shed with a typed
//!    `overloaded` + `retry_after_ms`, and an interactive bounds job's
//!    p50 under that load stays within 2x of the unloaded p50 (the
//!    reserved interactive slot at work).
//! 4. **wire faults** — a corrupted response frame and a mid-response
//!    disconnect; the retrying client must still obtain the
//!    byte-identical artifact.
//! 5. **storage faults** — ENOSPC on the cache snapshot (the previous
//!    snapshot must survive untouched) and a short write tearing the
//!    campaign journal (the run fails loudly; the resumed run matches
//!    the baseline byte for byte).
//!
//! Usage: `resilience [--out PATH] [--check [BASELINE]]`
//!
//! `--out` (default `target/BENCH_resilience.json`) is the fresh
//! snapshot; pass `--out BENCH_resilience.json` to re-record the
//! committed baseline. `--check` gates the deterministic scalars
//! against the committed baseline at ±25% — they are all exact
//! invariants (rates of 1.0, fixed scenario counts), so any drift means
//! the degradation semantics changed. Latencies are recorded for trend
//! reading; only the relative interactive-p50 bound is enforced.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tve_bench::{drift_failures, write_artifact};
use tve_campaign::{
    generate, merge_shards, run_campaign, run_campaign_journaled, run_campaign_journaled_with_io,
    CampaignConfig, PopulationSpec, ShardSpec,
};
use tve_obs::{IoPolicy, JsonValue, WriteFault};
use tve_sched::Farm;
use tve_serve::{
    spawn, submit_with_retry, Client, DaemonHandle, JobKind, JobSpec, RetryPolicy, ServeOptions,
};
use tve_soc::{paper_schedules, SocConfig, SocTestPlan, Workload};

const CAMPAIGN_SEED: u64 = 0x2009_0417;

fn fail(message: &str) -> ! {
    eprintln!("resilience FAILED: {message}");
    std::process::exit(1);
}

fn sock(tag: &str) -> PathBuf {
    PathBuf::from(format!(
        "target/resilience-{tag}-{}.sock",
        std::process::id()
    ))
}

fn campaign_job(deadline_ms: Option<u64>) -> JobSpec {
    JobSpec {
        workload: Workload::small(),
        kind: JobKind::Campaign {
            schedules: vec![1, 2, 3, 4],
            seed: CAMPAIGN_SEED,
            faults: 2,
            diagnosis: true,
            shard: None,
        },
        verify: None,
        deadline_ms,
    }
}

fn bounds_job(scale: u64) -> JobSpec {
    JobSpec {
        workload: Workload::small().with_scale(scale),
        kind: JobKind::Bounds {
            schedules: vec![1, 2, 3, 4],
        },
        verify: None,
        deadline_ms: None,
    }
}

fn daemon_with(tag: &str, chaos: &str, configure: impl FnOnce(&mut ServeOptions)) -> DaemonHandle {
    let mut options = ServeOptions {
        socket: sock(tag),
        workers: Some(2),
        quiet: true,
        chaos: chaos.into(),
        ..ServeOptions::default()
    };
    configure(&mut options);
    spawn(&options).unwrap_or_else(|e| fail(&format!("daemon {tag}: {e}")))
}

fn field<'v>(value: &'v JsonValue, key: &str) -> &'v str {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| fail(&format!("response lacks string field {key:?}")))
}

fn chaos_fired(client: &mut Client, site: &str) -> u64 {
    let stats = client
        .stats()
        .unwrap_or_else(|e| fail(&format!("stats: {e}")));
    stats
        .get("chaos")
        .and_then(|c| c.get(site))
        .and_then(|s| s.get("fired"))
        .and_then(JsonValue::as_u64)
        .unwrap_or_default()
}

/// One chaos scenario: submit the reference campaign through a retrying
/// client against a daemon seeded with `spec`, require success with the
/// byte-identical CSV, and require the injected fault actually fired.
fn absorbed_fault_scenario(tag: &str, spec: &str, site: &str, reference_csv: &str) {
    let daemon = daemon_with(tag, spec, |_| {});
    let result = submit_with_retry(&daemon.socket, &campaign_job(None), &RetryPolicy::default())
        .unwrap_or_else(|e| fail(&format!("{tag}: campaign under {spec} failed: {e}")));
    if field(&result, "csv") != reference_csv {
        fail(&format!(
            "{tag}: artifact under {spec} is not byte-identical"
        ));
    }
    let mut client = Client::connect(&daemon.socket).unwrap_or_else(|e| fail(&e.to_string()));
    if chaos_fired(&mut client, site) == 0 {
        fail(&format!(
            "{tag}: chaos site {site} never fired — the scenario proved nothing"
        ));
    }
    client.shutdown().unwrap_or_else(|e| fail(&e));
    daemon.join().unwrap_or_else(|e| fail(&e.to_string()));
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    samples[samples.len() / 2]
}

/// The local (non-daemon) campaign config used for the journal tear —
/// small enough to run three times in CI.
fn journal_config() -> CampaignConfig {
    let mut soc = SocConfig::small();
    soc.memory_words = 128;
    let population = generate(
        &PopulationSpec {
            scan_cells_per_core: 2,
            memory_faults: 2,
            ..PopulationSpec::default()
        },
        &soc,
    );
    CampaignConfig::new(
        soc,
        SocTestPlan::small(),
        paper_schedules().to_vec(),
        population,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "target/BENCH_resilience.json".into());
    let check = args.iter().position(|a| a == "--check").map(|i| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_resilience.json".into())
    });

    // --- fault-free reference: every identity claim compares to this --
    let cache = PathBuf::from(format!("target/resilience-{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let daemon = daemon_with("clean", "", |o| o.cache_file = Some(cache.clone()));
    let mut client = Client::connect(&daemon.socket).unwrap_or_else(|e| fail(&e.to_string()));
    let clean = client
        .submit(&campaign_job(None))
        .unwrap_or_else(|e| fail(&format!("fault-free campaign: {e}")));
    let reference_csv = field(&clean, "csv").to_string();
    client.shutdown().unwrap_or_else(|e| fail(&e));
    daemon.join().unwrap_or_else(|e| fail(&e.to_string()));
    if !cache.exists() {
        fail("clean shutdown did not persist the cache snapshot");
    }
    let clean_snapshot = std::fs::read(&cache).expect("snapshot readable");
    eprintln!("reference: fault-free campaign + snapshot recorded");

    // --- 1. supervision: worker panic and slow worker are absorbed ----
    absorbed_fault_scenario("panic", "worker-panic@1", "worker-panic", &reference_csv);
    absorbed_fault_scenario("slow", "worker-slow@1=100", "worker-slow", &reference_csv);
    println!("supervision: OK — panic and slow worker absorbed, artifacts byte-identical");

    // --- 2. deadline: overrun is cancelled with a typed error ---------
    let daemon = daemon_with("deadline", "", |_| {});
    let mut client = Client::connect(&daemon.socket).unwrap_or_else(|e| fail(&e.to_string()));
    let t = Instant::now();
    let error = client
        .request_typed(&format!(
            "{{\"cmd\":\"submit\",\"wait\":true,\"job\":{}}}",
            campaign_job(Some(1)).to_json()
        ))
        .err()
        .unwrap_or_else(|| fail("a 1 ms campaign deadline was not exceeded"));
    let cancel_latency_ms = t.elapsed().as_secs_f64() * 1e3;
    if error.kind != "deadline" {
        fail(&format!(
            "overrun produced {:?}, not a typed deadline error",
            error.kind
        ));
    }
    if cancel_latency_ms > 5000.0 {
        fail(&format!(
            "cancellation took {cancel_latency_ms:.0} ms — the deadline did not interrupt the job"
        ));
    }
    // The daemon survived the cancellation and still serves.
    client
        .ping()
        .unwrap_or_else(|e| fail(&format!("daemon unhealthy after cancel: {e}")));
    client.shutdown().unwrap_or_else(|e| fail(&e));
    daemon.join().unwrap_or_else(|e| fail(&e.to_string()));
    println!("deadline: OK — typed error in {cancel_latency_ms:.0} ms");

    // --- 3. overload: shed, don't collapse ----------------------------
    let daemon = daemon_with("overload", "", |o| {
        o.max_running = 2;
        o.max_queue = 2;
    });
    let socket = daemon.socket.clone();
    // Unloaded interactive p50 first (distinct scales defeat the cache).
    let mut unloaded = Vec::new();
    for scale in 1..=5u64 {
        let mut c = Client::connect(&socket).unwrap_or_else(|e| fail(&e.to_string()));
        let t = Instant::now();
        c.submit(&bounds_job(scale))
            .unwrap_or_else(|e| fail(&format!("unloaded bounds: {e}")));
        unloaded.push(t.elapsed().as_secs_f64() * 1e3);
    }
    // 4x the queue depth in campaign submissions, all racing.
    let submitted = 8usize;
    let workers: Vec<_> = (0..submitted)
        .map(|k| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut job = campaign_job(None);
                if let JobKind::Campaign { seed, .. } = &mut job.kind {
                    *seed = CAMPAIGN_SEED + 1 + k as u64;
                }
                let mut c = Client::connect(&socket).expect("overload client connects");
                c.request_typed(&format!(
                    "{{\"cmd\":\"submit\",\"wait\":true,\"job\":{}}}",
                    job.to_json()
                ))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    // Interactive p50 while the campaigns churn (the reserved slot).
    let mut loaded = Vec::new();
    for scale in 6..=10u64 {
        let mut c = Client::connect(&socket).unwrap_or_else(|e| fail(&e.to_string()));
        let t = Instant::now();
        c.submit(&bounds_job(scale))
            .unwrap_or_else(|e| fail(&format!("loaded bounds: {e}")));
        loaded.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let (mut completed, mut shed) = (0usize, 0usize);
    for worker in workers {
        match worker.join().expect("overload thread") {
            Ok(_) => completed += 1,
            Err(e) if e.kind == "overloaded" => {
                if e.retry_after_ms.is_none() {
                    fail("overloaded rejection without a retry_after_ms hint");
                }
                shed += 1;
            }
            Err(e) => fail(&format!("overload produced an untyped failure: {e:?}")),
        }
    }
    if completed + shed != submitted {
        fail("an overload submission neither completed nor shed");
    }
    if shed == 0 {
        fail("4x overload never shed — admission control is not engaging");
    }
    if completed == 0 {
        fail("overload shed everything — the daemon collapsed instead of degrading");
    }
    let p50_unloaded_ms = median(&mut unloaded);
    let p50_loaded_ms = median(&mut loaded);
    let bound = (2.0 * p50_unloaded_ms).max(25.0);
    if p50_loaded_ms > bound {
        fail(&format!(
            "interactive p50 under load {p50_loaded_ms:.2} ms exceeds {bound:.2} ms \
             (2x unloaded {p50_unloaded_ms:.2} ms)"
        ));
    }
    let mut client = Client::connect(&socket).unwrap_or_else(|e| fail(&e.to_string()));
    client.shutdown().unwrap_or_else(|e| fail(&e));
    daemon.join().unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "overload: OK — {completed} completed, {shed} shed (typed), \
         interactive p50 {p50_loaded_ms:.2} ms loaded vs {p50_unloaded_ms:.2} ms unloaded"
    );

    // --- 4. wire faults: the retrying client still gets the bytes -----
    absorbed_fault_scenario("frame", "frame-corrupt@1", "frame-corrupt", &reference_csv);
    absorbed_fault_scenario("drop", "disconnect@1", "disconnect", &reference_csv);
    println!("wire: OK — corrupted frame and disconnect healed by client retry");

    // --- 5a. ENOSPC on the snapshot: the old snapshot survives --------
    let daemon = daemon_with("enospc", "snapshot-enospc@1", |o| {
        o.cache_file = Some(cache.clone())
    });
    let mut client = Client::connect(&daemon.socket).unwrap_or_else(|e| fail(&e.to_string()));
    client
        .submit(&bounds_job(11))
        .unwrap_or_else(|e| fail(&format!("bounds before ENOSPC: {e}")));
    client.shutdown().unwrap_or_else(|e| fail(&e));
    daemon
        .join()
        .unwrap_or_else(|e| fail(&format!("ENOSPC snapshot must not kill the daemon: {e}")));
    let after = std::fs::read(&cache).expect("snapshot still readable");
    if after != clean_snapshot {
        fail("ENOSPC during snapshot tore the previous snapshot");
    }
    println!("storage: OK — ENOSPC snapshot left the previous snapshot byte-identical");

    // --- 5b. short write tears the journal; resume matches baseline ---
    let config = journal_config();
    let farm = Farm::with_workers(2);
    let baseline_csv = run_campaign(&config, &farm).to_csv();
    let journal = PathBuf::from(format!("target/resilience-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let policy = IoPolicy::new();
    policy.fail_nth_write(4, WriteFault::Short { keep: 10 });
    if run_campaign_journaled_with_io(&config, &farm, ShardSpec::full(), &journal, &policy).is_ok()
    {
        fail("a torn journal append was silently absorbed");
    }
    let (report, resume) = run_campaign_journaled(&config, &farm, ShardSpec::full(), &journal)
        .unwrap_or_else(|e| fail(&format!("resume after torn journal: {e}")));
    if resume.defect.is_none() {
        fail("the torn journal tail was not reported as a defect");
    }
    let merged = merge_shards(&config, &[report]).unwrap_or_else(|e| fail(&format!("merge: {e}")));
    if merged.to_csv() != baseline_csv {
        fail("artifact after journal tear + resume is not byte-identical");
    }
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&cache);
    println!("journal: OK — torn append failed loudly, resume byte-identical");

    // --- snapshot ------------------------------------------------------
    // Deterministic scalars first (gated), latencies after (recorded).
    let injection_sites = 6; // worker-panic, worker-slow, frame-corrupt,
                             // disconnect, snapshot-enospc, journal tear
    let identical_artifacts = 6; // panic, slow, frame, disconnect, enospc, journal
    let snapshot = format!(
        "{{\n  \"bench\": \"resilience\",\n  \"retry_success_rate\": 1.0,\n  \
         \"typed_error_rate\": 1.0,\n  \"injection_sites\": {injection_sites},\n  \
         \"identical_artifacts\": {identical_artifacts},\n  \"overload_submitted\": {submitted},\n  \
         \"overload_completed\": {completed},\n  \"overload_shed\": {shed},\n  \
         \"cancel_latency_ms\": {cancel_latency_ms:.3},\n  \
         \"p50_unloaded_ms\": {p50_unloaded_ms:.3},\n  \"p50_loaded_ms\": {p50_loaded_ms:.3}\n}}\n"
    );
    write_artifact(Path::new(&out), &snapshot);
    println!("wrote {out}");

    // --- baseline gate -------------------------------------------------
    let Some(baseline_path) = check else { return };
    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    // Every gated scalar is an exact invariant; the ±25% band exists
    // only so intentional scenario additions re-record cleanly.
    let tracked = [
        ("retry_success_rate", 1.0),
        ("typed_error_rate", 1.0),
        ("injection_sites", injection_sites as f64),
        ("identical_artifacts", identical_artifacts as f64),
        ("overload_submitted", submitted as f64),
    ];
    let failures = drift_failures(&baseline_text, &baseline_path, &tracked);
    if failures.is_empty() {
        println!("resilience gate: OK (all metrics within ±25% of {baseline_path})");
    } else {
        for failure in &failures {
            eprintln!("resilience gate: {failure}");
        }
        std::process::exit(1);
    }
}
