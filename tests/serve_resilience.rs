//! Graceful degradation of the serving stack: one infrastructure fault
//! at a time is injected, and the system must degrade in one of the two
//! allowed ways:
//!
//! - the final artifact is **byte-identical** to the fault-free run
//!   (the fault was absorbed by supervision, retry or recovery), or
//! - the client receives a **typed error** (`deadline`, `overloaded`)
//!   it can act on — never a hang, never a silent partial result.
//!
//! The sections: supervision (worker panic, slow worker), deadline,
//! overload, wire faults (corrupted frame, disconnect) and ENOSPC on the
//! cache snapshot. A short write tearing the campaign journal is
//! `campaign_resume.rs`'s `short_write_torn_tail_is_reported_and_resimulated`.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use tve::obs::JsonValue;
use tve::serve::{
    spawn, submit_with_retry, Client, DaemonHandle, JobKind, JobSpec, RetryPolicy, ServeOptions,
};
use tve::soc::Workload;

const CAMPAIGN_SEED: u64 = 0x2009_0417;

fn test_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tve-resilience-{tag}-{}.{ext}", std::process::id()))
}

fn campaign_job(seed: u64, deadline_ms: Option<u64>) -> JobSpec {
    JobSpec {
        workload: Workload::small(),
        kind: JobKind::Campaign {
            schedules: vec![1, 2, 3, 4],
            seed,
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

fn submit_request(job: &JobSpec) -> String {
    format!(
        "{{\"cmd\":\"submit\",\"wait\":true,\"job\":{}}}",
        job.to_json()
    )
}

fn daemon_with(tag: &str, chaos: &str, configure: impl FnOnce(&mut ServeOptions)) -> DaemonHandle {
    let mut options = ServeOptions {
        socket: test_path(tag, "sock"),
        workers: Some(2),
        quiet: true,
        chaos: chaos.into(),
        ..ServeOptions::default()
    };
    configure(&mut options);
    spawn(&options).expect("daemon spawns")
}

fn shutdown(daemon: DaemonHandle) {
    let mut client = Client::connect(&daemon.socket).expect("client connects");
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
}

fn csv(result: &JsonValue) -> &str {
    result
        .get("csv")
        .and_then(JsonValue::as_str)
        .expect("campaign result carries its CSV")
}

/// The fault-free campaign CSV and the cache snapshot its daemon
/// persisted on shutdown: every identity claim compares to these.
fn reference() -> &'static (String, Vec<u8>) {
    static REFERENCE: OnceLock<(String, Vec<u8>)> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let cache = test_path("clean", "cache");
        let _ = std::fs::remove_file(&cache);
        let daemon = daemon_with("clean", "", |o| o.cache_file = Some(cache.clone()));
        let mut client = Client::connect(&daemon.socket).expect("client connects");
        let clean = client
            .submit(&campaign_job(CAMPAIGN_SEED, None))
            .expect("fault-free campaign succeeds");
        let csv = csv(&clean).to_string();
        drop(client);
        shutdown(daemon);
        let snapshot = std::fs::read(&cache).expect("clean shutdown persisted the snapshot");
        let _ = std::fs::remove_file(&cache);
        (csv, snapshot)
    })
}

#[test]
fn absorbed_faults_leave_the_artifact_byte_identical() {
    let (reference_csv, _) = reference();
    for (spec, site) in [
        ("worker-panic@1", "worker-panic"),
        ("worker-slow@1=100", "worker-slow"),
        ("frame-corrupt@1", "frame-corrupt"),
        ("disconnect@1", "disconnect"),
    ] {
        let daemon = daemon_with(site, spec, |_| {});
        let result = submit_with_retry(
            &daemon.socket,
            &campaign_job(CAMPAIGN_SEED, None),
            &RetryPolicy::default(),
        )
        .unwrap_or_else(|e| panic!("campaign under {spec} failed: {e}"));
        assert_eq!(
            csv(&result),
            reference_csv,
            "artifact under {spec} is not byte-identical"
        );
        let stats = Client::connect(&daemon.socket)
            .expect("client connects")
            .stats()
            .expect("stats");
        let fired = stats
            .get("chaos")
            .and_then(|c| c.get(site))
            .and_then(|s| s.get("fired"))
            .and_then(JsonValue::as_u64)
            .unwrap_or_default();
        assert!(fired > 0, "chaos site {site} never fired: {stats:?}");
        shutdown(daemon);
    }
}

#[test]
fn deadline_overrun_is_a_typed_error_and_the_daemon_stays_healthy() {
    let daemon = daemon_with("deadline", "", |_| {});
    let mut client = Client::connect(&daemon.socket).expect("client connects");
    let t = Instant::now();
    let error = client
        .request_typed(&submit_request(&campaign_job(CAMPAIGN_SEED, Some(1))))
        .expect_err("a 1 ms campaign deadline must be exceeded");
    let elapsed = t.elapsed();
    assert_eq!(error.kind, "deadline", "untyped failure: {error:?}");
    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation took {elapsed:?} — the deadline did not interrupt the job"
    );
    client.ping().expect("daemon answers ping after the cancel");
    drop(client);
    shutdown(daemon);
}

#[test]
fn overload_sheds_typed_and_interactive_jobs_still_succeed() {
    let daemon = daemon_with("overload", "", |o| {
        o.max_running = 2;
        o.max_queue = 2;
    });
    let socket = daemon.socket.clone();
    // Twice the run slots plus queue in racing campaign submissions,
    // each a distinct seed so none is served from the cache.
    let submitted = 8u64;
    let campaigns: Vec<_> = (0..submitted)
        .map(|k| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&socket).expect("overload client connects");
                c.request_typed(&submit_request(&campaign_job(CAMPAIGN_SEED + 1 + k, None)))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    // Interactive jobs during the overload take the reserved slot.
    for scale in 1..=5u64 {
        Client::connect(&socket)
            .expect("client connects")
            .submit(&bounds_job(scale))
            .unwrap_or_else(|e| panic!("bounds job {scale} under overload failed: {e}"));
    }
    let (mut completed, mut shed) = (0u64, 0u64);
    for campaign in campaigns {
        match campaign.join().expect("overload thread") {
            Ok(_) => completed += 1,
            Err(e) => {
                assert_eq!(e.kind, "overloaded", "untyped overload failure: {e:?}");
                assert!(
                    e.retry_after_ms.is_some(),
                    "shed without a retry hint: {e:?}"
                );
                shed += 1;
            }
        }
    }
    assert_eq!(completed + shed, submitted);
    assert!(shed > 0, "overload never shed — admission control is off");
    assert!(
        completed > 0,
        "overload shed everything — the daemon collapsed"
    );
    shutdown(daemon);
}

#[test]
fn snapshot_enospc_leaves_the_previous_snapshot_intact() {
    let (_, clean_snapshot) = reference();
    let cache = test_path("enospc", "cache");
    std::fs::write(&cache, clean_snapshot).expect("snapshot writable");
    let daemon = daemon_with("enospc", "snapshot-enospc@1", |o| {
        o.cache_file = Some(cache.clone())
    });
    Client::connect(&daemon.socket)
        .expect("client connects")
        .submit(&bounds_job(11))
        .expect("bounds job succeeds");
    // The failing snapshot write must not kill the daemon's shutdown.
    shutdown(daemon);
    let after = std::fs::read(&cache).expect("snapshot still readable");
    assert!(
        after == *clean_snapshot,
        "ENOSPC during the snapshot tore the previous snapshot"
    );
    let _ = std::fs::remove_file(&cache);
}
