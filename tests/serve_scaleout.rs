//! Scale-out through the daemon: shard jobs submitted over the real
//! socket protocol merge byte-identical to an unsharded campaign job,
//! and the result cache survives a daemon restart bit-for-bit — proven
//! by `verify` re-execution of every reloaded hit, not by trusting the
//! snapshot — and a forged snapshot entry with a valid checksum is
//! caught by that re-execution. A warm pass is served entirely from the
//! cache at least 10x faster than the cold pass, and a one-field plan
//! edit re-simulates exactly the work that depends on it.

use std::path::PathBuf;
use std::time::Instant;

use tve::campaign::{append_outcome, merge_shards, CellOutcome, ShardReport, ShardSpec};
use tve::obs::{Journal, JsonValue};
use tve::sched::Farm;
use tve::serve::{cell_key, spawn, Client, DaemonHandle, JobKind, JobSpec, ServeOptions};
use tve::soc::{PlanOverrides, Workload};

fn test_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tve-scaleout-{tag}-{}.{ext}", std::process::id()))
}

fn start(tag: &str, cache_file: Option<PathBuf>, verify: Option<f64>) -> (DaemonHandle, Client) {
    let daemon = spawn(&ServeOptions {
        socket: test_path(tag, "sock"),
        workers: Some(2),
        verify,
        quiet: true,
        cache_file,
        ..ServeOptions::default()
    })
    .expect("daemon spawns");
    let client = Client::connect(&daemon.socket).expect("client connects");
    (daemon, client)
}

fn campaign_job(shard: Option<ShardSpec>) -> JobSpec {
    JobSpec {
        workload: Workload::small(),
        kind: JobKind::Campaign {
            schedules: vec![1, 2, 3, 4],
            seed: 0x20090417,
            faults: 2,
            diagnosis: true,
            shard,
        },
        verify: None,
        deadline_ms: None,
    }
}

fn field<'v>(result: &'v JsonValue, key: &str) -> &'v str {
    result
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no string field {key:?} in response"))
}

#[test]
fn shard_jobs_merge_byte_identical_to_the_unsharded_job() {
    let (daemon, mut client) = start("shard", None, None);

    let full = client
        .submit(&campaign_job(None))
        .expect("unsharded campaign succeeds");
    let (full_csv, full_json) = (
        field(&full, "csv").to_string(),
        field(&full, "json").to_string(),
    );

    let count = 3;
    let reports: Vec<ShardReport> = (0..count)
        .map(|k| {
            let job = campaign_job(Some(ShardSpec::new(k, count).unwrap()));
            let result = client.submit(&job).expect("shard campaign succeeds");
            assert_eq!(
                result.get("kind").and_then(JsonValue::as_str),
                Some("campaign-shard")
            );
            ShardReport::from_json(field(&result, "shard_json")).expect("shard report parses")
        })
        .collect();

    // The client rebuilds the campaign configuration the same way the
    // daemon does, so the merge fingerprint-checks the daemon's output.
    let config = campaign_job(None)
        .campaign_config()
        .expect("campaign jobs have a config");
    let merged = merge_shards(&config, &reports).expect("shard set merges");
    assert_eq!(merged.to_csv(), full_csv, "daemon shard CSV differs");
    assert_eq!(merged.to_json(), full_json, "daemon shard JSON differs");

    // Sanity: the shard jobs hit the cells the unsharded job populated.
    let stats = client.stats().expect("stats");
    assert!(
        stats.get("hits").and_then(JsonValue::as_u64).unwrap_or(0) > 0,
        "shard jobs shared no cache with the unsharded run"
    );

    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
}

#[test]
fn cache_survives_restart_bit_for_bit() {
    let cache_file = test_path("persist", "journal");
    let _ = std::fs::remove_file(&cache_file);

    // Cold daemon: simulate everything, persist on shutdown.
    let (daemon, mut client) = start("persist-cold", Some(cache_file.clone()), None);
    let cold = client
        .submit(&campaign_job(None))
        .expect("cold campaign succeeds");
    let cold_csv = field(&cold, "csv").to_string();
    assert!(
        cold.get("cells_simulated")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0,
        "cold run simulated nothing"
    );
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
    assert!(cache_file.exists(), "shutdown did not persist the cache");

    // Warm daemon from the snapshot, with verify 1.0: every reloaded
    // hit is re-executed and compared bit-for-bit, so a passing job IS
    // the proof that the warm state survived the restart intact.
    let (daemon, mut client) = start("persist-warm", Some(cache_file.clone()), Some(1.0));
    let warm = client
        .submit(&campaign_job(None))
        .expect("warm campaign succeeds");
    assert_eq!(
        field(&warm, "csv"),
        cold_csv,
        "artifact changed across restart"
    );
    assert_eq!(
        warm.get("cells_simulated").and_then(JsonValue::as_u64),
        Some(0),
        "warm run resimulated cells the snapshot should carry"
    );
    let stats = client.stats().expect("stats");
    assert!(
        stats
            .get("verified")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0,
        "verification did not sample any reloaded hits"
    );
    assert_eq!(
        stats.get("verify_failures").and_then(JsonValue::as_u64),
        Some(0),
        "a reloaded cache entry diverged from fresh simulation"
    );
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
    let _ = std::fs::remove_file(&cache_file);
}

#[test]
fn damaged_cache_snapshot_degrades_to_the_valid_prefix() {
    let cache_file = test_path("damage", "journal");
    let _ = std::fs::remove_file(&cache_file);

    let (daemon, mut client) = start("damage-cold", Some(cache_file.clone()), None);
    client
        .submit(&campaign_job(None))
        .expect("cold campaign succeeds");
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");

    // Flip a byte near the end: the tail entries fail their checksums.
    let mut bytes = std::fs::read(&cache_file).expect("snapshot readable");
    let n = bytes.len();
    bytes[n - 9] ^= 0x01;
    std::fs::write(&cache_file, &bytes).expect("snapshot writable");

    // The daemon must come up (valid prefix loaded, damage reported on
    // stderr) and still serve the correct artifact — the dropped tail
    // is simply resimulated.
    let (daemon, mut client) = start("damage-warm", Some(cache_file.clone()), Some(1.0));
    let result = client
        .submit(&campaign_job(None))
        .expect("campaign succeeds on the damaged cache");
    assert!(
        result
            .get("cells_simulated")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0
            || result
                .get("diagnoses_simulated")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0)
                > 0,
        "nothing was resimulated — the damaged tail was silently kept"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("verify_failures").and_then(JsonValue::as_u64),
        Some(0)
    );
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
    let _ = std::fs::remove_file(&cache_file);
}

#[test]
fn shard_job_partition_matches_the_library_partition() {
    // The daemon's ownership rule and the library's must be the same
    // function of the flat cell index; otherwise merging shard jobs
    // would depend on which side computed a cell. One shard job per spec,
    // library shard run locally, reports must be equal.
    let (daemon, mut client) = start("partition", None, None);
    let config = campaign_job(None)
        .campaign_config()
        .expect("campaign jobs have a config");
    let farm = Farm::with_workers(2);
    for k in 0..2 {
        let shard = ShardSpec::new(k, 2).unwrap();
        let result = client
            .submit(&campaign_job(Some(shard)))
            .expect("shard campaign succeeds");
        let from_daemon =
            ShardReport::from_json(field(&result, "shard_json")).expect("shard report parses");
        let local = tve::campaign::run_campaign_shard(&config, &farm, shard);
        assert_eq!(
            from_daemon, local,
            "daemon and library shard {shard} differ"
        );
    }
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
}

#[test]
fn verify_cache_catches_a_divergent_snapshot_entry() {
    let cache_file = test_path("diverge", "journal");
    let _ = std::fs::remove_file(&cache_file);

    let (daemon, mut client) = start("diverge-cold", Some(cache_file.clone()), None);
    client
        .submit(&campaign_job(None))
        .expect("cold campaign succeeds");
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");

    // Rewrite the cached outcome of one cell to a wrong one. Every
    // record is re-appended through the journal writer, so the tampered
    // entry carries a valid checksum: only re-execution can catch it.
    let config = campaign_job(None)
        .campaign_config()
        .expect("campaign jobs have a config");
    let (fault, schedule) = (&config.population[0], &config.schedules[0]);
    let key = format!(
        "\"key\":\"{:016x}\"",
        cell_key(&config.soc, &config.plan, schedule, &fault.id())
    );
    let text = std::fs::read_to_string(&cache_file).expect("snapshot readable");
    let payloads: Vec<&str> = text
        .lines()
        .map(|line| line.split_once(' ').expect("checksummed record").1)
        .collect();
    let mut journal = Journal::create(&cache_file).expect("snapshot rewritable");
    let mut tampered = 0;
    for payload in payloads {
        if payload.contains(&key) {
            let (head, _) = payload
                .split_once("\"outcome\":")
                .expect("cell entries carry an outcome");
            let mut forged = head.to_string();
            append_outcome(
                &mut forged,
                &CellOutcome::InfraFailure {
                    error: "forged".into(),
                },
            );
            forged.push('}');
            journal.append(&forged).expect("forged record appends");
            tampered += 1;
        } else {
            journal.append(payload).expect("record re-appends");
        }
    }
    drop(journal);
    assert_eq!(
        tampered, 1,
        "the chosen cell is in the snapshot exactly once"
    );

    // A warm daemon that re-executes every hit must refuse the forged
    // entry with a typed error that names the cell.
    let (daemon, mut client) = start("diverge-warm", Some(cache_file.clone()), Some(1.0));
    let request = format!(
        "{{\"cmd\":\"submit\",\"wait\":true,\"job\":{}}}",
        campaign_job(None).to_json()
    );
    let err = client
        .request_typed(&request)
        .expect_err("a divergent cache entry must fail the campaign");
    assert_eq!(err.kind, "internal", "untyped failure: {err:?}");
    let cell = format!("cell {} x '{}'", fault.id(), schedule.name);
    assert!(
        err.message.contains("verify-cache mismatch") && err.message.contains(&cell),
        "error does not name {cell}: {}",
        err.message
    );
    let stats = client.stats().expect("stats");
    assert!(
        stats
            .get("verify_failures")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 1,
        "the divergence was not counted: {stats:?}"
    );
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
    let _ = std::fs::remove_file(&cache_file);
}

fn num(result: &JsonValue, key: &str) -> u64 {
    result
        .get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("no integer field {key:?} in {result:?}"))
}

fn is_cached(result: &JsonValue) -> bool {
    result.get("cached").and_then(JsonValue::as_bool) == Some(true)
}

/// The four benchmark schedules plus the small campaign, and the wall
/// time of the whole round trip (cache time included: that is the
/// serving latency).
fn serve_pass(
    client: &mut Client,
    schedules: &Workload,
    campaign: &Workload,
    verify: Option<f64>,
) -> (Vec<JsonValue>, JsonValue, f64) {
    let t = Instant::now();
    let results = (1..=4)
        .map(|index| {
            let job = JobSpec {
                workload: schedules.clone(),
                kind: JobKind::Schedule { index },
                verify,
                deadline_ms: None,
            };
            client.submit(&job).expect("schedule job succeeds")
        })
        .collect();
    let mut job = campaign_job(None);
    job.workload = campaign.clone();
    job.verify = verify;
    let campaign = client.submit(&job).expect("campaign job succeeds");
    (results, campaign, t.elapsed().as_secs_f64())
}

#[test]
fn warm_pass_is_all_hits_and_a_plan_edit_resimulates_only_its_blast_radius() {
    let (daemon, mut client) = start("passes", None, None);
    let (schedules, campaign) = (Workload::bench(), Workload::small());

    let (cold, cold_campaign, cold_wall) = serve_pass(&mut client, &schedules, &campaign, None);
    assert!(!cold.iter().any(is_cached), "cold pass found a warm cache");
    let cells = num(&cold_campaign, "cells");
    assert_eq!(num(&cold_campaign, "cells_simulated"), cells);

    let misses_before = num(&client.stats().expect("stats"), "misses");
    let (warm, warm_campaign, warm_wall) = serve_pass(&mut client, &schedules, &campaign, None);
    let misses_after = num(&client.stats().expect("stats"), "misses");
    for (index, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert!(is_cached(w), "warm schedule {} missed the cache", index + 1);
        assert_eq!(field(c, "digest"), field(w, "digest"));
    }
    assert_eq!(num(&warm_campaign, "cells_simulated"), 0);
    assert_eq!(num(&warm_campaign, "goldens_simulated"), 0);
    assert_eq!(
        field(&cold_campaign, "csv_digest"),
        field(&warm_campaign, "csv_digest")
    );
    assert_eq!(
        misses_after, misses_before,
        "the warm pass missed the cache"
    );
    assert!(
        warm_wall * 10.0 <= cold_wall,
        "warm pass {warm_wall:.4}s is not 10x faster than cold {cold_wall:.4}s"
    );

    // det_proc_patterns feeds test 2, which only schedules 1 and 3 run:
    // exactly those two schedules and half the campaign matrix move.
    let mut edit = PlanOverrides::default();
    edit.set("det_proc_patterns", 37);
    let entries_before = num(&client.stats().expect("stats"), "entries");
    let impact = client.invalidate(&schedules, &edit).expect("invalidate");
    let affected = impact
        .get("affected_schedules")
        .and_then(JsonValue::as_arr)
        .expect("impact names the affected schedules");
    assert_eq!(affected.len(), 2);
    let evicted = num(&impact, "evicted");
    assert!(evicted > 0, "the edit evicted nothing");
    let entries_after = num(&client.stats().expect("stats"), "entries");
    assert_eq!(entries_before - evicted, entries_after);

    let schedules = schedules.with_overrides(edit);
    let campaign = campaign.with_overrides(edit);
    let (edited, edited_campaign, _) = serve_pass(&mut client, &schedules, &campaign, None);
    let cached: Vec<bool> = edited.iter().map(is_cached).collect();
    assert_eq!(cached, [false, true, false, true]);
    assert_eq!(num(&edited_campaign, "cells_simulated"), cells / 2);
    assert_eq!(num(&edited_campaign, "goldens_simulated"), 2);

    // Every hit re-executed and compared bit for bit.
    serve_pass(&mut client, &schedules, &campaign, Some(1.0));
    let stats = client.stats().expect("stats");
    assert!(
        num(&stats, "verified") > 0,
        "verify pass re-executed nothing"
    );
    assert_eq!(num(&stats, "verify_failures"), 0);

    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
}
