//! Protocol robustness: every way a client or the infrastructure can
//! misbehave at the socket gets a typed error or a clean disconnect —
//! never a hang, never a daemon panic, never a poisoned accept loop.
//!
//! The malformed-frame cases share one daemon on purpose: each case
//! must leave it healthy enough to answer the next one's `ping`, which
//! is exactly the "one bad client cannot take the service down"
//! invariant. Deadlines, load shedding, drain, and client retry get
//! their own daemons because they configure admission control.

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use tve::obs::JsonValue;
use tve::serve::{
    read_frame, spawn, submit_with_retry, write_frame, Client, JobKind, JobSpec, RetryPolicy,
    ServeOptions,
};
use tve::soc::Workload;

fn test_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tve-proto-{tag}-{}.sock", std::process::id()))
}

/// The shared malformed-frame daemon: short read timeout so an idle or
/// half-written connection is dropped quickly, one worker because no
/// frame in these tests ever reaches a simulation.
fn frames_daemon() -> &'static PathBuf {
    static SOCKET: OnceLock<PathBuf> = OnceLock::new();
    SOCKET.get_or_init(|| {
        let daemon = spawn(&ServeOptions {
            socket: test_socket("frames"),
            workers: Some(1),
            quiet: true,
            read_timeout_ms: 750,
            ..ServeOptions::default()
        })
        .expect("frames daemon spawns");
        let socket = daemon.socket.clone();
        // Lives for the whole test binary; the OS reaps it.
        std::mem::forget(daemon);
        socket
    })
}

fn raw_connect(socket: &PathBuf) -> UnixStream {
    let stream = UnixStream::connect(socket).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Daemon must still answer a well-formed ping — the previous abuse did
/// not take it down.
fn assert_alive(socket: &PathBuf) {
    let mut client = Client::connect(socket).expect("daemon still accepts");
    let pong = client.ping().expect("daemon still answers");
    assert_eq!(pong.get("ok").and_then(JsonValue::as_bool), Some(true));
}

/// Reads response frames until the daemon closes the connection.
/// Every frame received must be well-formed JSON; a read timeout —
/// i.e. a hang — fails the test. A reset counts as a close: the daemon
/// dropping the socket while our unread bytes are still in flight is a
/// disconnect, not a hang.
fn drain_responses(stream: &mut UnixStream) -> Vec<JsonValue> {
    let mut responses = Vec::new();
    loop {
        match read_frame(stream) {
            Ok(Some(text)) => {
                responses.push(tve::obs::parse_json(&text).unwrap_or_else(|e| {
                    panic!("daemon sent a malformed response frame: {e}\n{text}")
                }));
            }
            Ok(None) => return responses,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                ) =>
            {
                return responses
            }
            Err(e) => panic!("connection neither answered nor closed cleanly: {e}"),
        }
    }
}

#[test]
fn oversized_length_prefix_gets_typed_protocol_error() {
    let socket = frames_daemon();
    let mut stream = raw_connect(socket);
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("prefix written");
    let responses = drain_responses(&mut stream);
    assert_eq!(responses.len(), 1, "exactly one error frame");
    assert_eq!(
        responses[0].get("error_kind").and_then(JsonValue::as_str),
        Some("protocol"),
        "oversized prefix must be a typed protocol error: {responses:?}"
    );
    assert_alive(socket);
}

#[test]
fn truncated_frame_disconnects_cleanly() {
    let socket = frames_daemon();
    let mut stream = raw_connect(socket);
    // Announce 64 bytes, deliver 3, hang up the write side: the daemon
    // sees EOF mid-frame and must drop the connection without a reply.
    stream.write_all(&64u32.to_le_bytes()).expect("prefix");
    stream.write_all(b"abc").expect("partial body");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let responses = drain_responses(&mut stream);
    assert!(
        responses.is_empty(),
        "a half-frame deserves no reply: {responses:?}"
    );
    assert_alive(socket);
}

#[test]
fn non_utf8_frame_gets_typed_protocol_error() {
    let socket = frames_daemon();
    let mut stream = raw_connect(socket);
    let body = [0xFFu8, 0xFE, 0x20, 0x09];
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .expect("prefix");
    stream.write_all(&body).expect("body");
    let responses = drain_responses(&mut stream);
    assert_eq!(responses.len(), 1);
    assert_eq!(
        responses[0].get("error_kind").and_then(JsonValue::as_str),
        Some("protocol")
    );
    assert_alive(socket);
}

#[test]
fn non_json_frame_gets_typed_error_and_connection_survives() {
    let socket = frames_daemon();
    let mut stream = raw_connect(socket);
    write_frame(&mut stream, "this is not json").expect("frame written");
    let response = read_frame(&mut stream)
        .expect("response readable")
        .expect("daemon answers");
    let parsed = tve::obs::parse_json(&response).expect("well-formed error frame");
    assert_eq!(
        parsed.get("error_kind").and_then(JsonValue::as_str),
        Some("protocol")
    );
    // A parse error is the client's bug, not a transport fault: the
    // same connection must still serve a well-formed request.
    write_frame(&mut stream, "{\"cmd\":\"ping\"}").expect("ping written");
    let pong = read_frame(&mut stream)
        .expect("pong readable")
        .expect("daemon answers the same connection");
    assert!(pong.contains("\"ok\":true"), "{pong}");
}

#[test]
fn silent_connection_is_dropped_at_the_read_timeout() {
    let socket = frames_daemon();
    let mut stream = raw_connect(socket);
    let t = Instant::now();
    // Send nothing. The daemon's 750 ms read timeout must reclaim the
    // connection thread; a daemon that waits forever fails here.
    let responses = drain_responses(&mut stream);
    assert!(responses.is_empty());
    let elapsed = t.elapsed();
    assert!(
        elapsed < Duration::from_secs(8),
        "connection lingered {elapsed:?} past the 750 ms read timeout"
    );
    assert_alive(socket);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary bytes at the socket: the daemon may answer with typed
    /// error frames (each well-formed JSON) or close silently, but it
    /// must reach EOF — no hang — and stay alive for the next client.
    #[test]
    fn arbitrary_bytes_never_hang_or_kill_the_daemon(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let socket = frames_daemon();
        let mut stream = raw_connect(socket);
        let _ = stream.write_all(&bytes);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        for response in drain_responses(&mut stream) {
            prop_assert_eq!(
                response.get("ok").and_then(JsonValue::as_bool),
                Some(false),
                "garbage input produced a success frame"
            );
        }
        assert_alive(socket);
    }
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

#[test]
fn overrun_job_is_cancelled_with_typed_deadline_error() {
    let daemon = spawn(&ServeOptions {
        socket: test_socket("deadline"),
        workers: Some(2),
        quiet: true,
        ..ServeOptions::default()
    })
    .expect("daemon spawns");
    let mut client = Client::connect(&daemon.socket).expect("client connects");

    let job = campaign_job(0xDEAD_11FE, Some(1));
    let t = Instant::now();
    let error = client
        .request_typed(&format!(
            "{{\"cmd\":\"submit\",\"wait\":true,\"job\":{}}}",
            job.to_json()
        ))
        .expect_err("a 1 ms campaign deadline must be exceeded");
    let elapsed = t.elapsed();
    assert_eq!(error.kind, "deadline", "untyped failure: {error:?}");
    assert!(
        elapsed < Duration::from_secs(20),
        "cancellation took {elapsed:?} — the deadline did not interrupt the job"
    );

    // The daemon is unharmed and the same job without a deadline runs
    // to completion — cancellation poisoned nothing.
    let result = client
        .submit(&campaign_job(0xDEAD_11FE, None))
        .expect("job succeeds without a deadline");
    assert!(result.get("csv_digest").is_some());
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
}

/// Polls `stats` until admission reports `running` executing and
/// `queued` waiting jobs.
fn wait_for_admission(socket: &PathBuf, running: u64, queued: u64) {
    let mut client = Client::connect(socket).expect("stats connects");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats");
        let depth = |key| stats.get(key).and_then(JsonValue::as_u64);
        if depth("running") == Some(running) && depth("queued") == Some(queued) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "admission never reached running={running}, queued={queued}: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn full_queue_sheds_with_retry_hint_and_retry_eventually_succeeds() {
    let daemon = spawn(&ServeOptions {
        socket: test_socket("shed"),
        workers: Some(2),
        quiet: true,
        max_running: 1,
        max_queue: 1,
        // Stall the first farm attempt for 2 s, so the run slot stays
        // busy however fast the build simulates.
        chaos: "worker-slow@1=2000".into(),
        ..ServeOptions::default()
    })
    .expect("daemon spawns");
    let socket = daemon.socket.clone();

    // Occupy the single run slot with one campaign and the single
    // queue slot with a second; both block their connections, so each
    // gets its own thread.
    let runner = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).expect("runner connects");
            client.submit(&campaign_job(0x5EED_0001, None))
        })
    };
    wait_for_admission(&socket, 1, 0);
    let queued = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).expect("queuer connects");
            client.submit(&campaign_job(0x5EED_0002, None))
        })
    };
    wait_for_admission(&socket, 1, 1);

    // Slot busy, queue full: the next submission must be shed with a
    // typed `overloaded` error carrying a back-off hint — and a client
    // honouring that hint with seeded backoff must eventually land.
    let bounds = JobSpec {
        workload: Workload::small(),
        kind: JobKind::Bounds {
            schedules: vec![1, 2, 3, 4],
        },
        verify: None,
        deadline_ms: None,
    };
    let mut probe = Client::connect(&socket).expect("probe connects");
    let shed = probe
        .request_typed(&format!(
            "{{\"cmd\":\"submit\",\"wait\":true,\"job\":{}}}",
            bounds.to_json()
        ))
        .expect_err("a full queue must shed");
    assert_eq!(shed.kind, "overloaded", "untyped shed: {shed:?}");
    assert!(
        shed.retry_after_ms.is_some(),
        "overloaded rejection without a retry hint: {shed:?}"
    );

    let policy = RetryPolicy {
        retries: 60,
        base_ms: 50,
        cap_ms: 250,
        ..RetryPolicy::default()
    };
    let result =
        submit_with_retry(&socket, &bounds, &policy).expect("backoff outlasts the overload");
    assert!(result.get("report").is_some(), "bounds result: {result:?}");

    runner.join().expect("runner thread").expect("campaign 1");
    queued.join().expect("queuer thread").expect("campaign 2");

    let mut client = Client::connect(&socket).expect("stats connects");
    let stats = client.stats().expect("stats");
    assert!(
        stats.get("shed").and_then(JsonValue::as_u64).unwrap_or(0) >= 1,
        "admission control never shed: {stats:?}"
    );
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
}

#[test]
fn drain_refuses_new_work_finishes_running_and_persists_the_cache() {
    let cache = std::env::temp_dir().join(format!("tve-proto-drain-{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let daemon = spawn(&ServeOptions {
        socket: test_socket("drain"),
        workers: Some(2),
        quiet: true,
        cache_file: Some(cache.clone()),
        ..ServeOptions::default()
    })
    .expect("daemon spawns");
    let socket = daemon.socket.clone();

    let mut client = Client::connect(&socket).expect("client connects");
    let id = client
        .submit_async(&campaign_job(0x0D12_A1A0, None))
        .expect("async campaign admitted");
    client.drain().expect("drain accepted");

    // Submissions after drain are refused with the typed error; the
    // running campaign is NOT cancelled.
    let mut late = Client::connect(&socket).expect("late client connects");
    let refused = late
        .request_typed(&format!(
            "{{\"cmd\":\"submit\",\"wait\":true,\"job\":{}}}",
            campaign_job(0x0D12_A1A1, None).to_json()
        ))
        .expect_err("draining daemon accepted new work");
    assert_eq!(refused.kind, "draining", "untyped refusal: {refused:?}");
    drop(late);

    // The daemon exits on its own once the running job finishes, and
    // the cache snapshot lands on disk.
    daemon.join().expect("drained daemon exits cleanly");
    assert!(
        cache.exists(),
        "drain did not persist the cache snapshot to {}",
        cache.display()
    );
    let text = std::fs::read_to_string(&cache).expect("snapshot readable");
    assert!(
        !text.is_empty(),
        "drain persisted an empty cache snapshot despite job {id}"
    );
    let _ = std::fs::remove_file(&cache);
}
