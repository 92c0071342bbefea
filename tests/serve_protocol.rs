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

/// Sends one request frame on a fresh connection and returns the
/// response's `(error_kind, error)`.
fn request_error(socket: &PathBuf, request: &str) -> (String, String) {
    let mut stream = raw_connect(socket);
    write_frame(&mut stream, request).expect("frame written");
    let response = read_frame(&mut stream)
        .expect("response readable")
        .expect("daemon answers");
    let parsed = tve::obs::parse_json(&response).expect("well-formed error frame");
    let field = |key| {
        parsed
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
    };
    (field("error_kind").to_string(), field("error").to_string())
}

/// The exact client-visible texts of the request decoder's errors, each
/// a typed `protocol` error on the shared daemon.
#[test]
fn request_decoder_error_texts_are_pinned() {
    let socket = frames_daemon();
    for (request, text) in [
        (r#"{"id":1}"#, "missing field 'cmd'"),
        (r#"{"cmd":7}"#, "field 'cmd' is not a string"),
        (r#"{"cmd":"submit"}"#, "missing field 'job'"),
        (
            r#"{"cmd":"submit","job":{"kind":"schedule","schedule":1,"workload":{"preset":"small"}},"wait":1}"#,
            "field 'wait' is not a boolean",
        ),
        (
            r#"{"cmd":"submit","job":{"kind":"schedule","schedule":1,"workload":{"preset":"small"}},"wait":false}"#,
            "\"wait\": false is not supported; a submit is answered on its connection",
        ),
        (
            r#"{"cmd":"submit","job":{"kind":"campaign","schedules":[1,3,1],"workload":{"preset":"small"}}}"#,
            "\"schedules\" repeats schedule 1",
        ),
        (r#"{"cmd":"status","id":1}"#, "unknown command \"status\""),
        (r#"{"cmd":"result","id":1}"#, "unknown command \"result\""),
        (r#"{"cmd":"invalidate"}"#, "missing field 'workload'"),
        (
            r#"{"cmd":"invalidate","workload":{"preset":"small"}}"#,
            "missing field 'edit'",
        ),
    ] {
        let (kind, error) = request_error(socket, request);
        assert_eq!(
            (kind.as_str(), error.as_str()),
            ("protocol", text),
            "{request}"
        );
    }
    assert_alive(socket);
}

/// A workload whose memory cannot be built is refused at decode with a
/// typed `protocol` error, for a simulating job and for a static one
/// alike, and the daemon stays up.
#[test]
fn unbuildable_memory_size_gets_typed_protocol_error() {
    let socket = frames_daemon();
    for kind in [r#""kind":"schedule","schedule":1"#, r#""kind":"bounds""#] {
        for words in [0u64, 4_026_531_841] {
            let request = format!(
                r#"{{"cmd":"submit","job":{{{kind},"workload":{{"preset":"small","mem_words":{words}}}}}}}"#
            );
            let (error_kind, error) = request_error(socket, &request);
            assert_eq!(error_kind, "protocol", "{request}: {error}");
            assert_eq!(error, "\"mem_words\" must be 1..=4026531840");
        }
    }
    assert_alive(socket);
}

/// The reply shapes of `ping`, `submit` and `stats` carry no job id, no
/// job count and no timing mode: a submit is answered on its connection
/// and every simulation is cycle-accurate.
#[test]
fn replies_name_no_job_id_job_count_or_quantum() {
    let socket = frames_daemon();
    let mut client = Client::connect(socket).expect("client connects");
    let keys = |value: &JsonValue| match value {
        JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("reply is not an object: {other:?}"),
    };
    let pong = client.ping().expect("ping answers");
    assert_eq!(keys(&pong), ["ok", "pid", "workers"]);
    let response = client
        .request_typed(r#"{"cmd":"submit","job":{"kind":"bounds","workload":{"preset":"small"}}}"#)
        .expect("a bounds job is answered without simulation");
    assert_eq!(keys(&response), ["ok", "result"]);
    let stats = client.stats().expect("stats answers");
    assert!(stats.get("running").is_some(), "{stats:?}");
    assert!(stats.get("jobs").is_none(), "{stats:?}");
    assert_alive(socket);
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
        // Stall the first farm attempt, so the campaign is still running
        // when the drain starts however fast the build simulates.
        chaos: "worker-slow@1=1000".into(),
        ..ServeOptions::default()
    })
    .expect("daemon spawns");
    let socket = daemon.socket.clone();

    // The campaign blocks its connection, so it gets its own thread.
    let runner = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).expect("runner connects");
            client.submit(&campaign_job(0x0D12_A1A0, None))
        })
    };
    wait_for_admission(&socket, 1, 0);
    Client::connect(&socket)
        .expect("drainer connects")
        .drain()
        .expect("drain accepted");

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

    // The daemon exits on its own once the running job finishes, the
    // job is answered on its connection, and the cache snapshot lands
    // on disk.
    daemon.join().expect("drained daemon exits cleanly");
    let result = runner
        .join()
        .expect("runner thread")
        .expect("the running campaign finishes");
    assert!(result.get("csv_digest").is_some(), "{result:?}");
    let text = std::fs::read_to_string(&cache).unwrap_or_else(|e| {
        panic!(
            "drain did not persist the cache snapshot to {}: {e}",
            cache.display()
        )
    });
    assert!(
        !text.is_empty(),
        "drain persisted an empty cache snapshot despite the finished campaign"
    );
    let _ = std::fs::remove_file(&cache);
}

/// A daemon of its own for a decode-memo test, whose `stats` counters no
/// other test moves.
fn memo_daemon(tag: &str, verify: Option<f64>) -> tve::serve::DaemonHandle {
    spawn(&ServeOptions {
        socket: test_socket(tag),
        workers: Some(1),
        quiet: true,
        verify,
        ..ServeOptions::default()
    })
    .expect("daemon spawns")
}

/// Sends `frame` on a fresh connection and returns the raw response.
fn raw_request(socket: &PathBuf, frame: &str) -> String {
    let mut stream = raw_connect(socket);
    write_frame(&mut stream, frame).expect("frame written");
    read_frame(&mut stream)
        .expect("response readable")
        .expect("daemon answers")
}

/// `text` with its `wall_us` value blanked: the one field in which two
/// answers to the same job may differ.
fn without_wall_us(text: &str) -> String {
    let Some(at) = text.find("\"wall_us\":") else {
        return text.to_string();
    };
    let value = at + "\"wall_us\":".len();
    let end = value
        + text[value..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len() - value);
    format!("{}{}", &text[..value], &text[end..])
}

/// A `stats` counter.
fn stat(socket: &PathBuf, key: &str) -> u64 {
    let stats = Client::connect(socket)
        .expect("stats connects")
        .stats()
        .expect("stats answers");
    stats
        .get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("stats has no {key}: {stats:?}"))
}

/// `(submits_decoded, submits_reused)`.
fn memo_counts(socket: &PathBuf) -> (u64, u64) {
    (
        stat(socket, "submits_decoded"),
        stat(socket, "submits_reused"),
    )
}

fn submit_frame(job: &str) -> String {
    format!(r#"{{"cmd":"submit","job":{job}}}"#)
}

const SCHEDULE_JOB: &str = r#"{"kind":"schedule","schedule":1,"workload":{"preset":"small"}}"#;

/// A frame seen before skips decoding and gets the answer a fresh decode
/// of the same job gets: the same bytes apart from `wall_us`, served from
/// the cache. The fresh decode is forced with a frame that differs from
/// the memoized one by a space.
#[test]
fn a_repeated_frame_is_decoded_once_and_answered_identically() {
    let daemon = memo_daemon("memo-repeat", None);
    let socket = daemon.socket.clone();
    for job in [
        SCHEDULE_JOB,
        r#"{"kind":"bounds","schedules":[1,3],"workload":{"preset":"small"}}"#,
        r#"{"kind":"lint","schedules":[2],"program_name":"p","program":"SHIFT 4\n","workload":{"preset":"small"}}"#,
        r#"{"kind":"campaign","schedules":[1],"seed":7,"faults":1,"workload":{"preset":"small"}}"#,
    ] {
        let frame = submit_frame(job);
        let (decoded, reused) = memo_counts(&socket);
        let cold = without_wall_us(&raw_request(&socket, &frame));
        let memoized = without_wall_us(&raw_request(&socket, &frame));
        let fresh = without_wall_us(&raw_request(&socket, &frame.replacen(',', ", ", 1)));
        assert_eq!(memo_counts(&socket), (decoded + 2, reused + 1), "{job}");
        assert_eq!(memoized, fresh, "{job}");
        if job.contains("campaign") {
            for field in [
                "cells_simulated",
                "goldens_simulated",
                "diagnoses_simulated",
            ] {
                assert!(cold.contains(&format!("\"{field}\":")), "{cold}");
                assert!(
                    memoized.contains(&format!("\"{field}\":0")),
                    "{field}: {memoized}"
                );
            }
        } else {
            assert!(cold.contains("\"cached\":false"), "{cold}");
            assert!(memoized.contains("\"cached\":true"), "{memoized}");
            assert_eq!(
                cold.replace("\"cached\":false", "\"cached\":true"),
                memoized,
                "{job}"
            );
        }
    }
    Client::connect(&socket)
        .expect("client connects")
        .shutdown()
        .expect("clean shutdown");
    daemon.join().expect("daemon joins");
}

/// The memo holds decodes, not results: once `invalidate` evicts a
/// memoized job's result, the same frame simulates again.
#[test]
fn invalidate_makes_a_memoized_frame_simulate_again() {
    let daemon = memo_daemon("memo-invalidate", None);
    let socket = daemon.socket.clone();
    let frame = submit_frame(SCHEDULE_JOB);
    assert!(raw_request(&socket, &frame).contains("\"cached\":false"));
    assert!(raw_request(&socket, &frame).contains("\"cached\":true"));
    let mut client = Client::connect(&socket).expect("client connects");
    let edit = tve::soc::PlanOverrides {
        bist_proc_patterns: Some(3),
        ..Default::default()
    };
    let impact = client
        .invalidate(&Workload::small(), &edit)
        .expect("invalidate answers");
    assert!(
        impact.get("evicted").and_then(JsonValue::as_u64) >= Some(1),
        "{impact:?}"
    );
    let again = raw_request(&socket, &frame);
    assert!(again.contains("\"cached\":false"), "{again}");
    assert_eq!(memo_counts(&socket), (1, 2), "the frame stays memoized");
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
}

/// `--verify-cache` samples memoized hits like any other: under
/// `verify: 1.0` the repeat is re-executed and compared.
#[test]
fn verify_sampling_re_executes_memoized_hits() {
    let daemon = memo_daemon("memo-verify", Some(1.0));
    let socket = daemon.socket.clone();
    let frame = submit_frame(SCHEDULE_JOB);
    raw_request(&socket, &frame);
    let verified = stat(&socket, "verified");
    let repeat = raw_request(&socket, &frame);
    assert!(repeat.contains("\"cached\":true"), "{repeat}");
    assert_eq!(memo_counts(&socket), (1, 1));
    assert_eq!(stat(&socket, "verified"), verified + 1);
    assert_eq!(stat(&socket, "verify_failures"), 0);
    Client::connect(&socket)
        .expect("client connects")
        .shutdown()
        .expect("clean shutdown");
    daemon.join().expect("daemon joins");
}

/// A frame that fails to decode is never memoized: sent twice, it gets
/// the same typed protocol error twice and counts as no decode.
#[test]
fn frames_that_fail_to_decode_are_not_memoized() {
    let daemon = memo_daemon("memo-bad", None);
    let socket = daemon.socket.clone();
    for frame in [
        submit_frame(r#"{"kind":"schedule","schedule":9,"workload":{"preset":"small"}}"#),
        format!(r#"{{"cmd":"submit","job":{SCHEDULE_JOB},"wait":false}}"#),
    ] {
        let first = request_error(&socket, &frame);
        assert_eq!(first.0, "protocol", "{frame}: {first:?}");
        assert_eq!(request_error(&socket, &frame), first, "{frame}");
    }
    assert_eq!(memo_counts(&socket), (0, 0));
    Client::connect(&socket)
        .expect("client connects")
        .shutdown()
        .expect("clean shutdown");
    daemon.join().expect("daemon joins");
}
