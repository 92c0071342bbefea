//! A small synchronous client for the `tve-serve` protocol.
//!
//! One [`Client`] is one connection; requests on it are sequential
//! (write a frame, read a frame). Open several clients for concurrent
//! jobs — the daemon handles each connection on its own thread.
//!
//! [`request_typed`](Client::request_typed) surfaces the daemon's typed
//! errors as [`DaemonError`]s, and [`request_with_retry`] layers
//! seeded-deterministic exponential backoff with jitter on top:
//! transport faults (connect refused, torn frames, mid-response
//! disconnects) and `overloaded` sheds are retried on a fresh
//! connection; `deadline`, `protocol`, `draining`, and `internal`
//! errors are not — retrying those cannot change the answer.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use tve_obs::{append_json_string, parse_json, JsonValue};
use tve_soc::{PlanOverrides, Workload};

use crate::proto::{encode_overrides, encode_workload, read_frame, write_frame, JobSpec};

/// A daemon failure as seen by the client, with the machine-readable
/// kind preserved so retry policy can act on it. `kind` is one of the
/// daemon's wire kinds (`protocol`, `deadline`, `overloaded`,
/// `draining`, `internal`) or the client-side `transport` for
/// connection-level failures (connect refused, torn frame, disconnect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonError {
    /// Machine-readable class.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// Back-off hint from an `overloaded` shed.
    pub retry_after_ms: Option<u64>,
}

impl DaemonError {
    fn transport(message: impl Into<String>) -> Self {
        DaemonError {
            kind: "transport".into(),
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Whether a retry on a fresh connection has a chance of a
    /// different answer.
    pub(crate) fn retryable(&self) -> bool {
        matches!(self.kind.as_str(), "transport" | "overloaded")
    }
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for DaemonError {}

/// Seeded-deterministic retry schedule: exponential backoff from
/// `base_ms` capped at `cap_ms`, with splitmix64 jitter derived from
/// `seed ^ attempt` — two clients with different seeds desynchronize,
/// one client replays identically.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = single attempt).
    pub retries: u32,
    /// First backoff, doubled per attempt.
    pub base_ms: u64,
    /// Backoff ceiling.
    pub cap_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            base_ms: 50,
            cap_ms: 2000,
            seed: 0x2009_0417,
        }
    }
}

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The deterministic backoff before retry number `attempt`
    /// (1-based), jitter included.
    pub(crate) fn backoff_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(10).saturating_sub(1));
        let jitter = splitmix64(self.seed ^ u64::from(attempt)) % self.base_ms.max(1);
        (exp + jitter).min(self.cap_ms)
    }
}

/// Sends `request`, reconnecting and retrying per `policy`. Transport
/// faults and `overloaded` sheds retry (honoring `retry_after_ms` when
/// it exceeds the backoff); every other typed error returns
/// immediately.
pub fn request_with_retry(
    socket: impl AsRef<Path>,
    request: &str,
    policy: &RetryPolicy,
) -> Result<JsonValue, DaemonError> {
    let socket = socket.as_ref();
    let mut attempt = 0u32;
    loop {
        let error = match Client::connect(socket) {
            Ok(mut client) => match client.request_typed(request) {
                Ok(value) => return Ok(value),
                Err(e) => e,
            },
            Err(e) => DaemonError::transport(format!("connect {}: {e}", socket.display())),
        };
        attempt += 1;
        if !error.retryable() || attempt > policy.retries {
            return Err(error);
        }
        let wait = policy
            .backoff_ms(attempt)
            .max(error.retry_after_ms.unwrap_or(0));
        std::thread::sleep(Duration::from_millis(wait));
    }
}

/// [`Client::submit`] through [`request_with_retry`]: returns the job's
/// `result` object.
pub fn submit_with_retry(
    socket: impl AsRef<Path>,
    job: &JobSpec,
    policy: &RetryPolicy,
) -> Result<JsonValue, DaemonError> {
    let response = request_with_retry(socket, &submit_request(job), policy)?;
    response
        .get("result")
        .cloned()
        .ok_or_else(|| DaemonError::transport("submit response had no result"))
}

/// The `submit` request for `job`, answered once the job completes.
fn submit_request(job: &JobSpec) -> String {
    format!("{{\"cmd\":\"submit\",\"job\":{}}}", job.to_json())
}

/// A connected `tve-serve` client.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to a daemon at `socket`.
    pub fn connect(socket: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Client {
            stream: UnixStream::connect(socket)?,
        })
    }

    /// [`request_typed`](Client::request_typed) with the error reduced to
    /// its message.
    pub(crate) fn request(&mut self, request: &str) -> Result<JsonValue, String> {
        self.request_typed(request).map_err(|e| e.message)
    }

    /// Sends one request and returns the parsed response. Transport
    /// failures classify as `"transport"`; an `"ok": false` response keeps
    /// the daemon's `error_kind` and `retry_after_ms` in the
    /// [`DaemonError`].
    pub fn request_typed(&mut self, request: &str) -> Result<JsonValue, DaemonError> {
        let transport = |e: io::Error| DaemonError::transport(e.to_string());
        write_frame(&mut self.stream, request).map_err(transport)?;
        let text = read_frame(&mut self.stream)
            .map_err(transport)?
            .ok_or_else(|| DaemonError::transport("daemon closed the connection"))?;
        let value =
            parse_json(&text).map_err(|e| DaemonError::transport(format!("bad response: {e}")))?;
        match value.get("ok").and_then(JsonValue::as_bool) {
            Some(true) => Ok(value),
            _ => Err(DaemonError {
                kind: value
                    .get("error_kind")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("internal")
                    .to_string(),
                message: value
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("daemon reported failure")
                    .to_string(),
                retry_after_ms: value.get("retry_after_ms").and_then(JsonValue::as_u64),
            }),
        }
    }

    /// Round-trips a `ping`; returns the daemon's response object.
    pub fn ping(&mut self) -> Result<JsonValue, String> {
        self.request("{\"cmd\":\"ping\"}")
    }

    /// Fetches cache/serving statistics.
    pub fn stats(&mut self) -> Result<JsonValue, String> {
        self.request("{\"cmd\":\"stats\"}")
    }

    /// Submits `job` and blocks until it completes; returns the job's
    /// `result` object.
    pub fn submit(&mut self, job: &JobSpec) -> Result<JsonValue, String> {
        Ok(self.request(&submit_request(job))?.field("result")?.clone())
    }

    /// Reports the blast radius of `edit` on `workload` and evicts the
    /// affected cache entries.
    pub fn invalidate(
        &mut self,
        workload: &Workload,
        edit: &PlanOverrides,
    ) -> Result<JsonValue, String> {
        let mut request = String::from("{\"cmd\":\"invalidate\",\"workload\":");
        encode_workload(workload, &mut request);
        request.push_str(",\"edit\":");
        encode_overrides(edit, &mut request);
        request.push('}');
        self.request(&request)
    }

    /// Asks the daemon to shut down cleanly.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request("{\"cmd\":\"shutdown\"}").map(|_| ())
    }

    /// Asks the daemon to drain gracefully: finish running jobs,
    /// persist the cache snapshot, refuse new submissions.
    pub fn drain(&mut self) -> Result<(), String> {
        self.request("{\"cmd\":\"drain\"}").map(|_| ())
    }
}

/// Renders a response object as pretty single-line JSON for CLI output
/// (string values re-escaped through the `tve-obs` emitter).
pub fn render_response(value: &JsonValue) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

fn render_into(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        JsonValue::Str(s) => append_json_string(out, s),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            out.push('{');
            for (i, (name, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                append_json_string(out, name);
                out.push(':');
                render_into(item, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy::default();
        let a: Vec<u64> = (1..=6).map(|i| policy.backoff_ms(i)).collect();
        let b: Vec<u64> = (1..=6).map(|i| policy.backoff_ms(i)).collect();
        assert_eq!(a, b, "same seed replays the same schedule");
        assert!(a.iter().all(|&ms| ms <= policy.cap_ms));
        assert!(a[0] >= policy.base_ms);
        assert!(a[2] > a[0], "exponential growth dominates the jitter");

        let other = RetryPolicy {
            seed: 1,
            ..RetryPolicy::default()
        };
        assert_ne!(
            (1..=6).map(|i| other.backoff_ms(i)).collect::<Vec<_>>(),
            a,
            "different seeds desynchronize"
        );
    }

    #[test]
    fn retryability_follows_the_error_kind() {
        for (kind, retryable) in [
            ("transport", true),
            ("overloaded", true),
            ("deadline", false),
            ("protocol", false),
            ("draining", false),
            ("internal", false),
        ] {
            let e = DaemonError {
                kind: kind.into(),
                message: String::new(),
                retry_after_ms: None,
            };
            assert_eq!(e.retryable(), retryable, "{kind}");
        }
    }
}
