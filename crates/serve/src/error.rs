//! Typed daemon errors.
//!
//! Every failure a client can observe carries a machine-readable
//! `error_kind` next to the human-readable message, so clients can make
//! policy decisions — retry an `overloaded` rejection after
//! `retry_after_ms`, give up immediately on `deadline`, fix the request
//! on `protocol` — without parsing prose. The wire shape is
//!
//! ```json
//! {"ok":false,"error":"...","error_kind":"overloaded","retry_after_ms":400}
//! ```
//!
//! (`retry_after_ms` only on kinds where retrying can help).

use tve_obs::append_json_string;

/// The machine-readable classes of daemon failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request frame or body was malformed. Retrying the same bytes
    /// cannot help.
    Protocol,
    /// The job overran its deadline and was cancelled at a kernel
    /// scheduling boundary.
    Deadline,
    /// Admission control shed the job; retry after `retry_after_ms`.
    Overloaded,
    /// The daemon is draining (SIGTERM received): running jobs finish,
    /// new submissions are refused. Find another daemon or run locally.
    Draining,
    /// Anything else — simulation failures, cache verification
    /// mismatches, internal panics (payload preserved in the message).
    Internal,
}

impl ErrorKind {
    /// The wire tag.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Draining => "draining",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A typed daemon-side failure, rendered as the standard error frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ServeError {
    /// The machine-readable class.
    pub(crate) kind: ErrorKind,
    /// Human-readable detail.
    pub(crate) message: String,
    /// For retryable kinds: when a retry has a chance.
    pub(crate) retry_after_ms: Option<u64>,
}

impl ServeError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ServeError {
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// A malformed-request error.
    pub(crate) fn protocol(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Protocol, message)
    }

    /// A deadline-cancellation error.
    pub(crate) fn deadline(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Deadline, message)
    }

    /// A load-shedding rejection with a retry hint.
    pub(crate) fn overloaded(message: impl Into<String>, retry_after_ms: u64) -> Self {
        ServeError {
            retry_after_ms: Some(retry_after_ms),
            ..Self::new(ErrorKind::Overloaded, message)
        }
    }

    /// A drain-mode refusal.
    pub(crate) fn draining(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Draining, message)
    }

    /// Any other failure.
    pub(crate) fn internal(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Internal, message)
    }

    /// Renders the `{"ok":false,...}` response frame.
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("{\"ok\":false,\"error\":");
        append_json_string(&mut out, &self.message);
        out.push_str(",\"error_kind\":\"");
        out.push_str(self.kind.as_str());
        out.push('"');
        if let Some(ms) = self.retry_after_ms {
            out.push_str(&format!(",\"retry_after_ms\":{ms}"));
        }
        out.push('}');
        out
    }
}

impl From<String> for ServeError {
    /// Legacy plain-string failures classify as `internal`.
    fn from(message: String) -> Self {
        ServeError::internal(message)
    }
}

impl From<&str> for ServeError {
    fn from(message: &str) -> Self {
        ServeError::internal(message)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_obs::{check_json, parse_json, JsonValue};

    #[test]
    fn renders_valid_typed_frames() {
        let e = ServeError::overloaded("queue full", 400);
        let text = e.render();
        check_json(&text).unwrap();
        let v = parse_json(&text).unwrap();
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            v.get("error_kind").and_then(JsonValue::as_str),
            Some("overloaded")
        );
        assert_eq!(
            v.get("retry_after_ms").and_then(JsonValue::as_u64),
            Some(400)
        );

        let e = ServeError::deadline("15 ms exceeded");
        let v = parse_json(&e.render()).unwrap();
        assert_eq!(
            v.get("error_kind").and_then(JsonValue::as_str),
            Some("deadline")
        );
        assert!(v.get("retry_after_ms").is_none());
    }

    #[test]
    fn string_failures_become_internal() {
        let e: ServeError = String::from("boom").into();
        assert_eq!(e.kind, ErrorKind::Internal);
        assert!(e.render().contains("\"error_kind\":\"internal\""));
    }
}
