//! Operational counters for the serving infrastructure.
//!
//! The rest of this crate observes the *simulation* (simulated time,
//! transactions). This module observes the *infrastructure that runs
//! simulations*: worker respawns, job retries, deadline cancellations,
//! shed submissions. These are wall-clock-world events, so unlike trace
//! spans they are thread-safe and unkeyed.
//!
//! [`OpsCounters`] is a cheap, cloneable handle on named monotonic
//! counters.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Shared, thread-safe named counters. Clones share state.
#[derive(Clone, Default)]
pub struct OpsCounters {
    counters: Arc<Mutex<BTreeMap<String, u64>>>,
}

impl OpsCounters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        OpsCounters::default()
    }

    /// Adds `n` to `name` (creating it at 0) and returns the new value.
    pub(crate) fn add(&self, name: &str, n: u64) -> u64 {
        let mut counters = self.counters.lock().expect("ops lock poisoned");
        let slot = counters.entry(name.to_string()).or_insert(0);
        *slot += n;
        *slot
    }

    /// Increments `name` by one and returns the new value.
    pub fn incr(&self, name: &str) -> u64 {
        self.add(name, 1)
    }

    /// Current value of `name` (0 when never bumped).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("ops lock poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub(crate) fn snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("ops lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Renders the counters as a compact JSON object (`{}` when empty),
    /// keys in sorted order — deterministic given the same counts.
    pub fn to_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("{");
        for (i, (name, value)) in snap.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            crate::append_json_string(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        out.push('}');
        out
    }
}

impl std::fmt::Debug for OpsCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OpsCounters{}", self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let ops = OpsCounters::new();
        assert_eq!(ops.incr("b.retries"), 1);
        assert_eq!(ops.add("a.sheds", 2), 2);
        assert_eq!(ops.incr("b.retries"), 2);
        assert_eq!(ops.get("b.retries"), 2);
        assert_eq!(ops.get("missing"), 0);
        assert_eq!(
            ops.snapshot(),
            vec![("a.sheds".to_string(), 2), ("b.retries".to_string(), 2)]
        );
        assert_eq!(ops.to_json(), r#"{"a.sheds": 2, "b.retries": 2}"#);
    }

    #[test]
    fn clones_share_state() {
        let ops = OpsCounters::new();
        let handle = ops.clone();
        handle.incr("x");
        assert_eq!(ops.get("x"), 1);
    }

    #[test]
    fn empty_counters_render_as_empty_object() {
        assert_eq!(OpsCounters::new().to_json(), "{}");
    }
}
