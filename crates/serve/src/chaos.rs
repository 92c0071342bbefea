//! Deterministic chaos injection for the daemon.
//!
//! A chaos spec is a comma-separated list of `site@N[=ARG]` clauses:
//! fire fault `site` on its `N`-th occurrence (1-based), optionally with
//! a site-specific integer argument. Example:
//!
//! ```text
//! worker-panic@1,worker-slow@3=250,frame-corrupt@2,snapshot-enospc@1
//! ```
//!
//! Sites:
//!
//! | site                  | occurrence counted per…        | ARG                |
//! |-----------------------|--------------------------------|--------------------|
//! | `worker-panic`        | supervised job attempt         | —                  |
//! | `worker-slow`         | supervised job attempt         | stall ms (50)      |
//! | `frame-corrupt`       | response frame written         | —                  |
//! | `disconnect`          | response frame written         | —                  |
//! | `snapshot-short-write`| cache snapshot write           | bytes kept (16)    |
//! | `snapshot-enospc`     | cache snapshot write           | —                  |
//!
//! Injection is *deterministic*: the same spec against the same request
//! sequence fires the same faults, which is what lets
//! `tests/serve_resilience.rs` and the CI chaos-smoke job compare chaotic
//! runs byte-for-byte against fault-free references. Every site keeps an
//! occurrence counter exposed via [`ChaosSpec::counters_json`] so tests
//! can assert a fault actually fired.

use std::sync::atomic::{AtomicU64, Ordering};

/// The injectable fault sites. See the module table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChaosSite {
    /// Panic a supervised worker attempt.
    WorkerPanic,
    /// Stall a supervised worker attempt past its deadline.
    WorkerSlow,
    /// Corrupt the length prefix of a response frame, then close.
    FrameCorrupt,
    /// Close the connection instead of writing a response frame.
    Disconnect,
    /// Tear the cache snapshot mid-record (short write, then ENOSPC).
    SnapshotShortWrite,
    /// Fail the cache snapshot cleanly at a record boundary.
    SnapshotEnospc,
}

impl ChaosSite {
    /// All sites, for iteration.
    pub(crate) const ALL: [ChaosSite; 6] = [
        ChaosSite::WorkerPanic,
        ChaosSite::WorkerSlow,
        ChaosSite::FrameCorrupt,
        ChaosSite::Disconnect,
        ChaosSite::SnapshotShortWrite,
        ChaosSite::SnapshotEnospc,
    ];

    /// The spec-grammar name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ChaosSite::WorkerPanic => "worker-panic",
            ChaosSite::WorkerSlow => "worker-slow",
            ChaosSite::FrameCorrupt => "frame-corrupt",
            ChaosSite::Disconnect => "disconnect",
            ChaosSite::SnapshotShortWrite => "snapshot-short-write",
            ChaosSite::SnapshotEnospc => "snapshot-enospc",
        }
    }

    fn parse(text: &str) -> Option<ChaosSite> {
        ChaosSite::ALL.into_iter().find(|s| s.as_str() == text)
    }

    /// Default ARG where the site takes one.
    fn default_arg(self) -> u64 {
        match self {
            ChaosSite::WorkerSlow => 50,
            ChaosSite::SnapshotShortWrite => 16,
            _ => 0,
        }
    }

    fn index(self) -> usize {
        ChaosSite::ALL.iter().position(|s| *s == self).unwrap()
    }
}

#[derive(Debug, Clone, Copy)]
struct Clause {
    site: ChaosSite,
    /// Fire on this 1-based occurrence.
    nth: u64,
    arg: u64,
}

/// A parsed chaos spec with per-site occurrence counters.
#[derive(Debug, Default)]
pub(crate) struct ChaosSpec {
    clauses: Vec<Clause>,
    seen: [AtomicU64; 6],
    fired: [AtomicU64; 6],
}

impl ChaosSpec {
    /// Parses `site@N[=ARG],...`. Empty input yields a no-op spec.
    pub(crate) fn parse(spec: &str) -> Result<ChaosSpec, String> {
        let mut clauses = Vec::new();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (site_nth, arg) = match clause.split_once('=') {
                Some((head, arg)) => {
                    let arg = arg
                        .parse::<u64>()
                        .map_err(|_| format!("chaos clause {clause:?}: ARG wants an integer"))?;
                    (head, Some(arg))
                }
                None => (clause, None),
            };
            let (site, nth) = site_nth
                .split_once('@')
                .ok_or_else(|| format!("chaos clause {clause:?} wants the form site@N[=ARG]"))?;
            let site = ChaosSite::parse(site).ok_or_else(|| {
                format!(
                    "unknown chaos site {site:?}; expected one of {}",
                    ChaosSite::ALL
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?;
            let nth =
                nth.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("chaos clause {clause:?}: N wants a positive integer")
                })?;
            clauses.push(Clause {
                site,
                nth,
                arg: arg.unwrap_or(site.default_arg()),
            });
        }
        Ok(ChaosSpec {
            clauses,
            ..ChaosSpec::default()
        })
    }

    /// True when no clause is configured — injection sites can skip the
    /// occurrence accounting entirely.
    pub(crate) fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Records one occurrence of `site` and returns `Some(arg)` when a
    /// clause matches this occurrence — i.e. the fault fires now.
    pub(crate) fn fire(&self, site: ChaosSite) -> Option<u64> {
        if self.clauses.is_empty() {
            return None;
        }
        let n = self.seen[site.index()].fetch_add(1, Ordering::SeqCst) + 1;
        let hit = self
            .clauses
            .iter()
            .find(|c| c.site == site && c.nth == n)
            .map(|c| c.arg);
        if hit.is_some() {
            self.fired[site.index()].fetch_add(1, Ordering::SeqCst);
        }
        hit
    }

    /// How many times `site` fired a fault so far.
    pub(crate) fn fired(&self, site: ChaosSite) -> u64 {
        self.fired[site.index()].load(Ordering::SeqCst)
    }

    /// How many occurrences of `site` were observed so far.
    pub(crate) fn seen(&self, site: ChaosSite) -> u64 {
        self.seen[site.index()].load(Ordering::SeqCst)
    }

    /// Compact JSON object `{"site":{"seen":N,"fired":M},...}` for the
    /// `stats` response — only sites with activity or clauses.
    pub(crate) fn counters_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for site in ChaosSite::ALL {
            let seen = self.seen(site);
            let fired = self.fired(site);
            let configured = self.clauses.iter().any(|c| c.site == site);
            if seen == 0 && !configured {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"seen\":{seen},\"fired\":{fired}}}",
                site.as_str()
            ));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let spec = ChaosSpec::parse("worker-panic@1, worker-slow@3=250 ,frame-corrupt@2").unwrap();
        assert!(!spec.is_empty());
        assert_eq!(spec.fire(ChaosSite::WorkerPanic), Some(0));
        assert_eq!(spec.fire(ChaosSite::WorkerPanic), None);
        assert_eq!(spec.fire(ChaosSite::WorkerSlow), None);
        assert_eq!(spec.fire(ChaosSite::WorkerSlow), None);
        assert_eq!(spec.fire(ChaosSite::WorkerSlow), Some(250));
        assert_eq!(spec.fire(ChaosSite::FrameCorrupt), None);
        assert_eq!(spec.fire(ChaosSite::FrameCorrupt), Some(0));
        assert_eq!(spec.fired(ChaosSite::WorkerPanic), 1);
        assert_eq!(spec.seen(ChaosSite::WorkerSlow), 3);
    }

    #[test]
    fn defaults_and_empty_spec() {
        let spec = ChaosSpec::parse("snapshot-short-write@1").unwrap();
        assert_eq!(spec.fire(ChaosSite::SnapshotShortWrite), Some(16));
        let empty = ChaosSpec::parse("").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.fire(ChaosSite::WorkerPanic), None);
        assert_eq!(empty.seen(ChaosSite::WorkerPanic), 0);
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "worker-panic",
            "worker-panic@0",
            "worker-panic@x",
            "no-such-site@1",
            "worker-slow@1=ms",
        ] {
            assert!(ChaosSpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn counters_json_reports_active_sites() {
        let spec = ChaosSpec::parse("disconnect@2").unwrap();
        spec.fire(ChaosSite::Disconnect);
        spec.fire(ChaosSite::Disconnect);
        let json = spec.counters_json();
        assert_eq!(json, "{\"disconnect\":{\"seen\":2,\"fired\":1}}");
        tve_obs::check_json(&json).unwrap();
    }
}
