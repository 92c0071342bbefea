// `deny` rather than `forbid`: the one `#[allow(unsafe_code)]` lives in
// `signal.rs` — a single `extern "C"` call to `signal(2)` so SIGTERM can
// flip the drain flag. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

//! # tve-serve — validation as a service
//!
//! A long-running daemon that owns a warm [`tve_sched::Farm`] and a
//! content-addressed result cache, and serves schedule validation,
//! fault-injection campaigns, and static lint over a Unix-domain
//! socket. The paper's exploration loop — edit the test plan, re-run
//! the affected scenarios, compare — becomes interactive: the first
//! request pays for simulation, every repeat is a cache hit, and a
//! plan *edit* invalidates exactly the (fault × schedule) cells it can
//! affect.
//!
//! ## Why caching is sound here
//!
//! The whole workspace is already deterministic: `ScenarioMetrics`
//! digests are bit-identical for any farm worker count, host load, or
//! scheduling interleaving (pinned by `tests/kernel_digests.rs` and
//! the farm determinism tests). A cached result keyed by *all* of its
//! inputs is therefore indistinguishable from a fresh run — and the
//! daemon can prove it on demand: with `--verify-cache <fraction>` a
//! sampled subset of hits is re-executed and compared bit for bit
//! (`CacheStats::verify_failures` must stay 0).
//!
//! ## Incremental re-validation
//!
//! Cell keys digest the **plan projection** — only the plan fields the
//! cell's schedule consumes (see `plan_projection`). An edit to one
//! test's pattern count moves exactly the keys of schedules running
//! that test; everything else stays a hit. [`edit_impact`] predicts
//! the blast radius from `tve-lint` plan facts (edit → tests → cores →
//! schedules), and the `invalidate` command reclaims the affected
//! entries. The agreement between prediction and keys is pinned by
//! property tests.
//!
//! ## Protocol
//!
//! Length-prefixed frames (4-byte little-endian length, then UTF-8
//! JSON) on a Unix-domain socket; see `DESIGN.md` for the full
//! request/response catalogue. Everything is built on the workspace's
//! serde-free JSON in `tve-obs` — no new dependencies.

mod admission;
mod cache;
mod chaos;
mod client;
mod daemon;
mod error;
mod invalidate;
mod key;
mod memo;
mod persist;
mod proto;
mod signal;

pub use cache::{CachedValue, ResultCache};

pub use client::{
    render_response, request_with_retry, submit_with_retry, Client, DaemonError, RetryPolicy,
};
pub use daemon::{serve, spawn, DaemonHandle, ServeOptions, DEFAULT_SOCKET};
pub use error::ErrorKind;
pub use invalidate::{edit_impact, EditImpact};
pub use key::{cell_key, schedule_tests, test_mask};
pub use persist::{load_cache, save_cache, CacheLoad};
pub use proto::{read_frame, write_frame, JobKind, JobSpec};
pub use signal::install_sigterm_drain;
