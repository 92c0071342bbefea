//! Transaction-level observability for the TVE simulator.
//!
//! The DATE 2009 paper's argument is that TLM simulation makes test
//! infrastructure *inspectable* at transaction granularity: every TAM
//! transfer, WIR configuration scan and pattern burst is an event with a
//! begin time, an end time and an initiator. This crate is the layer
//! that keeps those events instead of throwing them away:
//!
//! - [`Recorder`] — a span/event sink models write into. Storage is an
//!   enum sink ([`StoragePolicy`]): disabled (near-zero cost), unbounded,
//!   or a bounded ring buffer that drops the oldest spans.
//! - [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and
//!   time-weighted [`Histogram`]s models can cheaply bump.
//! - Exporters — Chrome trace-event JSON ([`write_chrome_trace`],
//!   openable in Perfetto / `chrome://tracing`), CSV ([`write_spans_csv`],
//!   [`write_metrics_csv`]) and an aggregation pass
//!   ([`utilization_from_spans`]) that recomputes per-initiator
//!   utilization with exactly the windowing rules of the TLM layer's
//!   `UtilizationMonitor`.
//!
//! Everything is keyed on simulated [`tve_sim::Time`] — no wall clock
//! ever reaches an exported artifact, so traces are bit-for-bit
//! deterministic across hosts and runs.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use tve_obs::{check_json, write_chrome_trace, Recorder, SpanKind, SpanRecord};
//! use tve_sim::Time;
//!
//! let rec = Rc::new(Recorder::unbounded());
//! // A model records a 5-cycle write occupying the "system-bus" track.
//! rec.record_with(|| {
//!     SpanRecord::new(
//!         SpanKind::Transfer,
//!         "system-bus",
//!         "write",
//!         Time::from_cycles(10),
//!         Time::from_cycles(15),
//!     )
//!     .with_initiator(1)
//!     .with_bits(128)
//! });
//! let log = rec.take_log();
//! assert_eq!(log.spans.len(), 1);
//!
//! let mut json = Vec::new();
//! write_chrome_trace(&log, &mut json).unwrap();
//! check_json(std::str::from_utf8(&json).unwrap()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod agg;
mod chrome;
mod csv;
mod faultio;
mod journal;
mod json;
mod metrics;
mod ops;
mod recorder;
mod span;

pub use agg::{earliest_span_end, utilization_from_spans, UtilizationSummary};
pub use chrome::write_chrome_trace;
pub use csv::{csv_field, write_metrics_csv, write_spans_csv};
pub use faultio::{IoPolicy, WriteFault};
pub use journal::{
    fnv1a, parse_journal, read_journal, Fnv1a, Journal, JournalContents, JournalDefect,
};
pub use json::{append_json_string, check_json, json_string, parse_json, JsonError, JsonValue};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use ops::OpsCounters;
pub use recorder::{Recorder, StoragePolicy, TraceLog};
pub use span::{SpanKind, SpanRecord};
