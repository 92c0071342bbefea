#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

//! # tve-memtest — memory models, fault injection and march tests
//!
//! Substrate for the paper's memory test sequences (tests 6 and 7 of the
//! case study: "Array BIST of the embedded memory core (1 MByte) using a
//! MATS+ march and pattern tests"). Provides:
//!
//! * [`MemoryArray`] — a word-organized memory with injectable functional
//!   fault models (stuck-at, transition, inversion/idempotent coupling,
//!   address decoder aliasing),
//! * a march-test notation engine ([`MarchTest`], parseable from the
//!   standard `⇑/⇓/⇕` notation in ASCII form) with the classic algorithm
//!   library (MATS, MATS+, MATS++, March X, March Y, March C−),
//! * background [`PatternTest`]s (checkerboard, solid, address-in-data),
//! * a fault-coverage evaluation harness.
//!
//! ```
//! use tve_memtest::{MemoryArray, MarchTest, Fault};
//!
//! let mut mem = MemoryArray::new(1024);
//! mem.inject(Fault::stuck_at(17, 3, true));
//! let report = MarchTest::mats_plus().run(&mut mem);
//! assert!(!report.passed(), "MATS+ must detect any stuck-at fault");
//! ```

mod coverage;
mod march;
mod memory;
mod patterns;
mod repair;

pub use coverage::{evaluate_coverage, CoverageReport};
pub use march::{
    MarchElement, MarchOp, MarchOrder, MarchReport, MarchTest, Mismatch, ParseMarchError,
};
pub use memory::{Fault, FaultKind, MemoryArray};
pub use patterns::PatternTest;
pub use repair::RepairableMemory;
