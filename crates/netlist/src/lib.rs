#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

//! # tve-netlist — gate-level circuits under the test infrastructure
//!
//! The paper's wrappers accept cores "at register transfer level or even
//! at gate level" (Section III.B). This crate supplies that gate level:
//! combinational netlists with 64-way parallel-pattern evaluation,
//! single-stuck-at fault simulation, random-pattern BIST coverage curves
//! (the quantitative reason the case study applies 100 000 patterns), and
//! a [`NetlistCore`] adapter so a real circuit — with real injected
//! defects — sits behind a [`TestWrapper`](tve_core::TestWrapper).
//!
//! ```
//! use tve_netlist::{c17, full_fault_list, random_coverage_curve};
//!
//! let c17 = c17();
//! let faults = full_fault_list(&c17);
//! let curve = random_coverage_curve(&c17, &faults, 4, 99);
//! assert_eq!(curve.last().unwrap().coverage, 1.0, "c17 is fully testable");
//! ```

mod atpg;
mod core_model;
mod coverage;
mod fault;
mod netlist;

pub use atpg::{generate_test_set, TestSet};
pub use core_model::NetlistCore;
pub use coverage::{random_coverage_curve, CoveragePoint};
pub use fault::{fault_sim_batch, full_fault_list, StuckAtFault};
pub use netlist::{c17, NetId, Netlist};
