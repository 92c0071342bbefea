#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

//! # tve-soc — the JPEG encoder SoC case study
//!
//! The approximately-timed TLM of the paper's Section IV (Fig. 4): a
//! bus-based SoC with an embedded processor, a 1 MiB memory core, a color
//! conversion core and a DCT core, whose system bus is reused as the test
//! access mechanism. The crate provides:
//!
//! * functional cores with real data paths ([`MemoryCore`],
//!   [`ColorConversionCore`], [`DctCore`]) and the JPEG math ([`jpeg`]),
//! * the assembled SoC with full test infrastructure
//!   ([`JpegEncoderSoc`], [`SocConfig`]),
//! * the seven test sequences and four schedules of the evaluation
//!   ([`SocTestPlan`], [`build_test_runs`], [`paper_schedules`],
//!   [`run_scenario`] — the Table I generator),
//! * the functional block pipeline over the wrapped SoC ([`pipeline`]),
//! * RTL-granularity scan simulation for the abstraction-level speed
//!   comparison ([`rtl`]).
//!
//! ```
//! use tve_soc::{run_scenario, paper_schedules, SocConfig, SocTestPlan};
//!
//! # fn main() -> Result<(), tve_core::ScheduleError> {
//! let mut cfg = SocConfig::small();
//! cfg.memory_words = 64;
//! let metrics = run_scenario(&cfg, &SocTestPlan::small(), &paper_schedules()[0])?;
//! assert!(metrics.result.clean());
//! # Ok(())
//! # }
//! ```

mod cores;
pub mod cpu;
pub mod jpeg;
mod noc_soc;
pub mod pipeline;
mod plan;
pub mod rtl;
mod soc;
mod workload;

pub use noc_soc::{build_test_runs_noc, NocJpegSoc};
pub use plan::{
    build_test_runs, paper_schedules, run_scenario, run_scenario_prepared,
    run_scenario_prepared_traced, run_scenario_quantum, PowerSummary, ScenarioMetrics, SocTestPlan,
};
pub use workload::{PlanOverrides, Workload, WorkloadPreset, PLAN_OVERRIDE_KEYS};

pub use cores::{ColorConversionCore, DctCore, MemoryCore};
pub use soc::{
    initiators, scan_view, JpegEncoderSoc, PowerParams, SocConfig, WrappedCore, COLOR_WRAPPER_ADDR,
    MEM_BASE, PROC_WRAPPER_ADDR, RING_CODEC, RING_COLOR, RING_DCT, RING_EBI, RING_MEM, RING_PROC,
};
