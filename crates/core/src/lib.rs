#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

//! # tve-core — transaction level models of SoC test infrastructure
//!
//! The paper's primary contribution (Sections II–III): TLMs of the test
//! building blocks, composable over the [`tve_tlm::TamIf`] interface:
//!
//! * [`TestWrapper`] — IEEE-1500-style core test wrapper with a WIR loaded
//!   over the configuration scan ring (Fig. 3),
//! * [`ConfigScanRing`] — the dedicated serial configuration bus,
//! * [`ScanSource`] — the one scan pattern source, of three
//!   [kinds](ScanKind): logic BIST (LFSR/PRPG), deterministic ATE patterns
//!   (ATE-channel limited) and compressed ATE patterns,
//! * [`DecompressorCompactor`] — the plug-and-play interface adaptor pair,
//! * [`Ebi`] — the external bus interface translating the ATE protocol to
//!   the TAM protocol,
//! * [`TestController`] — on-chip BIST/march control,
//! * [`VirtualAte`] — a test-program interpreter for validating test
//!   programs against the SoC model (Section III.E),
//! * [`Schedule`]/[`execute_schedule`] — the test-schedule execution engine
//!   producing the Table I metrics.
//!
//! Everything supports two data policies: `Full` (bit-true stimuli,
//! responses and signatures) for validation, and `Volume` (data-volume and
//! timing only) for fast design-space exploration — the same refinement
//! dial the paper's methodology prescribes.

mod ate;
mod codec;
mod config_bus;
mod controller;
mod ctl;
mod diagnosis;
mod ebi;
mod interconnect;
mod model;
mod outcome;
mod program_text;
mod schedule;
mod source;
mod wrapper;

pub use ate::{AteError, AteOp, ProgramReport, TestProgram, VirtualAte};
pub use codec::{CodecConfig, DecompressorCompactor};
pub use config_bus::{ConfigClient, ConfigScanRing};
pub use controller::{MemoryTestPlan, TestController};
pub use ctl::{CtlDescription, CtlError, CtlPort, CtlPortKind};
pub use diagnosis::{diagnose_bist, DiagnosisReport, FailingCell};
pub use ebi::Ebi;
pub use interconnect::{run_interconnect_test, Interconnect, NetFault};
pub use model::{CoreModel, DataPolicy, StuckCell, SyntheticLogicCore};
pub use outcome::TestOutcome;

pub use program_text::ParseProgramError;
pub use schedule::{
    execute_schedule, execute_schedule_traced, Schedule, ScheduleError, ScheduleResult,
    StructuralIssue, TestRun, TestSlot,
};
pub use source::{ReadBack, ScanKind, ScanSource, STIMULUS_STORE_BYTES};
pub use wrapper::{
    ScanPowerProfile, StuckWirBit, TestWrapper, WrapperConfig, WrapperMode, WrapperStats,
};
