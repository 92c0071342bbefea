#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

//! # tve-sched — test scheduling and design-space exploration
//!
//! The planning layer above the simulation: the paper observes that "test
//! scheduling tries to optimize the concurrency of tests, but the
//! complexity of the scheduling problem requires that only very coarse
//! information is taken into account", and that "in order to gain accurate
//! information regarding power and TAM utilization, the final schedule
//! should be evaluated using simulation".
//!
//! This crate provides both halves:
//!
//! * coarse models — [`TestTask`] descriptions with duration estimates,
//!   TAM shares, power figures and resource conflicts
//!   ([`estimate_tasks`] derives them analytically from a
//!   [`SocConfig`](tve_soc::SocConfig)),
//! * schedulers — sequential, greedy session packing and an exact
//!   set-partition optimum for small task sets, behind the Pareto-front
//!   [`explore`] over candidate schedules and their fluid estimates,
//! * **validation by simulation** — [`validate_schedules`] runs candidates
//!   on the full SoC TLM and reports estimate-versus-simulated error
//!   ([`ValidationReport`]), closing the loop the paper argues for,
//! * a **parallel validation farm** — [`Farm`] fans independent scenario
//!   simulations over a worker pool (one single-threaded simulator per
//!   worker; `TVE_JOBS` overrides the width) so exploration batches run
//!   at hardware speed; [`validate_schedules`] and
//!   [`explore_certified`] drive it,
//! * **certified pruning** — [`explore_certified`] skips simulating any
//!   candidate whose static lower bound
//!   ([`tve_lint::schedule_envelope`]) is already dominated by a
//!   simulated incumbent, emitting a [`PruneProof`] per discard while
//!   returning the exact same Pareto front as exhaustive validation.

mod certify;
mod estimate;
mod explore;
mod farm;
mod packing;
mod supervise;
mod tam_alloc;
mod task;
mod wrapper_design;

pub use certify::{
    enumerate_schedules, explore_certified, CertifiedCandidate, CertifiedExploreReport,
    CertifiedOutcome, PruneProof,
};
pub use estimate::{estimate_tasks, PhaseEstimate, ScheduleEstimate};
pub use explore::{explore, validate_schedules, Candidate, ExploreReport, ValidationReport};
pub use farm::{
    default_workers, BatchReport, Farm, JobError, JobOutcome, ScenarioJob, TracedBatch,
};
pub use supervise::{ChaosFault, ChaosHook, SupervisePolicy, SupervisedError};
pub use tam_alloc::{makespan_lower_bound, pack_tam, tam_width_sweep, CoreTestSpec, TamAssignment};
pub use task::{Constraints, Resource, TestTask};
pub use wrapper_design::wrapper_staircase;
