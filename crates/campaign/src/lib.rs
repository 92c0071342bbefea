#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

//! # tve-campaign — systematic fault-injection campaigns
//!
//! Validates test schedules the way the paper validates them against
//! *designs*: by confronting every schedule with a systematic population
//! of injected faults and checking that the transaction-level testbench
//! actually notices each one. A campaign crosses a deterministic fault
//! population — stuck scan cells, memory array faults, and *test
//! infrastructure* faults (corrupting TAM channels, stuck WIR bits,
//! broken configuration-ring segments) — with every schedule under
//! study, runs each (fault × schedule) cell on the `tve-sched`
//! validation [`Farm`](tve_sched::Farm), and classifies the result:
//!
//! * **detected** — the scenario's metrics digest deviates from the
//!   golden (fault-free) run, with a time-to-detection taken from the
//!   faulty run's per-test outcomes (the end of the earliest deviating
//!   test — what its `Test` span would show; cells run untraced);
//! * **escape** — the faulty run is byte-identical to the golden run;
//! * **infra-failure** — the run errors out or panics, i.e. the fault
//!   broke the test *equipment* rather than a verdict.
//!
//! Detected scan-cell faults are then cross-checked by the `tve-core`
//! BIST diagnosis ([`diagnose_bist`](tve_core::diagnose_bist)): the
//! located (chain, position) must equal the injected one.
//!
//! ```
//! use tve_campaign::{generate, run_campaign, CampaignConfig, PopulationSpec};
//! use tve_sched::Farm;
//! use tve_soc::{paper_schedules, SocConfig, SocTestPlan};
//!
//! let mut cfg = SocConfig::small();
//! cfg.memory_words = 64;
//! let spec = PopulationSpec {
//!     scan_cells_per_core: 1,
//!     memory_faults: 1,
//!     infrastructure: false,
//!     ..PopulationSpec::default()
//! };
//! let population = generate(&spec, &cfg);
//! let mut config = CampaignConfig::new(
//!     cfg,
//!     SocTestPlan::small(),
//!     vec![paper_schedules()[0].clone()],
//!     population,
//! );
//! config.diagnosis = false;
//! let report = run_campaign(&config, &Farm::with_workers(1));
//! assert_eq!(report.cells.len(), 4);
//! ```

mod engine;
mod fault;
mod matrix;
mod resume;
mod sample;
mod shard;
mod walk;
mod wire;

pub use engine::{apply_fault, diagnose_scan_fault, run_campaign, run_cell, CampaignConfig};
pub use fault::{generate, FaultSpec, PopulationSpec};
pub use matrix::{CampaignReport, CellOutcome, CellResult, DiagnosisCheck, PrescreenedSchedule};
pub use resume::{run_campaign_journaled, run_campaign_journaled_with_io, ResumeSummary};
pub use sample::{
    run_guided_campaign, run_sampled_campaign, stratum_of, CoverageEstimate, SampledCampaign,
    StratumOutcome,
};
pub use shard::{merge_shards, run_campaign_shard, ShardReport, ShardSpec};
pub use walk::{run_campaign_shard_with, CampaignError, CampaignStore};
pub use wire::{
    append_cell_result, append_diagnosis, append_outcome, cell_result_from_json,
    diagnosis_from_json, outcome_from_json,
};
