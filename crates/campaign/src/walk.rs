//! The campaign matrix walk: the one code path from a shard of the
//! (fault × schedule) matrix to its [`ShardReport`].
//!
//! What differs between callers lives behind a [`CampaignStore`]: the
//! library path stores nothing ([`NoStore`]), the resume journal answers
//! with its recorded cells, the guided sampler with what its earlier
//! walks simulated, and the `tve-serve` daemon from its result cache.
//! Served, resumed, sampled and sharded campaigns therefore compute the
//! matrix of [`crate::run_campaign`] by construction.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use tve_core::{Schedule, StuckCell};
use tve_sched::{Farm, SupervisePolicy, SupervisedError};
use tve_soc::{run_scenario, ScenarioMetrics, WrappedCore};

use crate::engine::{diagnose_scan_fault, run_cell, CampaignConfig};
use crate::fault::FaultSpec;
use crate::matrix::{CellOutcome, CellResult, DiagnosisCheck};
use crate::shard::{campaign_fingerprint, effective_schedules, ShardReport, ShardSpec};

/// Where a campaign walk finds finished results and keeps new ones.
///
/// A get answering `None` is a miss: the walk computes the value and
/// hands it to the matching put. A store may answer a hit as a miss
/// (the daemon does for `--verify-cache` samples) and compare the fresh
/// value when it arrives. An error ends the walk. Every method defaults
/// to holding nothing.
pub trait CampaignStore {
    /// How many missed cells (or diagnoses) one farm map takes, given
    /// the farm's worker count; puts run between maps. Default: all.
    fn batch(&self, _workers: usize) -> usize {
        usize::MAX
    }
    /// The stored golden baseline of `schedule`.
    fn golden(&mut self, _schedule: &Schedule) -> Result<Option<ScenarioMetrics>, CampaignError> {
        Ok(None)
    }
    /// Keeps a fresh, clean golden baseline.
    fn put_golden(&mut self, _: &Schedule, _: &ScenarioMetrics) -> Result<(), CampaignError> {
        Ok(())
    }
    /// The stored outcome of the cell at global `index`, which is fault
    /// `fault_id` under `schedule`.
    fn cell(
        &mut self,
        _index: usize,
        _schedule: &Schedule,
        _fault_id: &str,
    ) -> Result<Option<CellOutcome>, CampaignError> {
        Ok(None)
    }
    /// Keeps the freshly simulated cell at global `index`.
    fn put_cell(
        &mut self,
        _index: usize,
        _: &Schedule,
        _: &CellResult,
    ) -> Result<(), CampaignError> {
        Ok(())
    }
    /// The stored diagnosis check of scan fault `fault_id`.
    fn diagnosis(&mut self, _fault_id: &str) -> Result<Option<DiagnosisCheck>, CampaignError> {
        Ok(None)
    }
    /// Keeps a fresh diagnosis check.
    fn put_diagnosis(&mut self, _: &DiagnosisCheck) -> Result<(), CampaignError> {
        Ok(())
    }
}

/// The store that holds nothing; [`crate::run_campaign_shard`] walks
/// with it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NoStore;

impl CampaignStore for NoStore {}

/// Why a campaign walk produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// A golden baseline failed, panicked or reported test errors.
    Golden(String),
    /// A diagnosis check panicked.
    Diagnosis(String),
    /// The policy's external token tripped.
    Cancelled,
    /// The store failed to read or write.
    Store(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CampaignError::Golden(m) | CampaignError::Diagnosis(m) | CampaignError::Store(m) => m,
            CampaignError::Cancelled => "campaign cancelled",
        })
    }
}

impl std::error::Error for CampaignError {}

/// Runs one shard of the campaign on `farm` under `policy`. Owned cells
/// the `store` misses are simulated against golden baselines, which are
/// themselves taken from the store or simulated, and only for schedules
/// with a missed cell. Then the scan faults detected within the shard
/// are diagnosed, unless the store holds their checks.
///
/// Cells come out in global-index order and diagnoses in population
/// order, so the report is byte-identical for any worker count and any
/// mix of hits and misses.
///
/// # Errors
///
/// A failed golden baseline, a panicked diagnosis, a tripped external
/// token or a store failure. A panicked *cell* is not an error but a
/// [`CellOutcome::InfraFailure`].
pub fn run_campaign_shard_with(
    config: &CampaignConfig,
    farm: &Farm,
    shard: ShardSpec,
    policy: &SupervisePolicy,
    store: &mut dyn CampaignStore,
) -> Result<ShardReport, CampaignError> {
    let fingerprint = campaign_fingerprint(config);
    let (schedules, prescreened) = effective_schedules(config);
    let config = &CampaignConfig {
        schedules,
        ..config.clone()
    };
    let schedule_count = config.schedules.len();
    let total_cells = config.population.len() * schedule_count;
    let batch = store.batch(farm.workers()).max(1);

    // Owned cells in index order: hits resolve now, misses are farmed.
    let mut cells = Vec::new(); // (index, cell)
    let mut missed = Vec::new(); // (slot, fault, schedule)
    for index in (0..total_cells).filter(|&i| shard.owns(i)) {
        let (fi, si) = (index / schedule_count, index % schedule_count);
        let hit = store.cell(index, &config.schedules[si], &config.population[fi].id())?;
        if hit.is_none() {
            missed.push((cells.len(), fi, si));
        }
        cells.push((
            index,
            hit.map(|outcome| cell_result(config, fi, si, outcome)),
        ));
    }
    if !missed.is_empty() {
        let mut needed: Vec<usize> = missed.iter().map(|&(_, _, si)| si).collect();
        needed.sort_unstable();
        needed.dedup();
        let golden = goldens(config, farm, policy, store, &needed)?;
        for chunk in missed.chunks(batch) {
            let outcomes = farm_map(farm, policy, chunk, |&(_, fi, si)| {
                let schedule = &config.schedules[si];
                let fault = &config.population[fi];
                run_cell(
                    &config.soc,
                    &config.plan,
                    schedule,
                    fault,
                    &golden[&schedule.name],
                )
            })?;
            for (&(slot, fi, si), outcome) in chunk.iter().zip(outcomes) {
                let outcome = outcome.unwrap_or_else(|error| CellOutcome::InfraFailure { error });
                let cell = cell_result(config, fi, si, outcome);
                store.put_cell(cells[slot].0, &config.schedules[si], &cell)?;
                cells[slot].1 = Some(cell);
            }
        }
    }
    let cells: Vec<(usize, CellResult)> = cells
        .into_iter()
        .map(|(index, cell)| (index, cell.expect("every owned cell resolved")))
        .collect();

    // A fault is detected somewhere iff some shard owns a detected cell
    // for it, so the shards' diagnoses union to the unsharded set.
    let mut diagnosis = Vec::new();
    if config.diagnosis {
        let mut missed = Vec::new(); // (slot, fault)
        for (core, cell) in detected_scan_faults(&config.population, &cells) {
            let hit = store.diagnosis(&FaultSpec::ScanCell { core, cell }.id())?;
            if hit.is_none() {
                missed.push((diagnosis.len(), core, cell));
            }
            diagnosis.push(hit);
        }
        for chunk in missed.chunks(batch) {
            let checks = farm_map(farm, policy, chunk, |&(_, core, cell)| {
                diagnose_scan_fault(config, core, cell)
            })?;
            for (&(slot, _, _), check) in chunk.iter().zip(checks) {
                let check = check.map_err(|panic| {
                    CampaignError::Diagnosis(format!("diagnosis panicked: {panic}"))
                })?;
                store.put_diagnosis(&check)?;
                diagnosis[slot] = Some(check);
            }
        }
    }

    Ok(ShardReport {
        fingerprint,
        shard,
        total_cells,
        schedules: config.schedules.iter().map(|s| s.name.clone()).collect(),
        prescreened,
        cells,
        diagnosis: diagnosis
            .into_iter()
            .map(|c| c.expect("every detected scan fault diagnosed"))
            .collect(),
    })
}

/// The scan faults of `population` that some of `cells` detected, in
/// population order.
fn detected_scan_faults(
    population: &[FaultSpec],
    cells: &[(usize, CellResult)],
) -> Vec<(WrappedCore, StuckCell)> {
    let detected: BTreeSet<&str> = cells
        .iter()
        .filter(|(_, c)| matches!(c.outcome, CellOutcome::Detected { .. }))
        .map(|(_, c)| c.fault_id.as_str())
        .collect();
    population
        .iter()
        .filter_map(|f| match f {
            FaultSpec::ScanCell { core, cell } if detected.contains(f.id().as_str()) => {
                Some((*core, *cell))
            }
            _ => None,
        })
        .collect()
}

fn cell_result(config: &CampaignConfig, fi: usize, si: usize, outcome: CellOutcome) -> CellResult {
    let fault = &config.population[fi];
    CellResult {
        fault_id: fault.id(),
        fault_class: fault.class().to_string(),
        schedule: config.schedules[si].name.clone(),
        outcome,
    }
}

/// `f` over `items` on the farm under `policy`, in input order; a
/// panicked item is its payload, a tripped token ends the map.
fn farm_map<T: Sync, R: Send>(
    farm: &Farm,
    policy: &SupervisePolicy,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Result<Vec<Result<R, String>>, CampaignError> {
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let (results, _, _) = farm.run_map_supervised(items, f, policy);
    results
        .into_iter()
        .map(|(_, result)| match result {
            Ok(value) => Ok(Ok(value)),
            Err(SupervisedError::Panicked(message)) => Ok(Err(message)),
            Err(SupervisedError::Cancelled) => Err(CampaignError::Cancelled),
        })
        .collect()
}

/// Golden baselines of the schedules at indices `needed`, from `store`
/// or simulated; a fresh baseline must run clean before it is stored.
fn goldens(
    config: &CampaignConfig,
    farm: &Farm,
    policy: &SupervisePolicy,
    store: &mut dyn CampaignStore,
    needed: &[usize],
) -> Result<BTreeMap<String, ScenarioMetrics>, CampaignError> {
    let mut golden = BTreeMap::new();
    let mut missed: Vec<&Schedule> = Vec::new();
    for schedule in needed.iter().map(|&si| &config.schedules[si]) {
        if let Some(metrics) = store.golden(schedule)? {
            golden.insert(schedule.name.clone(), metrics);
        } else {
            missed.push(schedule);
        }
    }
    let runs = farm_map(farm, policy, &missed, |schedule| {
        run_scenario(&config.soc, &config.plan, schedule)
    })?;
    for (schedule, run) in missed.into_iter().zip(runs) {
        let failed =
            |why| CampaignError::Golden(format!("golden run of '{}' {why}", schedule.name));
        let metrics = run
            .map_err(|panic| failed(format!("panicked: {panic}")))?
            .map_err(|e| failed(format!("failed: {e}")))?;
        if !metrics.result.clean() {
            return Err(failed(format!("reported errors: {}", metrics.result)));
        }
        store.put_golden(schedule, &metrics)?;
        golden.insert(schedule.name.clone(), metrics);
    }
    Ok(golden)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_sim::CancelToken;

    fn tiny_config() -> CampaignConfig {
        let mut soc = tve_soc::SocConfig::small();
        soc.memory_words = 64;
        CampaignConfig::new(
            soc,
            tve_soc::SocTestPlan::small(),
            vec![tve_soc::paper_schedules()[0].clone()],
            vec![FaultSpec::RingBreak { index: 0 }],
        )
    }

    #[test]
    fn tripped_external_token_ends_the_walk_with_a_typed_error() {
        let token = CancelToken::new();
        token.cancel();
        let policy = SupervisePolicy::default().with_external(token);
        let result = run_campaign_shard_with(
            &tiny_config(),
            &Farm::with_workers(2),
            ShardSpec::full(),
            &policy,
            &mut NoStore,
        );
        assert_eq!(result, Err(CampaignError::Cancelled));
    }
}
