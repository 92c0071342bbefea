//! Stratified fault sampling and the coverage-guided selector: spend a
//! bounded cell budget instead of enumerating the matrix, without ever
//! hiding what was skipped.
//!
//! Faults are grouped into *strata* — one per wrapped core for scan
//! cells (`scan-cell/proc`, `scan-cell/mem`, …), one per class
//! otherwise — because that is the granularity at which detection
//! behaves homogeneously: a schedule that scans a core tends to catch
//! all of its cells, and one that doesn't catches none.
//!
//! Two selectors share the machinery, both deterministic under a
//! pinned seed and both byte-identical for any `TVE_JOBS`:
//!
//! * [`run_sampled_campaign`] — proportional stratified sampling with a
//!   seeded confidence interval for the union core-fault coverage. The
//!   interval uses the finite-population correction per stratum, so a
//!   fully enumerated stratum contributes zero variance, and the
//!   variance term uses Laplace-smoothed proportions so an all-detected
//!   pilot cannot collapse the interval to a point.
//! * [`run_guided_campaign`] — a pilot per stratum, then greedy
//!   allocation of the remaining budget toward the stratum with the
//!   highest smoothed *escape* rate: simulation effort flows to where
//!   the schedules are weakest, which is how a 50 % budget can still
//!   recover the exhaustive run's full escape set.
//!
//! Every stratum appears in the report with its sampled *and* skipped
//! fault ids — a budget is a visible cut, never a silent cap.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tve_core::Schedule;
use tve_obs::{append_json_string, fnv1a};
use tve_sched::{Farm, SupervisePolicy};
use tve_soc::ScenarioMetrics;

use crate::engine::CampaignConfig;
use crate::fault::{FaultSpec, SplitMix};
use crate::matrix::{CampaignReport, CellOutcome, CellResult};
use crate::shard::{effective_schedules, merge_shards, ShardReport, ShardSpec};
use crate::walk::{run_campaign_shard_with, CampaignError, CampaignStore};

/// The stratum a fault is sampled within.
pub fn stratum_of(fault: &FaultSpec) -> String {
    match fault {
        FaultSpec::ScanCell { core, .. } => format!("scan-cell/{}", core.label()),
        other => other.class().to_string(),
    }
}

/// One stratum's slice of a sampled campaign. `sampled + skipped`
/// enumerate the stratum's entire population by fault id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratumOutcome {
    /// Stratum name (see [`stratum_of`]).
    pub name: String,
    /// Fault ids sampled and simulated, in population order.
    pub sampled: Vec<String>,
    /// Fault ids the budget skipped, in population order.
    pub skipped: Vec<String>,
    /// Sampled faults detected by the schedule union.
    pub detected: usize,
    /// Sampled faults *no* schedule noticed (neither a detection nor an
    /// infrastructure failure) — the escapes the guided selector chases.
    pub escapes: usize,
}

/// A seeded confidence interval for union core-fault coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageEstimate {
    /// Point estimate: the stratified mean of per-stratum detection.
    pub coverage: f64,
    /// Lower confidence bound, clamped to `[0, 1]`.
    pub ci_low: f64,
    /// Upper confidence bound, clamped to `[0, 1]`.
    pub ci_high: f64,
    /// The confidence level (0.95).
    pub(crate) confidence: f64,
}

/// The result of a budgeted campaign: the sub-campaign's full report,
/// the per-stratum accounting, and (for stratified mode) the estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledCampaign {
    /// `"stratified"` or `"guided"`.
    pub(crate) mode: &'static str,
    /// The selection seed.
    pub(crate) seed: u64,
    /// The cell budget the selector was allowed.
    pub(crate) budget_cells: usize,
    /// Cells actually simulated (sampled faults × schedules).
    pub spent_cells: usize,
    /// Per-stratum accounting, in stratum-name order.
    pub strata: Vec<StratumOutcome>,
    /// The coverage estimate. `None` in guided mode: adaptive selection
    /// biases the estimator, so guided runs report discoveries, not
    /// intervals.
    pub estimate: Option<CoverageEstimate>,
    /// The ordinary campaign report over the sampled sub-population.
    pub report: CampaignReport,
}

/// Standard-normal quantile for the 95 % two-sided interval.
const Z_95: f64 = 1.959_964;

/// Strata as `(name, member population indices)` in name order.
fn strata_of(population: &[FaultSpec]) -> Vec<(String, Vec<usize>)> {
    let mut strata: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, fault) in population.iter().enumerate() {
        strata.entry(stratum_of(fault)).or_default().push(i);
    }
    strata.into_iter().collect()
}

/// Draws `n` distinct members of `members` with a per-stratum seeded
/// stream, returning ascending population indices.
fn draw(members: &[usize], n: usize, seed: u64, name: &str) -> Vec<usize> {
    let mut rng = SplitMix(seed ^ fnv1a(name.as_bytes()));
    let mut picked: Vec<usize> = Vec::with_capacity(n.min(members.len()));
    while picked.len() < n.min(members.len()) {
        let candidate = members[(rng.next() % members.len() as u64) as usize];
        if !picked.contains(&candidate) {
            picked.push(candidate);
        }
    }
    picked.sort_unstable();
    picked
}

/// Proportional allocation of `budget` faults over the strata, by
/// largest remainder with deterministic name tie-breaks. Every stratum
/// gets at least one fault when the budget allows it.
fn allocate(strata: &[(String, Vec<usize>)], budget: usize) -> Vec<usize> {
    let total: usize = strata.iter().map(|(_, m)| m.len()).sum();
    let budget = budget.min(total);
    let ideal: Vec<f64> = strata
        .iter()
        .map(|(_, m)| budget as f64 * m.len() as f64 / total.max(1) as f64)
        .collect();
    let mut alloc: Vec<usize> = ideal
        .iter()
        .zip(strata)
        .map(|(f, (_, m))| (*f as usize).min(m.len()))
        .collect();
    while alloc.iter().sum::<usize>() < budget {
        // Most-underfilled stratum next, ties to the first by name.
        let next = (0..strata.len())
            .filter(|&h| alloc[h] < strata[h].1.len())
            .max_by(|&a, &b| {
                (ideal[a] - alloc[a] as f64)
                    .partial_cmp(&(ideal[b] - alloc[b] as f64))
                    .unwrap()
                    .then(strata[b].0.cmp(&strata[a].0))
            })
            .expect("budget <= total population");
        alloc[next] += 1;
    }
    // A stratum left empty by rounding steals one fault from the
    // biggest allocation — an interval needs every stratum observed.
    while budget >= strata.len() && alloc.contains(&0) {
        let empty = alloc.iter().position(|&n| n == 0).unwrap();
        let donor = (0..strata.len())
            .max_by_key(|&h| (alloc[h], usize::MAX - h))
            .unwrap();
        if alloc[donor] <= 1 {
            break;
        }
        alloc[donor] -= 1;
        alloc[empty] += 1;
    }
    alloc
}

/// Whether `name` is a core-fault stratum (counted by the coverage
/// criterion) as opposed to test infrastructure.
fn is_core_stratum(name: &str) -> bool {
    name.starts_with("scan-cell/") || name == "memory"
}

/// Whether the sampled fault was detected by / escaped the union of
/// schedules, judged from the sub-campaign report.
fn fault_union(report: &CampaignReport, id: &str) -> (bool, bool) {
    let mut detected = false;
    let mut noticed = false;
    for cell in report.cells.iter().filter(|c| c.fault_id == id) {
        detected |= matches!(cell.outcome, CellOutcome::Detected { .. });
        noticed |= cell.outcome.noticed();
    }
    (detected, !noticed)
}

fn assemble(
    config: &CampaignConfig,
    mode: &'static str,
    seed: u64,
    budget_cells: usize,
    strata: &[(String, Vec<usize>)],
    selected: &[usize],
    report: CampaignReport,
) -> SampledCampaign {
    let schedule_count = report.schedules.len();
    let strata_out: Vec<StratumOutcome> = strata
        .iter()
        .map(|(name, members)| {
            let sampled_ids: Vec<String> = members
                .iter()
                .filter(|m| selected.binary_search(m).is_ok())
                .map(|&m| config.population[m].id())
                .collect();
            let skipped: Vec<String> = members
                .iter()
                .filter(|m| selected.binary_search(m).is_err())
                .map(|&m| config.population[m].id())
                .collect();
            let (mut detected, mut escapes) = (0, 0);
            for id in &sampled_ids {
                let (d, e) = fault_union(&report, id);
                detected += usize::from(d);
                escapes += usize::from(e);
            }
            StratumOutcome {
                name: name.clone(),
                sampled: sampled_ids,
                skipped,
                detected,
                escapes,
            }
        })
        .collect();

    let estimate = (mode == "stratified").then(|| {
        // Stratified mean and FPC variance over the core strata only —
        // infrastructure faults are outside the coverage criterion.
        let core: Vec<(&StratumOutcome, usize)> = strata_out
            .iter()
            .zip(strata)
            .filter(|(s, _)| is_core_stratum(&s.name))
            .map(|(s, (_, members))| (s, members.len()))
            .collect();
        let population: usize = core.iter().map(|(_, n)| n).sum();
        let mut mean = 0.0;
        let mut variance = 0.0;
        for (s, n_total) in &core {
            let (n_total, n_sampled) = (*n_total as f64, s.sampled.len() as f64);
            if n_sampled == 0.0 {
                continue;
            }
            let weight = n_total / population.max(1) as f64;
            let p = s.detected as f64 / n_sampled;
            mean += weight * p;
            // Laplace-smoothed p for the variance term only: an
            // all-detected sample keeps a nonzero width unless the
            // stratum was fully enumerated (FPC = 0).
            let p_var = (s.detected as f64 + 1.0) / (n_sampled + 2.0);
            let fpc = 1.0 - n_sampled / n_total;
            variance += weight * weight * fpc * p_var * (1.0 - p_var) / n_sampled;
        }
        let half = Z_95 * variance.sqrt();
        CoverageEstimate {
            coverage: mean,
            ci_low: (mean - half).max(0.0),
            ci_high: (mean + half).min(1.0),
            confidence: 0.95,
        }
    });

    SampledCampaign {
        mode,
        seed,
        budget_cells,
        spent_cells: selected.len() * schedule_count,
        strata: strata_out,
        estimate,
        report,
    }
}

/// Runs a proportionally stratified sample of `budget_faults` faults
/// (every schedule still runs against each sampled fault) and estimates
/// union core-fault coverage with a 95 % confidence interval.
///
/// Deterministic: the same `(config, budget, seed)` selects the same
/// faults and produces byte-identical artifacts for any worker count.
///
/// # Panics
///
/// Same conditions as [`crate::run_campaign`] over the sampled
/// sub-population.
pub fn run_sampled_campaign(
    config: &CampaignConfig,
    farm: &Farm,
    budget_faults: usize,
    seed: u64,
) -> SampledCampaign {
    let strata = strata_of(&config.population);
    let alloc = allocate(&strata, budget_faults);
    let mut selected: Vec<usize> = strata
        .iter()
        .zip(&alloc)
        .flat_map(|((name, members), &n)| draw(members, n, seed, name))
        .collect();
    selected.sort_unstable();

    let sub = CampaignConfig {
        population: selected
            .iter()
            .map(|&i| config.population[i].clone())
            .collect(),
        ..config.clone()
    };
    let report = crate::engine::run_campaign(&sub, farm);
    let schedule_count = report.schedules.len();
    assemble(
        config,
        "stratified",
        seed,
        budget_faults * schedule_count,
        &strata,
        &selected,
        report,
    )
}

/// Golden baselines and cells already simulated, keyed by schedule and
/// fault: the guided selector's one-fault walks and its final walk run
/// each only once.
#[derive(Default)]
struct Memo {
    golden: BTreeMap<String, ScenarioMetrics>,
    cells: BTreeMap<(String, String), CellOutcome>,
}

impl CampaignStore for Memo {
    fn golden(&mut self, schedule: &Schedule) -> Result<Option<ScenarioMetrics>, CampaignError> {
        Ok(self.golden.get(&schedule.name).cloned())
    }
    fn put_golden(
        &mut self,
        schedule: &Schedule,
        metrics: &ScenarioMetrics,
    ) -> Result<(), CampaignError> {
        self.golden.insert(schedule.name.clone(), metrics.clone());
        Ok(())
    }
    fn cell(
        &mut self,
        _: usize,
        schedule: &Schedule,
        fault_id: &str,
    ) -> Result<Option<CellOutcome>, CampaignError> {
        let key = (fault_id.to_string(), schedule.name.clone());
        Ok(self.cells.get(&key).cloned())
    }
    fn put_cell(
        &mut self,
        _: usize,
        schedule: &Schedule,
        cell: &CellResult,
    ) -> Result<(), CampaignError> {
        let key = (cell.fault_id.clone(), schedule.name.clone());
        self.cells.insert(key, cell.outcome.clone());
        Ok(())
    }
}

/// The whole campaign walked through `memo`, on the default farm policy.
fn walk(config: &CampaignConfig, farm: &Farm, memo: &mut Memo) -> ShardReport {
    run_campaign_shard_with(
        config,
        farm,
        ShardSpec::full(),
        &SupervisePolicy::default(),
        memo,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the coverage-guided selector: a pilot of `pilot_per_stratum`
/// faults from every stratum, then one fault at a time from whichever
/// stratum currently has the highest Laplace-smoothed escape rate
/// `(escapes + 1) / (sampled + 2)`, until the next fault would exceed
/// `budget_cells` or the population is exhausted.
///
/// Deterministic: selection depends only on simulation outcomes (which
/// are worker-count independent) and the seeded draw order, with
/// stratum-name tie-breaks.
///
/// # Panics
///
/// Same conditions as [`crate::run_campaign_shard`] (golden-baseline
/// failures).
#[allow(clippy::too_many_lines)]
pub fn run_guided_campaign(
    config: &CampaignConfig,
    farm: &Farm,
    budget_cells: usize,
    pilot_per_stratum: usize,
    seed: u64,
) -> SampledCampaign {
    let schedule_count = effective_schedules(config).0.len();
    let mut memo = Memo::default();
    let strata = strata_of(&config.population);

    // Per-stratum seeded draw order (a full without-replacement
    // permutation), consumed front to back.
    let queues: Vec<Vec<usize>> = strata
        .iter()
        .map(|(name, members)| {
            let mut rng = SplitMix(seed ^ fnv1a(name.as_bytes()));
            let mut order: Vec<usize> = Vec::with_capacity(members.len());
            while order.len() < members.len() {
                let candidate = members[(rng.next() % members.len() as u64) as usize];
                if !order.contains(&candidate) {
                    order.push(candidate);
                }
            }
            order
        })
        .collect();
    let mut cursor = vec![0usize; strata.len()];
    let mut sampled_count = vec![0usize; strata.len()];
    let mut escape_count = vec![0usize; strata.len()];
    let mut selected = Vec::new();

    // A pilot of every stratum before trusting any score, then the
    // highest smoothed escape rate, until the budget or the population
    // runs out.
    let mut pilot = (0..strata.len())
        .flat_map(|h| std::iter::repeat_n(h, pilot_per_stratum.min(queues[h].len())));
    let mut spent_cells = 0usize;
    while spent_cells + schedule_count <= budget_cells {
        let next = pilot.next().or_else(|| {
            let score = |h: usize| (escape_count[h] as f64 + 1.0) / (sampled_count[h] as f64 + 2.0);
            (0..strata.len())
                .filter(|&h| cursor[h] < queues[h].len())
                .max_by(|&a, &b| {
                    score(a)
                        .partial_cmp(&score(b))
                        .unwrap()
                        .then(strata[b].0.cmp(&strata[a].0))
                })
        });
        let Some(h) = next else {
            break;
        };
        let fi = queues[h][cursor[h]];
        cursor[h] += 1;
        let one = CampaignConfig {
            population: vec![config.population[fi].clone()],
            diagnosis: false,
            ..config.clone()
        };
        let escaped = !walk(&one, farm, &mut memo)
            .cells
            .iter()
            .any(|(_, c)| c.outcome.noticed());
        sampled_count[h] += 1;
        escape_count[h] += usize::from(escaped);
        selected.push(fi);
        spent_cells += schedule_count;
    }
    selected.sort_unstable();

    // The final walk over the selected faults finds every cell in the
    // memo and adds the diagnoses, as the exhaustive campaign would.
    let sub = CampaignConfig {
        population: selected
            .iter()
            .map(|&i| config.population[i].clone())
            .collect(),
        ..config.clone()
    };
    let report = merge_shards(&sub, &[walk(&sub, farm, &mut memo)])
        .expect("the full shard covers every cell");
    assemble(
        config,
        "guided",
        seed,
        budget_cells,
        &strata,
        &selected,
        report,
    )
}

impl SampledCampaign {
    /// The sampling report as JSON: the estimate, and every stratum
    /// with its sampled and skipped fault ids — nothing is silently
    /// capped.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"kind\": \"tve-campaign-sample\",\n  \"version\": 1,\n");
        let _ = writeln!(
            out,
            "  \"mode\": \"{}\",\n  \"seed\": \"{:016x}\",\n  \"budget_cells\": {},\n  \"spent_cells\": {},",
            self.mode, self.seed, self.budget_cells, self.spent_cells
        );
        match &self.estimate {
            Some(e) => {
                let _ = writeln!(
                    out,
                    "  \"estimate\": {{\"coverage\": {:.6}, \"ci_low\": {:.6}, \"ci_high\": {:.6}, \"confidence\": {:.2}}},",
                    e.coverage, e.ci_low, e.ci_high, e.confidence
                );
            }
            None => out.push_str("  \"estimate\": null,\n"),
        }
        out.push_str("  \"union_escapes\": [");
        for (i, id) in self.report.union_escapes().into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            append_json_string(&mut out, id);
        }
        out.push_str("],\n  \"strata\": [\n");
        for (i, s) in self.strata.iter().enumerate() {
            out.push_str("    {\"name\": ");
            append_json_string(&mut out, &s.name);
            let _ = write!(
                out,
                ", \"population\": {}, \"detected\": {}, \"escapes\": {}, \"sampled\": [",
                s.sampled.len() + s.skipped.len(),
                s.detected,
                s.escapes
            );
            for (j, id) in s.sampled.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                append_json_string(&mut out, id);
            }
            out.push_str("], \"skipped\": [");
            for (j, id) in s.skipped.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                append_json_string(&mut out, id);
            }
            out.push_str("]}");
            if i + 1 < self.strata.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_core::{StuckCell, StuckWirBit};
    use tve_soc::WrappedCore;

    fn fake_population() -> Vec<FaultSpec> {
        let mut population = Vec::new();
        for core in [WrappedCore::Processor, WrappedCore::MemoryPeriphery] {
            for position in 0..4 {
                population.push(FaultSpec::ScanCell {
                    core,
                    cell: StuckCell {
                        chain: 0,
                        position,
                        value: false,
                    },
                });
            }
        }
        population.push(FaultSpec::WirStuck {
            core: WrappedCore::Dct,
            fault: StuckWirBit {
                bit: 0,
                value: true,
            },
        });
        population
    }

    #[test]
    fn strata_partition_the_population() {
        let population = fake_population();
        let strata = strata_of(&population);
        let names: Vec<&str> = strata.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["scan-cell/mem", "scan-cell/proc", "wir"]);
        let covered: usize = strata.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(covered, population.len());
        assert!(is_core_stratum("scan-cell/mem") && is_core_stratum("memory"));
        assert!(!is_core_stratum("wir"));
    }

    #[test]
    fn allocation_is_proportional_deterministic_and_total() {
        let population = fake_population();
        let strata = strata_of(&population);
        let alloc = allocate(&strata, 5);
        assert_eq!(alloc.iter().sum::<usize>(), 5);
        assert!(
            alloc.iter().all(|&n| n >= 1),
            "every stratum observed: {alloc:?}"
        );
        assert_eq!(alloc, allocate(&strata, 5), "allocation is deterministic");
        // Budget over population clamps.
        assert_eq!(
            allocate(&strata, 100).iter().sum::<usize>(),
            population.len()
        );
        // Tiny budget still allocates without panicking.
        assert_eq!(allocate(&strata, 1).iter().sum::<usize>(), 1);
    }

    #[test]
    fn draw_is_seeded_and_without_replacement() {
        let members: Vec<usize> = (10..30).collect();
        let a = draw(&members, 7, 42, "scan-cell/proc");
        let b = draw(&members, 7, 42, "scan-cell/proc");
        assert_eq!(a, b, "same seed, same draw");
        assert_ne!(a, draw(&members, 7, 43, "scan-cell/proc"), "seed matters");
        assert_ne!(a, draw(&members, 7, 42, "scan-cell/dct"), "stratum matters");
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 7, "no replacement: {a:?}");
        assert!(a.iter().all(|i| members.contains(i)));
        assert_eq!(draw(&members, 99, 42, "s").len(), members.len());
    }
}
