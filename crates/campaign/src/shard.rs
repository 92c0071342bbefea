//! Deterministic shard partitioning and merge: scale-out that is
//! equivalent to the single-process campaign *by construction*.
//!
//! A campaign's (fault × schedule) matrix is a flat list of cells in
//! fault-major order. A [`ShardSpec`] `k/n` owns every cell whose
//! global index is `≡ k-1 (mod n)` — a pure function of the index, so
//! any process can decide ownership without coordination, and the `n`
//! shards tile the matrix exactly. [`run_campaign_shard`] simulates
//! only the owned cells (plus golden baselines for the schedules those
//! cells touch, plus diagnosis for scan faults the shard itself saw
//! detected); [`merge_shards`] validates that a set of shard reports
//! tiles the matrix exactly once and reassembles the
//! [`CampaignReport`].
//!
//! The equivalence proof is structural: [`crate::run_campaign`] *is*
//! `merge_shards` over the single full shard `1/1` — there is no
//! second code path that sharding could diverge from. Every shard
//! report carries a campaign fingerprint; merging reports from
//! different configurations (or mixing shards of different campaigns)
//! is an error, never a silently wrong artifact.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use tve_core::Schedule;
use tve_obs::{append_json_string, parse_json, Fnv1a};
use tve_sched::{Farm, SupervisePolicy};

use crate::engine::CampaignConfig;
use crate::matrix::{CampaignReport, CellResult, DiagnosisCheck, PrescreenedSchedule};
use crate::walk::{run_campaign_shard_with, NoStore};
use crate::wire::{
    append_cell_result, append_diagnosis, campaign_identity, cell_result_from_json,
    diagnosis_from_json,
};

/// One shard of a campaign: which residue class of cell indices this
/// process owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 0-based shard index, `< count`.
    pub index: usize,
    /// Total shard count, `≥ 1`.
    pub count: usize,
}

impl ShardSpec {
    /// The single shard that owns the whole matrix.
    pub fn full() -> Self {
        ShardSpec { index: 0, count: 1 }
    }

    /// A validated shard from a 0-based index and a count.
    ///
    /// # Errors
    ///
    /// When `count` is zero or `index` is out of range.
    pub fn new(index: usize, count: usize) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for count {count}"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses the CLI form `k/n` with a 1-based `k` (so `--shard 1/3`
    /// is the first of three shards).
    ///
    /// # Errors
    ///
    /// When the text is not `k/n` with `1 ≤ k ≤ n`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (k, n) = text
            .split_once('/')
            .ok_or_else(|| format!("shard spec {text:?} is not of the form k/n"))?;
        let k: usize = k
            .trim()
            .parse()
            .map_err(|_| format!("shard index {k:?} is not a number"))?;
        let n: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("shard count {n:?} is not a number"))?;
        if k == 0 {
            return Err("shard index is 1-based: the first shard is 1/n".into());
        }
        ShardSpec::new(k - 1, n)
    }

    /// Whether this shard owns the cell at `index` in the flat
    /// fault-major matrix.
    pub fn owns(&self, index: usize) -> bool {
        index % self.count == self.index
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index + 1, self.count)
    }
}

/// A stable digest of everything that determines a campaign's matrix:
/// the SoC, the plan, the schedules, the population and the diagnosis
/// parameters. Two processes agree on the fingerprint iff they would
/// enumerate the identical matrix, which is what makes shard reports
/// and resume journals safe to combine across processes of the same
/// build. (The canonical text is the `Debug` form, so the fingerprint
/// is *not* promised stable across code changes — it guards a run, not
/// an archive format.)
pub(crate) fn campaign_fingerprint(config: &CampaignConfig) -> u64 {
    let mut h = Fnv1a::new();
    let _ = write!(h, "campaign/v1|{config:?}");
    h.finish()
}

/// Applies the static pre-screen (when `config.prescreen` is set) and
/// returns the schedules that will actually run plus the rejected ones.
/// Deterministic, so every shard and every resume computes the same
/// partition without coordination.
pub(crate) fn effective_schedules(
    config: &CampaignConfig,
) -> (Vec<Schedule>, Vec<PrescreenedSchedule>) {
    if !config.prescreen {
        return (config.schedules.clone(), Vec::new());
    }
    let facts = tve_lint::soc_facts(&config.soc, &config.plan);
    let mut prescreened = Vec::new();
    let schedules = config
        .schedules
        .iter()
        .filter(|schedule| {
            let report = tve_lint::lint_schedule_report(schedule, &facts);
            if report.clean() {
                return true;
            }
            prescreened.push(PrescreenedSchedule {
                schedule: schedule.name.clone(),
                codes: report
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == tve_lint::Severity::Error)
                    .map(|d| d.code.to_string())
                    .collect(),
            });
            false
        })
        .cloned()
        .collect();
    (schedules, prescreened)
}

/// The result of one shard: the cells it owned (tagged with their
/// global matrix index), plus diagnosis checks for the scan faults this
/// shard saw detected. Serializes to JSON for the process boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// `campaign_fingerprint` of the producing configuration.
    pub fingerprint: u64,
    /// Which shard this is.
    pub shard: ShardSpec,
    /// Total matrix size (population × effective schedules) — every
    /// shard of one campaign agrees on it.
    pub total_cells: usize,
    /// Names of the effective (post-pre-screen) schedules.
    pub schedules: Vec<String>,
    /// Schedules the static pre-screen rejected.
    pub prescreened: Vec<PrescreenedSchedule>,
    /// Owned cells as `(global index, result)`, in index order.
    pub cells: Vec<(usize, CellResult)>,
    /// Diagnosis checks for scan faults detected within this shard's
    /// own cells. A fault detected by several shards is diagnosed by
    /// each — the checks are deterministic and identical, and the merge
    /// deduplicates them.
    pub diagnosis: Vec<DiagnosisCheck>,
}

impl ShardReport {
    /// The report as a JSON document (one cell per line).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"kind\": \"tve-campaign-shard\",\n  \"version\": 1,\n");
        out.push_str(&format!(
            "  \"fingerprint\": \"{:016x}\",\n  \"shard\": \"{}\",\n  \"total_cells\": {},\n",
            self.fingerprint, self.shard, self.total_cells
        ));
        out.push_str("  \"schedules\": [");
        for (i, name) in self.schedules.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            append_json_string(&mut out, name);
        }
        out.push_str("],\n  \"prescreened\": [");
        for (i, p) in self.prescreened.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"name\": ");
            append_json_string(&mut out, &p.schedule);
            out.push_str(", \"codes\": [");
            for (j, code) in p.codes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                append_json_string(&mut out, code);
            }
            out.push_str("]}");
        }
        out.push_str("],\n  \"cells\": [\n");
        for (i, (index, cell)) in self.cells.iter().enumerate() {
            out.push_str(&format!("    {{\"index\": {index}, \"cell\": "));
            append_cell_result(&mut out, cell);
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n  \"diagnosis\": [\n");
        for (i, check) in self.diagnosis.iter().enumerate() {
            out.push_str("    ");
            append_diagnosis(&mut out, check);
            if i + 1 < self.diagnosis.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report emitted by [`ShardReport::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming what was malformed.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse_json(text).map_err(|e| format!("shard report is not valid JSON: {e}"))?;
        let (fingerprint, shard) = campaign_identity(&v, "tve-campaign-shard")?;
        Ok(ShardReport {
            fingerprint,
            shard,
            total_cells: v.u64_field("total_cells")?,
            schedules: v.strings_field("schedules")?,
            prescreened: v
                .arr_field("prescreened")?
                .iter()
                .map(|p| {
                    Ok(PrescreenedSchedule {
                        schedule: p.str_field("name")?.to_string(),
                        codes: p.strings_field("codes")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            cells: v
                .arr_field("cells")?
                .iter()
                .map(|e| {
                    Ok((
                        e.u64_field("index")?,
                        cell_result_from_json(e.field("cell")?)?,
                    ))
                })
                .collect::<Result<_, String>>()?,
            diagnosis: v
                .arr_field("diagnosis")?
                .iter()
                .map(diagnosis_from_json)
                .collect::<Result<_, String>>()?,
        })
    }
}

/// Runs one shard of the campaign on `farm`: golden baselines for the
/// schedules the owned cells touch, then every owned (fault × schedule)
/// cell, then diagnosis for scan faults this shard saw detected. This
/// is [`crate::run_campaign_shard_with`] with nothing stored and the
/// default farm policy.
///
/// Owned cells are reported in global-index order regardless of worker
/// count, so shard reports — like full campaign artifacts — are
/// byte-identical for any `TVE_JOBS`.
///
/// # Panics
///
/// Same conditions as [`crate::run_campaign`]: a golden baseline of a
/// schedule the shard needs fails or reports errors (pre-screening is
/// applied first when configured).
pub fn run_campaign_shard(config: &CampaignConfig, farm: &Farm, shard: ShardSpec) -> ShardReport {
    run_campaign_shard_with(
        config,
        farm,
        shard,
        &SupervisePolicy::default(),
        &mut NoStore,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Merges shard reports back into the [`CampaignReport`] the unsharded
/// campaign would have produced — byte-identical CSV and JSON.
///
/// Validation is strict: every report must carry this configuration's
/// fingerprint, agree on the matrix size and schedule list, and only
/// claim cells its shard spec owns; the set as a whole must cover every
/// cell exactly once. Anything else is an `Err` naming the violation —
/// a partial or mixed shard set can never masquerade as a complete
/// campaign.
///
/// # Errors
///
/// A message naming the first violated merge invariant.
pub fn merge_shards(
    config: &CampaignConfig,
    reports: &[ShardReport],
) -> Result<CampaignReport, String> {
    let fingerprint = campaign_fingerprint(config);
    let (schedules, prescreened) = effective_schedules(config);
    let schedule_names: Vec<String> = schedules.iter().map(|s| s.name.clone()).collect();
    let total = config.population.len() * schedule_names.len();

    let mut cells: Vec<Option<CellResult>> = vec![None; total];
    let mut diagnosis_by_id: BTreeMap<String, DiagnosisCheck> = BTreeMap::new();
    for report in reports {
        if report.fingerprint != fingerprint {
            return Err(format!(
                "shard {} belongs to a different campaign: fingerprint {:016x}, this configuration is {:016x}",
                report.shard, report.fingerprint, fingerprint
            ));
        }
        if report.total_cells != total {
            return Err(format!(
                "shard {} sized the matrix at {} cells, this configuration has {total}",
                report.shard, report.total_cells
            ));
        }
        if report.schedules != schedule_names {
            return Err(format!(
                "shard {} ran schedules {:?}, this configuration runs {:?}",
                report.shard, report.schedules, schedule_names
            ));
        }
        for (index, cell) in &report.cells {
            if *index >= total {
                return Err(format!(
                    "shard {} reported cell {index} beyond the {total}-cell matrix",
                    report.shard
                ));
            }
            if !report.shard.owns(*index) {
                return Err(format!(
                    "shard {} reported cell {index} it does not own",
                    report.shard
                ));
            }
            if cells[*index].is_some() {
                return Err(format!("cell {index} covered by more than one shard"));
            }
            cells[*index] = Some(cell.clone());
        }
        for check in &report.diagnosis {
            match diagnosis_by_id.get(&check.fault_id) {
                None => {
                    diagnosis_by_id.insert(check.fault_id.clone(), check.clone());
                }
                Some(existing) if existing == check => {}
                Some(_) => {
                    return Err(format!(
                        "two shards diagnosed fault {} differently — determinism violation",
                        check.fault_id
                    ))
                }
            }
        }
    }
    let mut merged = Vec::with_capacity(total);
    for (index, cell) in cells.into_iter().enumerate() {
        merged.push(cell.ok_or_else(|| {
            format!("cell {index} covered by no shard — the shard set is incomplete")
        })?);
    }
    // Diagnosis in population order, like the unsharded campaign.
    let diagnosis: Vec<DiagnosisCheck> = config
        .population
        .iter()
        .filter_map(|f| diagnosis_by_id.remove(&f.id()))
        .collect();
    Ok(CampaignReport {
        schedules: schedule_names,
        prescreened,
        cells: merged,
        diagnosis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::matrix::CellOutcome;
    use tve_core::StuckCell;
    use tve_soc::WrappedCore;

    #[test]
    fn shard_spec_parses_and_partitions() {
        let s = ShardSpec::parse("2/3").unwrap();
        assert_eq!((s.index, s.count), (1, 3));
        assert_eq!(s.to_string(), "2/3");
        assert!(s.owns(1) && s.owns(4) && !s.owns(0) && !s.owns(2));
        // Any n shards tile any matrix exactly once.
        for n in 1..=5 {
            for cell in 0..17 {
                let owners = (0..n)
                    .filter(|&i| ShardSpec::new(i, n).unwrap().owns(cell))
                    .count();
                assert_eq!(owners, 1, "cell {cell} with {n} shards");
            }
        }
        for bad in ["3", "0/3", "4/3", "x/3", "2/y", "2/0"] {
            assert!(ShardSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(ShardSpec::full(), ShardSpec::new(0, 1).unwrap());
    }

    fn tiny_config() -> CampaignConfig {
        let mut cfg = tve_soc::SocConfig::small();
        cfg.memory_words = 64;
        let population = vec![
            FaultSpec::RingBreak { index: 0 },
            FaultSpec::RingBreak { index: 1 },
        ];
        CampaignConfig::new(
            cfg,
            tve_soc::SocTestPlan::small(),
            vec![tve_soc::paper_schedules()[0].clone()],
            population,
        )
    }

    #[test]
    fn fingerprint_tracks_the_configuration() {
        let a = tiny_config();
        let mut b = a.clone();
        assert_eq!(campaign_fingerprint(&a), campaign_fingerprint(&b));
        b.diagnosis_patterns += 1;
        assert_ne!(campaign_fingerprint(&a), campaign_fingerprint(&b));
    }

    fn fake_report(config: &CampaignConfig, shard: ShardSpec) -> ShardReport {
        let schedule = config.schedules[0].name.clone();
        let total = config.population.len() * config.schedules.len();
        let cells = (0..total)
            .filter(|&i| shard.owns(i))
            .map(|i| {
                (
                    i,
                    CellResult {
                        fault_id: config.population[i / config.schedules.len()].id(),
                        fault_class: "ring".into(),
                        schedule: schedule.clone(),
                        outcome: CellOutcome::Escape,
                    },
                )
            })
            .collect();
        ShardReport {
            fingerprint: campaign_fingerprint(config),
            shard,
            total_cells: total,
            schedules: vec![schedule],
            prescreened: Vec::new(),
            cells,
            diagnosis: Vec::new(),
        }
    }

    #[test]
    fn merge_validates_the_shard_set() {
        let config = tiny_config();
        let s1 = fake_report(&config, ShardSpec::new(0, 2).unwrap());
        let s2 = fake_report(&config, ShardSpec::new(1, 2).unwrap());

        let merged = merge_shards(&config, &[s2.clone(), s1.clone()]).expect("complete set merges");
        assert_eq!(merged.cells.len(), 2);

        let err = merge_shards(&config, std::slice::from_ref(&s1)).unwrap_err();
        assert!(err.contains("covered by no shard"), "{err}");
        let err = merge_shards(&config, &[s1.clone(), s1.clone(), s2.clone()]).unwrap_err();
        assert!(err.contains("more than one shard"), "{err}");

        let mut alien = s1.clone();
        alien.fingerprint ^= 1;
        let err = merge_shards(&config, &[alien, s2.clone()]).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");

        let mut liar = s1.clone();
        liar.cells[0].0 = 1; // shard 1/2 does not own cell 1
        let err = merge_shards(&config, &[liar, s2]).unwrap_err();
        assert!(err.contains("does not own"), "{err}");
    }

    #[test]
    fn shard_report_round_trips_through_json() {
        let config = tiny_config();
        let mut report = fake_report(&config, ShardSpec::new(0, 2).unwrap());
        report.prescreened.push(PrescreenedSchedule {
            schedule: "broken".into(),
            codes: vec!["sched-dup-test".into()],
        });
        report.diagnosis.push(DiagnosisCheck {
            fault_id: "scan:proc:c0p1s1".into(),
            core: WrappedCore::Processor,
            injected: StuckCell {
                chain: 0,
                position: 1,
                value: true,
            },
            located: vec![],
            first_failing_pattern: None,
            confirmed: false,
        });
        let json = report.to_json();
        tve_obs::check_json(&json).expect("shard JSON is well-formed");
        let back = ShardReport::from_json(&json).expect("shard JSON parses");
        assert_eq!(back, report);
        assert!(ShardReport::from_json("{}").is_err());
    }
}
