//! Journaled checkpoint/resume: a killed campaign finishes later with a
//! byte-identical artifact.
//!
//! [`run_campaign_journaled`] runs the campaign walk
//! ([`crate::run_campaign_shard_with`]) with an append-only journal of
//! self-validating records (the `tve-obs` [`Journal`] format) as its
//! store: a header naming the campaign fingerprint, one record per
//! completed cell, one per completed diagnosis check. Recorded cells are
//! the store's hits. Cells are simulated in worker-sized batches and
//! journaled after each batch, so a `SIGKILL` loses at most one
//! in-flight batch — on the next invocation the valid journal prefix is
//! reused, only the missing cells are simulated, and the assembled
//! report is *identical* to an uninterrupted run: the matrix content is
//! a pure function of the configuration, so it cannot matter which
//! process computed which cell.
//!
//! Damage is never silently absorbed. A truncated or bit-flipped record
//! invalidates the journal from that line on (see
//! [`tve_obs::parse_journal`]); the defect is surfaced in the returned
//! [`ResumeSummary`], the journal file is truncated back to its valid
//! prefix, and the dropped cells are simply resimulated. A journal
//! whose header carries a different fingerprint — a different SoC,
//! plan, schedule set, population or diagnosis configuration, or a
//! different build — is a hard error, because its records describe a
//! different matrix.

use std::collections::BTreeMap;
use std::path::Path;

use tve_core::Schedule;
use tve_obs::{parse_journal, IoPolicy, Journal, JournalDefect};
use tve_sched::{Farm, SupervisePolicy};

use crate::engine::CampaignConfig;
use crate::matrix::{CellOutcome, CellResult, DiagnosisCheck};
use crate::shard::{campaign_fingerprint, effective_schedules, ShardReport, ShardSpec};
use crate::walk::{run_campaign_shard_with, CampaignError, CampaignStore};
use crate::wire::{
    append_cell_result, append_diagnosis, campaign_identity, cell_result_from_json,
    diagnosis_from_json,
};

/// What a journaled run reused versus recomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeSummary {
    /// Cells taken from the journal's valid prefix.
    pub resumed_cells: usize,
    /// Cells simulated (and journaled) by this invocation.
    pub simulated_cells: usize,
    /// Diagnosis checks taken from the journal.
    pub resumed_diagnosis: usize,
    /// Diagnosis checks run by this invocation.
    pub simulated_diagnosis: usize,
    /// The defect that ended the journal's valid prefix, if the file
    /// was damaged or truncated. The dropped records were resimulated;
    /// this field exists so the damage is *reported*, never absorbed.
    pub defect: Option<JournalDefect>,
}

fn header_payload(fingerprint: u64, shard: ShardSpec, total_cells: usize) -> String {
    format!(
        "{{\"kind\":\"header\",\"version\":1,\"fingerprint\":\"{fingerprint:016x}\",\
         \"shard\":\"{shard}\",\"total_cells\":{total_cells}}}"
    )
}

fn cell_payload(index: usize, cell: &CellResult) -> String {
    let mut out = format!("{{\"kind\":\"cell\",\"index\":{index},\"cell\":");
    append_cell_result(&mut out, cell);
    out.push('}');
    out
}

fn diag_payload(check: &DiagnosisCheck) -> String {
    let mut out = String::from("{\"kind\":\"diag\",\"check\":");
    append_diagnosis(&mut out, check);
    out.push('}');
    out
}

/// The journal's valid prefix, decoded against this campaign.
#[derive(Default)]
struct ResumedState {
    cells: BTreeMap<usize, CellResult>,
    diagnosis: BTreeMap<String, DiagnosisCheck>,
    defect: Option<JournalDefect>,
}

/// Reads `path` (which must exist), validates the header against this
/// campaign, truncates the file back to its valid prefix when damaged,
/// and decodes the surviving records.
fn load_journal(
    path: &Path,
    fingerprint: u64,
    shard: ShardSpec,
    total_cells: usize,
) -> Result<ResumedState, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    let contents = parse_journal(&text);
    if let Some(defect) = &contents.defect {
        // Cut the damage out of the file so this run's appends land on
        // a valid prefix. The byte length of the first `line - 1` lines
        // (newlines included) is exactly where the defect begins.
        let keep: usize = text
            .split_inclusive('\n')
            .take(defect.line - 1)
            .map(str::len)
            .sum();
        std::fs::write(path, &text[..keep])
            .map_err(|e| format!("cannot truncate damaged journal {}: {e}", path.display()))?;
    }
    let mut records = contents.records.iter();
    let header = records
        .next()
        .ok_or_else(|| format!("journal {} has no valid header record", path.display()))?;
    let (journal_fp, journal_shard) = campaign_identity(header, "header")
        .map_err(|e| format!("journal {} header: {e}", path.display()))?;
    if journal_fp != fingerprint {
        return Err(format!(
            "journal {} was written by a different campaign: fingerprint {journal_fp:016x}, \
             this configuration is {fingerprint:016x} — refusing to mix matrices",
            path.display()
        ));
    }
    if journal_shard != shard {
        return Err(format!(
            "journal {} belongs to shard {journal_shard}, this run is shard {shard}",
            path.display()
        ));
    }
    let mut cells = BTreeMap::new();
    let mut diagnosis = BTreeMap::new();
    for record in records {
        match record.str_field("kind")? {
            "cell" => {
                let index = record.u64_field("index")?;
                if index >= total_cells || !shard.owns(index) {
                    return Err(format!(
                        "journal cell {index} is outside shard {shard}'s slice of the \
                         {total_cells}-cell matrix"
                    ));
                }
                let cell = cell_result_from_json(record.field("cell")?)?;
                if cells.insert(index, cell).is_some() {
                    return Err(format!("journal records cell {index} twice"));
                }
            }
            "diag" => {
                let check = diagnosis_from_json(record.field("check")?)?;
                if diagnosis.insert(check.fault_id.clone(), check).is_some() {
                    return Err("journal records a diagnosis twice".into());
                }
            }
            other => return Err(format!("unknown journal record kind {other:?}")),
        }
    }
    Ok(ResumedState {
        cells,
        diagnosis,
        defect: contents.defect,
    })
}

/// The walk's store over a campaign journal: recorded cells and
/// diagnoses are hits, each put appends a record, and cells are farmed
/// in worker-sized batches so the journal checkpoints as it goes.
struct JournalStore {
    journal: Journal,
    resumed: ResumedState,
    summary: ResumeSummary,
}

impl CampaignStore for JournalStore {
    fn batch(&self, workers: usize) -> usize {
        workers
    }

    fn cell(
        &mut self,
        index: usize,
        _: &Schedule,
        _: &str,
    ) -> Result<Option<CellOutcome>, CampaignError> {
        Ok(self.resumed.cells.remove(&index).map(|cell| cell.outcome))
    }

    fn put_cell(
        &mut self,
        index: usize,
        _: &Schedule,
        cell: &CellResult,
    ) -> Result<(), CampaignError> {
        self.summary.simulated_cells += 1;
        self.journal
            .append(&cell_payload(index, cell))
            .map_err(|e| CampaignError::Store(format!("cannot journal cell {index}: {e}")))
    }

    fn diagnosis(&mut self, fault_id: &str) -> Result<Option<DiagnosisCheck>, CampaignError> {
        Ok(self.resumed.diagnosis.remove(fault_id))
    }

    fn put_diagnosis(&mut self, check: &DiagnosisCheck) -> Result<(), CampaignError> {
        self.summary.simulated_diagnosis += 1;
        self.journal
            .append(&diag_payload(check))
            .map_err(|e| CampaignError::Store(format!("cannot journal diagnosis: {e}")))
    }
}

/// Runs (or resumes) one shard of the campaign with a checkpoint
/// journal at `path`.
///
/// When `path` does not exist, the journal is created and the shard
/// runs from scratch, checkpointing as it goes. When it exists, its
/// valid records are reused and only the missing cells and diagnosis
/// checks are simulated. Either way the returned report — and therefore
/// the merged campaign artifact — is byte-identical to an uninterrupted
/// [`crate::run_campaign_shard`] of the same configuration.
///
/// # Errors
///
/// I/O failures, a journal written by a different campaign
/// configuration or shard, semantically invalid (though
/// checksum-valid) records, or a failed golden baseline. Checksum
/// damage is *not* an error — see [`ResumeSummary::defect`].
pub fn run_campaign_journaled(
    config: &CampaignConfig,
    farm: &Farm,
    shard: ShardSpec,
    path: impl AsRef<Path>,
) -> Result<(ShardReport, ResumeSummary), String> {
    run_campaign_journaled_with_io(config, farm, shard, path, &IoPolicy::default())
}

/// [`run_campaign_journaled`] with journal writes routed through an
/// explicit [`IoPolicy`].
///
/// This is the injectable-io seam `tests/campaign_resume.rs` uses to tear
/// journal records *on the write path* (short write, ENOSPC) instead of
/// truncating the file afterwards: a failed append surfaces as a typed
/// error from this function — never a silently absorbed partial record —
/// and the next run recovers the valid prefix.
///
/// # Errors
///
/// As [`run_campaign_journaled`], plus whatever faults `policy` injects.
pub fn run_campaign_journaled_with_io(
    config: &CampaignConfig,
    farm: &Farm,
    shard: ShardSpec,
    path: impl AsRef<Path>,
    policy: &IoPolicy,
) -> Result<(ShardReport, ResumeSummary), String> {
    let path = path.as_ref();
    let fingerprint = campaign_fingerprint(config);
    let total_cells = config.population.len() * effective_schedules(config).0.len();

    let (mut resumed, journal) = if path.exists() {
        let resumed = load_journal(path, fingerprint, shard, total_cells)?;
        let journal = Journal::append_to_with(path, policy)
            .map_err(|e| format!("cannot append to journal {}: {e}", path.display()))?;
        (resumed, journal)
    } else {
        let mut journal = Journal::create_with(path, policy)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        journal
            .append(&header_payload(fingerprint, shard, total_cells))
            .map_err(|e| format!("cannot write journal header: {e}"))?;
        (ResumedState::default(), journal)
    };
    let summary = ResumeSummary {
        resumed_cells: resumed.cells.len(),
        simulated_cells: 0,
        resumed_diagnosis: resumed.diagnosis.len(),
        simulated_diagnosis: 0,
        defect: resumed.defect.take(),
    };
    let mut store = JournalStore {
        journal,
        resumed,
        summary,
    };
    let report =
        run_campaign_shard_with(config, farm, shard, &SupervisePolicy::default(), &mut store)
            .map_err(|e| e.to_string())?;
    Ok((report, store.summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_payloads_are_single_line_and_parse() {
        let cell = CellResult {
            fault_id: "ring:break@0".into(),
            fault_class: "ring".into(),
            schedule: "s1".into(),
            outcome: CellOutcome::InfraFailure {
                error: "panicked:\nboom".into(),
            },
        };
        for payload in [
            header_payload(0xdead_beef, ShardSpec::full(), 12),
            cell_payload(3, &cell),
        ] {
            assert!(!payload.contains('\n'), "payload {payload:?}");
            tve_obs::check_json(&payload).expect("payload is well-formed JSON");
        }
        let v = tve_obs::parse_json(&cell_payload(3, &cell)).unwrap();
        assert_eq!(v.u64_field::<usize>("index"), Ok(3));
        assert_eq!(cell_result_from_json(v.get("cell").unwrap()).unwrap(), cell);
    }
}
