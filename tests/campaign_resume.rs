//! Checkpoint/resume under real process death: a campaign child is
//! `SIGKILL`ed mid-matrix, the parent resumes from the journal, and the
//! final artifact must be byte-identical to an uninterrupted run. The
//! journal is self-validating — a truncated or bit-flipped record is
//! detected, reported, and resimulated, never silently absorbed — and a
//! journal written by a different campaign configuration is refused
//! outright.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use tve::campaign::{
    generate, merge_shards, run_campaign, run_campaign_journaled, run_campaign_journaled_with_io,
    CampaignConfig, PopulationSpec, ShardSpec,
};
use tve::obs::{IoPolicy, WriteFault};
use tve::sched::Farm;
use tve::soc::{paper_schedules, SocConfig, SocTestPlan};

/// The campaign both processes run: parent and child must agree on the
/// fingerprint, so everything is derived from this one function.
fn config() -> CampaignConfig {
    config_with(2)
}

/// `faults` scan cells per core and `faults` memory faults, plus the
/// infrastructure faults, on every paper schedule.
fn config_with(faults: usize) -> CampaignConfig {
    let mut soc = SocConfig::small();
    soc.memory_words = 128;
    let population = generate(
        &PopulationSpec {
            scan_cells_per_core: faults,
            memory_faults: faults,
            ..PopulationSpec::default()
        },
        &soc,
    );
    CampaignConfig::new(
        soc,
        SocTestPlan::small(),
        paper_schedules().to_vec(),
        population,
    )
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tve-resume-{tag}-{}.journal", std::process::id()))
}

const CHILD_ENV: &str = "TVE_RESUME_CHILD_JOURNAL";

/// Not a test of its own: this is the campaign child. It only does work
/// when the parent re-invokes this test binary with the journal path in
/// the environment — in a normal test run it returns immediately.
#[test]
fn resume_child() {
    let Ok(path) = std::env::var(CHILD_ENV) else {
        return;
    };
    let farm = Farm::with_workers(1);
    run_campaign_journaled(&config(), &farm, ShardSpec::full(), &path).expect("child campaign");
}

#[test]
fn sigkilled_campaign_resumes_to_identical_artifact() {
    let journal = temp_journal("kill");
    let _ = std::fs::remove_file(&journal);
    let config = config();
    let cells = config.population.len() * config.schedules.len();

    // Run the campaign in a real child process (this same test binary,
    // filtered to `resume_child`), one worker so the journal grows one
    // cell at a time.
    let mut child = Command::new(std::env::current_exe().expect("own path"))
        .args(["resume_child", "--exact", "--nocapture"])
        .env(CHILD_ENV, &journal)
        .env("TVE_JOBS", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("child spawns");

    // Wait until the journal holds the header plus a few cells — the
    // child is mid-matrix — then SIGKILL it. No cooperation, no flush.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let lines = std::fs::read_to_string(&journal)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if lines >= 4 {
            break;
        }
        if let Some(status) = child.try_wait().expect("child pollable") {
            panic!("child exited ({status}) before the journal reached 4 records");
        }
        assert!(Instant::now() < deadline, "child produced no journal");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("child reaped");

    // Resume in this process and compare against an uninterrupted run.
    let farm = Farm::with_workers(2);
    let (report, resume) =
        run_campaign_journaled(&config, &farm, ShardSpec::full(), &journal).expect("resume");
    assert!(
        resume.resumed_cells >= 3,
        "journal prefix vanished: {resume:?}"
    );
    assert!(
        resume.simulated_cells > 0,
        "nothing left to resume — the kill landed after the matrix finished"
    );
    assert_eq!(resume.resumed_cells + resume.simulated_cells, cells);
    let merged = merge_shards(&config, &[report]).expect("full shard merges");
    let baseline = run_campaign(&config, &farm);
    assert_eq!(merged.to_csv(), baseline.to_csv(), "CSV differs");
    assert_eq!(merged.to_json(), baseline.to_json(), "JSON differs");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn half_truncated_journal_resumes_the_other_half_byte_identical() {
    let journal = temp_journal("half");
    let _ = std::fs::remove_file(&journal);
    let mut config = config_with(4);
    config.diagnosis = true;
    let cells = config.population.len() * config.schedules.len();
    assert_eq!(cells, 92);
    let farm = Farm::with_workers(2);
    let baseline = run_campaign(&config, &farm);
    run_campaign_journaled(&config, &farm, ShardSpec::full(), &journal).expect("cold run");

    // Keep the header plus half the cell records: the state a SIGKILL
    // halfway through the matrix leaves behind.
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    let keep: usize = text
        .split_inclusive('\n')
        .take(1 + cells / 2)
        .map(str::len)
        .sum();
    std::fs::write(&journal, &text[..keep]).expect("journal truncatable");
    let (report, resume) =
        run_campaign_journaled(&config, &farm, ShardSpec::full(), &journal).expect("resume");
    assert_eq!(resume.resumed_cells, 46);
    assert_eq!(resume.simulated_cells, 46);
    let merged = merge_shards(&config, &[report]).expect("full shard merges");
    assert_eq!(merged.to_csv(), baseline.to_csv(), "CSV differs");
    assert_eq!(merged.to_json(), baseline.to_json(), "JSON differs");
    let _ = std::fs::remove_file(&journal);
}

/// A complete journal for `config()`, built in-process.
fn completed_journal(tag: &str) -> (CampaignConfig, PathBuf, String, String) {
    let journal = temp_journal(tag);
    let _ = std::fs::remove_file(&journal);
    let config = config();
    let farm = Farm::with_workers(2);
    let (report, _) =
        run_campaign_journaled(&config, &farm, ShardSpec::full(), &journal).expect("cold run");
    let merged = merge_shards(&config, &[report]).expect("full shard merges");
    (config, journal, merged.to_csv(), merged.to_json())
}

#[test]
fn bit_flipped_record_is_reported_and_resimulated() {
    let (config, journal, csv, json) = completed_journal("flip");
    let mut bytes = std::fs::read(&journal).expect("journal readable");
    // Corrupt one byte inside the third line's payload.
    let third_line_start = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .nth(1)
        .expect("journal has three lines");
    let target = third_line_start + 20;
    bytes[target] = if bytes[target] == b'x' { b'y' } else { b'x' };
    std::fs::write(&journal, &bytes).expect("journal writable");

    let farm = Farm::with_workers(2);
    let (report, resume) =
        run_campaign_journaled(&config, &farm, ShardSpec::full(), &journal).expect("resume");
    let defect = resume
        .defect
        .expect("damage must be reported, not absorbed");
    assert_eq!(defect.line, 3, "defect not located at the flipped record");
    assert!(defect.dropped > 0);
    // Only the records before the flip survived; the rest resimulated.
    assert_eq!(resume.resumed_cells, 1);
    assert!(resume.simulated_cells > 0);
    let merged = merge_shards(&config, &[report]).expect("full shard merges");
    assert_eq!(merged.to_csv(), csv, "artifact differs after damage");
    assert_eq!(merged.to_json(), json);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn short_write_torn_tail_is_reported_and_resimulated() {
    let journal = temp_journal("shortwrite");
    let _ = std::fs::remove_file(&journal);
    let config = config();
    let farm = Farm::with_workers(2);

    // Tear the record on the write path, not by editing the file
    // afterwards: the 4th journal append (header plus two cells land
    // intact) stops 10 bytes in, and every write after it fails with
    // `StorageFull` — exactly what a full disk mid-append looks like.
    // The failed append must surface as an error from the run.
    let policy = IoPolicy::new();
    policy.fail_nth_write(4, WriteFault::Short { keep: 10 });
    let err = run_campaign_journaled_with_io(&config, &farm, ShardSpec::full(), &journal, &policy)
        .expect_err("a torn append must fail the run, not be absorbed");
    assert!(err.contains("journal"), "untyped journal error: {err}");

    // The journal on disk now ends mid-record. A clean rerun must
    // report the torn tail as a defect, keep the intact prefix,
    // resimulate the rest, and produce the exact artifact of an
    // uninterrupted run.
    let (report, resume) =
        run_campaign_journaled(&config, &farm, ShardSpec::full(), &journal).expect("resume");
    let defect = resume.defect.expect("torn tail must be reported");
    assert_eq!(defect.dropped, 1, "exactly the torn record was dropped");
    assert_eq!(resume.resumed_cells, 2, "the intact prefix must survive");
    let merged = merge_shards(&config, &[report]).expect("full shard merges");
    let baseline = run_campaign(&config, &farm);
    assert_eq!(merged.to_csv(), baseline.to_csv(), "artifact differs");
    assert_eq!(merged.to_json(), baseline.to_json(), "artifact differs");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn foreign_journal_is_refused() {
    let (_, journal, _, _) = completed_journal("foreign");
    // A different population seed is a different matrix; its journal
    // must be a hard error, not a silent partial reuse.
    let mut other = config();
    other.population = generate(
        &PopulationSpec {
            seed: 0xDEAD_BEEF,
            scan_cells_per_core: 2,
            memory_faults: 2,
            ..PopulationSpec::default()
        },
        &other.soc,
    );
    let farm = Farm::with_workers(1);
    let err = run_campaign_journaled(&other, &farm, ShardSpec::full(), &journal)
        .expect_err("foreign journal accepted");
    assert!(err.contains("refusing to mix matrices"), "{err}");
    let _ = std::fs::remove_file(&journal);
}
