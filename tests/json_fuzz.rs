//! Fuzzing the JSON substrate and the durable-record readers built on
//! it: shard reports, resume journals and cache snapshots are read back
//! from bytes another process (or a crash) left behind, so no input may
//! make a reader panic or decode into something its writer would not
//! reproduce.
//!
//! - Any UTF-8 text is accepted by `check_json` exactly when
//!   `parse_json` accepts it: one grammar.
//! - Single-byte mutations of valid records either fail with a typed
//!   error or decode into a value that round-trips through its writer.
//! - Mutated journals and cache snapshots — with the checksum left
//!   stale, or recomputed so the damaged payload reaches the decoders —
//!   load as a valid prefix, a typed error, or entries that re-save
//!   byte-identically.
//!
//! `PROPTEST_CASES` scales the case count (CI runs this file with 2048).

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use tve::campaign::{
    append_cell_result, append_diagnosis, cell_result_from_json, diagnosis_from_json, CellOutcome,
    CellResult, DiagnosisCheck, PrescreenedSchedule, ShardReport, ShardSpec,
};
use tve::core::{FailingCell, ScheduleResult, StuckCell, TestOutcome, TestSlot};
use tve::obs::{check_json, fnv1a, parse_journal, parse_json, JsonValue};
use tve::serve::{load_cache, save_cache, CachedValue, ResultCache};
use tve::sim::Time;
use tve::soc::{PowerSummary, ScenarioMetrics, WrappedCore};

/// String bodies, valid and not: plain text, escapes, paired and
/// unpaired surrogates, a bad escape and a raw control byte.
const STRING_PIECES: [&str; 13] = [
    "a",
    "é",
    "😀",
    " ",
    "\\n",
    "\\\"",
    "\\u0041",
    "\\u00e9",
    "\\ud83d\\ude00",
    "\\ud83d",
    "\\udc00",
    "\\q",
    "\u{1}",
];

/// Numbers and literals, valid and not.
const SCALARS: [&str; 15] = [
    "0", "-0", "12", "1.5", "-2.5e-3", "1E+2", "1e999", "01", "1.", "-", "1e", "true", "false",
    "null", "nul",
];

/// Appends a JSON-shaped value steered by `choices`: mostly well formed,
/// so the text reaches string escapes and numbers deep inside
/// containers instead of failing at its first byte.
fn shaped(choices: &mut impl Iterator<Item = u8>, depth: u32, out: &mut String) {
    let mut next = || usize::from(choices.next().unwrap_or(0));
    match next() % 4 {
        0 if depth < 4 => {
            out.push('[');
            for i in 0..next() % 3 {
                if i > 0 {
                    out.push(',');
                }
                shaped(choices, depth + 1, out);
            }
            out.push(']');
        }
        1 if depth < 4 => {
            out.push('{');
            for i in 0..next() % 3 {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\"k\": ");
                shaped(choices, depth + 1, out);
            }
            out.push('}');
        }
        2 => {
            out.push('"');
            for _ in 0..next() % 3 {
                out.push_str(STRING_PIECES[next() % STRING_PIECES.len()]);
            }
            out.push('"');
        }
        _ => out.push_str(SCALARS[next() % SCALARS.len()]),
    }
}

fn cells() -> Vec<CellResult> {
    vec![
        CellResult {
            fault_id: "scan:proc:c1p30s1".into(),
            fault_class: "scan-cell".into(),
            schedule: "schedule 1 (seq, \"quoted\")".into(),
            outcome: CellOutcome::Detected {
                latency_cycles: 123_456,
                deviating: vec!["T1 proc bist".into(), "T2 proc scan".into()],
            },
        },
        CellResult {
            fault_id: "mem:stuck-at:a3b7".into(),
            fault_class: "memory".into(),
            schedule: "s2".into(),
            outcome: CellOutcome::Escape,
        },
        CellResult {
            fault_id: "ring:break@0".into(),
            fault_class: "ring".into(),
            schedule: "s2".into(),
            outcome: CellOutcome::InfraFailure {
                error: "worker panicked:\r\n\"boom, with comma\"".into(),
            },
        },
    ]
}

fn check() -> DiagnosisCheck {
    DiagnosisCheck {
        fault_id: "scan:dct:c0p1s1".into(),
        core: WrappedCore::Dct,
        injected: StuckCell {
            chain: 0,
            position: 1,
            value: true,
        },
        located: vec![FailingCell {
            chain: 0,
            position: 1,
        }],
        first_failing_pattern: Some(3),
        confirmed: true,
    }
}

fn cell_json(cell: &CellResult) -> String {
    let mut out = String::new();
    append_cell_result(&mut out, cell);
    out
}

fn diagnosis_json(check: &DiagnosisCheck) -> String {
    let mut out = String::new();
    append_diagnosis(&mut out, check);
    out
}

fn shard_report() -> ShardReport {
    ShardReport {
        fingerprint: 0xdead_beef_0123_4567,
        shard: ShardSpec::new(0, 2).unwrap(),
        total_cells: 6,
        schedules: vec!["s1".into(), "s2".into()],
        prescreened: vec![PrescreenedSchedule {
            schedule: "broken".into(),
            codes: vec!["sched-dup-test".into()],
        }],
        cells: cells()
            .into_iter()
            .enumerate()
            .map(|(i, c)| (2 * i, c))
            .collect(),
        diagnosis: vec![check()],
    }
}

/// Frames `payload` as one journal record: checksum, space, payload.
fn frame(payload: &str) -> String {
    format!("{:016x} {payload}\n", fnv1a(payload.as_bytes()))
}

/// The payloads of a resume journal: the campaign header, one record per
/// cell and one diagnosis record.
fn journal_payloads() -> Vec<String> {
    let mut payloads = vec![
        "{\"kind\":\"header\",\"version\":1,\"fingerprint\":\"deadbeef01234567\",\
         \"shard\":\"1/1\",\"total_cells\":3}"
            .to_string(),
    ];
    for (i, cell) in cells().iter().enumerate() {
        payloads.push(format!(
            "{{\"kind\":\"cell\",\"index\":{i},\"cell\":{}}}",
            cell_json(cell)
        ));
    }
    payloads.push(format!(
        "{{\"kind\":\"diag\",\"check\":{}}}",
        diagnosis_json(&check())
    ));
    payloads
}

fn metrics() -> ScenarioMetrics {
    ScenarioMetrics {
        schedule: "s1 \"quoted\"".into(),
        peak_utilization: 0.1 + 0.2,
        avg_utilization: f64::MIN_POSITIVE,
        total_cycles: (1 << 60) + 3,
        cpu: std::time::Duration::ZERO,
        power: Some(PowerSummary {
            peak: 1.0 / 3.0,
            average: 2.0f64.sqrt(),
            energy: 1e308,
            per_source: vec![("wrapper".into(), 0.25)],
        }),
        result: ScheduleResult {
            schedule: "s1 \"quoted\"".into(),
            total_cycles: 42,
            slots: vec![TestSlot {
                phase: 2,
                outcome: TestOutcome {
                    name: "T1 proc bist".into(),
                    patterns: 96,
                    stimulus_bits: u64::MAX,
                    response_bits: 7,
                    signature: Some(u64::MAX - 1),
                    mismatches: 0,
                    errors: 0,
                    failing_addresses: vec![3, 4_000_000_000],
                    start: Time::from_cycles(10),
                    end: Time::from_cycles((1 << 55) + 1),
                },
            }],
            wall: std::time::Duration::ZERO,
        },
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tve-json-fuzz-{}-{name}", std::process::id()))
}

/// A cache snapshot holding one entry of every type, as written by
/// `save_cache`.
fn snapshot() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let cache = ResultCache::new();
        cache.insert(1, CachedValue::Metrics(Box::new(metrics())), 0b11);
        for (key, cell) in (2..).zip(cells()) {
            cache.insert(key, CachedValue::Cell(cell.outcome), 0b100);
        }
        cache.insert(5, CachedValue::Diagnosis(Box::new(check())), 0);
        cache.insert(
            6,
            CachedValue::Lint {
                report: "{\"x\": 1}".into(),
                errors: 2,
                warnings: 3,
            },
            0x7f,
        );
        cache.insert(
            7,
            CachedValue::Bounds {
                report: "{\n  \"reports\": []\n}\n".into(),
            },
            0x7f,
        );
        let path = temp_path("seed.journal");
        save_cache(&cache, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        text
    })
}

/// Overwrites single bytes of `text` (positions taken modulo its
/// length) and repairs the result into UTF-8.
fn mutate(text: &str, mutations: &[(u64, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(at, byte) in mutations {
        let len = bytes.len() as u64;
        bytes[(at % len) as usize] = byte;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `decode` either fails with a typed error or yields a value that
/// `encode` writes back into text `decode` reads as the same value.
fn fails_typed_or_round_trips<T: PartialEq + std::fmt::Debug>(
    v: &JsonValue,
    decode: impl Fn(&JsonValue) -> Result<T, String>,
    encode: impl Fn(&T) -> String,
) -> Result<(), TestCaseError> {
    if let Ok(value) = decode(v) {
        let text = encode(&value);
        let back = parse_json(&text).map_err(|e| TestCaseError(format!("{text}: {e}")))?;
        prop_assert_eq!(decode(&back), Ok(value));
    }
    Ok(())
}

/// Decodes the cell or diagnosis a resume-journal record carries.
fn journal_record_decodes(record: &JsonValue) -> Result<(), TestCaseError> {
    if let Some(cell) = record.get("cell") {
        fails_typed_or_round_trips(cell, cell_result_from_json, cell_json)?;
    }
    if let Some(check) = record.get("check") {
        fails_typed_or_round_trips(check, diagnosis_from_json, diagnosis_json)?;
    }
    Ok(())
}

proptest! {
    /// One grammar: the checker and the parser agree on every text —
    /// raw bytes, JSON-shaped documents, and those documents with a few
    /// bytes overwritten.
    #[test]
    fn check_and_parse_agree(
        raw in proptest::collection::vec(any::<u8>(), 0..48),
        choices in proptest::collection::vec(any::<u8>(), 1..64),
        mutations in proptest::collection::vec((any::<u64>(), any::<u8>()), 0..3),
    ) {
        let mut doc = String::new();
        shaped(&mut choices.into_iter(), 0, &mut doc);
        let mutated = mutate(&doc, &mutations);
        for text in [String::from_utf8_lossy(&raw).into_owned(), doc, mutated] {
            prop_assert_eq!(
                check_json(&text).is_ok(),
                parse_json(&text).is_ok(),
                "checker and parser disagree on {:?}",
                text
            );
        }
    }

    /// Mutated cell, diagnosis and shard-report records fail typed or
    /// round-trip; none panics.
    #[test]
    fn mutated_records_fail_typed_or_round_trip(
        pick in 0usize..5,
        mutations in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..4),
    ) {
        let seed = match pick {
            0..=2 => cell_json(&cells()[pick]),
            3 => diagnosis_json(&check()),
            _ => shard_report().to_json(),
        };
        let text = mutate(&seed, &mutations);
        if pick == 4 {
            if let Ok(report) = ShardReport::from_json(&text) {
                prop_assert_eq!(ShardReport::from_json(&report.to_json()), Ok(report));
            }
        } else if let Ok(v) = parse_json(&text) {
            if pick == 3 {
                fails_typed_or_round_trips(&v, diagnosis_from_json, diagnosis_json)?;
            } else {
                fails_typed_or_round_trips(&v, cell_result_from_json, cell_json)?;
            }
        }
    }

    /// Mutated resume journals: a stale checksum ends the valid prefix at
    /// the damaged line; a recomputed one hands the damaged payload to the
    /// record decoders, which fail typed or round-trip.
    #[test]
    fn mutated_resume_journals_load_a_prefix_or_fail_typed(
        line in 0usize..5,
        mutations in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..4),
        reframe in any::<bool>(),
    ) {
        let mut payloads = journal_payloads();
        let text = if reframe {
            payloads[line] = mutate(&payloads[line], &mutations);
            payloads.iter().map(|p| frame(p)).collect::<String>()
        } else {
            mutate(&payloads.iter().map(|p| frame(p)).collect::<String>(), &mutations)
        };
        let contents = parse_journal(&text);
        if let Some(defect) = &contents.defect {
            prop_assert_eq!(contents.records.len(), defect.line - 1);
        }
        for record in &contents.records {
            journal_record_decodes(record)?;
        }
    }

    /// Mutated cache snapshots load their entries, a valid prefix, or a
    /// typed `InvalidData` error; whatever loads re-saves canonically.
    #[test]
    fn mutated_cache_snapshots_load_or_fail_typed(
        mutations in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..4),
        reframe in any::<bool>(),
    ) {
        let text = if reframe {
            let lines: Vec<&str> = snapshot().lines().collect();
            let at = (mutations[0].0 % lines.len() as u64) as usize;
            lines
                .iter()
                .enumerate()
                .map(|(i, line)| {
                    let payload = &line[17..];
                    frame(&if i == at { mutate(payload, &mutations) } else { payload.to_string() })
                })
                .collect::<String>()
        } else {
            mutate(snapshot(), &mutations)
        };
        let path = temp_path("mutated.journal");
        std::fs::write(&path, &text).unwrap();
        let cache = ResultCache::new();
        match load_cache(&cache, &path) {
            Ok(_) => {
                let resaved = temp_path("resaved.journal");
                save_cache(&cache, &resaved).unwrap();
                let again = ResultCache::new();
                load_cache(&again, &resaved).unwrap();
                save_cache(&again, &path).unwrap();
                prop_assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&resaved).unwrap());
                let _ = std::fs::remove_file(&resaved);
            }
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e),
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// The unmutated seeds decode and round-trip, so the properties above
/// start from records the readers accept.
#[test]
fn seeds_decode() {
    for cell in cells() {
        assert_eq!(
            cell_result_from_json(&parse_json(&cell_json(&cell)).unwrap()),
            Ok(cell)
        );
    }
    assert_eq!(
        diagnosis_from_json(&parse_json(&diagnosis_json(&check())).unwrap()),
        Ok(check())
    );
    let report = shard_report();
    assert_eq!(ShardReport::from_json(&report.to_json()), Ok(report));
    let text: String = journal_payloads().iter().map(|p| frame(p)).collect();
    let contents = parse_journal(&text);
    assert!(contents.defect.is_none());
    assert_eq!(contents.records.len(), 5);
    let path = temp_path("seed-load.journal");
    std::fs::write(&path, snapshot()).unwrap();
    let load = load_cache(&ResultCache::new(), &path).unwrap();
    assert_eq!((load.loaded, load.defect), (7, None));
    let _ = std::fs::remove_file(&path);
}
