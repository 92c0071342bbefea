//! Disk persistence for the result cache: the warm state survives a
//! daemon restart.
//!
//! The file is a `tve-obs` [journal](tve_obs::Journal) — one
//! CRC-guarded single-line JSON record per line — so a truncated or
//! bit-flipped snapshot degrades to its valid prefix and *reports* the
//! damage instead of resurrecting corrupt results. Floats are stored as
//! `f64::to_bits` hex so a reloaded [`ScenarioMetrics`] digest is
//! bit-for-bit the digest that was cached; host CPU timings (which the
//! digest deliberately ignores) are zeroed on reload. `--verify-cache`
//! sampling after a restart is therefore a real proof: a re-executed
//! hit is compared against the *persisted* result.
//!
//! Cell outcomes and diagnosis checks use the `tve-campaign` wire codec,
//! the same encoding shard reports and resume journals carry. The
//! header names the snapshot format version ([`SNAPSHOT_VERSION`]); a
//! snapshot of any other version is refused with a typed error, never
//! misread.

use std::io;
use std::path::Path;

use tve_campaign::{append_diagnosis, append_outcome, diagnosis_from_json, outcome_from_json};
use tve_core::{TestOutcome, TestSlot};
use tve_obs::{append_json_string, read_journal, IoPolicy, Journal, JournalDefect, JsonValue};
use tve_sim::Time;
use tve_soc::{PowerSummary, ScenarioMetrics};

use crate::cache::{CachedValue, ResultCache};

/// The snapshot format this build writes and reads. Version 1 stored
/// cell outcomes in a codec of its own; version 2 uses the wire codec.
const SNAPSHOT_VERSION: u64 = 2;

/// What a [`load_cache`] call found on disk.
#[derive(Debug, Default)]
pub struct CacheLoad {
    /// Entries restored into the cache.
    pub loaded: usize,
    /// The journal defect, if the file's tail was damaged. The valid
    /// prefix is still loaded; the defect says exactly what was lost.
    pub defect: Option<JournalDefect>,
}

fn hex_u64(v: u64) -> String {
    format!("{v:x}")
}

fn want_hex(v: &JsonValue, key: &str, what: &str) -> Result<u64, String> {
    let text = v
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{what} record missing hex field '{key}'"))?;
    u64::from_str_radix(text, 16).map_err(|_| format!("{what} field '{key}' is not hex"))
}

fn want_str(v: &JsonValue, key: &str, what: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{what} record missing string field '{key}'"))
}

fn append_bits(out: &mut String, value: f64) {
    out.push('"');
    out.push_str(&format!("{:016x}", value.to_bits()));
    out.push('"');
}

fn want_bits(v: &JsonValue, key: &str, what: &str) -> Result<f64, String> {
    Ok(f64::from_bits(want_hex(v, key, what)?))
}

fn append_metrics(out: &mut String, m: &ScenarioMetrics) {
    out.push_str("{\"schedule\":");
    append_json_string(out, &m.schedule);
    out.push_str(",\"peak\":");
    append_bits(out, m.peak_utilization);
    out.push_str(",\"avg\":");
    append_bits(out, m.avg_utilization);
    out.push_str(&format!(
        ",\"total_cycles\":\"{}\",\"power\":",
        hex_u64(m.total_cycles)
    ));
    match &m.power {
        None => out.push_str("null"),
        Some(p) => {
            out.push_str("{\"peak\":");
            append_bits(out, p.peak);
            out.push_str(",\"average\":");
            append_bits(out, p.average);
            out.push_str(",\"energy\":");
            append_bits(out, p.energy);
            out.push_str(",\"per_source\":[");
            for (i, (name, energy)) in p.per_source.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                append_json_string(out, name);
                out.push(',');
                append_bits(out, *energy);
                out.push(']');
            }
            out.push_str("]}");
        }
    }
    out.push_str(&format!(
        ",\"result_cycles\":\"{}\",\"slots\":[",
        hex_u64(m.result.total_cycles)
    ));
    for (i, slot) in m.result.slots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let o = &slot.outcome;
        out.push_str(&format!("{{\"phase\":{},\"name\":", slot.phase));
        append_json_string(out, &o.name);
        out.push_str(&format!(
            ",\"patterns\":\"{}\",\"stimulus\":\"{}\",\"response\":\"{}\",\"signature\":",
            hex_u64(o.patterns),
            hex_u64(o.stimulus_bits),
            hex_u64(o.response_bits)
        ));
        match o.signature {
            Some(s) => out.push_str(&format!("\"{}\"", hex_u64(s))),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"mismatches\":\"{}\",\"errors\":\"{}\",\"failing\":[{}],\"start\":\"{}\",\"end\":\"{}\"}}",
            hex_u64(o.mismatches),
            hex_u64(o.errors),
            o.failing_addresses
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
            hex_u64(o.start.cycles()),
            hex_u64(o.end.cycles())
        ));
    }
    out.push_str("]}");
}

fn metrics_from_json(v: &JsonValue) -> Result<ScenarioMetrics, String> {
    let schedule = want_str(v, "schedule", "metrics")?;
    let power = match v.get("power") {
        None | Some(JsonValue::Null) => None,
        Some(p) => {
            let per_source = p
                .get("per_source")
                .and_then(JsonValue::as_arr)
                .ok_or("power record missing 'per_source'")?
                .iter()
                .map(|pair| {
                    let items = pair.as_arr().filter(|a| a.len() == 2);
                    match items {
                        Some([JsonValue::Str(name), JsonValue::Str(bits)]) => {
                            let bits = u64::from_str_radix(bits, 16)
                                .map_err(|_| "per_source energy is not hex".to_string())?;
                            Ok((name.clone(), f64::from_bits(bits)))
                        }
                        _ => Err("per_source wants [name, hex-bits] pairs".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?;
            Some(PowerSummary {
                peak: want_bits(p, "peak", "power")?,
                average: want_bits(p, "average", "power")?,
                energy: want_bits(p, "energy", "power")?,
                per_source,
            })
        }
    };
    let slots = v
        .get("slots")
        .and_then(JsonValue::as_arr)
        .ok_or("metrics record missing 'slots'")?
        .iter()
        .map(|slot| {
            let failing = slot
                .get("failing")
                .and_then(JsonValue::as_arr)
                .ok_or("slot record missing 'failing'")?
                .iter()
                .map(|a| {
                    a.as_u64()
                        .and_then(|a| u32::try_from(a).ok())
                        .ok_or_else(|| "failing address is not a u32".to_string())
                })
                .collect::<Result<Vec<u32>, String>>()?;
            let signature = match slot.get("signature") {
                None | Some(JsonValue::Null) => None,
                Some(_) => Some(want_hex(slot, "signature", "slot")?),
            };
            Ok(TestSlot {
                phase: slot
                    .get("phase")
                    .and_then(JsonValue::as_u64)
                    .ok_or("slot record missing 'phase'")? as usize,
                outcome: TestOutcome {
                    name: want_str(slot, "name", "slot")?,
                    patterns: want_hex(slot, "patterns", "slot")?,
                    stimulus_bits: want_hex(slot, "stimulus", "slot")?,
                    response_bits: want_hex(slot, "response", "slot")?,
                    signature,
                    mismatches: want_hex(slot, "mismatches", "slot")?,
                    errors: want_hex(slot, "errors", "slot")?,
                    failing_addresses: failing,
                    start: Time::from_cycles(want_hex(slot, "start", "slot")?),
                    end: Time::from_cycles(want_hex(slot, "end", "slot")?),
                },
            })
        })
        .collect::<Result<Vec<TestSlot>, String>>()?;
    Ok(ScenarioMetrics {
        peak_utilization: want_bits(v, "peak", "metrics")?,
        avg_utilization: want_bits(v, "avg", "metrics")?,
        total_cycles: want_hex(v, "total_cycles", "metrics")?,
        cpu: std::time::Duration::ZERO,
        power,
        result: tve_core::ScheduleResult {
            schedule: schedule.clone(),
            total_cycles: want_hex(v, "result_cycles", "metrics")?,
            slots,
            wall: std::time::Duration::ZERO,
        },
        schedule,
    })
}

pub(crate) fn entry_payload(key: u64, mask: u8, value: &CachedValue) -> String {
    let mut out = format!("{{\"key\":\"{:016x}\",\"mask\":{mask},", key);
    match value {
        CachedValue::Metrics(m) => {
            out.push_str("\"type\":\"metrics\",\"metrics\":");
            append_metrics(&mut out, m);
        }
        CachedValue::Cell(outcome) => {
            out.push_str("\"type\":\"cell\",");
            append_outcome(&mut out, outcome);
        }
        CachedValue::Diagnosis(check) => {
            out.push_str("\"type\":\"diag\",\"check\":");
            append_diagnosis(&mut out, check);
        }
        CachedValue::Lint {
            report,
            errors,
            warnings,
        } => {
            out.push_str(&format!(
                "\"type\":\"lint\",\"errors\":{errors},\"warnings\":{warnings},\"report\":"
            ));
            append_json_string(&mut out, report);
        }
        CachedValue::Bounds { report } => {
            out.push_str("\"type\":\"bounds\",\"report\":");
            append_json_string(&mut out, report);
        }
    }
    out.push('}');
    out
}

fn entry_from_json(v: &JsonValue) -> Result<(u64, u8, CachedValue), String> {
    let key = want_hex(v, "key", "cache entry")?;
    let mask = u8::try_from(
        v.get("mask")
            .and_then(JsonValue::as_u64)
            .ok_or("cache entry missing 'mask'")?,
    )
    .map_err(|_| "cache entry 'mask' overflows u8")?;
    let value = match v.get("type").and_then(JsonValue::as_str) {
        Some("metrics") => CachedValue::Metrics(Box::new(metrics_from_json(
            v.get("metrics").ok_or("metrics entry missing 'metrics'")?,
        )?)),
        Some("cell") => CachedValue::Cell(outcome_from_json(v)?),
        Some("diag") => CachedValue::Diagnosis(Box::new(diagnosis_from_json(
            v.get("check").ok_or("diag entry missing 'check'")?,
        )?)),
        Some("lint") => CachedValue::Lint {
            report: want_str(v, "report", "lint entry")?,
            errors: v
                .get("errors")
                .and_then(JsonValue::as_u64)
                .ok_or("lint entry missing 'errors'")? as usize,
            warnings: v
                .get("warnings")
                .and_then(JsonValue::as_u64)
                .ok_or("lint entry missing 'warnings'")? as usize,
        },
        Some("bounds") => CachedValue::Bounds {
            report: want_str(v, "report", "bounds entry")?,
        },
        other => return Err(format!("unknown cache entry type {other:?}")),
    };
    Ok((key, mask, value))
}

/// Writes every cache entry to `path` (key order, so equal caches write
/// byte-identical snapshots) and returns how many were written.
///
/// # Errors
///
/// Filesystem errors only; every entry is serializable.
pub fn save_cache(cache: &ResultCache, path: &Path) -> io::Result<usize> {
    save_cache_with(cache, path, &IoPolicy::new())
}

/// [`save_cache`] through an injectable [`IoPolicy`], written atomically:
/// the snapshot lands in `<path>.tmp` first and is renamed over `path`
/// only after every record (and the flush) succeeded. A write fault —
/// injected or real ENOSPC — therefore never tears an existing snapshot:
/// the torn temp file is removed and the previous snapshot survives.
///
/// # Errors
///
/// Filesystem errors (including injected ones); every entry is
/// serializable.
pub fn save_cache_with(cache: &ResultCache, path: &Path, policy: &IoPolicy) -> io::Result<usize> {
    let entries = cache.export();
    let tmp = path.with_extension("tmp");
    let write_all = || -> io::Result<()> {
        let mut journal = Journal::create_with(&tmp, policy)?;
        journal.append(&format!(
            "{{\"kind\":\"tve-serve-cache\",\"version\":{SNAPSHOT_VERSION}}}"
        ))?;
        for (key, mask, value) in &entries {
            journal.append(&entry_payload(*key, *mask, value))?;
        }
        Ok(())
    };
    if let Err(e) = write_all() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    Ok(entries.len())
}

/// Restores a snapshot written by [`save_cache`] into `cache`. A
/// missing file loads zero entries (first boot); a damaged tail loads
/// the valid prefix and reports the defect in [`CacheLoad::defect`] —
/// never silently.
///
/// # Errors
///
/// Filesystem errors, or [`io::ErrorKind::InvalidData`] for a file that
/// is not a `tve-serve` cache snapshot, a snapshot of another format
/// version (the message names the version found), or an undecodable
/// entry.
pub fn load_cache(cache: &ResultCache, path: &Path) -> io::Result<CacheLoad> {
    if !path.exists() {
        return Ok(CacheLoad::default());
    }
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let contents = read_journal(path)
        .map_err(|e| io::Error::new(e.kind(), format!("reading {}: {e}", path.display())))?;
    let mut records = contents.records.iter();
    let header = records
        .next()
        .ok_or_else(|| invalid("cache file has no header record".into()))?;
    if header.get("kind").and_then(JsonValue::as_str) != Some("tve-serve-cache") {
        return Err(invalid(format!(
            "{} is not a tve-serve cache snapshot",
            path.display()
        )));
    }
    match header.get("version").and_then(JsonValue::as_u64) {
        Some(SNAPSHOT_VERSION) => {}
        found => {
            let found = found.map_or_else(|| "no".to_string(), |v| v.to_string());
            return Err(invalid(format!(
                "{} is a version {found} cache snapshot; this build reads version \
                 {SNAPSHOT_VERSION} only — delete it to start cold",
                path.display()
            )));
        }
    }
    let mut loaded = 0;
    for record in records {
        let (key, mask, value) = entry_from_json(record).map_err(invalid)?;
        cache.insert(key, value, mask);
        loaded += 1;
    }
    Ok(CacheLoad {
        loaded,
        defect: contents.defect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_campaign::CellOutcome;
    use tve_core::ScheduleResult;

    fn awkward_metrics() -> ScenarioMetrics {
        ScenarioMetrics {
            schedule: "s1 \"quoted\"".into(),
            peak_utilization: 0.1 + 0.2, // not exactly representable as text
            avg_utilization: f64::MIN_POSITIVE,
            total_cycles: (1 << 60) + 3, // above 2^53: must survive as hex
            cpu: std::time::Duration::from_millis(5),
            power: Some(PowerSummary {
                peak: 1.0 / 3.0,
                average: 2.0f64.sqrt(),
                energy: 1e308,
                per_source: vec![("wrapper".into(), 0.25), ("tam".into(), -0.0)],
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
                wall: std::time::Duration::from_millis(9),
            },
        }
    }

    #[test]
    fn metrics_round_trip_preserves_the_digest() {
        let metrics = awkward_metrics();
        let mut text = String::new();
        append_metrics(&mut text, &metrics);
        tve_obs::check_json(&text).unwrap_or_else(|e| panic!("bad JSON {text}: {e}"));
        let back = metrics_from_json(&tve_obs::parse_json(&text).unwrap()).unwrap();
        assert_eq!(
            back.digest(),
            metrics.digest(),
            "digest survives bit-for-bit"
        );
        assert_eq!(back.cpu, std::time::Duration::ZERO, "host timing is zeroed");
    }

    #[test]
    fn cache_snapshot_round_trips() {
        let dir = std::env::temp_dir().join(format!("tve-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.journal");

        let cache = ResultCache::new();
        cache.insert(1, CachedValue::Metrics(Box::new(awkward_metrics())), 0b11);
        cache.insert(
            2,
            CachedValue::Cell(CellOutcome::Detected {
                latency_cycles: 1234,
                deviating: vec!["T1".into()],
            }),
            0b100,
        );
        cache.insert(3, CachedValue::Cell(CellOutcome::Escape), 0);
        cache.insert(
            4,
            CachedValue::Cell(CellOutcome::InfraFailure {
                error: "panic:\nboom".into(),
            }),
            0,
        );
        cache.insert(
            5,
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
                report: "{\n  \"format_version\": 1,\n  \"reports\": []\n}\n".into(),
            },
            0x7f,
        );
        cache.insert(
            6,
            CachedValue::Diagnosis(Box::new(tve_campaign::DiagnosisCheck {
                fault_id: "scan:dct:c0p1s1".into(),
                core: tve_soc::WrappedCore::Dct,
                injected: tve_core::StuckCell {
                    chain: 0,
                    position: 1,
                    value: true,
                },
                located: vec![tve_core::FailingCell {
                    chain: 0,
                    position: 1,
                }],
                first_failing_pattern: Some(3),
                confirmed: true,
            })),
            0,
        );
        let saved = save_cache(&cache, &path).unwrap();
        assert_eq!(saved, 7);

        let restored = ResultCache::new();
        let load = load_cache(&restored, &path).unwrap();
        assert_eq!(load.loaded, 7);
        assert!(load.defect.is_none());
        for (a, b) in cache.export().iter().zip(restored.export()) {
            assert_eq!(a.0, b.0, "keys match");
            assert_eq!(a.1, b.1, "masks match");
        }
        match restored.peek(1) {
            Some(CachedValue::Metrics(m)) => {
                assert_eq!(m.digest(), awkward_metrics().digest());
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        match restored.peek(7) {
            Some(CachedValue::Bounds { report }) => {
                assert!(report.starts_with("{\n  \"format_version\": 1"));
            }
            other => panic!("expected bounds, got {other:?}"),
        }
        // Saving the restored cache reproduces the snapshot byte for
        // byte (host timings were already zeroed by the first save).
        let path2 = dir.join("cache2.journal");
        save_cache(&restored, &path2).unwrap();
        let (a, b) = (
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap(),
        );
        // The first snapshot serialized live metrics (nonzero cpu) but
        // cpu is not persisted, so both snapshots must agree.
        assert_eq!(a, b, "snapshots are canonical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_fault_never_tears_an_existing_snapshot() {
        let dir = std::env::temp_dir().join(format!("tve-persist-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.journal");

        let cache = ResultCache::new();
        cache.insert(1, CachedValue::Cell(CellOutcome::Escape), 0);
        save_cache(&cache, &path).unwrap();
        let before = std::fs::read(&path).unwrap();

        // Grow the cache, then tear the re-save mid-record: disk fills
        // after 9 bytes of the second record.
        cache.insert(2, CachedValue::Cell(CellOutcome::Escape), 0);
        let policy = IoPolicy::new();
        policy.fail_nth_write(2, tve_obs::WriteFault::Short { keep: 9 });
        let err = save_cache_with(&cache, &path, &policy).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);

        // The previous snapshot is intact and the temp file is gone.
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert!(!path.with_extension("tmp").exists());
        let load = load_cache(&ResultCache::new(), &path).unwrap();
        assert_eq!(load.loaded, 1);
        assert!(load.defect.is_none());

        // A clean retry (disk recovered) succeeds atomically.
        let saved = save_cache_with(&cache, &path, &IoPolicy::new()).unwrap();
        assert_eq!(saved, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_tail_is_reported_not_absorbed() {
        let dir = std::env::temp_dir().join(format!("tve-persist-dmg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.journal");
        let cache = ResultCache::new();
        cache.insert(1, CachedValue::Cell(CellOutcome::Escape), 0);
        cache.insert(2, CachedValue::Cell(CellOutcome::Escape), 0);
        save_cache(&cache, &path).unwrap();

        // Flip one byte in the last line's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let restored = ResultCache::new();
        let load = load_cache(&restored, &path).unwrap();
        assert_eq!(load.loaded, 1, "valid prefix only");
        let defect = load.defect.expect("the damage is reported");
        assert_eq!(defect.line, 3);

        // A non-cache journal is rejected outright.
        let alien = dir.join("alien.journal");
        let mut j = Journal::create(&alien).unwrap();
        j.append("{\"kind\":\"something-else\"}").unwrap();
        drop(j);
        let err = load_cache(&ResultCache::new(), &alien).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a tve-serve cache"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_snapshot_is_refused_not_misread() {
        let dir = std::env::temp_dir().join(format!("tve-persist-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.journal");
        // A well-formed v1 snapshot: its cell entry uses the old codec
        // ("tag"/"latency"), which a v2 reader must never decode.
        let mut j = Journal::create(&path).unwrap();
        j.append("{\"kind\":\"tve-serve-cache\",\"version\":1}")
            .unwrap();
        j.append(
            "{\"key\":\"0000000000000001\",\"mask\":0,\"type\":\"cell\",\
             \"outcome\":{\"tag\":\"escape\"}}",
        )
        .unwrap();
        drop(j);

        let cache = ResultCache::new();
        let err = load_cache(&cache, &path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1"), "{err}");
        assert_eq!(
            cache.stats().entries,
            0,
            "nothing of a v1 snapshot is loaded"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
