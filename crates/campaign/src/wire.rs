//! Wire serialization of campaign results: [`CellResult`] and
//! [`DiagnosisCheck`] to and from compact JSON objects.
//!
//! Shard reports, resume journals and the `tve-serve` cache snapshot all
//! move completed cells between processes. They share this one encoding
//! (built on `tve-obs`'s serde-free JSON) so a cell that crossed a
//! process boundary is exactly the cell that was simulated. Shard
//! reports and journals carry whole [`CellResult`]s; the cache, whose
//! key already names the fault and schedule, carries the same outcome
//! fields ([`append_outcome`]) without them. Every
//! serializer here has a parser, and round-tripping is lossless —
//! `from(to(x)) == x` — which is what lets the scale-out paths promise
//! byte-identical artifacts.

use tve_core::{FailingCell, StuckCell};
use tve_obs::{append_json_string, JsonValue};
use tve_soc::WrappedCore;

use crate::matrix::{CellOutcome, CellResult, DiagnosisCheck};

/// Appends `cell` as a compact single-line JSON object.
pub fn append_cell_result(out: &mut String, cell: &CellResult) {
    out.push_str("{\"fault\":");
    append_json_string(out, &cell.fault_id);
    out.push_str(",\"class\":");
    append_json_string(out, &cell.fault_class);
    out.push_str(",\"schedule\":");
    append_json_string(out, &cell.schedule);
    out.push(',');
    append_outcome(out, &cell.outcome);
    out.push('}');
}

/// Appends the fields of `outcome` — `"outcome":"<tag>"` and the tag's
/// data — for embedding in a JSON object. Cell objects carry them, and
/// so do the `tve-serve` cache's cell entries.
pub fn append_outcome(out: &mut String, outcome: &CellOutcome) {
    out.push_str("\"outcome\":");
    append_json_string(out, outcome.tag());
    match outcome {
        CellOutcome::Detected {
            latency_cycles,
            deviating,
        } => {
            out.push_str(&format!(
                ",\"latency_cycles\":{latency_cycles},\"deviating\":["
            ));
            for (i, name) in deviating.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                append_json_string(out, name);
            }
            out.push(']');
        }
        CellOutcome::Escape => {}
        CellOutcome::InfraFailure { error } => {
            out.push_str(",\"error\":");
            append_json_string(out, error);
        }
    }
}

fn want_str(v: &JsonValue, key: &str, what: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{what} record missing string field '{key}'"))
}

fn want_u64(v: &JsonValue, key: &str, what: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{what} record missing integer field '{key}'"))
}

fn want_u32(v: &JsonValue, key: &str, what: &str) -> Result<u32, String> {
    u32::try_from(want_u64(v, key, what)?)
        .map_err(|_| format!("{what} record field '{key}' overflows u32"))
}

fn want_bool(v: &JsonValue, key: &str, what: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("{what} record missing boolean field '{key}'"))
}

/// Parses a [`CellOutcome`] from an object carrying the fields
/// [`append_outcome`] emits.
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub fn outcome_from_json(v: &JsonValue) -> Result<CellOutcome, String> {
    Ok(match v.get("outcome").and_then(JsonValue::as_str) {
        Some("detected") => CellOutcome::Detected {
            latency_cycles: want_u64(v, "latency_cycles", "detected cell")?,
            deviating: v
                .get("deviating")
                .and_then(JsonValue::as_arr)
                .ok_or("detected cell record missing array field 'deviating'")?
                .iter()
                .map(|name| {
                    name.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "non-string entry in 'deviating'".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
        },
        Some("escape") => CellOutcome::Escape,
        Some("infra-failure") => CellOutcome::InfraFailure {
            error: want_str(v, "error", "infra-failure cell")?,
        },
        other => return Err(format!("unknown cell outcome {other:?}")),
    })
}

/// Parses a [`CellResult`] from the object [`append_cell_result`] emits.
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub fn cell_result_from_json(v: &JsonValue) -> Result<CellResult, String> {
    let outcome = outcome_from_json(v)?;
    Ok(CellResult {
        fault_id: want_str(v, "fault", "cell")?,
        fault_class: want_str(v, "class", "cell")?,
        schedule: want_str(v, "schedule", "cell")?,
        outcome,
    })
}

/// Appends `check` as a compact single-line JSON object.
pub fn append_diagnosis(out: &mut String, check: &DiagnosisCheck) {
    out.push_str("{\"fault\":");
    append_json_string(out, &check.fault_id);
    out.push_str(",\"core\":");
    append_json_string(out, check.core.label());
    out.push_str(&format!(
        ",\"injected\":{{\"chain\":{},\"position\":{},\"value\":{}}},\"located\":[",
        check.injected.chain, check.injected.position, check.injected.value
    ));
    for (i, cell) in check.located.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"chain\":{},\"position\":{}}}",
            cell.chain, cell.position
        ));
    }
    out.push_str("],\"first_failing_pattern\":");
    match check.first_failing_pattern {
        Some(p) => out.push_str(&p.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(&format!(",\"confirmed\":{}}}", check.confirmed));
}

/// The inverse of [`WrappedCore::label`].
fn core_from_label(label: &str) -> Result<WrappedCore, String> {
    match label {
        "proc" => Ok(WrappedCore::Processor),
        "color" => Ok(WrappedCore::ColorConversion),
        "dct" => Ok(WrappedCore::Dct),
        "mem" => Ok(WrappedCore::MemoryPeriphery),
        other => Err(format!("unknown core label {other:?}")),
    }
}

/// Parses a [`DiagnosisCheck`] from the object [`append_diagnosis`] emits.
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub fn diagnosis_from_json(v: &JsonValue) -> Result<DiagnosisCheck, String> {
    let injected = v
        .get("injected")
        .ok_or("diagnosis record missing 'injected'")?;
    let located = v
        .get("located")
        .and_then(JsonValue::as_arr)
        .ok_or("diagnosis record missing array field 'located'")?
        .iter()
        .map(|cell| {
            Ok(FailingCell {
                chain: want_u32(cell, "chain", "located cell")?,
                position: want_u32(cell, "position", "located cell")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let first_failing_pattern = match v.get("first_failing_pattern") {
        None | Some(JsonValue::Null) => None,
        Some(p) => Some(
            p.as_u64()
                .ok_or("diagnosis record field 'first_failing_pattern' is not an integer")?,
        ),
    };
    Ok(DiagnosisCheck {
        fault_id: want_str(v, "fault", "diagnosis")?,
        core: core_from_label(&want_str(v, "core", "diagnosis")?)?,
        injected: StuckCell {
            chain: want_u32(injected, "chain", "injected cell")?,
            position: want_u32(injected, "position", "injected cell")?,
            value: want_bool(injected, "value", "injected cell")?,
        },
        located,
        first_failing_pattern,
        confirmed: want_bool(v, "confirmed", "diagnosis")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_obs::{check_json, parse_json};

    fn round_trip_cell(cell: &CellResult) {
        let mut json = String::new();
        append_cell_result(&mut json, cell);
        check_json(&json).expect("cell JSON is well-formed");
        assert!(!json.contains('\n'), "cell JSON must be single-line");
        let back = cell_result_from_json(&parse_json(&json).unwrap()).unwrap();
        assert_eq!(&back, cell);
    }

    #[test]
    fn cell_results_round_trip() {
        round_trip_cell(&CellResult {
            fault_id: "scan:proc:c1p30s1".into(),
            fault_class: "scan-cell".into(),
            schedule: "schedule 1 (seq, \"quoted\")".into(),
            outcome: CellOutcome::Detected {
                latency_cycles: 123_456,
                deviating: vec!["T1 proc bist".into(), "T2 proc scan".into()],
            },
        });
        round_trip_cell(&CellResult {
            fault_id: "mem:stuck-at:a3b7".into(),
            fault_class: "memory".into(),
            schedule: "s2".into(),
            outcome: CellOutcome::Escape,
        });
        round_trip_cell(&CellResult {
            fault_id: "ring:break@0".into(),
            fault_class: "ring".into(),
            schedule: "s2".into(),
            outcome: CellOutcome::InfraFailure {
                error: "worker panicked:\n\"boom, with comma\"".into(),
            },
        });
    }

    #[test]
    fn diagnosis_round_trips() {
        for (pattern, located) in [
            (
                Some(3),
                vec![FailingCell {
                    chain: 0,
                    position: 1,
                }],
            ),
            (None, vec![]),
        ] {
            let check = DiagnosisCheck {
                fault_id: "scan:dct:c0p1s1".into(),
                core: WrappedCore::Dct,
                injected: StuckCell {
                    chain: 0,
                    position: 1,
                    value: true,
                },
                located,
                first_failing_pattern: pattern,
                confirmed: pattern.is_some(),
            };
            let mut json = String::new();
            append_diagnosis(&mut json, &check);
            check_json(&json).expect("diagnosis JSON is well-formed");
            let back = diagnosis_from_json(&parse_json(&json).unwrap()).unwrap();
            assert_eq!(back, check);
        }
    }

    #[test]
    fn parsers_name_the_defective_field() {
        let v =
            parse_json(r#"{"fault":"f","class":"c","schedule":"s","outcome":"detected"}"#).unwrap();
        let err = cell_result_from_json(&v).unwrap_err();
        assert!(err.contains("latency_cycles"), "{err}");
        let v = parse_json(r#"{"outcome":"no-such-tag"}"#).unwrap();
        assert!(cell_result_from_json(&v).is_err());
        assert!(core_from_label("gpu").is_err());
    }
}
