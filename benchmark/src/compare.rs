//! `benchmark compare A.json[,A2.json...] B.json[,B2.json...]`: applies
//! the `BENCHMARK.json` bounds to every (end-to-end metric, workload) pair
//! of a baseline and a candidate, each given as one results file per run,
//! and prints one row per workload.
//!
//! - A metric regresses when the candidate's median is worse than the
//!   baseline's by more than its bound. `setup_s` is measured against at
//!   least [`SETUP_FLOOR_S`].
//! - Where either side's run-to-run spread (the distance between its
//!   quartiles as a share of its median) is wider than the bound, the pair
//!   is unresolved rather than judged, unless every candidate run reads
//!   better than every baseline run.
//! - Exact metrics (work counts and `fidelity_pct`) must be equal between
//!   runs with the same seed.
//! - A regression is reported with the per-layer metric, among those tied
//!   to the workload, that got worse by the largest share, so the output
//!   names the layer.

use std::collections::BTreeMap;
use std::process::ExitCode;

use tve_obs::{parse_json, JsonValue};

use crate::report::{is_exact, Metric, Report, PER_LAYER, SETUP_FLOOR_S};
use crate::stats::median;

/// One metric definition from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Allowed worsening as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The metric definitions of a `BENCHMARK.json`: `(end_to_end, per_layer)`.
///
/// # Errors
///
/// A description of the first malformed entry.
pub fn load_defs(text: &str) -> Result<(Vec<Def>, Vec<Def>), String> {
    let v = parse_json(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Def>, String> {
        v.get(key)
            .and_then(JsonValue::as_arr)
            .ok_or(format!("BENCHMARK.json lacks '{key}'"))?
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                        .ok_or(format!("a '{key}' entry lacks '{k}'"))
                };
                Ok(Def {
                    name: s("name")?,
                    unit: s("unit")?,
                    better: s("better")?,
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// How much worse `new` is than `base`, as a share of `base` or of
/// `floor` when that is larger (negative = better).
pub fn worsening(base: f64, new: f64, better: &str, floor: f64) -> f64 {
    let scale = base.abs().max(floor);
    if scale == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    let change = (new - base) / scale;
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// The distance between the first and third quartiles of `values` as a
/// share of their median (or of `floor` when that is larger). Quartiles
/// are those of Python's `statistics.quantiles(values, n=4)`; fewer than
/// two values have no spread.
pub fn spread(values: &[f64], floor: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v).abs().max(floor)
}

/// The floor a metric's changes are measured against: `setup_s` has
/// [`SETUP_FLOOR_S`]; a percentage moves by its change in points.
fn floor_of(name: &str, unit: &str) -> f64 {
    match (name, unit) {
        ("setup_s", _) => SETUP_FLOOR_S,
        ("fidelity_pct", _) => 0.0,
        (_, "%") => 100.0,
        _ => 0.0,
    }
}

/// Whether per-layer metric `name` should move the end-to-end metrics of
/// `workload`.
fn tied(name: &str, workload: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|&(n, _, _, workloads)| n == name && workloads.contains(&workload))
}

/// One results file: the settings it was run with, its seed, and its
/// reports by workload.
#[derive(Debug)]
pub struct Run {
    /// `--seconds` and `--trace`, which both sides must share.
    pub settings: (f64, bool),
    /// `--seed`.
    pub seed: u64,
    /// Reports by workload.
    pub workloads: BTreeMap<String, Report>,
}

/// Reads a results file.
///
/// # Errors
///
/// A description of the file or field that could not be read.
pub fn load_run(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |key: &str| v.get(key).ok_or(format!("{path}: no '{key}'"));
    let Some(JsonValue::Obj(workloads)) = v.get("workloads") else {
        return Err(format!("{path}: no 'workloads' object"));
    };
    Ok(Run {
        settings: (
            field("seconds")?
                .as_f64()
                .ok_or(format!("{path}: bad 'seconds'"))?,
            field("trace")?
                .as_bool()
                .ok_or(format!("{path}: bad 'trace'"))?,
        ),
        seed: field("seed")?
            .as_u64()
            .ok_or(format!("{path}: bad 'seed'"))?,
        workloads: workloads
            .iter()
            .map(|(name, r)| {
                Ok((
                    name.clone(),
                    Report::from_json(r).map_err(|e| format!("{path}: {name}: {e}"))?,
                ))
            })
            .collect::<Result<_, String>>()?,
    })
}

/// One workload's runs on one side: `(seed, metrics)` per run.
pub type Side<'a> = Vec<(u64, &'a BTreeMap<String, Metric>)>;

/// The verdict on one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// Metrics worse than their bound: `(name, worsening, bound)`.
    pub regressed: Vec<(String, f64, f64)>,
    /// Metrics whose spread is wider than their bound: `(name, spread,
    /// bound)`.
    pub unresolved: Vec<(String, f64, f64)>,
    /// End-to-end metrics absent from some run.
    pub missing: Vec<String>,
    /// Exact metrics that differ between runs with the same seed.
    pub changed: Vec<String>,
    /// Seeds run on both sides.
    pub common_seeds: usize,
    /// The per-layer metric tied to this workload that got worse by the
    /// largest share.
    pub moved_most: Option<(String, f64)>,
}

impl Row {
    /// `FAILED`, `CHANGED`, `REGRESSED`, `UNRESOLVED` or `ok`, the first
    /// that applies; `correct` is whether every candidate run passed its
    /// gates.
    pub fn verdict(&self, correct: bool) -> &'static str {
        if !correct || !self.missing.is_empty() {
            "FAILED"
        } else if !self.changed.is_empty() {
            "CHANGED"
        } else if !self.regressed.is_empty() {
            "REGRESSED"
        } else if !self.unresolved.is_empty() {
            "UNRESOLVED"
        } else {
            "ok"
        }
    }
}

/// The values of `name` in every run of `side`, or `None` when a run
/// lacks it.
fn values(side: &Side, name: &str) -> Option<Vec<f64>> {
    side.iter()
        .map(|(_, m)| m.get(name).map(|x| x.value))
        .collect::<Option<Vec<_>>>()
        .filter(|v| !v.is_empty())
}

/// Compares one workload's baseline runs `a` with its candidate runs `b`.
pub fn compare(workload: &str, a: &Side, b: &Side, end_to_end: &[Def], per_layer: &[Def]) -> Row {
    let mut row = Row::default();
    for d in end_to_end {
        let (Some(xa), Some(xb)) = (values(a, &d.name), values(b, &d.name)) else {
            row.missing.push(d.name.clone());
            continue;
        };
        let floor = floor_of(&d.name, &d.unit);
        let bound = d.bound.unwrap_or(0.0);
        let noise = spread(&xa, floor).max(spread(&xb, floor));
        let all_better = xb
            .iter()
            .all(|&y| xa.iter().all(|&x| worsening(x, y, &d.better, floor) < 0.0));
        let worse = worsening(median(&xa), median(&xb), &d.better, floor);
        if noise > bound && !all_better {
            row.unresolved.push((d.name.clone(), noise, bound));
        } else if worse > bound + 1e-12 {
            row.regressed.push((d.name.clone(), worse, bound));
        }
    }
    let by_seed: BTreeMap<u64, _> = b.iter().copied().collect();
    for (seed, ma) in a {
        let Some(mb) = by_seed.get(seed) else {
            continue;
        };
        row.common_seeds += 1;
        for (name, x) in ma.iter().filter(|(n, x)| is_exact(n, &x.unit)) {
            if mb.get(name).is_some_and(|y| y.value != x.value) && !row.changed.contains(name) {
                row.changed.push(name.clone());
            }
        }
    }
    for d in per_layer {
        if is_exact(&d.name, &d.unit) || !tied(&d.name, workload) {
            continue;
        }
        let (Some(xa), Some(xb)) = (values(a, &d.name), values(b, &d.name)) else {
            continue;
        };
        let moved = worsening(
            median(&xa),
            median(&xb),
            &d.better,
            floor_of(&d.name, &d.unit),
        );
        if moved > 0.0
            && moved.is_finite()
            && row.moved_most.as_ref().is_none_or(|(_, m)| moved > *m)
        {
            row.moved_most = Some((d.name.clone(), moved));
        }
    }
    row
}

/// The report of `workload` in every run that has one, with its seed.
fn pick<'a>(runs: &'a [Run], workload: &str) -> Vec<(u64, &'a Report)> {
    runs.iter()
        .filter_map(|r| r.workloads.get(workload).map(|w| (r.seed, w)))
        .collect()
}

/// Reads a comma-separated list of results files that share one set of
/// settings.
fn load_side(list: &str) -> Result<Vec<Run>, String> {
    let runs = list
        .split(',')
        .map(load_run)
        .collect::<Result<Vec<_>, _>>()?;
    if runs.windows(2).any(|w| w[0].settings != w[1].settings) {
        return Err(format!("{list}: runs with different --seconds or --trace"));
    }
    Ok(runs)
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: benchmark compare A.json[,A2.json...] B.json[,B2.json...]");
        return ExitCode::from(2);
    };
    let loaded = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| load_defs(&text))
        .and_then(|defs| Ok((defs, load_side(a)?, load_side(b)?)))
        .and_then(|(defs, ra, rb)| {
            if ra[0].settings == rb[0].settings {
                Ok((defs, ra, rb))
            } else {
                Err("the two sides ran with different --seconds or --trace".into())
            }
        });
    let ((end_to_end, per_layer), ra, rb) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    println!("{:<16} {:<10} detail", "workload", "verdict");
    for name in crate::WORKLOADS {
        let (xa, xb) = (pick(&ra, name), pick(&rb, name));
        if xa.is_empty() || xb.is_empty() {
            continue;
        }
        let sa: Side = xa.iter().map(|&(s, r)| (s, &r.metrics)).collect();
        let sb: Side = xb.iter().map(|&(s, r)| (s, &r.metrics)).collect();
        let row = compare(name, &sa, &sb, &end_to_end, &per_layer);
        let failures: Vec<&str> = xb
            .iter()
            .flat_map(|(_, r)| r.failures.iter().map(String::as_str))
            .collect();
        let verdict = row.verdict(xb.iter().all(|(_, r)| r.correct()));
        ok &= matches!(verdict, "ok" | "UNRESOLVED");
        println!(
            "{name:<16} {verdict:<10} {}",
            detail(&row, &failures, &xb).join("; ")
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The detail column of one workload's row.
fn detail(row: &Row, failures: &[&str], candidate: &[(u64, &Report)]) -> Vec<String> {
    let mut out: Vec<String> = row
        .regressed
        .iter()
        .map(|(m, w, bound)| format!("{m} {:+.1}% worse (bound {:.0}%)", w * 100.0, bound * 100.0))
        .collect();
    if !row.regressed.is_empty() {
        let traced = candidate
            .iter()
            .any(|(_, r)| PER_LAYER.iter().any(|m| r.metrics.contains_key(m.0)));
        out.push(match &row.moved_most {
            Some((layer, moved)) => {
                format!("layer moved most: {layer} {:+.1}% worse", moved * 100.0)
            }
            None if traced => "no layer metric of this workload got worse".into(),
            None => "no per-layer metrics to attribute it (run with --trace 1)".into(),
        });
    }
    out.extend(row.unresolved.iter().map(|(m, s, bound)| {
        format!(
            "{m} unresolved: spread {:.1}% exceeds bound {:.1}%",
            s * 100.0,
            bound * 100.0
        )
    }));
    out.extend(
        row.changed
            .iter()
            .map(|m| format!("{m} changed on the same seed")),
    );
    if row.common_seeds == 0 {
        out.push("no seed run on both sides: exact values not compared".into());
    }
    out.extend(row.missing.iter().map(|m| format!("{m} missing")));
    if !failures.is_empty() {
        out.push(format!("gates failed: {}", failures.join("; ")));
    }
    if out.is_empty() {
        out.push("every end-to-end metric within its bound".into());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, Metric> {
        pairs
            .iter()
            .map(|&(n, v)| {
                let unit = if n.contains("polls") {
                    "count"
                } else if n.ends_with("_pct") {
                    "%"
                } else {
                    "s"
                };
                (
                    n.to_string(),
                    Metric {
                        value: v,
                        unit: unit.into(),
                        n: 1,
                    },
                )
            })
            .collect()
    }

    fn def(name: &str, unit: &str, better: &str, bound: Option<f64>) -> Def {
        Def {
            name: name.into(),
            unit: unit.into(),
            better: better.into(),
            bound,
        }
    }

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        assert!(worsening(10.0, 11.0, "lower", 0.0) <= 0.1 + 1e-12);
        assert!(worsening(10.0, 11.01, "lower", 0.0) > 0.1);
        assert!(worsening(10.0, 8.9, "higher", 0.0) > 0.1);
        assert!(
            worsening(10.0, 5.0, "lower", 0.0) < 0.0,
            "improvements pass"
        );
        assert_eq!(worsening(0.0, 0.0, "lower", 0.0), 0.0);
        assert!(worsening(0.0, 1.0, "lower", 0.0).is_infinite());
        // A set-up of 70 µs that doubles moves by 0.7% of the 10 ms floor.
        let w = worsening(70e-6, 140e-6, "lower", SETUP_FLOOR_S);
        assert!((w - 0.007).abs() < 1e-12, "{w}");
    }

    #[test]
    fn spread_matches_python_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v, 0.0) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert!((spread(&[3.0, 1.0], 0.0) - 3.0 / 2.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0], 0.0), 0.0);
        assert!((spread(&v, 100.0) - 5.5 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn a_regression_names_a_layer_of_that_workload() {
        let e2e = vec![def("wall_s", "s", "lower", Some(0.1))];
        let layers = vec![
            def("core.execute_s", "s", "lower", None),
            def("sched.dispatch_us", "us", "lower", None),
            def("soc.build_ms", "ms", "lower", None),
            def("sim.polls", "count", "lower", None),
        ];
        let a = metrics(&[
            ("wall_s", 10.0),
            ("core.execute_s", 8.0),
            ("sched.dispatch_us", 1.0),
            ("soc.build_ms", 1.0),
            ("sim.polls", 5.0),
        ]);
        // soc.build_ms got better; sched.dispatch_us got much worse but is
        // a campaign layer, so it does not explain a Table I regression.
        let b = metrics(&[
            ("wall_s", 12.0),
            ("core.execute_s", 10.0),
            ("sched.dispatch_us", 9.0),
            ("soc.build_ms", 0.1),
            ("sim.polls", 5.0),
        ]);
        let row = compare(
            "table1_accurate",
            &vec![(1, &a)],
            &vec![(1, &b)],
            &e2e,
            &layers,
        );
        assert_eq!(row.regressed.len(), 1);
        assert_eq!(row.moved_most.as_ref().unwrap().0, "core.execute_s");
        assert_eq!(row.verdict(true), "REGRESSED");
        let row = compare(
            "campaign_full",
            &vec![(1, &a)],
            &vec![(1, &b)],
            &e2e,
            &layers,
        );
        assert_eq!(row.moved_most.as_ref().unwrap().0, "sched.dispatch_us");
        let same = compare(
            "table1_accurate",
            &vec![(1, &a)],
            &vec![(1, &a)],
            &e2e,
            &layers,
        );
        assert_eq!(same.verdict(true), "ok");
        assert_eq!(same.verdict(false), "FAILED");
        let empty = metrics(&[]);
        let missing = compare(
            "table1_accurate",
            &vec![(1, &a)],
            &vec![(1, &empty)],
            &e2e,
            &layers,
        );
        assert_eq!(missing.missing, vec!["wall_s".to_string()]);
        assert_eq!(missing.verdict(true), "FAILED");
    }

    #[test]
    fn exact_values_must_repeat_on_the_same_seed() {
        let e2e = vec![def("fidelity_pct", "%", "higher", Some(0.001))];
        let layers = vec![def("sim.polls", "count", "lower", None)];
        let a = metrics(&[("fidelity_pct", 84.2), ("sim.polls", 5.0)]);
        let b = metrics(&[("fidelity_pct", 84.2), ("sim.polls", 6.0)]);
        let row = compare(
            "table1_loose",
            &vec![(1, &a)],
            &vec![(1, &b)],
            &e2e,
            &layers,
        );
        assert_eq!(row.changed, vec!["sim.polls".to_string()]);
        assert_eq!(row.verdict(true), "CHANGED");
        // Different seeds have different inputs: counts are not compared.
        let row = compare(
            "table1_loose",
            &vec![(1, &a)],
            &vec![(2, &b)],
            &e2e,
            &layers,
        );
        assert!(row.changed.is_empty() && row.common_seeds == 0);
        // Lost accuracy is a change on the same seed and a regression on
        // any seed.
        let worse = metrics(&[("fidelity_pct", 70.0), ("sim.polls", 5.0)]);
        let row = compare(
            "table1_loose",
            &vec![(1, &a)],
            &vec![(1, &worse)],
            &e2e,
            &layers,
        );
        assert_eq!(row.changed, vec!["fidelity_pct".to_string()]);
        let row = compare(
            "table1_loose",
            &vec![(1, &a)],
            &vec![(2, &worse)],
            &e2e,
            &layers,
        );
        assert_eq!(row.verdict(true), "REGRESSED");
    }

    fn side(runs: &[BTreeMap<String, Metric>]) -> Side<'_> {
        runs.iter()
            .enumerate()
            .map(|(i, m)| (i as u64, m))
            .collect()
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let e2e = vec![def("wall_s", "s", "lower", Some(0.1))];
        let runs = |walls: &[f64]| -> Vec<BTreeMap<String, Metric>> {
            walls.iter().map(|&w| metrics(&[("wall_s", w)])).collect()
        };
        let noisy = runs(&[8.0, 10.0, 12.0, 9.0, 11.0]);
        let steady = runs(&[10.0, 10.1, 9.9, 10.0, 10.05]);
        let faster = runs(&[7.0, 7.1, 6.9, 7.0, 7.05]);
        let row = compare("table1_loose", &side(&noisy), &side(&steady), &e2e, &[]);
        assert_eq!(row.verdict(true), "UNRESOLVED");
        // Unless every candidate run beats every baseline run.
        let row = compare("table1_loose", &side(&noisy), &side(&faster), &e2e, &[]);
        assert_eq!(row.verdict(true), "ok");
        let row = compare("table1_loose", &side(&faster), &side(&steady), &e2e, &[]);
        assert_eq!(row.verdict(true), "REGRESSED");
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let (e2e, layers) = load_defs(text).unwrap();
        let names = |defs: &[Def]| {
            defs.iter()
                .map(|d| (d.name.clone(), d.unit.clone(), d.better.clone()))
                .collect::<Vec<_>>()
        };
        let table = |t: &mut dyn Iterator<Item = (&str, &str, &str)>| {
            t.map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            names(&e2e),
            table(&mut crate::report::END_TO_END.into_iter())
        );
        assert_eq!(
            names(&layers),
            table(&mut PER_LAYER.iter().map(|&(n, u, b, _)| (n, u, b)))
        );
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e.iter().find(|d| d.name == "setup_s").unwrap().bound;
        assert!(
            e2e.iter().all(|d| d.bound <= setup),
            "setup_s has the largest bound"
        );
        let v = parse_json(text).unwrap();
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        for (name, _, _, tied) in PER_LAYER {
            assert!(tied.iter().all(|w| crate::WORKLOADS.contains(w)), "{name}");
        }
    }
}
