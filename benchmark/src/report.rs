//! Metric names, the per-workload report, and the pass/set-up timers
//! every workload shares.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tve_obs::{append_json_string, JsonValue};

use crate::host::{self, HostRef};
use crate::scenario::Counts;
use crate::stats::{self, percentile};
use crate::trace::{durations_s, Span};

/// `(name, unit, better)` of every end-to-end metric. Every workload
/// reports all of them; `BENCHMARK.json` lists the same set.
///
/// Each is a median over the whole run; Table I and serve timings are
/// scaled to a nominal host speed ([`Report::calibrate`]). Tail
/// latencies are per-layer metrics instead: a 99th percentile rests on a
/// few dozen slow items, and on a shared host those move with every host
/// hiccup.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("fidelity_pct", "%", "higher"),
];

/// `compare` measures a `setup_s` change against at least this many
/// seconds: set-ups of microseconds swing by tens of percent between
/// processes, and a change of a few microseconds is not a regression.
pub const SETUP_FLOOR_S: f64 = 0.01;

const TABLE1: &[&str] = &["table1_accurate", "table1_loose"];
const CAMPAIGN: &[&str] = &["campaign_full"];
const SERVE: &[&str] = &["serve_mix"];
const ALL: &[&str] = &crate::WORKLOADS;

/// `(name, unit, better, workloads)` of every per-layer metric, reported
/// by traced runs of every workload. `workloads` are those whose
/// end-to-end metrics the layer metric should move; `compare` blames a
/// regression only on a layer metric tied to the regressed workload.
pub const PER_LAYER: [(&str, &str, &str, &[&str]); 26] = [
    ("sim.polls", "count", "lower", TABLE1),
    ("sim.timers_fired", "count", "lower", TABLE1),
    ("sim.sync_points", "count", "lower", TABLE1),
    ("sim.host_ns_per_poll", "ns", "lower", TABLE1),
    (
        "sim.timer_events_per_s",
        "1/s",
        "higher",
        &["table1_accurate"],
    ),
    ("tlm.transfers", "count", "lower", TABLE1),
    ("tlm.monitor_us", "us", "lower", TABLE1),
    ("tlm.bus_transfers_per_s", "1/s", "higher", TABLE1),
    ("core.execute_s", "s", "lower", ALL),
    ("core.tam_bits", "count", "lower", TABLE1),
    (
        "soc.build_ms",
        "ms",
        "lower",
        &["table1_accurate", "table1_loose", "campaign_full"],
    ),
    ("soc.test_runs_ms", "ms", "lower", TABLE1),
    ("tpg.prpg_patterns_per_s", "1/s", "higher", CAMPAIGN),
    ("tpg.misr_words_per_s", "1/s", "higher", CAMPAIGN),
    ("tpg.reseed_decompress_per_s", "1/s", "higher", CAMPAIGN),
    (
        "lint.envelope_us",
        "us",
        "lower",
        &["table1_accurate", "table1_loose", "serve_mix"],
    ),
    ("sched.dispatch_us", "us", "lower", CAMPAIGN),
    ("campaign.cell_ms", "ms", "lower", CAMPAIGN),
    ("campaign.diagnosis_ms", "ms", "lower", CAMPAIGN),
    ("campaign.cell_p99_ms", "ms", "lower", CAMPAIGN),
    ("serve.overhead_us_p50", "us", "lower", SERVE),
    ("serve.hit_rate_pct", "%", "higher", SERVE),
    ("serve.rtt_p99_ms", "ms", "lower", SERVE),
    ("obs.recorder_share_pct", "%", "lower", CAMPAIGN),
    ("obs.trace_overhead_pct", "%", "lower", &[]),
    ("host.ref_ms", "ms", "lower", &[]),
];

/// Whether a metric must repeat exactly on the same inputs: the work
/// counts, and the accuracy of the results.
pub fn is_exact(name: &str, unit: &str) -> bool {
    unit == "count" || name == "fidelity_pct"
}

/// The unit of a known metric name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, unit, _)| (n, unit))
        .chain(PER_LAYER.iter().map(|&(n, unit, _, _)| (n, unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// How many samples it summarizes.
    pub n: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Work items attempted in the measured passes.
    pub attempted: u64,
    /// Work items that failed, plus failed gates.
    pub failed: u64,
    /// Correctness gates that did not hold.
    pub failures: Vec<String>,
    /// Every metric measured, by name.
    pub metrics: BTreeMap<String, Metric>,
    /// The traced pass (empty when tracing is off).
    pub spans: Vec<Span>,
    /// Times of the host reference kernel (see [`host`]).
    pub host_ref_s: Vec<f64>,
}

impl Report {
    /// Records metric `name` (unit from the metric tables).
    pub fn put(&mut self, name: &str, value: f64, n: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit_of(name).to_string(),
                n,
            },
        );
    }

    /// Records a correctness gate; a gate that fails is counted and kept
    /// by name.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("GATE FAILED: {what}");
            self.failed += 1;
            self.failures.push(what);
        }
    }

    /// Records `p50_ms` over per-item latencies (seconds), and their 99th
    /// percentile as per-layer metric `tail` when one is given.
    pub fn latencies(&mut self, items_s: &[f64], tail: Option<&str>) {
        let ms: Vec<f64> = items_s.iter().map(|s| s * 1e3).collect();
        let wanted = [("p50_ms", 50.0)]
            .into_iter()
            .chain(tail.map(|name| (name, 99.0)));
        for (name, p) in wanted {
            let Some(pct) = percentile(&ms, p) else {
                self.gate(false, || format!("{name}: no items were measured"));
                continue;
            };
            if p > 50.0 && !pct.supported() {
                eprintln!(
                    "note: {name} rests on {} items with {} beyond it (fewer than 10)",
                    pct.n, pct.beyond
                );
            }
            self.put(name, pct.value, pct.n);
        }
    }

    /// Per-layer metrics of the decomposed scenarios in the traced pass:
    /// exact kernel/TLM/core counts and the host time of each layer call.
    pub fn put_scenario_layers(&mut self, counts: &Counts) {
        let exec = durations_s(&self.spans, "core.execute");
        let exec_s: f64 = exec.iter().sum();
        self.put("sim.polls", counts.polls as f64, 1);
        self.put("sim.timers_fired", counts.timers_fired as f64, 1);
        self.put("sim.sync_points", counts.sync_points as f64, 1);
        self.put(
            "sim.host_ns_per_poll",
            exec_s * 1e9 / counts.polls.max(1) as f64,
            exec.len(),
        );
        self.put("tlm.transfers", counts.transfers as f64, 1);
        self.put("core.execute_s", exec_s, exec.len());
        self.put("core.tam_bits", counts.tam_bits as f64, 1);
        for (metric, span, scale) in [
            ("soc.build_ms", "soc.build", 1e3),
            ("soc.test_runs_ms", "soc.test_runs", 1e3),
            ("tlm.monitor_us", "tlm.monitor", 1e6),
            ("lint.envelope_us", "lint.envelope", 1e6),
        ] {
            let d = durations_s(&self.spans, span);
            self.put(metric, stats::median(&d) * scale, d.len());
        }
        self.gate(counts.rejected == 0, || {
            format!("the bus rejected {} transactions", counts.rejected)
        });
    }

    /// Scales every timing to the nominal host speed (times by
    /// `NOMINAL_REF_S / r`, rates by its inverse, `r` the median host
    /// reference time) and records `r` as `host.ref_ms`, from which the
    /// raw values follow. A workload that times no reference keeps its
    /// raw timings and reports `host.ref_ms` as 0 with n = 0.
    pub fn calibrate(&mut self) {
        let r = stats::median(&self.host_ref_s);
        if !self.host_ref_s.is_empty() {
            let factor = host::NOMINAL_REF_S / r;
            for m in self.metrics.values_mut() {
                match m.unit.as_str() {
                    "s" | "ms" | "us" | "ns" => m.value *= factor,
                    "1/s" => m.value /= factor,
                    _ => {}
                }
            }
        }
        self.put("host.ref_ms", r * 1e3, self.host_ref_s.len());
    }

    /// Whether every item succeeded and every gate held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The report as one JSON object (the child's result line and one
    /// entry of the results file).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            append_json_string(&mut out, f);
        }
        out.push_str("],\"metrics\":");
        out.push_str(&metrics_json(&self.metrics, |_| true, true));
        out.push('}');
        out
    }

    /// Reads back [`Report::to_json`] (spans are not carried).
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<Report, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("result lacks integer '{key}'"))
        };
        let failures = v
            .get("failures")
            .and_then(JsonValue::as_arr)
            .ok_or("result lacks 'failures'")?
            .iter()
            .map(|f| f.as_str().unwrap_or_default().to_string())
            .collect::<Vec<_>>();
        let JsonValue::Obj(members) = v.get("metrics").ok_or("result lacks 'metrics'")? else {
            return Err("'metrics' is not an object".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in members {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or(format!("metric {name} lacks a value"))?;
            let unit = m
                .get("unit")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            let n = m.get("n").and_then(JsonValue::as_u64).unwrap_or(1) as usize;
            metrics.insert(
                name.clone(),
                Metric {
                    value,
                    unit: unit.to_string(),
                    n,
                },
            );
        }
        Ok(Report {
            attempted: num("attempted")?,
            failed: num("failed")?,
            failures,
            metrics,
            spans: Vec::new(),
            host_ref_s: Vec::new(),
        })
    }
}

/// `{"name": {"value": v, "unit": u[, "n": n]}, ...}` over the metrics
/// `keep` selects. Values are written with every digit Rust prints.
pub fn metrics_json(
    metrics: &BTreeMap<String, Metric>,
    keep: impl Fn(&str) -> bool,
    with_n: bool,
) -> String {
    let mut out = String::from("{");
    for (name, m) in metrics.iter().filter(|(name, _)| keep(name)) {
        if out.len() > 1 {
            out.push(',');
        }
        append_json_string(&mut out, name);
        let _ = write!(out, ":{{\"value\":{:?},\"unit\":", m.value);
        append_json_string(&mut out, &m.unit);
        if with_n {
            let _ = write!(out, ",\"n\":{}", m.n);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// What [`timed_passes`] measured.
#[derive(Debug, Default)]
pub struct Passes {
    /// Each pass's wall time in seconds, host reference samples excluded.
    pub walls: Vec<f64>,
    /// Times of the host reference kernel the passes took.
    pub host_ref_s: Vec<f64>,
}

/// Runs `pass` until the time budget is spent: always once, then again
/// while one more pass of median length still ends within 115% of
/// `budget_s`. After every pass it runs `between`, untimed. A pass may
/// sample the host reference between its work units; that time is not
/// counted in its wall.
pub fn timed_passes(
    budget_s: f64,
    mut between: impl FnMut(),
    mut pass: impl FnMut(usize, &mut HostRef),
) -> Passes {
    let started = Instant::now();
    let mut host = HostRef::default();
    let mut walls = Vec::new();
    loop {
        let (t, sampled_s) = (Instant::now(), host.spent_s());
        pass(walls.len(), &mut host);
        walls.push(t.elapsed().as_secs_f64() - (host.spent_s() - sampled_s));
        between();
        if started.elapsed().as_secs_f64() + stats::median(&walls) > budget_s * 1.15 {
            eprintln!("pass walls (s): {walls:.3?}");
            return Passes {
                walls,
                host_ref_s: host.samples_s,
            };
        }
    }
}

/// Set-up repetitions per batch.
const SETUP_BATCH: usize = 100;

/// Set-up times of one run. They are taken in batches, one before the
/// first pass and one after every pass, so the median spans the whole run
/// and a burst of host load during one batch cannot move it.
#[derive(Debug, Default)]
pub struct SetupTimer(Vec<f64>);

impl SetupTimer {
    /// Runs and times `setup` once per batch repetition; returns the last
    /// result.
    pub fn batch<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..SETUP_BATCH {
            let t = Instant::now();
            last = Some(setup());
            self.0.push(t.elapsed().as_secs_f64());
        }
        last.expect("a batch runs at least once")
    }

    /// Records the median set-up time as `setup_s`.
    pub fn put(&self, report: &mut Report) {
        report.put("setup_s", stats::median(&self.0), self.0.len());
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_obs::parse_json;

    #[test]
    fn report_round_trips_through_json() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        r.put("wall_s", 7.123456789, 3);
        r.put("sim.polls", 42.0, 1);
        r.gate(false, || "digest \"moved\"".into());
        let back = Report::from_json(&parse_json(&r.to_json()).unwrap()).unwrap();
        assert_eq!(back.attempted, 12);
        assert_eq!(back.failures, r.failures);
        assert_eq!(back.metrics, r.metrics);
        assert!(!back.correct());
    }

    #[test]
    fn latencies_record_percentiles_with_n() {
        let mut r = Report::default();
        let items: Vec<f64> = (1..=2000).map(|i| f64::from(i) / 1e3).collect();
        r.latencies(&items, Some("serve.rtt_p99_ms"));
        assert_eq!(r.metrics["p50_ms"].value, 1000.0);
        assert_eq!(r.metrics["serve.rtt_p99_ms"].value, 1980.0);
        assert_eq!(r.metrics["serve.rtt_p99_ms"].n, 2000);
        let mut rows = Report::default();
        rows.latencies(&[4.0, 1.0, 3.0, 2.0], None);
        assert_eq!(rows.metrics["p50_ms"].value, 2000.0);
        assert_eq!(rows.metrics.len(), 1, "no tail without a name for it");
    }

    #[test]
    fn passes_stop_at_the_budget() {
        let passes = timed_passes(0.0, || {}, |_, _| {});
        assert_eq!(passes.walls.len(), 1);
        assert!(passes.host_ref_s.is_empty());
        let (mut calls, mut betweens) = (0, 0);
        let passes = timed_passes(
            0.05,
            || betweens += 1,
            |_, _| {
                calls += 1;
                std::thread::sleep(std::time::Duration::from_millis(10));
            },
        );
        assert_eq!(passes.walls.len(), calls);
        assert_eq!(betweens, calls);
        assert!((2..=6).contains(&calls), "{calls} passes");
    }

    #[test]
    fn host_samples_inside_a_pass_are_not_its_wall() {
        let passes = timed_passes(
            0.0,
            || {},
            |_, host| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                host.after(1.0);
            },
        );
        let sampled: f64 = passes.host_ref_s.iter().sum();
        assert!(passes.host_ref_s.len() > 1);
        assert!(passes.walls[0] >= 0.01, "{:?}", passes.walls);
        assert!(passes.walls[0] < 0.01 + sampled / 2.0, "{:?}", passes.walls);
    }

    #[test]
    fn calibration_scales_times_and_rates_only() {
        let mut r = Report {
            host_ref_s: vec![2.0 * host::NOMINAL_REF_S; 3],
            ..Report::default()
        };
        r.put("wall_s", 2.0, 3);
        r.put("sim.polls", 10.0, 1);
        r.put("tpg.misr_words_per_s", 100.0, 3);
        r.put("fidelity_pct", 84.0, 12);
        r.calibrate();
        assert_eq!(r.metrics["wall_s"].value, 1.0, "a slow host halves times");
        assert_eq!(r.metrics["tpg.misr_words_per_s"].value, 200.0);
        assert_eq!(r.metrics["sim.polls"].value, 10.0);
        assert_eq!(r.metrics["fidelity_pct"].value, 84.0);
        let ref_ms = &r.metrics["host.ref_ms"];
        assert_eq!((ref_ms.value, ref_ms.n), (2e3 * host::NOMINAL_REF_S, 3));
        let mut raw = Report::default();
        raw.put("wall_s", 2.0, 3);
        raw.calibrate();
        assert_eq!(raw.metrics["wall_s"].value, 2.0, "no samples, no scaling");
        assert_eq!(raw.metrics["host.ref_ms"].n, 0);
    }

    #[test]
    fn setup_batches_pool_into_one_median() {
        let mut timer = SetupTimer::default();
        assert_eq!(timer.batch(|| 5), 5);
        timer.batch(|| ());
        let mut r = Report::default();
        timer.put(&mut r);
        assert_eq!(r.metrics["setup_s"].n, 2 * SETUP_BATCH);
        assert!(r.metrics["setup_s"].value >= 0.0);
    }
}
