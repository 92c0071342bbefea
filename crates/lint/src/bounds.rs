//! Certified static performance envelopes: an interval abstract
//! interpretation over the case-study's task/resource model.
//!
//! Where the scheduler's fluid estimate over each test's
//! [`TestModel::nominal`] time gives one *point* estimate per schedule —
//! openly unsound in both directions — this module computes a certified
//! `[lo, hi]` **envelope** per schedule for three observables of a
//! simulated [`tve_soc::ScenarioMetrics`]:
//!
//! * total test length in cycles,
//! * per-TAM-channel busy cycles (the summed slot spans of the bus-fed and
//!   serial-fed tests), and
//! * peak instantaneous power (when the SoC's power model is enabled).
//!
//! `lo` assumes best-case overlap (every concurrent test runs at its
//! physical floor: scan-shift length or channel bandwidth, whichever
//! binds); `hi` assumes worst-case arbitration (every transaction of a
//! phase fully serialized, plus configuration-ring, drain and
//! loosely-timed slack). The soundness contract — every simulated run
//! lands inside its envelope, across generated SoCs, both TAM channels,
//! accurate and quantum mode — is machine-checked by
//! `tests/bounds_contract.rs`.
//!
//! The envelopes power `tve-sched::explore_certified`: a candidate whose
//! *lower* bound is already dominated by a simulated incumbent can be
//! discarded with a proof instead of simulated.
//!
//! Envelopes assume a healthy TAM (no [`tve_soc::SocConfig::tam_fault`])
//! and a well-formed schedule; a test sequence that aborts on transport
//! errors can finish arbitrarily early.

use std::fmt;
use std::fmt::Write as _;

use tve_core::{DataPolicy, Schedule};
use tve_soc::{ScenarioMetrics, SocConfig, SocTestPlan};

use crate::facts::TamChannel;
use crate::model::{test_model, Cost, TestModel};

/// Pinned schema version of the bounds JSON report (satellite of the
/// lint report's `format_version`; bump on any shape change).
pub(crate) const BOUNDS_FORMAT_VERSION: u64 = 1;

/// A closed integer interval `[lo, hi]` in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl Interval {
    /// The degenerate `[0, 0]` interval.
    pub const ZERO: Interval = Interval { lo: 0, hi: 0 };

    /// Whether `v` lies inside the interval.
    pub(crate) fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// A closed floating-point interval for power figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerInterval {
    /// Inclusive lower bound.
    pub(crate) lo: f64,
    /// Inclusive upper bound.
    pub(crate) hi: f64,
}

impl PowerInterval {
    /// Whether `v` lies inside the interval.
    pub(crate) fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// Certified stand-alone bounds of one test sequence, derived from its
/// [`TestModel`] row.
#[derive(Debug, Clone)]
pub struct TaskBounds {
    /// The test's row (its name and TAM channel classify simulated slots).
    pub(crate) test: TestModel,
    /// Slot-span envelope when the test runs alone: contention only
    /// lengthens a slot, so `slot.lo` also bounds the test inside any
    /// phase.
    pub(crate) slot: Interval,
    /// Maximum instantaneous power contribution under the SoC's power
    /// model (0 when the model is disabled).
    pub(crate) power_hi: f64,
    /// Guaranteed dissipated energy (power × cycles; 0 when the model is
    /// disabled or the test may legally skip its patterns).
    pub(crate) energy_lo: f64,
}

/// The certified envelope of one schedule.
#[derive(Debug, Clone)]
pub struct ScheduleEnvelope {
    /// Schedule name.
    pub(crate) schedule: String,
    /// Loosely-timed quantum the envelope covers (0 = cycle-accurate).
    pub(crate) quantum: u64,
    /// Envelope on [`ScenarioMetrics::total_cycles`].
    pub total: Interval,
    /// Envelope on the summed slot spans of bus-channel tests.
    pub(crate) bus_busy: Interval,
    /// Envelope on the summed slot spans of serial-channel tests.
    pub(crate) serial_busy: Interval,
    /// Envelope on the simulated peak windowed power, when the SoC config
    /// enables the power model.
    pub(crate) peak_power: Option<PowerInterval>,
    /// Per-phase span envelopes, in schedule order.
    pub(crate) phases: Vec<Interval>,
}

/// The simulated observables an envelope constrains, extracted from a
/// [`ScenarioMetrics`] with [`observe_metrics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeObservables {
    /// Simulated total test length.
    pub(crate) total_cycles: u64,
    /// Summed slot spans of the bus-channel tests.
    pub(crate) bus_busy: u64,
    /// Summed slot spans of the serial-channel tests.
    pub(crate) serial_busy: u64,
    /// Simulated peak windowed power, when metered.
    pub peak_power: Option<f64>,
}

/// Extracts the envelope observables from simulated metrics, classifying
/// each slot by the TAM channel of the same-named task in `tasks`.
pub fn observe_metrics(metrics: &ScenarioMetrics, tasks: &[TaskBounds]) -> EnvelopeObservables {
    let mut bus = 0u64;
    let mut serial = 0u64;
    for slot in &metrics.result.slots {
        let span = slot
            .outcome
            .end
            .cycles()
            .saturating_sub(slot.outcome.start.cycles());
        match tasks
            .iter()
            .find(|t| t.test.name == slot.outcome.name)
            .map(|t| t.test.channel)
        {
            Some(TamChannel::Serial) => serial += span,
            _ => bus += span,
        }
    }
    EnvelopeObservables {
        total_cycles: metrics.total_cycles,
        bus_busy: bus,
        serial_busy: serial,
        peak_power: metrics.power.as_ref().map(|p| p.peak),
    }
}

impl ScheduleEnvelope {
    /// Checks simulated observables against the envelope; returns one
    /// violation description per observable outside its interval (empty =
    /// the run is inside the envelope).
    pub fn check(&self, obs: &EnvelopeObservables) -> Vec<String> {
        let mut v = Vec::new();
        if !self.total.contains(obs.total_cycles) {
            v.push(format!(
                "total {} outside {} ({})",
                obs.total_cycles, self.total, self.schedule
            ));
        }
        if !self.bus_busy.contains(obs.bus_busy) {
            v.push(format!(
                "bus busy {} outside {} ({})",
                obs.bus_busy, self.bus_busy, self.schedule
            ));
        }
        if !self.serial_busy.contains(obs.serial_busy) {
            v.push(format!(
                "serial busy {} outside {} ({})",
                obs.serial_busy, self.serial_busy, self.schedule
            ));
        }
        if let (Some(env), Some(peak)) = (self.peak_power, obs.peak_power) {
            if !env.contains(peak) {
                v.push(format!(
                    "peak power {:.3} outside [{:.3}, {:.3}] ({})",
                    peak, env.lo, env.hi, self.schedule
                ));
            }
        }
        v
    }
}

/// Derives the certified stand-alone bounds of the seven case-study test
/// sequences: each [`test_model`] row's envelope at `quantum` (the
/// loosely-timed quantum the bounds must cover; 0 = cycle-accurate), with
/// its power figures under the SoC's power model.
pub fn task_bounds(config: &SocConfig, plan: &SocTestPlan, quantum: u64) -> Vec<TaskBounds> {
    let full = plan.policy == DataPolicy::Full;
    test_model(config, plan)
        .iter()
        .map(|m| {
            let t = &m.terms;
            // Scan power scales with the chain count. Volume transfers
            // shift with zero toggle density, full data with up to 1, and
            // a test that may skip its patterns guarantees no energy.
            let (power_hi, energy_lo) = match (config.power, t.cost) {
                (None, _) => (0.0, 0.0),
                (Some(p), Cost::ControllerMarch | Cost::ProcessorMarch) => {
                    (p.memory_op, t.count as f64 * p.memory_op)
                }
                (Some(p), cost) => {
                    let scale = f64::from(t.chains) / 32.0;
                    let toggle = if full { p.wrapper_toggle } else { 0.0 };
                    let lo = match cost {
                        Cost::Compressed(_, _, true) => 0.0,
                        _ => scale * p.wrapper_base * (t.chain * t.count) as f64,
                    };
                    (scale * (p.wrapper_base + toggle), lo)
                }
            };
            TaskBounds {
                test: *m,
                slot: m.envelope(quantum),
                power_hi,
                energy_lo,
            }
        })
        .collect()
}

/// Computes the certified envelope of `schedule` over the plan's seven
/// tests: per-phase best-case overlap (`max` of member floors) and
/// worst-case serialization (sum of member ceilings plus arbitration
/// margin), composed sequentially.
///
/// Indices outside the task list are ignored — the envelope of a
/// structurally defective schedule is still computable (and linting is
/// what flags the defect).
pub fn schedule_envelope(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    quantum: u64,
) -> ScheduleEnvelope {
    let tasks = task_bounds(config, plan, quantum);
    let mut total = Interval::ZERO;
    let mut bus = Interval::ZERO;
    let mut serial = Interval::ZERO;
    let mut phases = Vec::with_capacity(schedule.phases.len());
    let mut inst_power_max = 0.0f64;
    let mut energy_lo = 0.0f64;

    for phase in &schedule.phases {
        let members: Vec<&TaskBounds> = phase.iter().filter_map(|&t| tasks.get(t)).collect();
        if members.is_empty() {
            phases.push(Interval::ZERO);
            continue;
        }
        let p_lo = members.iter().map(|t| t.slot.lo).max().unwrap_or(0);
        let sum_hi: u64 = members.iter().map(|t| t.slot.hi).sum();
        // Arbitration margin: interleaved grants can cost slightly more
        // than back-to-back serialization.
        let p_hi = sum_hi + sum_hi / 8 + 64;
        total.lo += p_lo;
        total.hi += p_hi;
        for t in &members {
            let ch = match t.test.channel {
                TamChannel::Bus => &mut bus,
                TamChannel::Serial => &mut serial,
            };
            ch.lo += t.slot.lo;
            ch.hi += p_hi;
            energy_lo += t.energy_lo;
        }
        if let Some(p) = config.power {
            let inst: f64 = members.iter().map(|t| t.power_hi).sum::<f64>() + p.bus_active;
            inst_power_max = inst_power_max.max(inst);
        }
        phases.push(Interval { lo: p_lo, hi: p_hi });
    }
    total.hi += 64;

    let peak_power = config.power.map(|p| {
        // Peak is a windowed average, so it can never exceed the maximum
        // instantaneous sum of any phase (plus loosely-timed bunching);
        // and it is at least the whole-run average, which the guaranteed
        // energy over the span ceiling (at least 64 cycles) bounds from
        // below.
        let bunching = 1.0 + (2.0 * quantum as f64 + 64.0) / p.window.max(1) as f64;
        let hi = inst_power_max * bunching + 1.0;
        let lo = energy_lo / (total.hi as f64 + p.window as f64);
        PowerInterval { lo, hi }
    });

    ScheduleEnvelope {
        schedule: schedule.name.clone(),
        quantum,
        total,
        bus_busy: bus,
        serial_busy: serial,
        peak_power,
        phases,
    }
}

/// [`schedule_envelope`] over a batch of schedules.
pub fn schedule_envelopes(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedules: &[Schedule],
    quantum: u64,
) -> Vec<ScheduleEnvelope> {
    schedules
        .iter()
        .map(|s| schedule_envelope(config, plan, s, quantum))
        .collect()
}

fn interval_json(i: Interval) -> String {
    format!("{{\"lo\": {}, \"hi\": {}}}", i.lo, i.hi)
}

/// Bundles envelopes into one JSON artifact — a versioned
/// `{"format_version": …, "reports": […]}` object ending with a newline,
/// emitted serde-free like the lint artifacts. The rendering is a pure
/// function of its inputs, so a daemon-served bounds response is
/// byte-identical to a locally computed one.
pub fn bounds_reports_to_json(envelopes: &[ScheduleEnvelope]) -> String {
    let mut out = format!("{{\n  \"format_version\": {BOUNDS_FORMAT_VERSION},\n  \"reports\": [\n");
    for (i, e) in envelopes.iter().enumerate() {
        let sep = if i + 1 < envelopes.len() { "," } else { "" };
        let power = match e.peak_power {
            Some(p) => format!("{{\"lo\": {:.3}, \"hi\": {:.3}}}", p.lo, p.hi),
            None => "null".to_string(),
        };
        let phases: Vec<String> = e.phases.iter().map(|&p| interval_json(p)).collect();
        let _ = writeln!(
            out,
            "  {{\"schedule\": {}, \"quantum\": {}, \"total\": {}, \"bus_busy\": {}, \
             \"serial_busy\": {}, \"peak_power\": {}, \"phases\": [{}]}}{}",
            tve_obs::json_string(&e.schedule),
            e.quantum,
            interval_json(e.total),
            interval_json(e.bus_busy),
            interval_json(e.serial_busy),
            power,
            phases.join(", "),
            sep
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders envelopes as a human-readable table (one row per schedule).
pub fn bounds_table(envelopes: &[ScheduleEnvelope]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>24} {:>24} {:>24} {:>18}",
        "schedule",
        "total [lo, hi] Mcycles",
        "bus busy [Mcycles]",
        "serial busy [Mcycles]",
        "peak power [lo, hi]"
    );
    for e in envelopes {
        let m = |i: Interval| format!("[{:.2}, {:.2}]", i.lo as f64 / 1e6, i.hi as f64 / 1e6);
        let p = match e.peak_power {
            Some(p) => format!("[{:.1}, {:.1}]", p.lo, p.hi),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<32} {:>24} {:>24} {:>24} {:>18}",
            e.schedule,
            m(e.total),
            m(e.bus_busy),
            m(e.serial_busy),
            p
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_soc::paper_schedules;

    #[test]
    fn paper_envelopes_bracket_the_published_lengths() {
        let config = SocConfig::paper();
        let plan = SocTestPlan::paper();
        let sims = [283e6, 213e6, 265e6, 172e6]; // Table I, in cycles
        for (schedule, sim) in paper_schedules().iter().zip(sims) {
            let env = schedule_envelope(&config, &plan, schedule, 0);
            assert!(
                (env.total.lo as f64) < sim && sim < env.total.hi as f64,
                "{}: {} vs {sim}",
                schedule.name,
                env.total
            );
            assert!(env.total.lo > 0);
            assert_eq!(env.phases.len(), schedule.phases.len());
            assert!(env.peak_power.is_none(), "paper config has no power model");
        }
    }

    #[test]
    fn quantum_widens_every_interval() {
        let config = SocConfig::small();
        let plan = SocTestPlan::small();
        let s = &paper_schedules()[2];
        let accurate = schedule_envelope(&config, &plan, s, 0);
        let loose = schedule_envelope(&config, &plan, s, 4096);
        assert!(loose.total.lo <= accurate.total.lo);
        assert!(loose.total.hi >= accurate.total.hi);
        assert!(loose.bus_busy.lo <= accurate.bus_busy.lo);
        assert!(loose.serial_busy.hi >= accurate.serial_busy.hi);
        assert_eq!(loose.quantum, 4096);
    }

    #[test]
    fn power_model_yields_a_positive_envelope() {
        let config = SocConfig {
            power: Some(Default::default()),
            ..SocConfig::small()
        };
        let plan = SocTestPlan::small();
        let env = schedule_envelope(&config, &plan, &paper_schedules()[0], 0);
        let p = env.peak_power.expect("power model enabled");
        assert!(p.lo > 0.0, "{p:?}");
        assert!(p.hi > p.lo);
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let config = SocConfig::small();
        let plan = SocTestPlan::small();
        let bogus = Schedule::new("bogus", vec![vec![0, 99], vec![42]]);
        let env = schedule_envelope(&config, &plan, &bogus, 0);
        assert_eq!(env.phases.len(), 2);
        assert_eq!(env.phases[1], Interval::ZERO);
    }

    #[test]
    fn json_report_is_versioned_and_well_formed() {
        let config = SocConfig::small();
        let plan = SocTestPlan::small();
        let envs = schedule_envelopes(&config, &plan, &paper_schedules(), 0);
        let json = bounds_reports_to_json(&envs);
        tve_obs::check_json(&json).expect("bounds JSON parses");
        assert!(json.contains(&format!("\"format_version\": {BOUNDS_FORMAT_VERSION}")));
        assert!(json.contains("\"peak_power\": null"));
        let table = bounds_table(&envs);
        assert!(table.contains("schedule 1"));
    }

    #[test]
    fn observables_split_slots_by_channel() {
        let config = SocConfig {
            memory_words: 64,
            ..SocConfig::small()
        };
        let plan = SocTestPlan::small();
        let schedule = &paper_schedules()[0]; // T1, T2, T4, T5, T7
        let metrics = tve_soc::run_scenario(&config, &plan, schedule).unwrap();
        let tasks = task_bounds(&config, &plan, 0);
        let obs = observe_metrics(&metrics, &tasks);
        assert!(obs.bus_busy > 0, "T1/T4/T7 are bus-fed");
        assert!(obs.serial_busy > 0, "T2/T5 are serial-fed");
        assert_eq!(obs.total_cycles, metrics.total_cycles);
        assert_eq!(obs.peak_power, None);
    }
}
