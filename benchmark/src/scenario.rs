//! One Table-I scenario in decomposed form: the calls `run_scenario`
//! makes, each timed as its own span, so host time lands on the layer
//! that spent it.

use tve_core::{execute_schedule, Schedule};
use tve_lint::{observe_metrics, schedule_envelope, task_bounds};
use tve_sim::{Duration, Simulation};
use tve_soc::{build_test_runs, JpegEncoderSoc, ScenarioMetrics, SocConfig, SocTestPlan};

use crate::trace::Tracer;

/// Exact work counts of decomposed scenarios, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Kernel task polls.
    pub polls: u64,
    /// Kernel timer events fired.
    pub timers_fired: u64,
    /// Loosely-timed synchronization points.
    pub sync_points: u64,
    /// Bus/TAM transfers seen by the utilization monitor.
    pub transfers: u64,
    /// Busy bus cycles seen by the utilization monitor.
    pub busy_cycles: u64,
    /// Transactions the bus rejected.
    pub rejected: u64,
    /// Patterns applied by all test sequences.
    pub patterns: u64,
    /// Stimulus plus response bits moved over the TAM.
    pub tam_bits: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.polls += other.polls;
        self.timers_fired += other.timers_fired;
        self.sync_points += other.sync_points;
        self.transfers += other.transfers;
        self.busy_cycles += other.busy_cycles;
        self.rejected += other.rejected;
        self.patterns += other.patterns;
        self.tam_bits += other.tam_bits;
    }

    /// The counts that do not depend on the timing mode.
    pub fn functional(&self) -> [u64; 5] {
        [
            self.transfers,
            self.busy_cycles,
            self.rejected,
            self.patterns,
            self.tam_bits,
        ]
    }
}

/// The per-test functional results of a scenario, sorted by test name:
/// what must not change between timing modes.
pub type Functional = Vec<(String, u64, u64, u64, Option<u64>, u64, u64, Vec<u32>)>;

/// The functional outcome of `metrics`.
pub fn functional(metrics: &ScenarioMetrics) -> Functional {
    let mut out: Functional = metrics
        .result
        .slots
        .iter()
        .map(|s| {
            let o = &s.outcome;
            (
                o.name.clone(),
                o.patterns,
                o.stimulus_bits,
                o.response_bits,
                o.signature,
                o.mismatches,
                o.errors,
                o.failing_addresses.clone(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Envelope violations of `metrics` against the certified static bounds
/// (`tve-lint`) for the same scenario and quantum.
pub fn envelope_violations(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    quantum: u64,
    metrics: &ScenarioMetrics,
) -> Vec<String> {
    let envelope = schedule_envelope(config, plan, schedule, quantum);
    envelope.check(&observe_metrics(
        metrics,
        &task_bounds(config, plan, quantum),
    ))
}

/// Runs one scenario as `run_scenario_quantum` would, one span per layer
/// call under `parent`, then checks it against its envelope.
///
/// # Errors
///
/// A description of a rejected schedule, a configuration this form does
/// not reproduce (power metering), an unclean run or an envelope
/// violation.
pub fn run_decomposed(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    quantum: u64,
    tracer: &Tracer,
    parent: u64,
) -> Result<(ScenarioMetrics, Counts), String> {
    if config.power.is_some() {
        return Err("decomposed scenarios do not meter power".into());
    }
    let p = Some(parent);
    let mut sim = tracer.span(p, "sim.new", |_| {
        Simulation::with_quantum(Duration::cycles(quantum))
    });
    let soc = tracer.span(p, "soc.build", |_| {
        JpegEncoderSoc::build(&sim.handle(), config.clone())
    });
    let tests = tracer.span(p, "soc.test_runs", |_| build_test_runs(&soc, plan));
    let result = tracer
        .span(p, "core.execute", |_| {
            execute_schedule(&mut sim, tests, schedule)
        })
        .map_err(|e| format!("{}: {e}", schedule.name))?;
    let (peak, avg, transfers, busy_cycles) = tracer.span(p, "tlm.monitor", |_| {
        soc.bus.observe_monitor_until(sim.now());
        let monitor = soc.bus.monitor();
        (
            monitor.peak_utilization(),
            monitor.average_utilization(monitor.last_activity_end()),
            monitor.transfer_count(),
            monitor.total_busy_cycles(),
        )
    });
    let (polls, timers_fired) = sim.kernel_stats();
    let counts = Counts {
        polls,
        timers_fired,
        sync_points: sim.sync_points(),
        transfers,
        busy_cycles,
        rejected: soc.bus.rejected_count(),
        patterns: result.slots.iter().map(|s| s.outcome.patterns).sum(),
        tam_bits: result
            .slots
            .iter()
            .map(|s| s.outcome.stimulus_bits + s.outcome.response_bits)
            .sum(),
    };
    let metrics = ScenarioMetrics {
        schedule: schedule.name.clone(),
        peak_utilization: peak,
        avg_utilization: avg,
        total_cycles: result.total_cycles,
        cpu: result.wall,
        power: None,
        result,
    };
    if !metrics.result.clean() {
        return Err(format!("{} reported errors", schedule.name));
    }
    let violations = tracer.span(p, "lint.envelope", |_| {
        envelope_violations(config, plan, schedule, quantum, &metrics)
    });
    if !violations.is_empty() {
        return Err(violations.join("; "));
    }
    Ok((metrics, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_soc::{paper_schedules, run_scenario_quantum, Workload};

    #[test]
    fn decomposed_form_reproduces_run_scenario_in_both_modes() {
        let (config, plan) = Workload::small().build();
        let tracer = Tracer::new();
        for quantum in [0, 4096] {
            let schedule = &paper_schedules()[3];
            let (metrics, counts) =
                run_decomposed(&config, &plan, schedule, quantum, &tracer, 0).unwrap();
            let reference =
                run_scenario_quantum(&config, &plan, schedule, Duration::cycles(quantum)).unwrap();
            assert_eq!(metrics.digest(), reference.digest());
            assert_eq!(functional(&metrics), functional(&reference));
            assert!(counts.polls > 0 && counts.transfers > 0);
            assert_eq!(counts.rejected, 0);
        }
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names.iter().filter(|n| **n == "core.execute").count(), 2);
    }
}
