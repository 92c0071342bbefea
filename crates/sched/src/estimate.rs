//! Analytic (coarse) estimation: task descriptions read from the static
//! test model, and the fluid schedule estimator.
//!
//! These are deliberately the *cheap* models a scheduler can afford to
//! evaluate thousands of times — the paper's point is precisely that they
//! miss effects (arbitration, buffering, burst interleaving) that only
//! simulation captures.

use tve_core::Schedule;
use tve_lint::{test_model, TamChannel};
use tve_soc::{SocConfig, SocTestPlan};

use crate::task::{Resource, TestTask};

/// Derives the seven case-study task descriptions from the static test
/// model ([`tve_lint::test_model`]): each task's duration and TAM share
/// are its row's nominal time and bus share, and it holds the row's cores
/// plus, next to the core it feeds, the ATE channel of a serial test.
pub fn estimate_tasks(config: &SocConfig, plan: &SocTestPlan) -> Vec<TestTask> {
    test_model(config, plan)
        .iter()
        .map(|m| {
            let serial = (m.channel == TamChannel::Serial).then_some(Resource::AteChannel);
            let mut cores = m.cores.iter().map(|&c| Resource::of_core(c));
            let first = cores.next();
            let resources = first.into_iter().chain(serial).chain(cores).collect();
            TestTask::new(m.name, m.nominal(), m.tam_share(), m.peak_power, resources)
        })
        .collect()
}

/// Estimated metrics of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEstimate {
    /// Estimated phase length in cycles (fluid model).
    pub(crate) duration: u64,
    /// Peak TAM demand of the phase (may exceed 1.0 = over-subscription).
    pub(crate) tam_demand: f64,
    /// Total power of the concurrent tests.
    pub(crate) power: u64,
}

/// Estimated metrics of a whole schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleEstimate {
    /// Per-phase estimates.
    pub(crate) phases: Vec<PhaseEstimate>,
    /// Total estimated test length.
    pub(crate) total_cycles: u64,
    /// Maximum concurrent power across phases.
    pub(crate) peak_power: u64,
    /// Maximum TAM demand across phases (clipped at 1.0 for reporting).
    pub(crate) peak_tam: f64,
}

/// Fluid estimation of a schedule: within a phase, each task progresses at
/// a rate limited by its own TAM share and by proportional sharing of the
/// channel when over-subscribed; phases run back-to-back.
///
/// # Panics
///
/// Panics if the schedule references task indices out of range.
pub(crate) fn estimate_schedule(tasks: &[TestTask], schedule: &Schedule) -> ScheduleEstimate {
    let mut phases = Vec::new();
    let mut total = 0u64;
    for phase in &schedule.phases {
        let mut remaining: Vec<(f64, f64)> = phase
            .iter()
            .map(|&t| {
                let task = &tasks[t];
                (task.duration as f64, task.tam_share)
            })
            .collect();
        let demand: f64 = remaining.iter().map(|&(_, s)| s).sum();
        let power: u64 = phase.iter().map(|&t| tasks[t].power as u64).sum();
        // Fluid simulation: advance to the next completion.
        let mut elapsed = 0.0f64;
        while remaining.iter().any(|&(d, _)| d > 0.0) {
            let active_demand: f64 = remaining
                .iter()
                .filter(|&&(d, _)| d > 0.0)
                .map(|&(_, s)| s)
                .sum();
            let slowdown = active_demand.max(1.0);
            // Earliest finisher under the current slowdown.
            let dt = remaining
                .iter()
                .filter(|&&(d, _)| d > 0.0)
                .map(|&(d, _)| d * slowdown)
                .fold(f64::INFINITY, f64::min);
            for (d, _) in remaining.iter_mut().filter(|(d, _)| *d > 0.0) {
                *d -= dt / slowdown;
                if *d < 1e-9 {
                    *d = 0.0;
                }
            }
            elapsed += dt;
        }
        let duration = elapsed.round() as u64;
        total += duration;
        phases.push(PhaseEstimate {
            duration,
            tam_demand: demand,
            power,
        });
    }
    ScheduleEstimate {
        peak_power: phases.iter().map(|p| p.power).max().unwrap_or(0),
        peak_tam: phases
            .iter()
            .map(|p| p.tam_demand.min(1.0))
            .fold(0.0, f64::max),
        total_cycles: total,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(name: &str, dur: u64, share: f64) -> TestTask {
        TestTask::new(name, dur, share, 10, vec![])
    }

    #[test]
    fn sequential_estimate_sums() {
        let tasks = vec![t("a", 100, 0.5), t("b", 200, 0.5)];
        let s = Schedule::new("seq", vec![vec![0], vec![1]]);
        let e = estimate_schedule(&tasks, &s);
        assert_eq!(e.total_cycles, 300);
        assert_eq!(e.phases.len(), 2);
    }

    #[test]
    fn concurrent_without_oversubscription_is_max() {
        let tasks = vec![t("a", 100, 0.4), t("b", 200, 0.5)];
        let s = Schedule::new("conc", vec![vec![0, 1]]);
        let e = estimate_schedule(&tasks, &s);
        assert_eq!(e.total_cycles, 200);
        assert!((e.phases[0].tam_demand - 0.9).abs() < 1e-12);
    }

    #[test]
    fn oversubscription_stretches_fluidly() {
        // Two tasks, each wanting 0.8 of the TAM: demand 1.6, both stretch
        // by 1.6 until one finishes.
        let tasks = vec![t("a", 100, 0.8), t("b", 100, 0.8)];
        let s = Schedule::new("conc", vec![vec![0, 1]]);
        let e = estimate_schedule(&tasks, &s);
        assert_eq!(e.total_cycles, 160);
        // After the first finishes nothing remains (equal durations).
        let tasks = vec![t("a", 100, 0.8), t("b", 50, 0.8)];
        let e = estimate_schedule(&tasks, &Schedule::new("c", vec![vec![0, 1]]));
        // b finishes at 80 (stretched x1.6); a then has 50 left at full
        // rate: total 130.
        assert_eq!(e.total_cycles, 130);
    }

    #[test]
    fn paper_tasks_have_expected_magnitudes() {
        let mut cfg = SocConfig::paper();
        let plan = SocTestPlan::paper();
        let tasks = estimate_tasks(&cfg, &plan);
        let by_name = |n: &str| tasks.iter().find(|t| t.name.contains(n)).unwrap();
        // The paper geometry (32 × 1296 chains over a 48-bit bus) is
        // shift-limited: 865 bus cycles fit inside the 1300-cycle shift.
        let t1 = by_name("T1");
        assert_eq!(t1.duration, 100_000 * 1300);
        assert!((t1.tam_share - 0.665).abs() < 0.01, "{}", t1.tam_share);
        assert_eq!(by_name("T2").duration, 20_000 * 5184);
        assert!(
            by_name("T7").duration > by_name("T6").duration,
            "processor march is slower"
        );
        // Resource conflicts: T1/T2/T3 share the processor.
        assert!(!by_name("T1").compatible_with(by_name("T2")));
        assert!(by_name("T1").compatible_with(by_name("T5")));
        assert!(!by_name("T2").compatible_with(by_name("T5")), "ATE channel");
        assert!(!by_name("T6").compatible_with(by_name("T7")), "memory");
        // Quadruple the chain count at the same chain length: 4× the data
        // per pattern no longer fits in the shift window, so the estimate
        // grows (128 × 1296 / 48 + 1 = 3457 bus cycles per pattern) and
        // the share saturates.
        cfg.proc_scan = tve_tpg::ScanConfig::new(128, 1296);
        let wide = &estimate_tasks(&cfg, &plan)[0];
        assert_eq!(wide.duration, 100_000 * 3457, "bus-limited regime");
        assert!((wide.tam_share - 1.0).abs() < 1e-12, "{}", wide.tam_share);
    }

    #[test]
    fn estimates_respect_the_certified_floor_when_the_response_link_is_slower() {
        // A response link 16x slower than the stimulus link binds T2, T3
        // and T5: every estimate must still lie inside the envelope of its
        // test run alone.
        let mut config = SocConfig::paper();
        (config.ate_down_rate, config.ate_up_rate) = ((16, 1), (1, 1));
        let plan = SocTestPlan::paper();
        for (i, task) in estimate_tasks(&config, &plan).iter().enumerate() {
            let alone = Schedule::new(task.name.clone(), vec![vec![i]]);
            let env = tve_lint::schedule_envelope(&config, &plan, &alone, 0).total;
            let d = task.duration;
            assert!(
                env.lo <= d && d <= env.hi,
                "{}: {d} outside {env}",
                task.name
            );
        }
    }

    #[test]
    fn paper_schedule_estimates_track_simulated_totals() {
        // The coarse estimate should land in the same ballpark as the
        // simulated Table I lengths (281/184/263/167 Mcycles) — close, but
        // not equal: that gap is the paper's argument for simulation.
        let tasks = estimate_tasks(&SocConfig::paper(), &SocTestPlan::paper());
        let scheds = tve_soc::paper_schedules();
        let e: Vec<u64> = scheds
            .iter()
            .map(|s| estimate_schedule(&tasks, s).total_cycles)
            .collect();
        // Orderings must match the simulation: 4 < 2 < 3 < 1.
        assert!(e[3] < e[1], "{e:?}");
        assert!(e[1] < e[2], "{e:?}");
        assert!(e[2] < e[0], "{e:?}");
        // Magnitudes within 30 % of the simulated values.
        for (est, sim) in e.iter().zip([283e6, 213e6, 265e6, 172e6]) {
            let err = (*est as f64 - sim).abs() / sim;
            assert!(err < 0.3, "estimate {est} vs simulated {sim}");
        }
    }
}
