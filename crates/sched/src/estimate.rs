//! Analytic (coarse) estimation: deriving task descriptions from the SoC
//! configuration, and the fluid schedule estimator.
//!
//! These are deliberately the *cheap* models a scheduler can afford to
//! evaluate thousands of times — the paper's point is precisely that they
//! miss effects (arbitration, buffering, burst interleaving) that only
//! simulation captures.

use tve_core::Schedule;
use tve_soc::{SocConfig, SocTestPlan};

use crate::task::{Resource, TestTask};

#[allow(clippy::too_many_arguments)]
fn scan_task(
    name: &str,
    patterns: u64,
    chains: u32,
    chain_len: u32,
    capture: u64,
    bus_width: u32,
    power: u32,
    resources: Vec<Resource>,
) -> TestTask {
    // Every chain shifts in parallel, so the wrapper needs `chain_len`
    // cycles per pattern while the TAM moves `chains × chain_len` bits:
    // more chains mean more data per shift cycle, and once the channel
    // cannot keep up the test turns bus-limited.
    let shift = chain_len as u64 + capture;
    let bus_cycles = (u64::from(chains) * u64::from(chain_len)).div_ceil(bus_width as u64) + 1;
    let per_pattern = shift.max(bus_cycles);
    let duration = patterns * per_pattern;
    let share = (bus_cycles as f64 / per_pattern as f64).min(1.0);
    TestTask::new(name, duration.max(1), share.max(1e-6), power, resources)
}

/// Derives the seven case-study task descriptions analytically from the
/// SoC configuration — first-order models only (shift-limited or
/// channel-limited duration, data volume over bus width for the share).
pub fn estimate_tasks(config: &SocConfig, plan: &SocTestPlan) -> Vec<TestTask> {
    let w = config.bus_width_bits;
    let cap = config.capture_cycles;
    let proc_bits = config.proc_scan.bits_per_pattern();
    let ate_rate = config.ate_down_rate.0 as f64 / config.ate_down_rate.1 as f64;

    // T1: processor BIST — shift limited, stimuli over the bus.
    let t1 = scan_task(
        "T1 proc BIST",
        plan.bist_proc_patterns,
        config.proc_scan.chains(),
        config.proc_scan.max_chain_len(),
        cap,
        w,
        180,
        vec![Resource::Processor],
    );

    // T2: deterministic external — ATE channel limited.
    let per_pattern2 = ((proc_bits as f64 / ate_rate).ceil() as u64)
        .max(config.proc_scan.max_chain_len() as u64 + cap);
    let share2 = ((proc_bits.div_ceil(w as u64) + 1) as f64 / per_pattern2 as f64).min(1.0);
    let t2 = TestTask::new(
        "T2 proc det",
        plan.det_proc_patterns * per_pattern2,
        share2,
        120,
        vec![Resource::Processor, Resource::AteChannel],
    );

    // T3: compressed external — shift limited; bus sees compressed stimuli
    // plus compacted responses.
    let per_pattern3 = config.proc_scan.max_chain_len() as u64 + cap;
    let compressed = (proc_bits as f64 / config.decompress_ratio).ceil() as u64;
    let compacted = proc_bits.div_ceil(config.compact_ratio as u64);
    let bus3 = compressed.div_ceil(w as u64) + compacted.div_ceil(w as u64) + 2;
    let t3 = TestTask::new(
        "T3 proc det 50x",
        plan.comp_proc_patterns * per_pattern3,
        (bus3 as f64 / per_pattern3 as f64).min(1.0),
        130,
        vec![Resource::Processor, Resource::AteChannel, Resource::Codec],
    );

    // T4: color conversion BIST.
    let t4 = scan_task(
        "T4 color BIST",
        plan.bist_color_patterns,
        config.color_scan.chains(),
        config.color_scan.max_chain_len(),
        cap,
        w,
        90,
        vec![Resource::ColorConversion],
    );

    // T5: DCT deterministic external.
    let dct_bits = config.dct_scan.bits_per_pattern();
    let per_pattern5 = ((dct_bits as f64 / ate_rate).ceil() as u64)
        .max(config.dct_scan.max_chain_len() as u64 + cap);
    let t5 = TestTask::new(
        "T5 dct det",
        plan.det_dct_patterns * per_pattern5,
        ((dct_bits.div_ceil(w as u64) + 1) as f64 / per_pattern5 as f64).min(1.0),
        60,
        vec![Resource::Dct, Resource::AteChannel],
    );

    // T6/T7: memory march + pattern tests.
    let ops = plan.march.total_ops(config.memory_words as u64)
        + plan
            .pattern_tests
            .iter()
            .map(|p| p.ops_per_cell() * config.memory_words as u64)
            .sum::<u64>();
    let bus_per_op = 2u64; // one word + overhead on a >=32-bit bus
    let t6 = TestTask::new(
        "T6 mem march (ctrl)",
        ops * config.controller_op_overhead,
        (bus_per_op as f64 / config.controller_op_overhead as f64).min(1.0),
        70,
        vec![Resource::Memory],
    );
    let t7 = TestTask::new(
        "T7 mem march (proc)",
        ops * (config.processor_op_overhead + bus_per_op),
        (bus_per_op as f64 / (config.processor_op_overhead + bus_per_op) as f64).min(1.0),
        110,
        // The processor executes the march program, so it is busy too.
        vec![Resource::Memory, Resource::Processor],
    );

    vec![t1, t2, t3, t4, t5, t6, t7]
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
            let slowdown = if active_demand > 1.0 {
                active_demand
            } else {
                1.0
            };
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
        let tasks = estimate_tasks(&SocConfig::paper(), &SocTestPlan::paper());
        assert_eq!(tasks.len(), 7);
        let by_name = |n: &str| tasks.iter().find(|t| t.name.contains(n)).unwrap();
        let t1 = by_name("T1");
        assert_eq!(t1.duration, 100_000 * 1300);
        assert!((t1.tam_share - 0.665).abs() < 0.01, "{}", t1.tam_share);
        let t2 = by_name("T2");
        assert_eq!(t2.duration, 20_000 * 5184);
        let t6 = by_name("T6");
        let t7 = by_name("T7");
        assert!(t7.duration > t6.duration, "processor march is slower");
        // Resource conflicts: T1/T2/T3 share the processor.
        assert!(!by_name("T1").compatible_with(by_name("T2")));
        assert!(by_name("T1").compatible_with(by_name("T5")));
        assert!(!by_name("T2").compatible_with(by_name("T5")), "ATE channel");
        assert!(!by_name("T6").compatible_with(by_name("T7")), "memory");
    }

    #[test]
    fn estimate_responds_to_chain_count() {
        // The paper geometry (32 × 1296 chains over a 48-bit bus) is
        // shift-limited: 865 bus cycles fit inside the 1300-cycle shift.
        let mut cfg = SocConfig::paper();
        let plan = SocTestPlan::paper();
        let base = estimate_tasks(&cfg, &plan)[0].duration;
        assert_eq!(base, 100_000 * 1300, "paper point is unchanged");
        // Quadruple the chain count at the same chain length: 4× the data
        // per pattern no longer fits in the shift window, so the estimate
        // must grow (128 × 1296 / 48 + 1 = 3457 bus cycles per pattern).
        cfg.proc_scan = tve_tpg::ScanConfig::new(128, 1296);
        let wide = estimate_tasks(&cfg, &plan)[0].duration;
        assert_eq!(wide, 100_000 * 3457, "bus-limited regime");
        assert!(wide > base);
        // And the share saturates at 1.0 once bus-limited.
        let t1 = &estimate_tasks(&cfg, &plan)[0];
        assert!((t1.tam_share - 1.0).abs() < 1e-12, "{}", t1.tam_share);
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
