//! Content-addressed cache keys.
//!
//! A cached result is only reusable if its key covers *every* input the
//! simulation consumed and *nothing else*. The key of a (fault ×
//! schedule) cell therefore digests:
//!
//! * the full [`SocConfig`] (memory size, rates, arbiter, TAM fault
//!   policy, power model — everything the SoC is built from),
//! * the **plan projection**: only the [`SocTestPlan`] fields consumed
//!   by the tests the schedule actually runs (see
//!   [`plan_projection`]) — this is what makes re-validation
//!   incremental, because an edit to test *k*'s pattern count leaves
//!   the keys of every schedule that does not run test *k* untouched,
//! * the schedule itself (name and phases),
//! * the fault id (`golden` for baselines).
//!
//! Every served simulation is cycle-accurate, so no timing mode enters
//! a key.
//!
//! Keys are FNV-1a over a canonical text encoding, formatted straight
//! into the streaming hasher ([`Fnv1a`]) with no intermediate `String`
//! — the digest is the same as over the whole text. The encoding uses
//! the types' `Debug` forms, which is sound here because the cache
//! lives in one daemon process: keys never cross a build, so the only
//! requirement is that equal inputs encode equally and different
//! inputs differently within this binary.

use std::fmt::Write;

use tve_core::Schedule;
use tve_obs::Fnv1a;
use tve_soc::{SocConfig, SocTestPlan};

/// The distinct test indices a schedule runs, ascending.
pub fn schedule_tests(schedule: &Schedule) -> Vec<usize> {
    let mut tests: Vec<usize> = schedule.phases.iter().flatten().copied().collect();
    tests.sort_unstable();
    tests.dedup();
    tests
}

/// A bitmask over the seven plan tests (bit *k* = test index *k*).
pub fn test_mask(tests: &[usize]) -> u8 {
    tests
        .iter()
        .filter(|&&t| t < 7)
        .fold(0u8, |m, &t| m | (1 << t))
}

/// Writes the plan fields consumed by `tests` to `out`, in a stable
/// order. Field-to-test mapping (see `tve-soc`'s `build_test_runs`):
/// the policy and seed feed every test, each pattern-count field feeds
/// exactly one of tests 0–4, and the march algorithm plus background
/// patterns feed the two memory tests (5 and 6).
pub(crate) fn plan_projection(plan: &SocTestPlan, tests: &[usize], out: &mut impl Write) {
    let _ = write!(out, "|policy={:?}|seed={}", plan.policy, plan.seed);
    let patterns = [
        plan.bist_proc_patterns,
        plan.det_proc_patterns,
        plan.comp_proc_patterns,
        plan.bist_color_patterns,
        plan.det_dct_patterns,
    ];
    let mut march_written = false;
    for &t in tests {
        match t {
            0..=4 => {
                let _ = write!(out, "|t{t}={}", patterns[t]);
            }
            // Written once even if both memory tests are scheduled.
            5 | 6 if !march_written => {
                let _ = write!(
                    out,
                    "|march={:?}|patterns={:?}",
                    plan.march, plan.pattern_tests
                );
                march_written = true;
            }
            5 | 6 => {}
            other => {
                let _ = write!(out, "|t{other}=?");
            }
        }
    }
}

/// The cache key of one (fault × schedule) cell. `fault_id` is
/// [`tve_campaign::FaultSpec::id`] output, or `"golden"` for the
/// fault-free baseline. Cells simulate cycle-accurately; the empty `q=`
/// field is where keys once named a loosely-timed quantum, kept so that
/// existing cache snapshots still hit.
pub fn cell_key(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    fault_id: &str,
) -> u64 {
    let mut h = Fnv1a::new();
    let _ = write!(
        h,
        "cell/v1|cfg={config:?}|sched={}:{:?}|fault={fault_id}|q=",
        schedule.name, schedule.phases,
    );
    plan_projection(plan, &schedule_tests(schedule), &mut h);
    h.finish()
}

/// The cache key of a diagnosis check for one scan-cell fault. Depends
/// on the SoC, the plan seed (the BIST stream diagnosis replays), the
/// diagnosis parameters and the fault — but on no pattern count, so
/// plan edits other than the seed leave diagnosis results valid.
pub(crate) fn diagnosis_key(
    config: &SocConfig,
    plan_seed: u64,
    patterns: u64,
    window: u64,
    fault_id: &str,
) -> u64 {
    let mut h = Fnv1a::new();
    let _ = write!(
        h,
        "diag/v1|cfg={config:?}|seed={plan_seed}|patterns={patterns}|window={window}|fault={fault_id}"
    );
    h.finish()
}

/// The cache key of a lint report. Lint consumes the full plan facts,
/// so the entire plan participates (no projection).
pub(crate) fn lint_key(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    program: Option<(&str, &str)>,
) -> u64 {
    let mut h = Fnv1a::new();
    let _ = write!(
        h,
        "lint/v1|cfg={config:?}|plan={plan:?}|sched={}:{:?}|prog={program:?}",
        schedule.name, schedule.phases
    );
    h.finish()
}

/// The cache key of a certified static bounds report. The envelope
/// consumes the full config and the full plan, so both participate with
/// no projection. Reports are cycle-accurate envelopes; `q=0` is kept so
/// that existing cache snapshots still hit.
pub(crate) fn bounds_key(config: &SocConfig, plan: &SocTestPlan, schedule: &Schedule) -> u64 {
    let mut h = Fnv1a::new();
    let _ = write!(
        h,
        "bounds/v1|cfg={config:?}|plan={plan:?}|sched={}:{:?}|q=0",
        schedule.name, schedule.phases
    );
    h.finish()
}

/// The one cache key of a lint or bounds job: a digest of its
/// per-schedule keys, in job order.
pub(crate) fn report_key(keys: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    for key in keys {
        let _ = write!(h, "{key:#018x}|");
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_soc::paper_schedules;

    #[test]
    fn keys_are_stable_and_input_sensitive() {
        let config = SocConfig::small();
        let plan = SocTestPlan::small();
        let schedules = paper_schedules();
        let k = cell_key(&config, &plan, &schedules[0], "golden");
        assert_eq!(k, cell_key(&config, &plan, &schedules[0], "golden"));
        assert_ne!(k, cell_key(&config, &plan, &schedules[1], "golden"));
        assert_ne!(k, cell_key(&config, &plan, &schedules[0], "scan:x"));
        let mut other_cfg = config.clone();
        other_cfg.memory_words += 1;
        assert_ne!(k, cell_key(&other_cfg, &plan, &schedules[0], "golden"));
    }

    /// Pinned cell keys: cache snapshots written by earlier daemons must
    /// still hit.
    #[test]
    fn cell_keys_are_pinned() {
        let config = SocConfig::small();
        let plan = SocTestPlan::small();
        let schedules = paper_schedules();
        let key = |i: usize, fault: &str| cell_key(&config, &plan, &schedules[i], fault);
        assert_eq!(key(0, "golden"), 0x135b_2b1e_f5b4_5f19);
        assert_eq!(key(1, "golden"), 0xca7f_fa1e_c850_79a3);
        assert_eq!(key(2, "scan:proc:3"), 0x2f1d_1b60_4dbd_f738);
    }

    #[test]
    fn bounds_keys_cover_the_plan() {
        let config = SocConfig::small();
        let plan = SocTestPlan::small();
        let schedules = paper_schedules();
        let k = bounds_key(&config, &plan, &schedules[0]);
        assert_eq!(k, bounds_key(&config, &plan, &schedules[0]));
        assert_ne!(k, bounds_key(&config, &plan, &schedules[1]));
        let mut edited = plan.clone();
        edited.det_proc_patterns += 1;
        assert_ne!(
            k,
            bounds_key(&config, &edited, &schedules[0]),
            "bounds consume the whole plan — no projection"
        );
    }

    #[test]
    fn projection_ignores_unscheduled_tests() {
        let config = SocConfig::small();
        let plan = SocTestPlan::small();
        // Schedule 2 runs tests [0, 2, 3, 4, 5] — no test 1 (det proc)
        // and no test 6.
        let schedule = &paper_schedules()[1];
        assert_eq!(schedule_tests(schedule), vec![0, 2, 3, 4, 5]);
        let before = cell_key(&config, &plan, schedule, "golden");
        let mut edited = plan.clone();
        edited.det_proc_patterns += 5;
        assert_eq!(
            before,
            cell_key(&config, &edited, schedule, "golden"),
            "edit to an unscheduled test must not move the key"
        );
        let mut touched = plan.clone();
        touched.det_dct_patterns += 5;
        assert_ne!(
            before,
            cell_key(&config, &touched, schedule, "golden"),
            "edit to a scheduled test must move the key"
        );
    }

    #[test]
    fn masks_cover_schedules() {
        assert_eq!(test_mask(&[0, 2, 6]), 0b100_0101);
        assert_eq!(test_mask(&[]), 0);
        assert_eq!(test_mask(&[0, 1, 2, 3, 4, 5, 6]), 0x7f);
    }
}
