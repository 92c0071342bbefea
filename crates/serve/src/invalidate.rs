//! Incremental re-validation: mapping a plan edit to the (fault ×
//! schedule) cells it can affect.
//!
//! The mechanism has two layers, and they must agree:
//!
//! 1. **Content-addressed keys** (the correctness layer). A cell key
//!    digests only the plan fields the cell's schedule consumes
//!    ([`crate::key::plan_projection`]), so an edit moves exactly the
//!    keys of affected cells. A stale hit is impossible by
//!    construction; unaffected cells keep their keys and stay hits.
//! 2. **Lint plan facts** (the prediction layer). [`edit_impact`]
//!    translates an edit ([`PlanOverrides`]) into the touched test
//!    sequences, the wrapped cores those tests claim (straight from
//!    [`tve_lint::PlanFacts`]), and the schedules whose cells must be
//!    re-simulated. The daemon uses the prediction to answer
//!    `invalidate` requests and to report how big a re-validation an
//!    edit will be *before* running it.
//!
//! The agreement between the two layers — a predicted-unaffected cell
//! never changes key, a predicted-affected cell always does — is
//! pinned by the property tests in `tests/serve_invalidation.rs`.

use tve_core::Schedule;
use tve_lint::PlanFacts;
use tve_soc::PlanOverrides;

use crate::key::{schedule_tests, test_mask};

/// What one plan edit can reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditImpact {
    /// Indices of the test sequences the edit touches.
    pub touched_tests: Vec<usize>,
    /// The same as a bitmask (bit k = test k).
    pub touched_mask: u8,
    /// Names of the touched tests, from the plan facts.
    pub(crate) test_names: Vec<String>,
    /// The wrapped cores those tests claim, deduplicated, in fact
    /// order — "which cores did you edit".
    pub(crate) cores: Vec<String>,
    /// Names of the schedules (of the submitted set) that run at least
    /// one touched test: every (fault × schedule) cell of these — and
    /// only these — must be re-simulated.
    pub affected_schedules: Vec<String>,
}

/// Computes the impact of `edit` on `schedules`, using `facts` (from
/// [`tve_lint::soc_facts`]) to name tests and cores.
pub fn edit_impact(facts: &PlanFacts, edit: &PlanOverrides, schedules: &[Schedule]) -> EditImpact {
    let touched_tests = edit.touched_tests();
    let touched_mask = test_mask(&touched_tests);
    let mut test_names = Vec::new();
    let mut cores: Vec<String> = Vec::new();
    for &t in &touched_tests {
        if let Some(tf) = facts.tests.get(t) {
            test_names.push(tf.name.clone());
            for &core in &tf.cores {
                if !cores.iter().any(|c| c == core) {
                    cores.push(core.to_string());
                }
            }
        }
    }
    let affected_schedules = schedules
        .iter()
        .filter(|s| test_mask(&schedule_tests(s)) & touched_mask != 0)
        .map(|s| s.name.clone())
        .collect();
    EditImpact {
        touched_tests,
        touched_mask,
        test_names,
        cores,
        affected_schedules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_lint::soc_facts;
    use tve_soc::{paper_schedules, SocConfig, SocTestPlan};

    #[test]
    fn dct_edit_affects_every_schedule_running_test_5() {
        let facts = soc_facts(&SocConfig::small(), &SocTestPlan::small());
        let mut edit = PlanOverrides::default();
        edit.set("det_dct_patterns", 3);
        let impact = edit_impact(&facts, &edit, &paper_schedules());
        assert_eq!(impact.touched_tests, vec![4]);
        assert_eq!(impact.cores, vec!["dct".to_string()]);
        // Test index 4 is in all four paper schedules.
        assert_eq!(impact.affected_schedules.len(), 4);
    }

    #[test]
    fn det_proc_edit_spares_compressed_schedules() {
        let facts = soc_facts(&SocConfig::small(), &SocTestPlan::small());
        let mut edit = PlanOverrides::default();
        edit.set("det_proc_patterns", 40);
        let impact = edit_impact(&facts, &edit, &paper_schedules());
        // Test index 1 runs only in schedules 1 and 3.
        assert_eq!(
            impact.affected_schedules,
            vec![
                "schedule 1 (seq, uncompressed)".to_string(),
                "schedule 3 (conc, uncompressed)".to_string(),
            ]
        );
        assert!(impact.cores.contains(&"processor".to_string()));
    }

    #[test]
    fn seed_edit_affects_everything() {
        let facts = soc_facts(&SocConfig::small(), &SocTestPlan::small());
        let mut edit = PlanOverrides::default();
        edit.set("seed", 99);
        let impact = edit_impact(&facts, &edit, &paper_schedules());
        assert_eq!(impact.touched_mask, 0x7f);
        assert_eq!(impact.affected_schedules.len(), 4);
    }

    #[test]
    fn empty_edit_affects_nothing() {
        let facts = soc_facts(&SocConfig::small(), &SocTestPlan::small());
        let impact = edit_impact(&facts, &PlanOverrides::default(), &paper_schedules());
        assert_eq!(impact.touched_mask, 0);
        assert!(impact.affected_schedules.is_empty());
        assert!(impact.cores.is_empty());
    }
}
