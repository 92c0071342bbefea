//! Static facts about a test plan: what each test claims (cores, TAM
//! channel, WIR writes, power) — everything the analyzer needs to reason
//! about a schedule *without* building or running the simulation.
//!
//! [`soc_facts`] copies the facts of the seven-test JPEG-encoder case
//! study out of the one static test model ([`test_model`]), which the
//! scheduler's estimate and the certified envelope read too.

use tve_soc::{SocConfig, SocTestPlan};

use crate::model::test_model;

/// Which TAM path a test's patterns stream over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamChannel {
    /// On-chip sources over the shared system bus (BIST, controller).
    Bus,
    /// ATE patterns through the serial EBI channel.
    Serial,
}

/// One WIR/config write a test performs over the configuration ring when
/// it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirWrite {
    /// Ring client index.
    pub client: usize,
    /// The value written.
    pub value: u64,
}

/// The static claims of one test sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct TestFacts {
    /// Test name (matches the dynamic [`tve_core::TestRun`] name).
    pub name: String,
    /// Exclusive structural resources (core scan chains, march engines).
    /// Two tests claiming a common entry must not share a phase.
    pub cores: Vec<&'static str>,
    /// The TAM path the patterns use.
    pub channel: TamChannel,
    /// WIR/config writes the test issues at start.
    pub wir: Vec<WirWrite>,
    /// Ring clients that must hold their functional/default value (0)
    /// while this test runs — a stale test-mode write there corrupts the
    /// test's functional-path accesses.
    pub(crate) needs_functional: Vec<usize>,
    /// Peak power estimate (same units as the plan budget).
    pub peak_power: f64,
    /// Coarse share of the shared bus TAM this test demands in `[0, 1]`.
    pub tam_share: f64,
}

/// Everything the analyzer knows about a plan, statically.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFacts {
    /// Per-test facts, indexed like the schedule's test indices.
    pub tests: Vec<TestFacts>,
    /// Configuration-ring client count.
    pub(crate) ring_clients: usize,
    /// Wrapper count (the Virtual ATE's `expect` index space).
    pub(crate) wrappers: usize,
    /// Optional phase power budget; `None` disables the power check.
    pub(crate) power_budget: Option<f64>,
}

impl PlanFacts {
    /// The same facts with a phase power budget to lint against.
    #[must_use]
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.power_budget = Some(budget);
        self
    }
}

/// Derives the seven-test case-study facts from the SoC configuration and
/// plan: the claims and bus share of each [`test_model`] row.
///
/// No budget is set (the paper's plan states none); add one with
/// [`PlanFacts::with_budget`].
pub fn soc_facts(config: &SocConfig, plan: &SocTestPlan) -> PlanFacts {
    PlanFacts {
        tests: test_model(config, plan)
            .iter()
            .map(|m| TestFacts {
                name: m.name.to_string(),
                cores: m.cores.to_vec(),
                channel: m.channel,
                wir: m.wir.to_vec(),
                needs_functional: m.needs_functional.to_vec(),
                peak_power: f64::from(m.peak_power),
                tam_share: m.tam_share(),
            })
            .collect(),
        ring_clients: 6,
        wrappers: 4,
        power_budget: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_soc::RING_MEM;

    #[test]
    fn paper_facts_mirror_the_dynamic_test_list() {
        let facts = soc_facts(&SocConfig::paper(), &SocTestPlan::paper());
        assert_eq!((facts.ring_clients, facts.wrappers), (6, 4));
        assert!(facts.power_budget.is_none());
        // One column per test, T1 first: `x` where the property holds.
        let marks = |f: fn(&TestFacts) -> bool| -> String {
            let mark = |t| if f(t) { 'x' } else { '.' };
            facts.tests.iter().map(mark).collect()
        };
        let shares = marks(|t| t.tam_share > 0.0 && t.tam_share <= 1.0);
        assert_eq!(shares, "xxxxxxx");
        assert_eq!(marks(|t| t.peak_power > 0.0), "xxxxxxx");
        // T1's share matches the published ~0.665 utilization figure.
        let t1 = facts.tests[0].tam_share;
        assert!((t1 - 0.665).abs() < 0.01, "{t1}");
        assert_eq!(marks(|t| t.cores.contains(&"processor")), "xxx...x");
        assert_eq!(marks(|t| t.channel == TamChannel::Serial), ".xx.x..");
        // Only the marches need the memory client functional; they write
        // no WIR of their own.
        let march = marks(|t| t.needs_functional == [RING_MEM] && t.wir.is_empty());
        assert_eq!(march, ".....xx");
    }

    #[test]
    fn budget_helpers() {
        let facts = soc_facts(&SocConfig::small(), &SocTestPlan::small());
        let total: f64 = facts.tests.iter().map(|t| t.peak_power).sum();
        assert!((total - 760.0).abs() < 1e-9, "{total}");
        let budgeted = facts.clone().with_budget(500.0);
        assert_eq!(budgeted.power_budget, Some(500.0));
    }
}
