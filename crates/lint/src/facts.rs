//! Static facts about a test plan: what each test claims (cores, TAM
//! channel, WIR writes, power) — everything the analyzer needs to reason
//! about a schedule *without* building or running the simulation.
//!
//! [`soc_facts`] derives the facts for the seven-test JPEG-encoder case
//! study from the same `(SocConfig, SocTestPlan)` pair that
//! [`tve_soc::build_test_runs`] builds the dynamic test sequences from, so
//! the static and dynamic views describe the same tests. The analytic
//! share/power figures deliberately mirror `tve-sched::estimate_tasks`
//! (the coarse models the paper says schedulers must settle for);
//! `tve-sched` carries a cross-check test pinning the two against each
//! other.

use tve_core::WrapperMode;
use tve_soc::{
    SocConfig, SocTestPlan, RING_CODEC, RING_COLOR, RING_DCT, RING_EBI, RING_MEM, RING_PROC,
};

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
/// plan — the static mirror of [`tve_soc::build_test_runs`].
///
/// No budget is set (the paper's plan states none); add one with
/// [`PlanFacts::with_budget`].
pub fn soc_facts(config: &SocConfig, plan: &SocTestPlan) -> PlanFacts {
    let w = u64::from(config.bus_width_bits);
    let cap = config.capture_cycles;
    let proc_bits = config.proc_scan.bits_per_pattern();
    let ate_rate = config.ate_down_rate.0 as f64 / config.ate_down_rate.1 as f64;
    let _ = plan; // pattern counts shape durations, not the static claims

    // Bus share of a bus-fed scan test: stimuli words per pattern over the
    // pattern's shift+capture length (see tve-sched::estimate_tasks).
    let scan_share = |bits: u64, chain_len: u32| -> f64 {
        let per_pattern = u64::from(chain_len) + cap;
        ((bits.div_ceil(w) + 1) as f64 / per_pattern as f64).min(1.0)
    };
    // Channel-limited ATE test: the serial link stretches the pattern.
    let ate_share = |bits: u64, chain_len: u32| -> f64 {
        let per_pattern = ((bits as f64 / ate_rate).ceil() as u64).max(u64::from(chain_len) + cap);
        ((bits.div_ceil(w) + 1) as f64 / per_pattern as f64).min(1.0)
    };

    let bist = WrapperMode::Bist.encode();
    let int_test = WrapperMode::IntTest.encode();

    let t1 = TestFacts {
        name: "T1 proc BIST".to_string(),
        cores: vec!["processor"],
        channel: TamChannel::Bus,
        wir: vec![WirWrite {
            client: RING_PROC,
            value: bist,
        }],
        needs_functional: vec![],
        peak_power: 180.0,
        tam_share: scan_share(proc_bits, config.proc_scan.max_chain_len()),
    };
    let t2 = TestFacts {
        name: "T2 proc det".to_string(),
        cores: vec!["processor"],
        channel: TamChannel::Serial,
        wir: vec![
            WirWrite {
                client: RING_EBI,
                value: 1,
            },
            WirWrite {
                client: RING_PROC,
                value: int_test,
            },
        ],
        needs_functional: vec![],
        peak_power: 120.0,
        tam_share: ate_share(proc_bits, config.proc_scan.max_chain_len()),
    };
    let per_pattern3 = u64::from(config.proc_scan.max_chain_len()) + cap;
    let compressed = (proc_bits as f64 / config.decompress_ratio).ceil() as u64;
    let compacted = proc_bits.div_ceil(u64::from(config.compact_ratio));
    let bus3 = compressed.div_ceil(w) + compacted.div_ceil(w) + 2;
    let t3 = TestFacts {
        name: "T3 proc det 50x".to_string(),
        cores: vec!["processor", "codec"],
        channel: TamChannel::Serial,
        wir: vec![
            WirWrite {
                client: RING_EBI,
                value: 1,
            },
            WirWrite {
                client: RING_PROC,
                value: int_test,
            },
            WirWrite {
                client: RING_CODEC,
                value: 1,
            },
        ],
        needs_functional: vec![],
        peak_power: 130.0,
        tam_share: (bus3 as f64 / per_pattern3 as f64).min(1.0),
    };
    let t4 = TestFacts {
        name: "T4 color BIST".to_string(),
        cores: vec!["color-conv"],
        channel: TamChannel::Bus,
        wir: vec![WirWrite {
            client: RING_COLOR,
            value: bist,
        }],
        needs_functional: vec![],
        peak_power: 90.0,
        tam_share: scan_share(
            config.color_scan.bits_per_pattern(),
            config.color_scan.max_chain_len(),
        ),
    };
    let t5 = TestFacts {
        name: "T5 dct det".to_string(),
        cores: vec!["dct"],
        channel: TamChannel::Serial,
        wir: vec![
            WirWrite {
                client: RING_EBI,
                value: 1,
            },
            WirWrite {
                client: RING_DCT,
                value: int_test,
            },
        ],
        needs_functional: vec![],
        peak_power: 60.0,
        tam_share: ate_share(
            config.dct_scan.bits_per_pattern(),
            config.dct_scan.max_chain_len(),
        ),
    };
    let bus_per_op = 2.0;
    let t6 = TestFacts {
        name: "T6 mem march (ctrl)".to_string(),
        cores: vec!["memory"],
        channel: TamChannel::Bus,
        wir: vec![],
        // March accesses go through the memory wrapper's functional path:
        // a stale test mode on its ring client breaks them.
        needs_functional: vec![RING_MEM],
        peak_power: 70.0,
        tam_share: (bus_per_op / config.controller_op_overhead as f64).min(1.0),
    };
    let t7 = TestFacts {
        name: "T7 mem march (proc)".to_string(),
        // The embedded processor executes the march program, so the
        // processor is busy too (same claim as the scheduler's task model).
        cores: vec!["memory", "processor"],
        channel: TamChannel::Bus,
        wir: vec![],
        needs_functional: vec![RING_MEM],
        peak_power: 110.0,
        tam_share: (bus_per_op / (config.processor_op_overhead as f64 + bus_per_op)).min(1.0),
    };

    PlanFacts {
        tests: vec![t1, t2, t3, t4, t5, t6, t7],
        ring_clients: 6,
        wrappers: 4,
        power_budget: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_facts_mirror_the_dynamic_test_list() {
        let facts = soc_facts(&SocConfig::paper(), &SocTestPlan::paper());
        assert_eq!(facts.tests.len(), 7);
        assert_eq!(facts.ring_clients, 6);
        assert_eq!(facts.wrappers, 4);
        assert!(facts.power_budget.is_none());
        // Shares are sane fractions.
        for t in &facts.tests {
            assert!(t.tam_share > 0.0 && t.tam_share <= 1.0, "{}", t.name);
            assert!(t.peak_power > 0.0);
        }
        // T1's share matches the published ~0.665 utilization figure.
        assert!(
            (facts.tests[0].tam_share - 0.665).abs() < 0.01,
            "{}",
            facts.tests[0].tam_share
        );
        // The processor is claimed by T1, T2, T3 and T7 — nothing else.
        let claims: Vec<bool> = facts
            .tests
            .iter()
            .map(|t| t.cores.contains(&"processor"))
            .collect();
        assert_eq!(claims, [true, true, true, false, false, false, true]);
        // Serial-channel tests are exactly T2, T3, T5.
        let serial: Vec<bool> = facts
            .tests
            .iter()
            .map(|t| t.channel == TamChannel::Serial)
            .collect();
        assert_eq!(serial, [false, true, true, false, true, false, false]);
    }

    #[test]
    fn budget_helpers() {
        let facts = soc_facts(&SocConfig::small(), &SocTestPlan::small());
        let total: f64 = facts.tests.iter().map(|t| t.peak_power).sum();
        assert!((total - 760.0).abs() < 1e-9, "{total}");
        let budgeted = facts.clone().with_budget(500.0);
        assert_eq!(budgeted.power_budget, Some(500.0));
    }

    #[test]
    fn memory_tests_need_the_mem_client_functional() {
        let facts = soc_facts(&SocConfig::small(), &SocTestPlan::small());
        assert_eq!(facts.tests[5].needs_functional, vec![RING_MEM]);
        assert_eq!(facts.tests[6].needs_functional, vec![RING_MEM]);
        // And they write no WIR of their own.
        assert!(facts.tests[5].wir.is_empty());
    }
}
