//! Reusable workload setup: one place that knows how to build the
//! (config, plan) pairs every entry point used to re-implement.
//!
//! `table1`, `campaign`, `lint`, the repo benchmark, the pinned-digest
//! tests and the `tve-serve` daemon all start from the same three
//! shapes — the paper-scale SoC, the small validation SoC, and the
//! benchmark workload (`--scale 100 --mem-words 2622`). [`Workload`] names those shapes once
//! and layers the common knobs (memory size, pattern-count scale,
//! per-test overrides) on top, so a "workload" is plain, clonable,
//! serializable-by-hand data that can cross a process boundary.

use crate::plan::SocTestPlan;
use crate::soc::SocConfig;

/// The base (config, plan) shape a workload starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadPreset {
    /// [`SocConfig::paper`] + [`SocTestPlan::paper`]: the full Table I
    /// reproduction.
    Paper,
    /// [`SocConfig::small`] + [`SocTestPlan::small`]: the tiny full-data
    /// validation SoC used by campaigns and most tests.
    Small,
    /// The benchmark workload pinned in `tests/kernel_digests.rs`: paper
    /// config at `memory_words = 2622`, plan scaled by 100.
    Bench,
}

impl WorkloadPreset {
    /// The stable wire name (`paper` / `small` / `bench`).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadPreset::Paper => "paper",
            WorkloadPreset::Small => "small",
            WorkloadPreset::Bench => "bench",
        }
    }

    /// Parses a wire name back into a preset.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(WorkloadPreset::Paper),
            "small" => Some(WorkloadPreset::Small),
            "bench" => Some(WorkloadPreset::Bench),
            _ => None,
        }
    }
}

/// Per-test plan edits layered over a preset's [`SocTestPlan`].
///
/// This is the unit of "the user edited the plan" for incremental
/// re-validation: each field maps to the test sequences that consume it
/// (see [`PlanOverrides::touched_tests`]), so a serving layer can work
/// out which schedule results an edit can possibly change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanOverrides {
    /// Test 1 (processor LBIST) pattern count.
    pub bist_proc_patterns: Option<u64>,
    /// Test 2 (deterministic processor) pattern count.
    pub det_proc_patterns: Option<u64>,
    /// Test 3 (compressed processor) pattern count.
    pub comp_proc_patterns: Option<u64>,
    /// Test 4 (color conversion LBIST) pattern count.
    pub bist_color_patterns: Option<u64>,
    /// Test 5 (deterministic DCT) pattern count.
    pub det_dct_patterns: Option<u64>,
    /// Pattern-generation seed (consumed by every test).
    pub seed: Option<u64>,
}

/// The stable wire/CLI keys of [`PlanOverrides`], in field order.
pub const PLAN_OVERRIDE_KEYS: [&str; 6] = [
    "bist_proc_patterns",
    "det_proc_patterns",
    "comp_proc_patterns",
    "bist_color_patterns",
    "det_dct_patterns",
    "seed",
];

impl PlanOverrides {
    /// True when no field is overridden.
    pub fn is_empty(&self) -> bool {
        *self == PlanOverrides::default()
    }

    /// Sets a field by its wire key; returns false for unknown keys.
    pub fn set(&mut self, key: &str, value: u64) -> bool {
        match key {
            "bist_proc_patterns" => self.bist_proc_patterns = Some(value),
            "det_proc_patterns" => self.det_proc_patterns = Some(value),
            "comp_proc_patterns" => self.comp_proc_patterns = Some(value),
            "bist_color_patterns" => self.bist_color_patterns = Some(value),
            "det_dct_patterns" => self.det_dct_patterns = Some(value),
            "seed" => self.seed = Some(value),
            _ => return false,
        }
        true
    }

    /// The overridden `(key, value)` pairs, in stable field order.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        [
            self.bist_proc_patterns,
            self.det_proc_patterns,
            self.comp_proc_patterns,
            self.bist_color_patterns,
            self.det_dct_patterns,
            self.seed,
        ]
        .iter()
        .zip(PLAN_OVERRIDE_KEYS)
        .filter_map(|(v, k)| v.map(|v| (k, v)))
        .collect()
    }

    /// Applies the overrides to `plan`.
    pub fn apply(&self, plan: &mut SocTestPlan) {
        if let Some(v) = self.bist_proc_patterns {
            plan.bist_proc_patterns = v;
        }
        if let Some(v) = self.det_proc_patterns {
            plan.det_proc_patterns = v;
        }
        if let Some(v) = self.comp_proc_patterns {
            plan.comp_proc_patterns = v;
        }
        if let Some(v) = self.bist_color_patterns {
            plan.bist_color_patterns = v;
        }
        if let Some(v) = self.det_dct_patterns {
            plan.det_dct_patterns = v;
        }
        if let Some(v) = self.seed {
            plan.seed = v;
        }
    }

    /// Which of the seven test sequences (indices 0..=6) this edit can
    /// affect: each pattern-count field feeds exactly one test; the seed
    /// feeds every pattern source.
    pub fn touched_tests(&self) -> Vec<usize> {
        if self.seed.is_some() {
            return (0..7).collect();
        }
        [
            self.bist_proc_patterns,
            self.det_proc_patterns,
            self.comp_proc_patterns,
            self.bist_color_patterns,
            self.det_dct_patterns,
        ]
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|_| i))
        .collect()
    }
}

/// A complete, self-describing workload: preset plus knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// The base shape.
    pub preset: WorkloadPreset,
    /// Pattern-count divisor applied on top of the preset plan (1 = as
    /// is). The bench preset already carries its 1/100 scale; `scale`
    /// multiplies further.
    pub scale: u64,
    /// Memory size override (words).
    pub mem_words: Option<u32>,
    /// Per-test plan edits.
    pub overrides: PlanOverrides,
}

impl Workload {
    /// A workload at `preset` with no knobs turned.
    pub fn new(preset: WorkloadPreset) -> Self {
        Workload {
            preset,
            scale: 1,
            mem_words: None,
            overrides: PlanOverrides::default(),
        }
    }

    /// The full paper-scale Table I workload.
    pub fn paper() -> Self {
        Self::new(WorkloadPreset::Paper)
    }

    /// The small validation workload (campaigns, tests).
    pub fn small() -> Self {
        Self::new(WorkloadPreset::Small)
    }

    /// The benchmark workload of `tests/kernel_digests.rs`
    /// (`--scale 100 --mem-words 2622`).
    pub fn bench() -> Self {
        Self::new(WorkloadPreset::Bench)
    }

    /// The same workload with the memory size overridden.
    #[must_use]
    pub fn with_mem_words(mut self, words: u32) -> Self {
        self.mem_words = Some(words);
        self
    }

    /// The same workload with an extra pattern-count divisor.
    #[must_use]
    pub fn with_scale(mut self, scale: u64) -> Self {
        self.scale = scale.max(1);
        self
    }

    /// The same workload with plan edits layered on.
    #[must_use]
    pub fn with_overrides(mut self, overrides: PlanOverrides) -> Self {
        self.overrides = overrides;
        self
    }

    /// Builds the concrete `(config, plan)` pair.
    pub fn build(&self) -> (SocConfig, SocTestPlan) {
        let (mut config, mut plan) = match self.preset {
            WorkloadPreset::Paper => (SocConfig::paper(), SocTestPlan::paper()),
            WorkloadPreset::Small => (SocConfig::small(), SocTestPlan::small()),
            WorkloadPreset::Bench => {
                let mut c = SocConfig::paper();
                c.memory_words = 2622;
                (c, SocTestPlan::paper_scaled(100))
            }
        };
        if self.scale > 1 {
            plan = SocTestPlan {
                bist_proc_patterns: (plan.bist_proc_patterns / self.scale).max(1),
                det_proc_patterns: (plan.det_proc_patterns / self.scale).max(1),
                comp_proc_patterns: (plan.comp_proc_patterns / self.scale).max(1),
                bist_color_patterns: (plan.bist_color_patterns / self.scale).max(1),
                det_dct_patterns: (plan.det_dct_patterns / self.scale).max(1),
                ..plan
            };
        }
        if let Some(words) = self.mem_words {
            config.memory_words = words;
        }
        self.overrides.apply(&mut plan);
        (config, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_preset_matches_pinned_workload() {
        let (config, plan) = Workload::bench().build();
        let mut want_config = SocConfig::paper();
        want_config.memory_words = 2622;
        assert_eq!(format!("{config:?}"), format!("{want_config:?}"));
        assert_eq!(
            format!("{plan:?}"),
            format!("{:?}", SocTestPlan::paper_scaled(100))
        );
    }

    #[test]
    fn knobs_compose() {
        let mut overrides = PlanOverrides::default();
        assert!(overrides.set("det_dct_patterns", 7));
        assert!(!overrides.set("nope", 1));
        let (config, plan) = Workload::paper()
            .with_scale(100)
            .with_mem_words(64)
            .with_overrides(overrides)
            .build();
        assert_eq!(config.memory_words, 64);
        assert_eq!(plan.det_dct_patterns, 7);
        assert_eq!(
            plan.bist_proc_patterns,
            SocTestPlan::paper_scaled(100).bist_proc_patterns
        );
    }

    #[test]
    fn touched_tests_map_fields_to_sequences() {
        let mut o = PlanOverrides::default();
        o.set("det_dct_patterns", 3);
        assert_eq!(o.touched_tests(), vec![4]);
        o.set("bist_proc_patterns", 3);
        assert_eq!(o.touched_tests(), vec![0, 4]);
        let mut s = PlanOverrides::default();
        s.set("seed", 1);
        assert_eq!(s.touched_tests(), (0..7).collect::<Vec<_>>());
        assert_eq!(o.entries().len(), 2);
        assert!(PlanOverrides::default().is_empty());
    }
}
