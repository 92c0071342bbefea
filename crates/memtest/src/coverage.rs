//! Fault-coverage evaluation: which injected faults does a given test
//! strategy detect?

use std::collections::BTreeMap;
use std::fmt;

use crate::march::MarchTest;
use crate::memory::{Fault, MemoryArray};
use crate::patterns::PatternTest;

/// Per-class detection statistics for a fault-injection campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// `(detected, total)` per fault class label.
    pub(crate) per_class: BTreeMap<&'static str, (usize, usize)>,
    /// Faults that escaped detection.
    pub(crate) escapes: Vec<Fault>,
}

impl CoverageReport {
    /// Overall detected fault count.
    pub(crate) fn detected(&self) -> usize {
        self.per_class.values().map(|(d, _)| d).sum()
    }

    /// Overall injected fault count.
    pub(crate) fn total(&self) -> usize {
        self.per_class.values().map(|(_, t)| t).sum()
    }

    /// Overall coverage in `[0, 1]` (1.0 for an empty campaign).
    pub fn coverage(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            1.0
        } else {
            self.detected() as f64 / t as f64
        }
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "coverage {:.1}% (", self.coverage() * 100.0)?;
        for (i, (class, (d, t))) in self.per_class.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{class}: {d}/{t}")?;
        }
        write!(f, ")")
    }
}

/// Runs `march` (and optionally `patterns`) once per fault — each injection
/// into a fresh `words`-sized memory — and reports per-class coverage.
///
/// A fault counts as detected when any stage of the strategy reports a
/// mismatch.
pub fn evaluate_coverage(
    march: &MarchTest,
    patterns: &[PatternTest],
    words: usize,
    faults: &[Fault],
) -> CoverageReport {
    let mut report = CoverageReport::default();
    for &fault in faults {
        let mut mem = MemoryArray::new(words);
        mem.inject(fault);
        let mut detected = !march.run(&mut mem).passed();
        if !detected {
            for p in patterns {
                if !p.run(&mut mem).passed() {
                    detected = true;
                    break;
                }
            }
        }
        let entry = report.per_class.entry(fault.class()).or_insert((0, 0));
        entry.1 += 1;
        if detected {
            entry.0 += 1;
        } else {
            report.escapes.push(fault);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saf_campaign(words: usize) -> Vec<Fault> {
        let mut v = Vec::new();
        for a in (0..words as u32).step_by(7) {
            for bit in [0u8, 15, 31] {
                v.push(Fault::stuck_at(a, bit, a % 2 == 0));
            }
        }
        v
    }

    #[test]
    fn mats_plus_has_full_saf_coverage() {
        let faults = saf_campaign(64);
        let r = evaluate_coverage(&MarchTest::mats_plus(), &[], 64, &faults);
        assert_eq!(r.coverage(), 1.0, "{r}");
        assert!(r.escapes.is_empty());
        assert_eq!(r.total(), faults.len());
    }

    #[test]
    fn march_c_minus_dominates_mats_plus_on_coupling() {
        let mut faults = Vec::new();
        for k in 0..20u32 {
            faults.push(Fault::coupling_inversion(
                (k, (k % 32) as u8),
                ((k + 31) % 64, ((k + 5) % 32) as u8),
                k % 2 == 0,
            ));
        }
        let weak = evaluate_coverage(&MarchTest::mats_plus(), &[], 64, &faults);
        let strong = evaluate_coverage(&MarchTest::march_c_minus(), &[], 64, &faults);
        assert_eq!(strong.coverage(), 1.0, "{strong}");
        assert!(
            strong.coverage() >= weak.coverage(),
            "March C- must dominate MATS+"
        );
    }

    #[test]
    fn pattern_stage_catches_extra_faults() {
        // A down-TF escapes MATS+ alone but a checkerboard + solid-0 pass
        // exercises the 1->0 transition followed by a read.
        let faults = vec![Fault::transition(9, 3, false)];
        let without = evaluate_coverage(&MarchTest::mats_plus(), &[], 32, &faults);
        let with = evaluate_coverage(
            &MarchTest::mats_plus(),
            &[PatternTest::Solid(u32::MAX), PatternTest::Solid(0)],
            32,
            &faults,
        );
        assert_eq!(without.detected(), 0);
        assert_eq!(with.detected(), 1);
    }

    #[test]
    fn empty_campaign_is_full_coverage() {
        let r = evaluate_coverage(&MarchTest::mats(), &[], 16, &[]);
        assert_eq!(r.coverage(), 1.0);
        assert_eq!(r.total(), 0);
    }

    #[test]
    fn report_formats() {
        let faults = vec![Fault::stuck_at(0, 0, true), Fault::transition(1, 0, false)];
        let r = evaluate_coverage(&MarchTest::mats_plus(), &[], 16, &faults);
        let s = r.to_string();
        assert!(s.contains("SAF"), "{s}");
        assert!(s.contains("TF"), "{s}");
    }
}
