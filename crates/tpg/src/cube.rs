//! Test cubes: partially specified patterns with don't-care positions,
//! the input representation for test-data compression.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bitvec::BitVec;
use crate::pattern::{ScanConfig, ScanPattern};

/// A partially specified scan pattern: `care` marks the specified
/// positions, `value` their values (don't-care positions hold zero).
///
/// ATPG produces cubes with typically 1–5 % specified bits; that sparsity
/// is what reseeding-style compression exploits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCube {
    care: BitVec,
    value: BitVec,
    config: ScanConfig,
}

impl fmt::Display for TestCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cube {} ({} of {} bits specified)",
            self.config,
            self.care.count_ones(),
            self.care.len()
        )
    }
}

impl TestCube {
    /// Generates a reproducible random cube with `specified` care bits.
    ///
    /// # Panics
    ///
    /// Panics if `specified` exceeds the pattern size.
    pub fn random(config: ScanConfig, specified: usize, seed: u64) -> Self {
        let bits = config.bits_per_pattern() as usize;
        assert!(specified <= bits, "more care bits than positions");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut care = BitVec::zeros(bits);
        let mut value = BitVec::zeros(bits);
        let mut placed = 0;
        while placed < specified {
            let pos = rng.gen_range(0..bits);
            if care.get(pos) == Some(false) {
                care.set(pos, true);
                if rng.gen_bool(0.5) {
                    value.set(pos, true);
                }
                placed += 1;
            }
        }
        TestCube {
            care,
            value,
            config,
        }
    }

    /// The scan geometry.
    pub(crate) fn config(&self) -> ScanConfig {
        self.config
    }

    /// The care-bit mask.
    pub(crate) fn care(&self) -> &BitVec {
        &self.care
    }

    /// The specified values.
    pub(crate) fn value(&self) -> &BitVec {
        &self.value
    }

    /// Number of specified bits.
    pub(crate) fn specified_count(&self) -> usize {
        self.care.count_ones()
    }

    /// Whether `pattern` satisfies every specified bit of the cube.
    pub fn is_satisfied_by(&self, pattern: &ScanPattern) -> bool {
        if pattern.config() != self.config {
            return false;
        }
        (0..self.care.len()).all(|i| {
            self.care.get(i) != Some(true) || pattern.stimulus().get(i) == self.value.get(i)
        })
    }

    /// Fills don't-care positions with zeros, yielding a full pattern.
    pub fn zero_fill(&self) -> ScanPattern {
        ScanPattern::new(self.value.clone(), self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cube_has_requested_density() {
        let cfg = ScanConfig::new(4, 64);
        let cube = TestCube::random(cfg, 10, 99);
        assert_eq!(cube.specified_count(), 10);
        assert_eq!(cube.care().len(), 256);
        // Values only at care positions.
        for i in 0..256 {
            if cube.value().get(i) == Some(true) {
                assert_eq!(cube.care().get(i), Some(true));
            }
        }
    }

    #[test]
    fn satisfaction_checks_only_care_bits() {
        let cfg = ScanConfig::new(1, 4);
        let care = BitVec::from_bits([true, false, true, false]);
        let value = BitVec::from_bits([true, false, false, false]);
        let cube = TestCube {
            care,
            value,
            config: cfg,
        };

        let good = ScanPattern::new(BitVec::from_bits([true, true, false, true]), cfg);
        let bad = ScanPattern::new(BitVec::from_bits([false, true, false, true]), cfg);
        assert!(cube.is_satisfied_by(&good));
        assert!(!cube.is_satisfied_by(&bad));
        assert!(cube.is_satisfied_by(&cube.zero_fill()));
    }

    #[test]
    fn reproducible() {
        let cfg = ScanConfig::new(2, 32);
        assert_eq!(TestCube::random(cfg, 8, 5), TestCube::random(cfg, 8, 5));
        assert_ne!(TestCube::random(cfg, 8, 5), TestCube::random(cfg, 8, 6));
    }
}
