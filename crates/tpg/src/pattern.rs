//! Scan geometries, scan patterns and deterministic pattern sets.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bitvec::BitVec;

/// Geometry of a core's internal scan structure: a number of balanced scan
/// chains of a maximum length. The paper's processor core uses 32 chains,
/// the DCT core 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScanConfig {
    chains: u32,
    max_chain_len: u32,
}

impl ScanConfig {
    /// Creates a geometry of `chains` chains, each up to `max_chain_len`
    /// cells long.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(chains: u32, max_chain_len: u32) -> Self {
        assert!(
            chains > 0 && max_chain_len > 0,
            "scan geometry must be non-empty"
        );
        ScanConfig {
            chains,
            max_chain_len,
        }
    }

    /// Number of scan chains (parallel TAM/wrapper bits).
    pub fn chains(&self) -> u32 {
        self.chains
    }

    /// Longest chain length: the shift cycles per pattern.
    pub fn max_chain_len(&self) -> u32 {
        self.max_chain_len
    }

    /// Total scan cells = bits per pattern.
    pub fn bits_per_pattern(&self) -> u64 {
        self.chains as u64 * self.max_chain_len as u64
    }
}

impl fmt::Display for ScanConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.chains, self.max_chain_len)
    }
}

/// One scan pattern: a full stimulus image for a [`ScanConfig`], packed
/// chain-major (all of chain 0, then chain 1, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPattern {
    stimulus: BitVec,
    config: ScanConfig,
}

impl ScanPattern {
    /// Wraps a stimulus image.
    ///
    /// # Panics
    ///
    /// Panics if the image length does not match the geometry.
    pub fn new(stimulus: BitVec, config: ScanConfig) -> Self {
        assert_eq!(
            stimulus.len() as u64,
            config.bits_per_pattern(),
            "stimulus length must match scan geometry"
        );
        ScanPattern { stimulus, config }
    }

    /// The scan geometry.
    pub(crate) fn config(&self) -> ScanConfig {
        self.config
    }

    /// The full stimulus image.
    pub fn stimulus(&self) -> &BitVec {
        &self.stimulus
    }

    /// The image of one chain.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is out of range.
    pub(crate) fn chain_bits(&self, chain: u32) -> BitVec {
        assert!(chain < self.config.chains, "chain {chain} out of range");
        let len = self.config.max_chain_len as usize;
        let start = chain as usize * len;
        (start..start + len)
            .map(|i| self.stimulus.get(i).expect("in range"))
            .collect()
    }

    /// Scan-in transition count summed over chains — the shift-power proxy
    /// used by power-aware scheduling.
    pub fn shift_transitions(&self) -> usize {
        (0..self.config.chains)
            .map(|c| self.chain_bits(c).transition_count())
            .sum()
    }
}

/// A deterministic, reproducible set of pre-computed patterns ("stored in
/// the ATE"), generated once from a seed.
///
/// ```
/// use tve_tpg::{PatternSet, ScanConfig};
/// let set = PatternSet::random(ScanConfig::new(2, 8), 10, 42);
/// assert_eq!(set.len(), 10);
/// assert_eq!(set, PatternSet::random(ScanConfig::new(2, 8), 10, 42));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSet {
    config: ScanConfig,
    patterns: Vec<ScanPattern>,
}

impl PatternSet {
    /// Generates `count` reproducible random patterns.
    pub fn random(config: ScanConfig, count: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = config.bits_per_pattern() as usize;
        let patterns = (0..count)
            .map(|_| {
                let v: BitVec = (0..bits).map(|_| rng.gen_bool(0.5)).collect();
                ScanPattern::new(v, config)
            })
            .collect();
        PatternSet { config, patterns }
    }

    /// The common scan geometry.
    pub fn config(&self) -> ScanConfig {
        self.config
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The pattern at `index`.
    pub fn get(&self, index: usize) -> Option<&ScanPattern> {
        self.patterns.get(index)
    }

    /// Iterates over the patterns.
    pub fn iter(&self) -> std::slice::Iter<'_, ScanPattern> {
        self.patterns.iter()
    }

    /// Total stimulus volume in bits.
    pub fn total_bits(&self) -> u64 {
        self.patterns.len() as u64 * self.config.bits_per_pattern()
    }
}

impl<'a> IntoIterator for &'a PatternSet {
    type Item = &'a ScanPattern;
    type IntoIter = std::slice::Iter<'a, ScanPattern>;
    fn into_iter(self) -> Self::IntoIter {
        self.patterns.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_config_volume() {
        let cfg = ScanConfig::new(32, 1296);
        assert_eq!(cfg.bits_per_pattern(), 32 * 1296);
        assert_eq!(cfg.to_string(), "32x1296");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_chains_panics() {
        let _ = ScanConfig::new(0, 8);
    }

    #[test]
    fn chain_extraction_is_chain_major() {
        let cfg = ScanConfig::new(2, 3);
        // chain0 = 101, chain1 = 011
        let bits = BitVec::from_bits([true, false, true, false, true, true]);
        let p = ScanPattern::new(bits, cfg);
        assert_eq!(p.chain_bits(0), BitVec::from_bits([true, false, true]));
        assert_eq!(p.chain_bits(1), BitVec::from_bits([false, true, true]));
    }

    #[test]
    fn shift_transitions_sum_chains() {
        let cfg = ScanConfig::new(2, 3);
        let bits = BitVec::from_bits([true, false, true, true, true, true]);
        let p = ScanPattern::new(bits, cfg);
        assert_eq!(p.shift_transitions(), 2); // chain0: 2, chain1: 0
    }

    #[test]
    #[should_panic(expected = "match scan geometry")]
    fn wrong_length_stimulus_panics() {
        let _ = ScanPattern::new(BitVec::zeros(5), ScanConfig::new(2, 3));
    }

    #[test]
    fn random_sets_are_reproducible_and_seed_sensitive() {
        let cfg = ScanConfig::new(4, 16);
        let a = PatternSet::random(cfg, 5, 1);
        let b = PatternSet::random(cfg, 5, 1);
        let c = PatternSet::random(cfg, 5, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.total_bits(), 5 * 64);
        assert_eq!(a.iter().count(), 5);
        assert!(a.get(4).is_some());
        assert!(a.get(5).is_none());
    }
}
