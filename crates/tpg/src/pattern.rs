//! Scan geometries and scan patterns.

use std::fmt;

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

    /// The full stimulus image, moved out of the pattern.
    pub fn into_stimulus(self) -> BitVec {
        self.stimulus
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
}
