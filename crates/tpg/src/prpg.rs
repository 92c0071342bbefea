//! Multi-chain pseudo-random pattern generator: an LFSR behind a phase
//! shifter feeding parallel scan chains (the pattern source of logic BIST).

use crate::bitvec::BitVec;
use crate::lfsr::{Lfsr, PolyError};
use crate::pattern::{ScanConfig, ScanPattern};

/// Deterministic, well-spread phase-shifter mask for chain `j` of an LFSR
/// of width `degree`, derived from a golden-ratio hash. Shared between
/// [`Prpg`] and the reseeding codec so compression targets the same
/// decompressor structure.
pub(crate) fn phase_mask(j: u64, degree: u32) -> u64 {
    let mut x = (j + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 29;
    let m = if degree == 64 {
        u64::MAX
    } else {
        (1 << degree) - 1
    };
    let v = x & m;
    if v == 0 {
        1
    } else {
        v
    }
}

/// Fills one chain-major pattern for `config` from a phase-shifted LFSR:
/// each shift cycle steps `lfsr` once, and chain `j` receives the parity
/// of the state under `masks[j]`. The register leaps 64 cycles at a time,
/// and each chain's 64 outputs are the XOR of the sequence window shifted
/// once per mask tap, ORed straight into the packed words. [`Prpg`] and
/// the reseeding decompressor share it.
pub(crate) fn fill_pattern(lfsr: &mut Lfsr, config: ScanConfig, masks: &[u64]) -> ScanPattern {
    debug_assert_eq!(masks.len(), config.chains() as usize);
    let len = config.max_chain_len() as usize;
    let bits = masks.len() * len;
    let mut words = vec![0u32; bits.div_ceil(32)];
    for cycle in (0..len).step_by(64) {
        let cycles = (len - cycle).min(64);
        let window = lfsr.leap(cycles as u32);
        let keep = u64::MAX >> (64 - cycles);
        for (j, &mask) in masks.iter().enumerate() {
            let mut taps = mask;
            let mut out = 0u64;
            while taps != 0 {
                out ^= (window >> (64 - taps.trailing_zeros())) as u64;
                taps &= taps - 1;
            }
            // A 64-bit run at any offset spans at most three words.
            let at = j * len + cycle;
            let run = u128::from(out & keep) << (at % 32);
            for (k, word) in words[at / 32..].iter_mut().take(3).enumerate() {
                *word |= (run >> (32 * k)) as u32;
            }
        }
    }
    ScanPattern::new(BitVec::from_words(words, bits), config)
}

/// A pseudo-random pattern generator for `chains` parallel scan chains.
///
/// Each shift cycle advances the internal LFSR once; chain `j` receives the
/// parity of the LFSR state under a per-chain phase-shifter mask, decoupling
/// the chains from the plain LFSR sequence (and from each other's shifted
/// copies — the classic structural fix for channel correlation).
///
/// ```
/// use tve_tpg::{Prpg, ScanConfig};
/// let cfg = ScanConfig::new(4, 16);
/// let mut p = Prpg::new(32, 0xDEADBEEF, cfg).unwrap();
/// let a = p.next_pattern();
/// let b = p.next_pattern();
/// assert_ne!(a.stimulus(), b.stimulus());
/// ```
#[derive(Debug, Clone)]
pub struct Prpg {
    lfsr: Lfsr,
    masks: Vec<u64>,
    config: ScanConfig,
}

impl Prpg {
    /// Creates a PRPG with an LFSR of `degree` stages seeded with `seed`,
    /// feeding `config.chains()` chains.
    ///
    /// # Errors
    ///
    /// Propagates [`PolyError`] for unsupported degrees or a zero seed.
    pub fn new(degree: u32, seed: u64, config: ScanConfig) -> Result<Self, PolyError> {
        let lfsr = Lfsr::maximal(degree, seed)?;
        let masks = (0..config.chains() as u64)
            .map(|j| phase_mask(j, degree))
            .collect();
        Ok(Prpg {
            lfsr,
            masks,
            config,
        })
    }

    /// Generates the next pattern: one bit per chain per shift cycle,
    /// chain-major packing (chain 0's full image first).
    pub fn next_pattern(&mut self) -> ScanPattern {
        fill_pattern(&mut self.lfsr, self.config, &self.masks)
    }

    /// Skips `n` patterns without materializing them (timing-only mode).
    pub fn skip_patterns(&mut self, n: u64) {
        // The LFSR advances chain_len cycles per pattern.
        self.lfsr
            .advance(n * u64::from(self.config.max_chain_len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Geometries where neither the chain length nor the pattern size is
    /// a multiple of the 32-bit word, plus the SoC's word-aligned ones.
    const GEOMETRIES: [(u32, u32); 5] = [(1, 1), (3, 37), (33, 5), (4, 48), (4, 64)];

    /// The bit-serial phase-shifter fill that [`fill_pattern`] replaced,
    /// kept as the reference it must reproduce bit for bit.
    fn reference_fill(
        lfsr: &mut Lfsr,
        config: ScanConfig,
        bit: impl Fn(usize, u64) -> bool,
    ) -> ScanPattern {
        let chains = config.chains() as usize;
        let len = config.max_chain_len() as usize;
        let mut bits = BitVec::zeros(chains * len);
        for cycle in 0..len {
            lfsr.step();
            let state = lfsr.state();
            for j in 0..chains {
                if bit(j, state) {
                    bits.set(j * len + cycle, true);
                }
            }
        }
        ScanPattern::new(bits, config)
    }

    #[test]
    fn prpg_matches_bit_serial_reference() {
        for (chains, len) in GEOMETRIES {
            let cfg = ScanConfig::new(chains, len);
            for seed in [1u64, 0xDEAD_BEEF, 0x1234_5678_9ABC] {
                let mut prpg = Prpg::new(32, seed, cfg).unwrap();
                let mut lfsr = Lfsr::maximal(32, seed).unwrap();
                let masks: Vec<u64> = (0..chains as u64).map(|j| phase_mask(j, 32)).collect();
                for k in 0..4 {
                    let want =
                        reference_fill(&mut lfsr, cfg, |j, s| (s & masks[j]).count_ones() & 1 == 1);
                    assert_eq!(
                        prpg.next_pattern(),
                        want,
                        "{cfg} seed {seed:#x} pattern {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn chains_are_decorrelated() {
        let cfg = ScanConfig::new(8, 64);
        let mut p = Prpg::new(32, 1, cfg).unwrap();
        let pat = p.next_pattern();
        // No two chains may carry identical images.
        for a in 0..8 {
            for b in (a + 1)..8 {
                let ia = pat.chain_bits(a);
                let ib = pat.chain_bits(b);
                assert_ne!(ia, ib, "chains {a} and {b} identical");
            }
        }
    }

    #[test]
    fn density_is_roughly_half() {
        let cfg = ScanConfig::new(16, 128);
        let mut p = Prpg::new(32, 0xABCD, cfg).unwrap();
        let mut ones = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let pat = p.next_pattern();
            ones += pat.stimulus().count_ones();
            total += pat.stimulus().len();
        }
        let density = ones as f64 / total as f64;
        assert!((0.45..0.55).contains(&density), "density {density}");
    }

    #[test]
    fn skip_is_equivalent_to_generate() {
        let cfg = ScanConfig::new(4, 32);
        let mut a = Prpg::new(32, 7, cfg).unwrap();
        let mut b = Prpg::new(32, 7, cfg).unwrap();
        for _ in 0..5 {
            let _ = a.next_pattern();
        }
        b.skip_patterns(5);
        assert_eq!(a.next_pattern().stimulus(), b.next_pattern().stimulus());
    }

    #[test]
    fn zero_seed_is_rejected() {
        assert!(Prpg::new(32, 0, ScanConfig::new(1, 8)).is_err());
    }
}
