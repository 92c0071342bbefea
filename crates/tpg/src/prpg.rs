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

/// Parity of `x`: the output of a phase-shifter XOR tree over the LFSR
/// stages selected by a mask.
pub(crate) fn parity(x: u64) -> bool {
    x.count_ones() & 1 == 1
}

/// Fills one chain-major pattern for `config` from a phase-shifted LFSR:
/// each shift cycle steps `lfsr` once, and chain `j` receives
/// `bit(j, state)` for that cycle, ORed straight into the packed words.
/// [`Prpg`], [`WeightedPrpg`] and the reseeding decompressor share it.
pub(crate) fn fill_pattern(
    lfsr: &mut Lfsr,
    config: ScanConfig,
    bit: impl Fn(usize, u64) -> bool,
) -> ScanPattern {
    let chains = config.chains() as usize;
    let len = config.max_chain_len() as usize;
    let mut words = vec![0u32; (chains * len).div_ceil(32)];
    for cycle in 0..len {
        lfsr.step();
        let state = lfsr.state();
        let mut index = cycle;
        for j in 0..chains {
            words[index / 32] |= u32::from(bit(j, state)) << (index % 32);
            index += len;
        }
    }
    ScanPattern::new(BitVec::from_words(words, chains * len), config)
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
        let masks = &self.masks;
        fill_pattern(&mut self.lfsr, self.config, |j, state| {
            parity(state & masks[j])
        })
    }

    /// Skips `n` patterns without materializing them (timing-only mode).
    pub fn skip_patterns(&mut self, n: u64) {
        // The LFSR advances chain_len cycles per pattern.
        let steps = n * self.config.max_chain_len() as u64;
        for _ in 0..steps {
            self.lfsr.step();
        }
    }
}

/// Per-chain one-probability of a weighted pattern generator, realized
/// structurally by AND/OR-combining `k` LFSR taps (so only powers of two
/// around ½ are available, as in weighted-random BIST hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Weight {
    /// p(1) = 1/8 (AND of 3 taps).
    Eighth,
    /// p(1) = 1/4 (AND of 2 taps).
    Quarter,
    /// p(1) = 1/2 (plain tap).
    #[default]
    Half,
    /// p(1) = 3/4 (OR of 2 taps).
    ThreeQuarters,
    /// p(1) = 7/8 (OR of 3 taps).
    SevenEighths,
}

impl Weight {
    /// The nominal one-probability.
    pub fn probability(self) -> f64 {
        match self {
            Weight::Eighth => 0.125,
            Weight::Quarter => 0.25,
            Weight::Half => 0.5,
            Weight::ThreeQuarters => 0.75,
            Weight::SevenEighths => 0.875,
        }
    }

    fn taps(self) -> (u32, bool) {
        // (number of combined taps, OR instead of AND)
        match self {
            Weight::Eighth => (3, false),
            Weight::Quarter => (2, false),
            Weight::Half => (1, false),
            Weight::ThreeQuarters => (2, true),
            Weight::SevenEighths => (3, true),
        }
    }
}

/// A weighted pseudo-random pattern generator: like [`Prpg`] but with a
/// per-chain [`Weight`] biasing the one-density — the classic fix for
/// random-pattern-resistant logic (wide AND/OR cones).
///
/// ```
/// use tve_tpg::{WeightedPrpg, Weight, ScanConfig};
/// let cfg = ScanConfig::new(2, 256);
/// let mut g = WeightedPrpg::new(32, 1, cfg, vec![Weight::Quarter, Weight::Half]).unwrap();
/// let s = g.next_pattern().stimulus().clone();
/// // Chain-major: chain 0 is the first 256 bits.
/// let ones = |c: usize| (c * 256..(c + 1) * 256).filter(|&i| s.get(i) == Some(true)).count();
/// assert!(ones(0) < ones(1), "chain 0 is biased toward zero");
/// ```
#[derive(Debug, Clone)]
pub struct WeightedPrpg {
    lfsr: Lfsr,
    chain_taps: Vec<(Vec<u64>, bool)>,
    config: ScanConfig,
    generated: u64,
}

impl WeightedPrpg {
    /// Creates a generator with one [`Weight`] per chain.
    ///
    /// # Errors
    ///
    /// Propagates [`PolyError`] for unsupported degrees or a zero seed.
    ///
    /// # Panics
    ///
    /// Panics unless `weights.len()` equals the chain count.
    pub fn new(
        degree: u32,
        seed: u64,
        config: ScanConfig,
        weights: Vec<Weight>,
    ) -> Result<Self, PolyError> {
        assert_eq!(
            weights.len(),
            config.chains() as usize,
            "one weight per chain"
        );
        let lfsr = Lfsr::maximal(degree, seed)?;
        let chain_taps = weights
            .iter()
            .enumerate()
            .map(|(j, w)| {
                let (k, or) = w.taps();
                let masks = (0..k as u64)
                    .map(|t| phase_mask(j as u64 * 8 + t, degree))
                    .collect();
                (masks, or)
            })
            .collect();
        Ok(WeightedPrpg {
            lfsr,
            chain_taps,
            config,
            generated: 0,
        })
    }

    /// The scan geometry this generator fills.
    pub fn config(&self) -> ScanConfig {
        self.config
    }

    /// Patterns generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Generates the next weighted pattern (chain-major packing).
    pub fn next_pattern(&mut self) -> ScanPattern {
        let chain_taps = &self.chain_taps;
        let pattern = fill_pattern(&mut self.lfsr, self.config, |j, state| {
            let (masks, or) = &chain_taps[j];
            if *or {
                masks.iter().any(|&m| parity(state & m))
            } else {
                masks.iter().all(|&m| parity(state & m))
            }
        });
        self.generated += 1;
        pattern
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
    fn weighted_prpg_matches_bit_serial_reference() {
        let all = [
            Weight::Eighth,
            Weight::Quarter,
            Weight::Half,
            Weight::ThreeQuarters,
            Weight::SevenEighths,
        ];
        for (chains, len) in GEOMETRIES {
            let cfg = ScanConfig::new(chains, len);
            let weights: Vec<Weight> = (0..chains as usize).map(|j| all[j % all.len()]).collect();
            for seed in [1u64, 0xAB, 0x5555_0001] {
                let mut gen = WeightedPrpg::new(32, seed, cfg, weights.clone()).unwrap();
                let mut lfsr = Lfsr::maximal(32, seed).unwrap();
                let chain_taps = gen.chain_taps.clone();
                for k in 0..4 {
                    let want = reference_fill(&mut lfsr, cfg, |j, state| {
                        let (masks, or) = &chain_taps[j];
                        let tap = |m: u64| (state & m).count_ones() & 1 == 1;
                        if *or {
                            masks.iter().any(|&m| tap(m))
                        } else {
                            masks.iter().all(|&m| tap(m))
                        }
                    });
                    assert_eq!(gen.next_pattern(), want, "{cfg} seed {seed:#x} pattern {k}");
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

    #[test]
    fn weighted_densities_approach_nominal() {
        let cfg = ScanConfig::new(5, 2048);
        let weights = vec![
            Weight::Eighth,
            Weight::Quarter,
            Weight::Half,
            Weight::ThreeQuarters,
            Weight::SevenEighths,
        ];
        let mut g = WeightedPrpg::new(32, 0xAB, cfg, weights.clone()).unwrap();
        let p = g.next_pattern();
        for (j, w) in weights.iter().enumerate() {
            let ones = p.chain_bits(j as u32).count_ones() as f64;
            let density = ones / 2048.0;
            assert!(
                (density - w.probability()).abs() < 0.05,
                "chain {j}: density {density} vs nominal {}",
                w.probability()
            );
        }
    }

    #[test]
    fn weighted_generator_is_deterministic() {
        let cfg = ScanConfig::new(2, 64);
        let w = vec![Weight::Quarter, Weight::Half];
        let mut a = WeightedPrpg::new(32, 5, cfg, w.clone()).unwrap();
        let mut b = WeightedPrpg::new(32, 5, cfg, w).unwrap();
        assert_eq!(a.next_pattern(), b.next_pattern());
        assert_eq!(a.generated(), 1);
    }

    #[test]
    #[should_panic(expected = "one weight per chain")]
    fn weight_count_mismatch_panics() {
        let _ = WeightedPrpg::new(32, 1, ScanConfig::new(3, 8), vec![Weight::Half]);
    }
}
