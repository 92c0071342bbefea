//! Core models: what a test wrapper wraps.
//!
//! The paper notes (Section III.B) that the wrapped core "can be either a
//! merely functional TLM, a refined approximately timed model, a model at
//! register transfer level or even at gate level". The [`CoreModel`] trait
//! is that plug point: all a wrapper needs is the core's scan geometry and
//! its capture: the stimulus image in the scan cells becomes the response
//! image.

use std::fmt;

use tve_tpg::{BitVec, ScanConfig};

/// How much detail a test run materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataPolicy {
    /// Only data volumes and timing are modeled — the fast exploration
    /// mode used for full schedules (hundreds of megacycles).
    #[default]
    Volume,
    /// Bit-true stimuli, responses and signatures — the validation mode.
    Full,
}

impl fmt::Display for DataPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataPolicy::Volume => write!(f, "volume"),
            DataPolicy::Full => write!(f, "full"),
        }
    }
}

/// A wrapped core's test view: scan geometry plus the capture of a scan
/// stimulus into its response.
pub trait CoreModel {
    /// Core name for diagnostics.
    fn name(&self) -> &str;

    /// The core's internal scan geometry.
    fn scan_config(&self) -> ScanConfig;

    /// Captures in place, as a scan capture cycle does: `image` holds
    /// the stimulus shifted into the chains and is overwritten with the
    /// response the core captures (chain-major packing, same geometry).
    /// The wrapper moves each pattern's payload through this call, so a
    /// bit-true pattern is not copied on its way to the core.
    fn capture(&self, image: &mut BitVec);
}

/// A defect model at the wrapper/scan level: one scan cell's captured value
/// is stuck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckCell {
    /// The chain holding the defective cell.
    pub chain: u32,
    /// Cell position within the chain.
    pub position: u32,
    /// The stuck value.
    pub value: bool,
}

impl fmt::Display for StuckCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stuck-{} at chain {} cell {}",
            u8::from(self.value),
            self.chain,
            self.position
        )
    }
}

/// A synthetic combinational-logic core: its response is a deterministic,
/// avalanche-mixing function of the stimulus, which is all structural test
/// modeling needs (data-dependence, not functional meaning).
///
/// ```
/// use tve_core::{SyntheticLogicCore, CoreModel};
/// use tve_tpg::{ScanConfig, BitVec};
///
/// let core = SyntheticLogicCore::new("dct", ScanConfig::new(8, 16), 7);
/// let mut r0 = BitVec::zeros(128);
/// core.capture(&mut r0);
/// let mut r1 = BitVec::zeros(128);
/// r1.set(5, true);
/// core.capture(&mut r1);
/// assert_ne!(r0, r1, "single stimulus bit must disturb the response");
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticLogicCore {
    name: String,
    scan: ScanConfig,
    seed: u64,
}

impl SyntheticLogicCore {
    /// Creates a core named `name` with the given scan geometry; `seed`
    /// individualizes the response function.
    pub fn new(name: impl Into<String>, scan: ScanConfig, seed: u64) -> Self {
        SyntheticLogicCore {
            name: name.into(),
            scan,
            seed,
        }
    }
}

fn mix(x: u64) -> u64 {
    // splitmix64 finalizer: full-avalanche word mixing.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CoreModel for SyntheticLogicCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn scan_config(&self) -> ScanConfig {
        self.scan
    }

    fn capture(&self, image: &mut BitVec) {
        assert_eq!(
            image.len() as u64,
            self.scan.bits_per_pattern(),
            "stimulus does not match the core's scan geometry"
        );
        // Chain the mix so every stimulus word influences all later
        // response words, and fold the tail back into word 0 so earlier
        // words depend on later ones too. Word `i` is read before it is
        // overwritten, so the capture runs in place.
        let seed = self.seed;
        image.update_words(|words| {
            let mut acc = seed;
            for (i, w) in words.iter_mut().enumerate() {
                acc = mix(acc ^ (*w as u64) ^ ((i as u64) << 32));
                *w = acc as u32;
            }
            if let Some(first) = words.first_mut() {
                *first ^= mix(acc) as u32;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> SyntheticLogicCore {
        SyntheticLogicCore::new("c", ScanConfig::new(4, 32), 42)
    }

    fn captured(c: &SyntheticLogicCore, mut image: BitVec) -> BitVec {
        c.capture(&mut image);
        image
    }

    #[test]
    fn response_is_deterministic() {
        let c = core();
        let stim = BitVec::ones(128);
        assert_eq!(captured(&c, stim.clone()), captured(&c, stim));
    }

    #[test]
    fn response_depends_on_every_word() {
        let c = core();
        let base = captured(&c, BitVec::zeros(128));
        for bit in [0usize, 31, 32, 64, 127] {
            let mut stim = BitVec::zeros(128);
            stim.set(bit, true);
            let r = captured(&c, stim);
            assert_ne!(r, base, "bit {bit} did not disturb the response");
        }
    }

    #[test]
    fn first_word_depends_on_last_stimulus_word() {
        let c = core();
        let base = captured(&c, BitVec::zeros(128));
        let mut stim = BitVec::zeros(128);
        stim.set(127, true);
        let r = captured(&c, stim);
        assert_ne!(
            r.words()[0],
            base.words()[0],
            "tail must fold back into the first response word"
        );
    }

    #[test]
    fn capture_keeps_the_length_and_a_clear_tail() {
        // 3 chains x 7 cells: 21 bits, so 11 bits of the one word are
        // padding that a capture must leave clear.
        let c = SyntheticLogicCore::new("t", ScanConfig::new(3, 7), 9);
        let r = captured(&c, BitVec::ones(21));
        assert_eq!(r.len(), 21);
        assert_eq!(r.words()[0] >> 21, 0);
        assert_eq!(r, BitVec::from_words(r.words().to_vec(), 21));
    }

    #[test]
    fn different_seeds_give_different_cores() {
        let a = SyntheticLogicCore::new("a", ScanConfig::new(2, 16), 1);
        let b = SyntheticLogicCore::new("b", ScanConfig::new(2, 16), 2);
        let stim = BitVec::zeros(32);
        assert_ne!(captured(&a, stim.clone()), captured(&b, stim));
    }

    #[test]
    #[should_panic(expected = "scan geometry")]
    fn wrong_stimulus_length_panics() {
        captured(&core(), BitVec::zeros(5));
    }

    #[test]
    fn data_policy_display() {
        assert_eq!(DataPolicy::Volume.to_string(), "volume");
        assert_eq!(DataPolicy::Full.to_string(), "full");
        assert_eq!(DataPolicy::default(), DataPolicy::Volume);
    }
}
