//! Spatial response compaction (XOR trees).

use crate::bitvec::BitVec;

/// A spatial XOR compactor reducing `inputs` response bits per cycle to
/// `outputs` bits, by XOR-folding input groups (paper Section III.D).
///
/// ```
/// use tve_tpg::{XorCompactor, BitVec};
/// let c = XorCompactor::new(8, 2).unwrap();
/// let slice = BitVec::from_bits([true, false, false, false, true, true, false, false]);
/// let out = c.compact_image(&slice);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorCompactor {
    inputs: u32,
    outputs: u32,
}

impl XorCompactor {
    /// Creates a compactor folding `inputs` into `outputs` bits.
    ///
    /// # Errors
    ///
    /// Returns `None` unless `0 < outputs <= inputs`.
    pub fn new(inputs: u32, outputs: u32) -> Option<Self> {
        if outputs == 0 || outputs > inputs {
            return None;
        }
        Some(XorCompactor { inputs, outputs })
    }

    /// Compacts a full chain-major response image: in every scan cycle,
    /// output `o` is the parity of inputs `i` with `i % outputs == o`.
    ///
    /// The image holds `inputs` chains of equal length; the result holds
    /// `outputs` compacted streams of the same length, chain-major. Since
    /// output `o` is the parity of inputs `i ≡ o (mod outputs)` in every
    /// cycle, stream `o` is the XOR of those whole chain images: each
    /// chain is folded into its output stream 32 cycles at a time.
    ///
    /// # Panics
    ///
    /// Panics if the image is not a multiple of `inputs`.
    pub fn compact_image(&self, image: &BitVec) -> BitVec {
        assert_eq!(
            image.len() % self.inputs as usize,
            0,
            "image not a multiple of input width"
        );
        let len = image.len() / self.inputs as usize;
        let outputs = self.outputs as usize;
        let mut out = vec![0u32; (outputs * len).div_ceil(32)];
        for chain in 0..self.inputs as usize {
            let (src, dst) = (chain * len, (chain % outputs) * len);
            for at in (0..len).step_by(32) {
                let n = (len - at).min(32);
                xor_bits(&mut out, dst + at, read_bits(image.words(), src + at, n), n);
            }
        }
        BitVec::from_words(out, outputs * len)
    }
}

/// The `n ≤ 32` bits of `words` starting at bit `start`, LSB first.
fn read_bits(words: &[u32], start: usize, n: usize) -> u32 {
    let (w, b) = (start / 32, start % 32);
    let mut x = words[w] >> b;
    if b + n > 32 {
        x |= words[w + 1] << (32 - b);
    }
    if n < 32 {
        x &= (1 << n) - 1;
    }
    x
}

/// XORs the `n ≤ 32` low bits of `x` into `words` starting at bit `start`.
fn xor_bits(words: &mut [u32], start: usize, x: u32, n: usize) {
    let (w, b) = (start / 32, start % 32);
    words[w] ^= x << b;
    if b + n > 32 {
        words[w + 1] ^= x >> (32 - b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compacts one slice of `inputs` bits to `outputs` bits: output `o`
    /// is the parity of inputs `i` with `i % outputs == o`. The per-cycle
    /// reference for [`XorCompactor::compact_image`].
    fn compact_slice(c: &XorCompactor, slice: &BitVec) -> BitVec {
        assert_eq!(slice.len() as u32, c.inputs, "slice width mismatch");
        let mut out = BitVec::zeros(c.outputs as usize);
        for i in 0..c.inputs as usize {
            if slice.get(i) == Some(true) {
                let o = i % c.outputs as usize;
                let cur = out.get(o).expect("in range");
                out.set(o, !cur);
            }
        }
        out
    }

    #[test]
    fn construction_validates() {
        assert!(XorCompactor::new(8, 0).is_none());
        assert!(XorCompactor::new(4, 8).is_none());
        assert!(XorCompactor::new(8, 4).is_some());
    }

    #[test]
    fn single_error_always_visible() {
        // An XOR compactor propagates any single-bit error to an output.
        let c = XorCompactor::new(8, 2).unwrap();
        let clean = BitVec::zeros(8);
        for e in 0..8 {
            let mut dirty = clean.clone();
            dirty.set(e, true);
            assert_ne!(
                compact_slice(&c, &clean),
                compact_slice(&c, &dirty),
                "error at {e} masked"
            );
        }
    }

    #[test]
    fn even_errors_in_same_group_alias() {
        // Two errors folding into the same output cancel — the classic
        // aliasing limitation of pure spatial compaction.
        let c = XorCompactor::new(8, 4).unwrap();
        let clean = BitVec::zeros(8);
        let mut dirty = clean.clone();
        dirty.set(0, true);
        dirty.set(4, true); // same group (0 % 4 == 4 % 4)
        assert_eq!(compact_slice(&c, &clean), compact_slice(&c, &dirty));
    }

    /// Per-cycle compaction through [`compact_slice`], the
    /// loop that the word-folding [`XorCompactor::compact_image`]
    /// replaced.
    fn reference_compact_image(c: &XorCompactor, image: &BitVec) -> BitVec {
        let len = image.len() / c.inputs as usize;
        let mut out = BitVec::zeros(c.outputs as usize * len);
        for cycle in 0..len {
            let slice: BitVec = (0..c.inputs as usize)
                .map(|ch| image.get(ch * len + cycle).unwrap())
                .collect();
            let folded = compact_slice(c, &slice);
            for o in 0..c.outputs as usize {
                if folded.get(o) == Some(true) {
                    out.set(o * len + cycle, true);
                }
            }
        }
        out
    }

    #[test]
    fn image_compaction_matches_per_slice_reference() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for (inputs, outputs) in [(1, 1), (3, 1), (4, 2), (8, 3), (33, 4), (32, 32)] {
            let c = XorCompactor::new(inputs, outputs).unwrap();
            for len in [1usize, 5, 31, 32, 37, 64, 100] {
                let image: BitVec = (0..inputs as usize * len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x & 1 == 1
                    })
                    .collect();
                assert_eq!(
                    c.compact_image(&image),
                    reference_compact_image(&c, &image),
                    "{inputs}->{outputs}, chain length {len}"
                );
            }
        }
    }

    #[test]
    fn image_compaction_shapes() {
        let c = XorCompactor::new(4, 2).unwrap();
        let image = BitVec::ones(4 * 10);
        let out = c.compact_image(&image);
        assert_eq!(out.len(), 2 * 10);
        // 4 ones per slice fold to parity 0 in both outputs.
        assert_eq!(out.count_ones(), 0);
    }
}
