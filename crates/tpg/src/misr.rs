//! Multiple-input signature registers for response compaction
//! ("compaction may reduce the test responses down to a signature word",
//! paper Section III.D).

use std::fmt;

use crate::lfsr::{Lfsr, LfsrForm, PolyError, MAXIMAL_TAPS};

/// A multiple-input signature register: a Galois LFSR whose state is XORed
/// with up to `inputs` parallel response bits each cycle.
///
/// Two response streams that differ produce different signatures except for
/// aliasing, whose probability is ≈ 2⁻ⁿ for an n-stage MISR.
///
/// ```
/// use tve_tpg::Misr;
/// let mut a = Misr::new(16, 4).unwrap();
/// let mut b = Misr::new(16, 4).unwrap();
/// for w in [0b1010u64, 0b0110, 0b1111] {
///     a.absorb(w);
///     b.absorb(w);
/// }
/// assert_eq!(a.signature(), b.signature());
/// b.absorb(1); // one extra slice
/// assert_ne!(a.signature(), b.signature());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misr {
    lfsr: Lfsr,
    inputs: u32,
    slices: u64,
}

impl fmt::Display for Misr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MISR{}x{}: {:#x} ({} slices)",
            self.lfsr.degree(),
            self.inputs,
            self.signature(),
            self.slices
        )
    }
}

impl Misr {
    /// Creates an all-ones-seeded MISR with `degree` stages accepting up to
    /// `inputs` parallel bits per cycle.
    ///
    /// # Errors
    ///
    /// Returns a [`PolyError`] when `degree` has no tabled maximal taps or
    /// `inputs` exceeds `degree` (reported as
    /// [`PolyError::TapsExceedDegree`]).
    pub fn new(degree: u32, inputs: u32) -> Result<Self, PolyError> {
        if inputs == 0 || inputs > degree {
            return Err(PolyError::TapsExceedDegree {
                degree,
                taps: inputs as u64,
            });
        }
        let taps = MAXIMAL_TAPS
            .iter()
            .find(|(n, _)| *n == degree)
            .map(|(_, t)| *t)
            .ok_or(PolyError::NoKnownMaximalTaps(degree))?;
        let seed = if degree == 64 {
            u64::MAX
        } else {
            (1u64 << degree) - 1
        };
        Ok(Misr {
            lfsr: Lfsr::new(degree, taps, seed, LfsrForm::Galois)?,
            inputs,
            slices: 0,
        })
    }

    /// Absorbs one parallel response slice (low `inputs` bits of `slice`).
    pub fn absorb(&mut self, slice: u64) {
        let mask = if self.inputs == 64 {
            u64::MAX
        } else {
            (1u64 << self.inputs) - 1
        };
        self.lfsr.step();
        // XOR the input slice into the register stages. A zero register is
        // legal for a MISR (it is not free-running), hence `with_state`.
        let mixed = self.lfsr.state() ^ (slice & mask);
        self.lfsr = self.lfsr.with_state(mixed);
        self.slices += 1;
    }

    /// The current signature.
    pub fn signature(&self) -> u64 {
        self.lfsr.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_signatures() {
        let mut a = Misr::new(24, 8).unwrap();
        let mut b = Misr::new(24, 8).unwrap();
        for i in 0..1000u64 {
            a.absorb(i & 0xFF);
            b.absorb(i & 0xFF);
        }
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn single_bit_error_changes_signature() {
        let mut good = Misr::new(32, 16).unwrap();
        let mut bad = Misr::new(32, 16).unwrap();
        for i in 0..500u64 {
            let w = i.wrapping_mul(0x9E37_79B9) & 0xFFFF;
            good.absorb(w);
            bad.absorb(if i == 250 { w ^ 1 } else { w });
        }
        assert_ne!(good.signature(), bad.signature());
    }

    #[test]
    fn error_in_any_position_is_detected() {
        // A MISR detects all single-bit errors (linearity: signature
        // difference is the error response's signature, nonzero for a
        // single 1).
        for pos in 0..16u32 {
            let mut good = Misr::new(16, 16).unwrap();
            let mut bad = Misr::new(16, 16).unwrap();
            for i in 0..50u64 {
                good.absorb(i);
                bad.absorb(if i == 25 { i ^ (1 << pos) } else { i });
            }
            assert_ne!(good.signature(), bad.signature(), "missed bit {pos}");
        }
    }

    #[test]
    fn zero_state_is_tolerated() {
        let mut m = Misr::new(8, 8).unwrap();
        // Drive the register to zero by absorbing its own next state.
        for _ in 0..3 {
            let mut probe = m.clone();
            probe.absorb(0);
            let next = probe.signature();
            m.absorb(next); // forces state to zero
            assert_eq!(m.signature(), 0);
            m.absorb(0xA5); // and it recovers
            assert_ne!(m.signature(), 0);
        }
    }

    #[test]
    fn aliasing_rate_tracks_two_to_minus_n() {
        // Empirical escape rate of an 8-stage MISR on random multi-error
        // streams: theory says ~2^-8 ≈ 3.9e-3. With 20k trials the 3-sigma
        // band is roughly [2e-3, 8e-3].
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut rng = move || {
            // xorshift64*, deterministic and dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let trials = 20_000;
        let mut aliases = 0u32;
        for _ in 0..trials {
            let mut good = Misr::new(8, 8).unwrap();
            let mut bad = Misr::new(8, 8).unwrap();
            for k in 0..16 {
                let w = rng();
                good.absorb(w);
                bad.absorb(if k % 3 == 0 { w ^ (rng() | 1) } else { w });
            }
            if good.signature() == bad.signature() {
                aliases += 1;
            }
        }
        let rate = aliases as f64 / trials as f64;
        assert!(
            (0.002..0.008).contains(&rate),
            "aliasing rate {rate} outside the 2^-8 band"
        );
    }

    #[test]
    fn weight_one_bursts_never_alias() {
        // Aliasing needs an error polynomial divisible by the feedback
        // polynomial; a weight-1 burst (one flipped response bit anywhere
        // in the stream) injects a single 1 into the register, and the
        // Galois step is an invertible linear map, so the error state can
        // never decay to zero — no geometry, stream length, slice or bit
        // position may alias. This is the guarantee the fault campaign's
        // stuck-cell detection ultimately rests on: a stuck cell whose
        // capture differs in exactly one bit must corrupt the signature.
        for (degree, inputs) in [(64u32, 32u32), (32, 32), (16, 8)] {
            for stream_len in [1u64, 7, 64] {
                for err_slice in [0, stream_len / 2, stream_len - 1] {
                    for bit in [0, inputs / 2, inputs - 1] {
                        let mut good = Misr::new(degree, inputs).unwrap();
                        let mut bad = Misr::new(degree, inputs).unwrap();
                        for i in 0..stream_len {
                            let w = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            good.absorb(w);
                            bad.absorb(if i == err_slice { w ^ (1 << bit) } else { w });
                        }
                        assert_ne!(
                            good.signature(),
                            bad.signature(),
                            "MISR({degree},{inputs}) aliased a weight-1 burst at \
                             slice {err_slice} bit {bit} of {stream_len} slices"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_configs_error() {
        assert!(Misr::new(16, 0).is_err());
        assert!(Misr::new(16, 17).is_err());
        assert!(Misr::new(13, 4).is_err());
    }
}
