//! Order statistics for host timings.

/// One percentile of a sample, with the sample size behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile's rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub n: usize,
    /// How many samples rank above it.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least ten samples lie beyond the percentile — the rule
    /// for a tail value that the sample actually supports.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `p` (in `0..=100`) of `samples`; `None` for an
/// empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// The median of `samples` (mean of the two middle values for an even
/// count); 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// splitmix64: the seeded generator behind every derived benchmark input.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_n_and_the_ten_beyond_rule() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&samples, 50.0).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (500.0, 1000, 500));
        let p99 = percentile(&samples, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(p99.supported());
        // 999 samples leave only 9 beyond p99: not a supported tail.
        let p99_short = percentile(&samples[..999], 99.0).unwrap();
        assert_eq!(p99_short.beyond, 9);
        assert!(!p99_short.supported());
        // A dozen samples: p99 is the maximum, with nothing beyond it.
        let dozen = percentile(&samples[..12], 99.0).unwrap();
        assert_eq!((dozen.value, dozen.n, dozen.beyond), (12.0, 12, 0));
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = SplitMix(7);
        assert_ne!(r.next_u64(), r.next_u64());
        assert!((0..100).all(|_| r.below(5) < 5));
    }
}
