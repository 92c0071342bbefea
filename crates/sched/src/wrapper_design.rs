//! Wrapper scan-chain design: partitioning a core's internal scan chains
//! and functional I/O cells into a given number of wrapper chains — the
//! classic `Design_wrapper` problem that determines how fast a wrapped
//! core can actually be tested at a given TAM width.
//!
//! The paper's wrappers are parameterized by a scan configuration; this
//! module computes that configuration from the core's raw chain lengths,
//! giving [`pack_tam`](crate::pack_tam)-style TAM exploration a *real*
//! per-width test time (with the plateaus the idealized `bits/width` model
//! hides).

use std::fmt;

/// One designed wrapper chain: internal scan chains plus wrapper
/// input/output cells, shifted serially.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WrapperChain {
    /// Indices of the internal chains concatenated into this wrapper chain.
    pub(crate) internal: Vec<usize>,
    /// Wrapper input cells placed on this chain.
    pub(crate) wi_cells: u32,
    /// Wrapper output cells placed on this chain.
    pub(crate) wo_cells: u32,
    /// Total internal scan cells on this chain.
    pub(crate) internal_cells: u32,
}

impl WrapperChain {
    /// Scan-in length: input cells shift in ahead of the internal cells.
    pub(crate) fn scan_in(&self) -> u32 {
        self.internal_cells + self.wi_cells
    }

    /// Scan-out length: internal cells shift out through the output cells.
    pub(crate) fn scan_out(&self) -> u32 {
        self.internal_cells + self.wo_cells
    }
}

/// A complete wrapper design for one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WrapperDesign {
    /// The designed wrapper chains (one per TAM wire).
    pub(crate) chains: Vec<WrapperChain>,
    /// Longest scan-in across chains.
    pub(crate) max_scan_in: u32,
    /// Longest scan-out across chains.
    pub(crate) max_scan_out: u32,
}

impl WrapperDesign {
    /// Shift cycles per pattern with overlapped scan-in/scan-out:
    /// `max(scan-in, scan-out)` plus one capture cycle.
    pub(crate) fn pattern_cycles(&self) -> u32 {
        self.max_scan_in.max(self.max_scan_out) + 1
    }
}

impl fmt::Display for WrapperDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} wrapper chains, scan-in {}, scan-out {}, {} cycles/pattern",
            self.chains.len(),
            self.max_scan_in,
            self.max_scan_out,
            self.pattern_cycles()
        )
    }
}

/// Designs a wrapper with `wrapper_chains` chains for a core with the
/// given internal scan-chain lengths and `fi`/`fo` functional input/output
/// cells, using the classic LPT (longest-processing-time) heuristic:
/// internal chains go longest-first onto the currently shortest wrapper
/// chain, then input/output cells pad the shortest scan-in/scan-out sides.
///
/// # Panics
///
/// Panics if `wrapper_chains` is zero or there is nothing to wrap.
pub(crate) fn design_wrapper(
    internal_chains: &[u32],
    fi: u32,
    fo: u32,
    wrapper_chains: u32,
) -> WrapperDesign {
    assert!(wrapper_chains > 0, "a wrapper needs chains");
    assert!(
        !internal_chains.is_empty() || fi > 0 || fo > 0,
        "nothing to wrap"
    );
    let w = wrapper_chains as usize;
    let mut chains: Vec<WrapperChain> = (0..w)
        .map(|_| WrapperChain {
            internal: Vec::new(),
            wi_cells: 0,
            wo_cells: 0,
            internal_cells: 0,
        })
        .collect();

    // LPT over the internal chains.
    let mut order: Vec<usize> = (0..internal_chains.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(internal_chains[i]));
    for i in order {
        let target = chains
            .iter_mut()
            .min_by_key(|c| c.internal_cells)
            .expect("w > 0");
        target.internal.push(i);
        target.internal_cells += internal_chains[i];
    }

    // Wrapper input cells pad the shortest scan-in side, one at a time
    // (cells are unit-size, so a counting argument would do; the loop
    // keeps the code obviously correct for small cell counts).
    for _ in 0..fi {
        let target = chains
            .iter_mut()
            .min_by_key(|c| c.scan_in())
            .expect("w > 0");
        target.wi_cells += 1;
    }
    for _ in 0..fo {
        let target = chains
            .iter_mut()
            .min_by_key(|c| c.scan_out())
            .expect("w > 0");
        target.wo_cells += 1;
    }

    let max_scan_in = chains.iter().map(WrapperChain::scan_in).max().unwrap_or(0);
    let max_scan_out = chains.iter().map(WrapperChain::scan_out).max().unwrap_or(0);
    WrapperDesign {
        chains,
        max_scan_in,
        max_scan_out,
    }
}

/// The true per-width test-time staircase of a wrapped core: for each
/// width `1..=max_width`, the shift cycles per pattern of the LPT wrapper
/// design (taken as a running minimum, since extra wires can always be
/// left unused). Plateaus appear where an extra wire cannot break up the
/// longest internal chain — the structure the idealized `bits/width` model
/// misses.
pub fn wrapper_staircase(
    internal_chains: &[u32],
    fi: u32,
    fo: u32,
    max_width: u32,
) -> Vec<(u32, u32)> {
    let mut best = u32::MAX;
    (1..=max_width)
        .map(|w| {
            let d = design_wrapper(internal_chains, fi, fo, w);
            best = best.min(d.pattern_cycles());
            (w, best)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_balances_the_known_case() {
        // [6,4,4,2] into 2 chains: optimum 8|8.
        let d = design_wrapper(&[6, 4, 4, 2], 0, 0, 2);
        assert_eq!(d.max_scan_in, 8);
        assert_eq!(d.pattern_cycles(), 9);
        let cells: u32 = d.chains.iter().map(|c| c.internal_cells).sum();
        assert_eq!(cells, 16);
    }

    #[test]
    fn every_internal_chain_is_placed_exactly_once() {
        let lens = [13u32, 7, 5, 5, 3, 2, 2, 1];
        let d = design_wrapper(&lens, 10, 6, 3);
        let mut seen = vec![false; lens.len()];
        for c in &d.chains {
            for &i in &c.internal {
                assert!(!seen[i], "chain {i} placed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        let wi: u32 = d.chains.iter().map(|c| c.wi_cells).sum();
        let wo: u32 = d.chains.iter().map(|c| c.wo_cells).sum();
        assert_eq!((wi, wo), (10, 6));
    }

    #[test]
    fn lpt_stays_within_the_4_3_bound() {
        let lens = [9u32, 8, 7, 6, 5, 4, 3, 2, 1];
        for w in 1..=6u32 {
            let d = design_wrapper(&lens, 0, 0, w);
            let total: u32 = lens.iter().sum();
            let lower = (total.div_ceil(w)).max(*lens.iter().max().unwrap());
            assert!(
                d.max_scan_in as f64 <= lower as f64 * 4.0 / 3.0 + 1.0,
                "w={w}: {} vs bound from {lower}",
                d.max_scan_in
            );
        }
    }

    #[test]
    fn staircase_plateaus_at_the_longest_internal_chain() {
        // One dominant 100-cell chain: beyond w where everything else fits
        // beside it, more wires cannot help (chains are unsplittable).
        let lens = [100u32, 10, 10, 10];
        let curve = wrapper_staircase(&lens, 0, 0, 8);
        for pair in curve.windows(2) {
            assert!(pair[1].1 <= pair[0].1, "staircase must not rise");
        }
        let (_, t8) = *curve.last().unwrap();
        assert_eq!(t8, 101, "plateau at the unsplittable 100-cell chain");
        let (_, t1) = curve[0];
        assert_eq!(t1, 131, "serial: all cells in one chain");
    }

    #[test]
    fn io_cells_pad_the_shorter_side() {
        // No internal chains: pure combinational core, IO cells only.
        let d = design_wrapper(&[], 8, 4, 4);
        assert_eq!(d.max_scan_in, 2);
        assert_eq!(d.max_scan_out, 1);
        assert_eq!(d.pattern_cycles(), 3);
    }

    #[test]
    #[should_panic(expected = "nothing to wrap")]
    fn empty_core_panics() {
        let _ = design_wrapper(&[], 0, 0, 2);
    }
}
