//! Test generation: random ATPG with fault dropping and reverse-order
//! compaction — the industrial baseline flow that produces the compact
//! *deterministic* pattern sets the paper's external tests store on the
//! ATE (test 2) and compress (test 3).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::{fault_sim_batch, StuckAtFault};
use crate::netlist::Netlist;

/// One generated test pattern: a value per primary input.
pub(crate) type Pattern = Vec<bool>;

/// Result of a test-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct TestSet {
    /// The compacted patterns, in application order.
    pub patterns: Vec<Pattern>,
    /// Fault coverage achieved over the target list, in `[0, 1]`.
    pub(crate) coverage: f64,
    /// Faults no generated pattern detected.
    pub(crate) undetected: Vec<StuckAtFault>,
    /// Random patterns evaluated before compaction.
    pub(crate) patterns_tried: u64,
}

fn pack(patterns: &[Pattern], n_inputs: u32) -> Vec<u64> {
    let mut words = vec![0u64; n_inputs as usize];
    for (k, p) in patterns.iter().enumerate() {
        for (i, &b) in p.iter().enumerate() {
            if b {
                words[i] |= 1 << k;
            }
        }
    }
    words
}

/// Which faults of `faults` the single `pattern` detects.
fn detects(netlist: &Netlist, pattern: &Pattern, faults: &[StuckAtFault]) -> Vec<bool> {
    let words = pack(std::slice::from_ref(pattern), netlist.input_count());
    let mut detected = vec![false; faults.len()];
    fault_sim_batch(netlist, &words, 1, faults, &mut detected);
    detected
}

/// Generates a compact deterministic test set for `faults`:
///
/// 1. apply random patterns in 64-wide batches with fault dropping,
///    keeping each batch only if it detects new faults, until `budget`
///    patterns were tried or everything is detected;
/// 2. *reverse-order compaction*: re-simulate the kept patterns last-first
///    against a fresh fault list, discarding patterns that detect nothing
///    the later ones did not already cover.
///
/// The result is the classic compact ATE pattern set; coverage below 1.0
/// means the remaining faults are random-pattern resistant within the
/// budget (reported in `undetected`).
pub fn generate_test_set(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    budget: u64,
    seed: u64,
) -> TestSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_in = netlist.input_count();
    let mut detected = vec![false; faults.len()];
    let mut kept: Vec<Pattern> = Vec::new();
    let mut tried = 0u64;

    // Phase 1: random generation with fault dropping; keep the patterns of
    // a batch only when the batch advances coverage, and then only the
    // patterns that individually detect something new.
    while tried < budget && !detected.iter().all(|&d| d) {
        let batch: Vec<Pattern> = (0..64)
            .map(|_| (0..n_in).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        tried += 64;
        let before = detected.clone();
        fault_sim_batch(
            netlist,
            &pack(&batch, n_in),
            u64::MAX,
            faults,
            &mut detected,
        );
        if detected == before {
            continue;
        }
        // Attribute: re-walk the batch one pattern at a time against the
        // pre-batch state to keep only first-detecting patterns.
        let mut state = before;
        for p in &batch {
            let hits = detects(netlist, p, faults);
            let mut new_hit = false;
            for (s, h) in state.iter_mut().zip(&hits) {
                if *h && !*s {
                    *s = true;
                    new_hit = true;
                }
            }
            if new_hit {
                kept.push(p.clone());
            }
        }
        debug_assert_eq!(state, detected);
    }

    // Phase 2: reverse-order compaction.
    let mut covered = vec![false; faults.len()];
    let mut compacted: Vec<Pattern> = Vec::new();
    for p in kept.iter().rev() {
        let hits = detects(netlist, p, faults);
        let mut useful = false;
        for (c, h) in covered.iter_mut().zip(&hits) {
            if *h && !*c {
                *c = true;
                useful = true;
            }
        }
        if useful {
            compacted.push(p.clone());
        }
    }
    compacted.reverse();

    let hit = covered.iter().filter(|&&c| c).count();
    TestSet {
        coverage: if faults.is_empty() {
            1.0
        } else {
            hit as f64 / faults.len() as f64
        },
        undetected: faults
            .iter()
            .zip(&covered)
            .filter(|(_, &c)| !c)
            .map(|(f, _)| *f)
            .collect(),
        patterns: compacted,
        patterns_tried: tried,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::full_fault_list;
    use crate::netlist::{c17, Netlist};

    #[test]
    fn c17_gets_a_tiny_complete_test_set() {
        let c = c17();
        let faults = full_fault_list(&c);
        let ts = generate_test_set(&c, &faults, 640, 1);
        assert_eq!(ts.coverage, 1.0, "undetected: {:?}", ts.undetected);
        assert!(ts.undetected.is_empty());
        // The classic complete c17 test set has 4-5 patterns; compaction
        // must get close.
        assert!(
            ts.patterns.len() <= 8,
            "compacted set too large: {}",
            ts.patterns.len()
        );
        // And the set genuinely covers everything when re-simulated.
        let mut detected = vec![false; faults.len()];
        fault_sim_batch(
            &c,
            &pack(&ts.patterns, c.input_count()),
            (1 << ts.patterns.len()) - 1,
            &faults,
            &mut detected,
        );
        assert!(detected.iter().all(|&d| d));
    }

    #[test]
    fn compaction_shrinks_the_kept_set() {
        let n = Netlist::random(24, 300, 4, 9);
        let faults = full_fault_list(&n);
        let ts = generate_test_set(&n, &faults, 1280, 3);
        assert!(ts.coverage > 0.85, "coverage {}", ts.coverage);
        // Far fewer deterministic patterns than random ones tried — the
        // point of storing deterministic sets on the ATE.
        assert!(
            (ts.patterns.len() as u64) < ts.patterns_tried / 4,
            "{} kept of {} tried",
            ts.patterns.len(),
            ts.patterns_tried
        );
        assert_eq!(
            ts.undetected.len(),
            ((1.0 - ts.coverage) * faults.len() as f64).round() as usize
        );
    }

    #[test]
    fn deterministic_given_a_seed() {
        let n = Netlist::random(16, 100, 4, 2);
        let faults = full_fault_list(&n);
        assert_eq!(
            generate_test_set(&n, &faults, 320, 5),
            generate_test_set(&n, &faults, 320, 5)
        );
    }

    #[test]
    fn empty_fault_list_yields_empty_set() {
        let c = c17();
        let ts = generate_test_set(&c, &[], 64, 1);
        assert_eq!(ts.coverage, 1.0);
        assert!(ts.patterns.is_empty());
    }
}
