//! Background pattern tests complementing march algorithms
//! (the paper's memory BIST runs "a MATS+ march *and pattern tests*").

use std::fmt;

use crate::memory::{MemoryAccess, MemoryArray};

/// A data-background pattern test: write a background over the whole array,
/// then read it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternTest {
    /// `0x5555…`/`0xAAAA…` by address parity — adjacent-cell shorts.
    Checkerboard,
    /// A solid background of the given word.
    Solid(u32),
    /// Each word holds its own address — address-decoder faults.
    AddressInData,
}

impl fmt::Display for PatternTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternTest::Checkerboard => write!(f, "checkerboard"),
            PatternTest::Solid(w) => write!(f, "solid({w:#x})"),
            PatternTest::AddressInData => write!(f, "address-in-data"),
        }
    }
}

/// Result of a pattern test run.
#[derive(Debug, Clone, Default)]
pub(crate) struct PatternReport {
    /// Addresses that read back wrong (capped at 64).
    pub(crate) failures: Vec<u32>,
    /// Total operations (writes + reads).
    pub(crate) operations: u64,
}

impl PatternReport {
    /// Whether the memory passed.
    pub(crate) fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl PatternTest {
    /// The background word for `addr`.
    pub fn background(&self, addr: u32) -> u32 {
        match self {
            PatternTest::Checkerboard => {
                if addr.is_multiple_of(2) {
                    0x5555_5555
                } else {
                    0xAAAA_AAAA
                }
            }
            PatternTest::Solid(w) => *w,
            PatternTest::AddressInData => addr,
        }
    }

    /// Operations per cell (one write pass + one read pass).
    pub fn ops_per_cell(&self) -> u64 {
        2
    }

    /// Runs the test against a raw [`MemoryArray`].
    pub(crate) fn run(&self, mem: &mut MemoryArray) -> PatternReport {
        self.run_on(mem)
    }

    /// Runs the test against any [`MemoryAccess`]: write the background
    /// ascending, read it back ascending.
    pub(crate) fn run_on<M: MemoryAccess>(&self, mem: &mut M) -> PatternReport {
        const MAX_FAILURES: usize = 64;
        let n = mem.word_count() as u32;
        let mut report = PatternReport::default();
        for addr in 0..n {
            mem.write_word(addr, self.background(addr));
            report.operations += 1;
        }
        for addr in 0..n {
            report.operations += 1;
            if mem.read_word(addr) != self.background(addr) && report.failures.len() < MAX_FAILURES
            {
                report.failures.push(addr);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Fault;

    #[test]
    fn fault_free_memory_passes_all_patterns() {
        for t in [
            PatternTest::Checkerboard,
            PatternTest::Solid(0),
            PatternTest::Solid(u32::MAX),
            PatternTest::AddressInData,
        ] {
            let mut mem = MemoryArray::new(128);
            let r = t.run(&mut mem);
            assert!(r.passed(), "{t} failed clean memory");
            assert_eq!(r.operations, 256);
        }
    }

    #[test]
    fn checkerboard_background_alternates() {
        assert_eq!(PatternTest::Checkerboard.background(0), 0x5555_5555);
        assert_eq!(PatternTest::Checkerboard.background(1), 0xAAAA_AAAA);
    }

    #[test]
    fn address_in_data_detects_aliasing() {
        let mut mem = MemoryArray::new(128);
        mem.inject(Fault::address_alias(3, 77));
        let r = PatternTest::AddressInData.run(&mut mem);
        assert!(!r.passed());
        assert!(r.failures.contains(&3) || r.failures.contains(&77));
    }

    #[test]
    fn solid_detects_stuck_at_of_opposite_polarity() {
        let mut mem = MemoryArray::new(16);
        mem.inject(Fault::stuck_at(4, 2, true));
        assert!(!PatternTest::Solid(0).run(&mut mem).passed());
        let mut mem = MemoryArray::new(16);
        mem.inject(Fault::stuck_at(4, 2, true));
        // A solid background of ones cannot see a stuck-at-1.
        assert!(PatternTest::Solid(u32::MAX).run(&mut mem).passed());
    }
}
