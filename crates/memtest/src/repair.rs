//! Built-in repair: word-level redundancy for the embedded memory —
//! the "Repair" strategy of the paper's Fig. 1, executed by the ATE
//! ("evaluates test responses and executes repair actions if necessary",
//! Section III.E).

use std::collections::BTreeMap;
use std::fmt;

use crate::memory::{Fault, MemoryAccess, MemoryArray};

/// A memory array with spare words: failing addresses can be remapped to
/// fault-free redundancy storage.
///
/// ```
/// use tve_memtest::{Fault, RepairableMemory};
///
/// let mut mem = RepairableMemory::new(64, 2);
/// mem.inject(Fault::stuck_at(7, 3, true));
/// mem.write(7, 0);
/// assert_eq!(mem.read(7), 1 << 3);
/// assert!(mem.repair(7));
/// mem.write(7, 0);
/// assert_eq!(mem.read(7), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RepairableMemory {
    array: MemoryArray,
    spares: Vec<u32>,
    remap: BTreeMap<u32, usize>,
    reads: u64,
    writes: u64,
}

impl RepairableMemory {
    /// Creates a memory of `words` words with `spare_words` redundancy
    /// words.
    ///
    /// # Panics
    ///
    /// Panics for an empty main array.
    pub fn new(words: usize, spare_words: usize) -> Self {
        RepairableMemory {
            array: MemoryArray::new(words),
            spares: vec![0; spare_words],
            remap: BTreeMap::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Total reads performed (main array and spares).
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Total writes performed (main array and spares).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of addressable words.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Whether the array is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.array.len() == 0
    }

    /// Total spare words.
    pub(crate) fn spares_total(&self) -> usize {
        self.spares.len()
    }

    /// Spares already allocated.
    pub fn spares_used(&self) -> usize {
        self.remap.len()
    }

    /// Injects a fault into the *main* array (spares are fault-free).
    ///
    /// # Panics
    ///
    /// Panics if the fault is out of range.
    pub fn inject(&mut self, fault: Fault) {
        self.array.inject(fault);
    }

    /// Remaps `addr` to a spare word. Returns `false` when no spare is
    /// left; repairing an already-repaired address succeeds without
    /// consuming another spare.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn repair(&mut self, addr: u32) -> bool {
        assert!((addr as usize) < self.array.len(), "address in range");
        if self.remap.contains_key(&addr) {
            return true;
        }
        if self.remap.len() >= self.spares.len() {
            return false;
        }
        let slot = self.remap.len();
        self.remap.insert(addr, slot);
        true
    }

    /// The main array's words, for a caller that performs a run of
    /// accesses over them directly; `None` once a fault is injected or a
    /// word is remapped. Until then a read is a plain load and a write a
    /// plain store of the word at its address, which is all [`read`]
    /// and [`write`] do besides counting, so the caller books its
    /// accesses with one [`count_plain`] call.
    ///
    /// [`read`]: RepairableMemory::read
    /// [`write`]: RepairableMemory::write
    /// [`count_plain`]: RepairableMemory::count_plain
    pub fn plain_words(&mut self) -> Option<&mut [u32]> {
        if self.remap.is_empty() {
            self.array.plain_words()
        } else {
            None
        }
    }

    /// Counts `reads` reads and `writes` writes performed over
    /// [`RepairableMemory::plain_words`].
    pub fn count_plain(&mut self, reads: u64, writes: u64) {
        self.reads += reads;
        self.writes += writes;
    }

    /// Reads the word at `addr` (through the remap).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn read(&mut self, addr: u32) -> u32 {
        self.reads += 1;
        match self.remap.get(&addr) {
            Some(&slot) => self.spares[slot],
            None => self.array.read(addr),
        }
    }

    /// Writes the word at `addr` (through the remap).
    ///
    /// Note: a write to an *unrepaired* address still exercises the faulty
    /// main array — including coupling side effects onto other words —
    /// exactly like silicon with row redundancy.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: u32, value: u32) {
        self.writes += 1;
        match self.remap.get(&addr) {
            Some(&slot) => self.spares[slot] = value,
            None => self.array.write(addr, value),
        }
    }
}

impl MemoryAccess for RepairableMemory {
    fn word_count(&self) -> usize {
        self.len()
    }
    fn read_word(&mut self, addr: u32) -> u32 {
        self.read(addr)
    }
    fn write_word(&mut self, addr: u32, value: u32) {
        self.write(addr, value)
    }
}

impl fmt::Display for RepairableMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} words, {}/{} spares used",
            self.array.len(),
            self.spares_used(),
            self.spares_total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remap_isolates_the_faulty_word() {
        let mut mem = RepairableMemory::new(32, 2);
        mem.inject(Fault::stuck_at(5, 0, true));
        mem.write(5, 0);
        assert_eq!(mem.read(5) & 1, 1, "fault visible before repair");
        assert!(mem.repair(5));
        mem.write(5, 0);
        assert_eq!(mem.read(5), 0, "spare is fault-free");
        assert_eq!(mem.spares_used(), 1);
    }

    #[test]
    fn repair_is_idempotent_and_bounded() {
        let mut mem = RepairableMemory::new(32, 1);
        assert!(mem.repair(3));
        assert!(mem.repair(3), "re-repair is free");
        assert_eq!(mem.spares_used(), 1);
        assert!(!mem.repair(9), "out of spares");
    }
}
