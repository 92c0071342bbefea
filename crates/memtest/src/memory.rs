//! Word-organized memory arrays with injectable functional fault models.

use std::fmt;

/// The classic functional memory fault models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Cell permanently reads `value`.
    StuckAt {
        /// The forced value.
        value: bool,
    },
    /// Cell cannot perform one transition direction.
    Transition {
        /// `true`: the 0→1 (up) transition fails; `false`: 1→0 fails.
        rising: bool,
    },
    /// A matching transition of the aggressor cell *inverts* the victim
    /// cell (CFin).
    CouplingInversion {
        /// Victim word address.
        victim_addr: u32,
        /// Victim bit within the word.
        victim_bit: u8,
        /// Aggressor transition direction that triggers the fault.
        on_rising: bool,
    },
    /// A matching transition of the aggressor cell *forces* the victim cell
    /// to a value (CFid).
    CouplingIdempotent {
        /// Victim word address.
        victim_addr: u32,
        /// Victim bit within the word.
        victim_bit: u8,
        /// Aggressor transition direction that triggers the fault.
        on_rising: bool,
        /// The value forced onto the victim.
        forced: bool,
    },
    /// Address decoder aliasing: this word and `other_addr` map to the same
    /// physical row — a write to either writes both (AF).
    AddressAlias {
        /// The aliased word address.
        other_addr: u32,
    },
}

/// A fault instance anchored at a cell (word address + bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Word address of the (aggressor) cell.
    pub addr: u32,
    /// Bit position within the word (ignored for [`FaultKind::AddressAlias`]).
    pub bit: u8,
    /// The fault model.
    pub(crate) kind: FaultKind,
}

impl Fault {
    /// A stuck-at fault at `(addr, bit)`.
    pub fn stuck_at(addr: u32, bit: u8, value: bool) -> Self {
        Fault {
            addr,
            bit,
            kind: FaultKind::StuckAt { value },
        }
    }

    /// A transition fault at `(addr, bit)`.
    pub fn transition(addr: u32, bit: u8, rising: bool) -> Self {
        Fault {
            addr,
            bit,
            kind: FaultKind::Transition { rising },
        }
    }

    /// An inversion coupling fault `aggressor → victim`.
    pub fn coupling_inversion(aggressor: (u32, u8), victim: (u32, u8), on_rising: bool) -> Self {
        Fault {
            addr: aggressor.0,
            bit: aggressor.1,
            kind: FaultKind::CouplingInversion {
                victim_addr: victim.0,
                victim_bit: victim.1,
                on_rising,
            },
        }
    }

    /// An idempotent coupling fault `aggressor → victim := forced`.
    pub fn coupling_idempotent(
        aggressor: (u32, u8),
        victim: (u32, u8),
        on_rising: bool,
        forced: bool,
    ) -> Self {
        Fault {
            addr: aggressor.0,
            bit: aggressor.1,
            kind: FaultKind::CouplingIdempotent {
                victim_addr: victim.0,
                victim_bit: victim.1,
                on_rising,
                forced,
            },
        }
    }

    /// An address-decoder aliasing fault between two words.
    pub fn address_alias(addr: u32, other_addr: u32) -> Self {
        Fault {
            addr,
            bit: 0,
            kind: FaultKind::AddressAlias { other_addr },
        }
    }

    /// A short class label used in coverage reports.
    pub fn class(&self) -> &'static str {
        match self.kind {
            FaultKind::StuckAt { .. } => "SAF",
            FaultKind::Transition { .. } => "TF",
            FaultKind::CouplingInversion { .. } => "CFin",
            FaultKind::CouplingIdempotent { .. } => "CFid",
            FaultKind::AddressAlias { .. } => "AF",
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@({:#x},{})", self.class(), self.addr, self.bit)
    }
}

/// Word-level access used by the march and pattern engines, implemented
/// by the raw [`MemoryArray`] and by
/// [`RepairableMemory`](crate::RepairableMemory).
pub(crate) trait MemoryAccess {
    /// Number of addressable words.
    fn word_count(&self) -> usize;
    /// Reads the word at `addr`.
    fn read_word(&mut self, addr: u32) -> u32;
    /// Writes the word at `addr`.
    fn write_word(&mut self, addr: u32, value: u32);
}

impl MemoryAccess for MemoryArray {
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

/// A 32-bit-word memory array with functional fault injection.
///
/// The array powers up in a deterministic pseudo-random "unknown" state, so
/// a correct march test must initialize cells before first reading them.
///
/// ```
/// use tve_memtest::MemoryArray;
/// let mut mem = MemoryArray::new(16);
/// mem.write(3, 0xCAFE_F00D);
/// assert_eq!(mem.read(3), 0xCAFE_F00D);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryArray {
    words: Vec<u32>,
    faults: Vec<Fault>,
}

impl MemoryArray {
    /// Creates a fault-free array of `words` 32-bit words, in power-up
    /// (scrambled) state.
    ///
    /// # Panics
    ///
    /// Panics for an empty array.
    pub fn new(words: usize) -> Self {
        assert!(words > 0, "memory must hold at least one word");
        let words = (0..words as u32)
            .map(|a| a.wrapping_mul(2_654_435_761) ^ 0x5A5A_5A5A)
            .collect();
        MemoryArray {
            words,
            faults: Vec::new(),
        }
    }

    /// Number of words.
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// Injects a fault.
    ///
    /// # Panics
    ///
    /// Panics if the fault references an out-of-range address or bit.
    pub fn inject(&mut self, fault: Fault) {
        let check = |addr: u32, bit: u8| {
            assert!((addr as usize) < self.words.len(), "fault address in range");
            assert!(bit < 32, "fault bit in range");
        };
        check(fault.addr, fault.bit);
        match fault.kind {
            FaultKind::CouplingInversion {
                victim_addr,
                victim_bit,
                ..
            }
            | FaultKind::CouplingIdempotent {
                victim_addr,
                victim_bit,
                ..
            } => check(victim_addr, victim_bit),
            FaultKind::AddressAlias { other_addr } => check(other_addr, 0),
            _ => {}
        }
        self.faults.push(fault);
    }

    /// The words, while no fault is injected: then a read is a plain
    /// load and a write a plain store.
    pub(crate) fn plain_words(&mut self) -> Option<&mut [u32]> {
        self.faults.is_empty().then_some(&mut self.words[..])
    }

    /// Reads the word at `addr`, applying stuck-at forcing.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn read(&mut self, addr: u32) -> u32 {
        let mut v = self.words[addr as usize];
        for f in &self.faults {
            if f.addr == addr {
                if let FaultKind::StuckAt { value } = f.kind {
                    if value {
                        v |= 1 << f.bit;
                    } else {
                        v &= !(1 << f.bit);
                    }
                }
            }
        }
        v
    }

    /// Writes `value` at `addr`, applying fault behaviour (stuck-at,
    /// transition suppression, coupling side effects, address aliasing).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: u32, value: u32) {
        // Fault-free fast path: no aliasing, no bit effects, no coupling.
        if self.faults.is_empty() {
            self.words[addr as usize] = value;
            return;
        }
        self.write_faulty(addr, value);
    }

    /// [`MemoryArray::write`] over an array with faults. Kept out of
    /// line, so the fault-free store is all that callers inline.
    #[inline(never)]
    fn write_faulty(&mut self, addr: u32, value: u32) {
        // Address aliasing: the write reaches `addr`, then each alias
        // partner in fault order, each physical word once.
        self.write_physical(addr, value);
        for i in 0..self.faults.len() {
            let Some(partner) = alias_partner(&self.faults[i], addr) else {
                continue;
            };
            if !self.faults[..i]
                .iter()
                .any(|f| alias_partner(f, addr) == Some(partner))
            {
                self.write_physical(partner, value);
            }
        }
    }

    fn write_physical(&mut self, addr: u32, value: u32) {
        let old = self.words[addr as usize];
        let mut new = value;
        for f in &self.faults {
            if f.addr != addr {
                continue;
            }
            let m = 1u32 << f.bit;
            match f.kind {
                FaultKind::StuckAt { value: v } => {
                    if v {
                        new |= m;
                    } else {
                        new &= !m;
                    }
                }
                FaultKind::Transition { rising } => {
                    let was = old & m != 0;
                    let want = new & m != 0;
                    if rising && !was && want {
                        new &= !m; // up-transition fails: stays 0
                    } else if !rising && was && !want {
                        new |= m; // down-transition fails: stays 1
                    }
                }
                _ => {}
            }
        }
        self.words[addr as usize] = new;

        // Coupling side effects triggered by aggressor transitions.
        for i in 0..self.faults.len() {
            let f = self.faults[i];
            if f.addr != addr
                || !matches!(
                    f.kind,
                    FaultKind::CouplingInversion { .. } | FaultKind::CouplingIdempotent { .. }
                )
            {
                continue;
            }
            let m = 1u32 << f.bit;
            let was = old & m != 0;
            let now = new & m != 0;
            match f.kind {
                FaultKind::CouplingInversion {
                    victim_addr,
                    victim_bit,
                    on_rising,
                } => {
                    if (on_rising && !was && now) || (!on_rising && was && !now) {
                        self.words[victim_addr as usize] ^= 1 << victim_bit;
                    }
                }
                FaultKind::CouplingIdempotent {
                    victim_addr,
                    victim_bit,
                    on_rising,
                    forced,
                } => {
                    if (on_rising && !was && now) || (!on_rising && was && !now) {
                        let vm = 1u32 << victim_bit;
                        if forced {
                            self.words[victim_addr as usize] |= vm;
                        } else {
                            self.words[victim_addr as usize] &= !vm;
                        }
                    }
                }
                _ => unreachable!("filtered to coupling faults"),
            }
        }
    }
}

/// The other word of an address-alias fault that `addr` is one end of,
/// unless that is `addr` itself.
fn alias_partner(fault: &Fault, addr: u32) -> Option<u32> {
    let FaultKind::AddressAlias { other_addr } = fault.kind else {
        return None;
    };
    if fault.addr == addr && other_addr != addr {
        Some(other_addr)
    } else if other_addr == addr && fault.addr != addr {
        Some(fault.addr)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_up_state_is_scrambled_but_deterministic() {
        let mut a = MemoryArray::new(8);
        let mut b = MemoryArray::new(8);
        assert_eq!(a.read(0), b.read(0));
        assert_ne!(a.read(1), a.read(2));
    }

    #[test]
    fn fault_free_read_write() {
        let mut m = MemoryArray::new(4);
        m.write(2, 0x1234_5678);
        assert_eq!(m.read(2), 0x1234_5678);
    }

    #[test]
    fn stuck_at_forces_cell() {
        let mut m = MemoryArray::new(4);
        m.inject(Fault::stuck_at(1, 4, true));
        m.write(1, 0);
        assert_eq!(m.read(1), 1 << 4);
        m.inject(Fault::stuck_at(1, 0, false));
        m.write(1, 0xFFFF_FFFF);
        assert_eq!(m.read(1) & 1, 0);
        assert_eq!(m.read(1) & (1 << 4), 1 << 4);
    }

    #[test]
    fn transition_fault_blocks_one_direction_only() {
        let mut m = MemoryArray::new(2);
        m.inject(Fault::transition(0, 0, true)); // up-TF
        m.write(0, 0);
        m.write(0, 1); // 0->1 fails
        assert_eq!(m.read(0) & 1, 0);
        // Down direction still works (cell is 0, write 0 keeps 0; force via
        // a fresh cell with down-TF).
        let mut m2 = MemoryArray::new(2);
        m2.inject(Fault::transition(0, 0, false)); // down-TF
        m2.write(0, 1);
        assert_eq!(m2.read(0) & 1, 1);
        m2.write(0, 0); // 1->0 fails
        assert_eq!(m2.read(0) & 1, 1);
        m2.write(0, 1); // up still fine
        assert_eq!(m2.read(0) & 1, 1);
    }

    #[test]
    fn coupling_inversion_flips_victim_on_aggressor_edge() {
        let mut m = MemoryArray::new(4);
        m.inject(Fault::coupling_inversion((0, 0), (2, 5), true));
        m.write(2, 0);
        m.write(0, 0);
        m.write(0, 1); // rising aggressor: victim flips
        assert_eq!(m.read(2) & (1 << 5), 1 << 5);
        m.write(0, 1); // no transition: no effect
        assert_eq!(m.read(2) & (1 << 5), 1 << 5);
        m.write(0, 0); // falling edge does not trigger a rising-CFin
        assert_eq!(m.read(2) & (1 << 5), 1 << 5);
    }

    #[test]
    fn coupling_idempotent_forces_victim() {
        let mut m = MemoryArray::new(4);
        m.inject(Fault::coupling_idempotent((1, 0), (3, 0), false, true));
        m.write(3, 0);
        m.write(1, 1);
        m.write(1, 0); // falling edge: victim forced to 1
        assert_eq!(m.read(3) & 1, 1);
    }

    #[test]
    fn address_alias_writes_both_words() {
        let mut m = MemoryArray::new(8);
        m.inject(Fault::address_alias(2, 6));
        m.write(2, 0xAAAA_0001);
        assert_eq!(m.read(6), 0xAAAA_0001);
        m.write(6, 0x5555_0002); // aliasing is symmetric
        assert_eq!(m.read(2), 0x5555_0002);
    }

    /// The write as it was when it collected its targets in a `Vec`
    /// and copied the coupling faults out: the reference for
    /// [`MemoryArray::write`].
    fn reference_write(m: &mut MemoryArray, addr: u32, value: u32) {
        if m.faults.is_empty() {
            m.words[addr as usize] = value;
            return;
        }
        let mut targets = vec![addr];
        for f in &m.faults {
            if let FaultKind::AddressAlias { other_addr } = f.kind {
                if f.addr == addr && !targets.contains(&other_addr) {
                    targets.push(other_addr);
                }
                if other_addr == addr && !targets.contains(&f.addr) {
                    targets.push(f.addr);
                }
            }
        }
        for t in targets {
            let old = m.words[t as usize];
            let mut new = value;
            for f in &m.faults {
                if f.addr != t {
                    continue;
                }
                let bit = 1u32 << f.bit;
                match f.kind {
                    FaultKind::StuckAt { value: true } => new |= bit,
                    FaultKind::StuckAt { value: false } => new &= !bit,
                    FaultKind::Transition { rising } => {
                        let (was, want) = (old & bit != 0, new & bit != 0);
                        if rising && !was && want {
                            new &= !bit;
                        } else if !rising && was && !want {
                            new |= bit;
                        }
                    }
                    _ => {}
                }
            }
            m.words[t as usize] = new;
            let coupling: Vec<Fault> = m
                .faults
                .iter()
                .copied()
                .filter(|f| {
                    f.addr == t
                        && matches!(
                            f.kind,
                            FaultKind::CouplingInversion { .. }
                                | FaultKind::CouplingIdempotent { .. }
                        )
                })
                .collect();
            for f in coupling {
                let bit = 1u32 << f.bit;
                let (was, now) = (old & bit != 0, new & bit != 0);
                let edge =
                    |on_rising: bool| (on_rising && !was && now) || (!on_rising && was && !now);
                match f.kind {
                    FaultKind::CouplingInversion {
                        victim_addr,
                        victim_bit,
                        on_rising,
                    } if edge(on_rising) => m.words[victim_addr as usize] ^= 1 << victim_bit,
                    FaultKind::CouplingIdempotent {
                        victim_addr,
                        victim_bit,
                        on_rising,
                        forced,
                    } if edge(on_rising) => {
                        if forced {
                            m.words[victim_addr as usize] |= 1 << victim_bit;
                        } else {
                            m.words[victim_addr as usize] &= !(1 << victim_bit);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn writes_match_the_vec_based_reference_for_every_fault_kind() {
        // One set per kind, both directions where a kind has them, and
        // mixes: aliases that share a partner, a self-alias, an alias of
        // a coupling aggressor, several faults on one word.
        let sets: Vec<Vec<Fault>> = vec![
            vec![Fault::stuck_at(3, 4, true), Fault::stuck_at(3, 9, false)],
            vec![
                Fault::transition(2, 0, true),
                Fault::transition(5, 31, false),
            ],
            vec![Fault::coupling_inversion((1, 2), (6, 7), true)],
            vec![Fault::coupling_inversion((1, 2), (6, 7), false)],
            vec![Fault::coupling_idempotent((4, 1), (0, 3), true, false)],
            vec![Fault::coupling_idempotent((4, 1), (0, 3), false, true)],
            vec![Fault::address_alias(2, 6)],
            vec![
                Fault::address_alias(2, 6),
                Fault::address_alias(6, 2),
                Fault::address_alias(2, 5),
                Fault::address_alias(7, 2),
                Fault::address_alias(3, 3),
            ],
            // A write to 0 reaches 6, whose rise flips a bit of 7, and
            // then 7: the partners' order decides what 7 holds.
            vec![
                Fault::address_alias(0, 6),
                Fault::address_alias(7, 0),
                Fault::coupling_inversion((6, 2), (7, 2), true),
            ],
            vec![
                Fault::address_alias(1, 4),
                Fault::coupling_inversion((4, 0), (1, 0), true),
                Fault::coupling_idempotent((1, 5), (4, 5), false, true),
                Fault::stuck_at(4, 1, true),
                Fault::transition(1, 2, true),
            ],
        ];
        for faults in sets {
            let (mut got, mut want) = (MemoryArray::new(8), MemoryArray::new(8));
            for &f in &faults {
                got.inject(f);
                want.inject(f);
            }
            let mut x: u32 = 0x1234_5678;
            let mut draw = || {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            };
            for step in 0..2000 {
                let addr = draw() % 8;
                // All-zero and all-one words as well as random ones, so
                // every bit sees both transitions.
                let value = match draw() % 4 {
                    0 => 0,
                    1 => u32::MAX,
                    _ => draw(),
                };
                got.write(addr, value);
                reference_write(&mut want, addr, value);
                assert_eq!(got.words, want.words, "{faults:?}, write {step}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fault address in range")]
    fn out_of_range_fault_panics() {
        let mut m = MemoryArray::new(4);
        m.inject(Fault::stuck_at(10, 0, true));
    }

    #[test]
    fn fault_class_labels() {
        assert_eq!(Fault::stuck_at(0, 0, true).class(), "SAF");
        assert_eq!(Fault::transition(0, 0, true).class(), "TF");
        assert_eq!(
            Fault::coupling_inversion((0, 0), (1, 0), true).class(),
            "CFin"
        );
        assert_eq!(
            Fault::coupling_idempotent((0, 0), (1, 0), true, true).class(),
            "CFid"
        );
        assert_eq!(Fault::address_alias(0, 1).class(), "AF");
    }
}
