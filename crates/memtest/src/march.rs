//! March test notation, parsing, the algorithm library and the executor.

use std::fmt;

use crate::memory::{MemoryAccess, MemoryArray};

/// One march operation applied to the current cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarchOp {
    /// Read, expect background 0.
    R0,
    /// Read, expect background 1.
    R1,
    /// Write background 0.
    W0,
    /// Write background 1.
    W1,
}

impl fmt::Display for MarchOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MarchOp::R0 => "r0",
            MarchOp::R1 => "r1",
            MarchOp::W0 => "w0",
            MarchOp::W1 => "w1",
        };
        f.write_str(s)
    }
}

/// Address order of a march element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarchOrder {
    /// ⇑ — ascending addresses.
    Ascending,
    /// ⇓ — descending addresses.
    Descending,
    /// ⇕ — either order (executed ascending).
    Any,
}

impl fmt::Display for MarchOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MarchOrder::Ascending => "asc",
            MarchOrder::Descending => "desc",
            MarchOrder::Any => "any",
        };
        f.write_str(s)
    }
}

/// One march element: an address order and the operations applied to each
/// cell before advancing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchElement {
    /// The traversal order.
    pub order: MarchOrder,
    /// Operations applied per cell.
    pub ops: Vec<MarchOp>,
}

impl fmt::Display for MarchElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.order)?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, ")")
    }
}

/// Error parsing march notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMarchError {
    /// Human-readable description.
    pub(crate) message: String,
}

impl fmt::Display for ParseMarchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid march notation: {}", self.message)
    }
}

impl std::error::Error for ParseMarchError {}

/// One observed read mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// The failing word address.
    pub(crate) addr: u32,
    /// Expected word value.
    pub(crate) expected: u32,
    /// Observed word value.
    pub(crate) observed: u32,
    /// Index of the march element that detected it.
    pub(crate) element: usize,
}

/// Result of running a march test.
#[derive(Debug, Clone, Default)]
pub struct MarchReport {
    /// Observed mismatches (capped; see `MarchReport::truncated`).
    pub mismatches: Vec<Mismatch>,
    /// Total operations (reads + writes) performed.
    pub operations: u64,
    /// Whether the mismatch list was capped.
    pub(crate) truncated: bool,
}

impl MarchReport {
    /// Whether the memory passed (no mismatches).
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// A complete march test.
///
/// ```
/// use tve_memtest::MarchTest;
/// let t = MarchTest::parse("MATS+", "any(w0); asc(r0,w1); desc(r1,w0)").unwrap();
/// assert_eq!(t, MarchTest::mats_plus());
/// assert_eq!(t.ops_per_cell(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchTest {
    name: String,
    elements: Vec<MarchElement>,
}

impl fmt::Display for MarchTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.name)?;
        for (i, e) in self.elements.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl MarchTest {
    /// Builds a test from explicit elements.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty or any element has no operations.
    pub(crate) fn new(name: impl Into<String>, elements: Vec<MarchElement>) -> Self {
        assert!(!elements.is_empty(), "march test needs elements");
        assert!(
            elements.iter().all(|e| !e.ops.is_empty()),
            "march elements need operations"
        );
        MarchTest {
            name: name.into(),
            elements,
        }
    }

    /// Parses ASCII march notation: elements separated by `;`, each
    /// `asc|desc|any` followed by a parenthesized `,`-separated op list of
    /// `r0|r1|w0|w1`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseMarchError`] on malformed notation.
    pub fn parse(name: &str, notation: &str) -> Result<Self, ParseMarchError> {
        let err = |m: &str| ParseMarchError {
            message: m.to_string(),
        };
        let mut elements = Vec::new();
        for elem in notation.split(';') {
            let elem = elem.trim();
            if elem.is_empty() {
                continue;
            }
            let open = elem.find('(').ok_or_else(|| err("missing '('"))?;
            if !elem.ends_with(')') {
                return Err(err("missing ')'"));
            }
            let order = match &elem[..open] {
                "asc" => MarchOrder::Ascending,
                "desc" => MarchOrder::Descending,
                "any" => MarchOrder::Any,
                other => return Err(err(&format!("unknown order '{other}'"))),
            };
            let mut ops = Vec::new();
            for op in elem[open + 1..elem.len() - 1].split(',') {
                let op = match op.trim() {
                    "r0" => MarchOp::R0,
                    "r1" => MarchOp::R1,
                    "w0" => MarchOp::W0,
                    "w1" => MarchOp::W1,
                    other => return Err(err(&format!("unknown op '{other}'"))),
                };
                ops.push(op);
            }
            if ops.is_empty() {
                return Err(err("empty element"));
            }
            elements.push(MarchElement { order, ops });
        }
        if elements.is_empty() {
            return Err(err("no elements"));
        }
        Ok(MarchTest::new(name, elements))
    }

    /// MATS: `⇕(w0); ⇕(r0,w1); ⇕(r1)` — minimal SAF coverage.
    pub fn mats() -> Self {
        Self::parse("MATS", "any(w0); any(r0,w1); any(r1)").expect("static notation")
    }

    /// MATS+: `⇕(w0); ⇑(r0,w1); ⇓(r1,w0)` — SAF + AF coverage (the
    /// algorithm the paper's memory BIST runs).
    pub fn mats_plus() -> Self {
        Self::parse("MATS+", "any(w0); asc(r0,w1); desc(r1,w0)").expect("static notation")
    }

    /// MATS++: `⇕(w0); ⇑(r0,w1); ⇓(r1,w0,r0)` — adds down-transition
    /// coverage.
    pub fn mats_plus_plus() -> Self {
        Self::parse("MATS++", "any(w0); asc(r0,w1); desc(r1,w0,r0)").expect("static notation")
    }

    /// March X: `⇕(w0); ⇑(r0,w1); ⇓(r1,w0); ⇕(r0)`.
    pub fn march_x() -> Self {
        Self::parse("March X", "any(w0); asc(r0,w1); desc(r1,w0); any(r0)")
            .expect("static notation")
    }

    /// March Y: `⇕(w0); ⇑(r0,w1,r1); ⇓(r1,w0,r0); ⇕(r0)`.
    pub fn march_y() -> Self {
        Self::parse("March Y", "any(w0); asc(r0,w1,r1); desc(r1,w0,r0); any(r0)")
            .expect("static notation")
    }

    /// March B: `⇕(w0); ⇑(r0,w1,r1,w0,r0,w1); ⇑(r1,w0,w1); ⇓(r1,w0,w1,w0);
    /// ⇓(r0,w1,w0)` — 17N, covering linked faults beyond March C−.
    pub fn march_b() -> Self {
        Self::parse(
            "March B",
            "any(w0); asc(r0,w1,r1,w0,r0,w1); asc(r1,w0,w1); desc(r1,w0,w1,w0); desc(r0,w1,w0)",
        )
        .expect("static notation")
    }

    /// March C−: `⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)` —
    /// the standard unlinked-coupling workhorse.
    pub fn march_c_minus() -> Self {
        Self::parse(
            "March C-",
            "any(w0); asc(r0,w1); asc(r1,w0); desc(r0,w1); desc(r1,w0); any(r0)",
        )
        .expect("static notation")
    }

    /// The test name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The elements.
    pub fn elements(&self) -> &[MarchElement] {
        &self.elements
    }

    /// Operations applied per cell over the whole test (complexity in `N`).
    pub fn ops_per_cell(&self) -> u64 {
        self.elements.iter().map(|e| e.ops.len() as u64).sum()
    }

    /// Total operations for a memory of `words` words.
    pub fn total_ops(&self, words: u64) -> u64 {
        self.ops_per_cell() * words
    }

    /// Runs the test against a raw [`MemoryArray`].
    pub fn run(&self, mem: &mut MemoryArray) -> MarchReport {
        self.run_on(mem)
    }

    /// Runs the test against any [`MemoryAccess`] (raw arrays, repairable
    /// memories), word-wise with all-0/all-1 backgrounds.
    pub(crate) fn run_on<M: MemoryAccess>(&self, mem: &mut M) -> MarchReport {
        const MAX_MISMATCHES: usize = 64;
        let n = mem.word_count() as u32;
        let mut report = MarchReport::default();
        for (ei, elem) in self.elements.iter().enumerate() {
            let addrs: Box<dyn Iterator<Item = u32>> = match elem.order {
                MarchOrder::Ascending | MarchOrder::Any => Box::new(0..n),
                MarchOrder::Descending => Box::new((0..n).rev()),
            };
            for addr in addrs {
                for op in &elem.ops {
                    report.operations += 1;
                    match op {
                        MarchOp::W0 => mem.write_word(addr, 0),
                        MarchOp::W1 => mem.write_word(addr, u32::MAX),
                        MarchOp::R0 | MarchOp::R1 => {
                            let expected = if *op == MarchOp::R1 { u32::MAX } else { 0 };
                            let observed = mem.read_word(addr);
                            if observed != expected {
                                if report.mismatches.len() < MAX_MISMATCHES {
                                    report.mismatches.push(Mismatch {
                                        addr,
                                        expected,
                                        observed,
                                        element: ei,
                                    });
                                } else {
                                    report.truncated = true;
                                }
                            }
                        }
                    }
                }
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
    fn parse_rejects_malformed_notation() {
        assert!(MarchTest::parse("x", "").is_err());
        assert!(MarchTest::parse("x", "asc").is_err());
        assert!(MarchTest::parse("x", "asc(w0").is_err());
        assert!(MarchTest::parse("x", "sideways(w0)").is_err());
        assert!(MarchTest::parse("x", "asc(w2)").is_err());
        assert!(MarchTest::parse("x", "asc()").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        let t = MarchTest::march_c_minus();
        let shown = t.to_string();
        let notation = shown.split(": ").nth(1).unwrap();
        let again = MarchTest::parse("March C-", notation).unwrap();
        assert_eq!(t, again);
    }

    #[test]
    fn op_counts() {
        assert_eq!(MarchTest::mats().ops_per_cell(), 4);
        assert_eq!(MarchTest::mats_plus().ops_per_cell(), 5);
        assert_eq!(MarchTest::mats_plus_plus().ops_per_cell(), 6);
        assert_eq!(MarchTest::march_b().ops_per_cell(), 17);
        assert_eq!(MarchTest::march_c_minus().ops_per_cell(), 10);
        assert_eq!(MarchTest::mats_plus().total_ops(1000), 5000);
    }

    #[test]
    fn fault_free_memory_passes_all_library_tests() {
        for t in [
            MarchTest::mats(),
            MarchTest::mats_plus(),
            MarchTest::mats_plus_plus(),
            MarchTest::march_x(),
            MarchTest::march_y(),
            MarchTest::march_b(),
            MarchTest::march_c_minus(),
        ] {
            let mut mem = MemoryArray::new(256);
            let r = t.run(&mut mem);
            assert!(r.passed(), "{} failed on fault-free memory", t.name());
            assert_eq!(r.operations, t.total_ops(256));
        }
    }

    #[test]
    fn mats_plus_detects_every_stuck_at() {
        for bit in [0u8, 7, 31] {
            for v in [false, true] {
                let mut mem = MemoryArray::new(64);
                mem.inject(Fault::stuck_at(13, bit, v));
                let r = MarchTest::mats_plus().run(&mut mem);
                assert!(!r.passed(), "missed SA{} at bit {bit}", u8::from(v));
                assert_eq!(r.mismatches[0].addr, 13);
            }
        }
    }

    #[test]
    fn mats_plus_detects_address_aliasing() {
        let mut mem = MemoryArray::new(64);
        mem.inject(Fault::address_alias(5, 40));
        let r = MarchTest::mats_plus().run(&mut mem);
        assert!(!r.passed(), "MATS+ must detect AFs");
    }

    #[test]
    fn mats_plus_misses_down_transition_but_mats_pp_catches_it() {
        // The textbook separation: MATS+ never reads 0 after the final w0,
        // so a down-TF escapes; MATS++ adds the trailing r0.
        let mut mem = MemoryArray::new(64);
        mem.inject(Fault::transition(9, 3, false));
        let r = MarchTest::mats_plus().run(&mut mem);
        assert!(r.passed(), "down-TF should escape MATS+");

        let mut mem = MemoryArray::new(64);
        mem.inject(Fault::transition(9, 3, false));
        let r = MarchTest::mats_plus_plus().run(&mut mem);
        assert!(!r.passed(), "MATS++ must detect down-TF");
    }

    #[test]
    fn march_c_minus_detects_coupling_inversions() {
        // CFin in both directions and both aggressor/victim orders.
        for (agg, vic) in [((3u32, 0u8), (50u32, 0u8)), ((50, 0), (3, 0))] {
            for rising in [true, false] {
                let mut mem = MemoryArray::new(64);
                mem.inject(Fault::coupling_inversion(agg, vic, rising));
                let r = MarchTest::march_c_minus().run(&mut mem);
                assert!(
                    !r.passed(),
                    "March C- missed CFin agg={agg:?} vic={vic:?} rising={rising}"
                );
            }
        }
    }

    #[test]
    fn mismatch_list_is_capped() {
        let mut mem = MemoryArray::new(256);
        for a in 0..100 {
            mem.inject(Fault::stuck_at(a, 0, true));
        }
        let r = MarchTest::mats_plus().run(&mut mem);
        assert!(r.truncated);
        assert_eq!(r.mismatches.len(), 64);
    }
}
