//! Combinational netlists with 64-way parallel-pattern evaluation.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A net (signal) identifier: inputs come first, then one net per gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Gate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum GateKind {
    /// Logical AND of all inputs.
    And,
    /// Logical OR of all inputs.
    Or,
    /// Negated AND.
    Nand,
    /// Negated OR.
    Nor,
    /// Exclusive OR (parity) of all inputs.
    Xor,
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
        };
        f.write_str(s)
    }
}

/// One gate: a function over earlier nets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Gate {
    /// The function.
    pub(crate) kind: GateKind,
    /// Input nets (must precede this gate's own net).
    pub(crate) inputs: Vec<NetId>,
}

/// A combinational netlist in topological order.
///
/// Net numbering: nets `0..n_inputs` are the primary inputs; net
/// `n_inputs + g` is the output of gate `g`. Evaluation is 64-way
/// bit-parallel: every `u64` value carries 64 independent patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    n_inputs: u32,
    gates: Vec<Gate>,
    outputs: Vec<NetId>,
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist: {} inputs, {} gates, {} outputs",
            self.n_inputs,
            self.gates.len(),
            self.outputs.len()
        )
    }
}

impl Netlist {
    /// Number of primary inputs.
    pub fn input_count(&self) -> u32 {
        self.n_inputs
    }

    /// Number of primary outputs.
    pub(crate) fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Total nets (inputs + gate outputs).
    pub(crate) fn net_count(&self) -> u32 {
        self.n_inputs + self.gates.len() as u32
    }

    fn eval_gate(kind: GateKind, inputs: &[NetId], values: &[u64]) -> u64 {
        let it = inputs.iter().map(|n| values[n.0 as usize]);
        match kind {
            GateKind::And => it.fold(u64::MAX, |a, b| a & b),
            GateKind::Nand => !it.fold(u64::MAX, |a, b| a & b),
            GateKind::Or => it.fold(0, |a, b| a | b),
            GateKind::Nor => !it.fold(0, |a, b| a | b),
            GateKind::Xor => it.fold(0, |a, b| a ^ b),
        }
    }

    /// Evaluates 64 patterns at once: `inputs[i]` holds bit `k` = input `i`
    /// of pattern `k`. Returns the value of every net. Optionally forces
    /// one net to a constant (stuck-at injection).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the input count.
    pub fn eval64_with_fault(&self, inputs: &[u64], fault: Option<(NetId, bool)>) -> Vec<u64> {
        assert_eq!(inputs.len() as u32, self.n_inputs, "input vector width");
        let mut values = Vec::with_capacity(self.net_count() as usize);
        values.extend_from_slice(inputs);
        let force = |values: &mut Vec<u64>| {
            if let Some((net, v)) = fault {
                if (net.0 as usize) < values.len() {
                    values[net.0 as usize] = if v { u64::MAX } else { 0 };
                }
            }
        };
        force(&mut values);
        for gate in &self.gates {
            let v = Self::eval_gate(gate.kind, &gate.inputs, &values);
            values.push(v);
            force(&mut values);
        }
        values
    }

    /// Fault-free 64-way evaluation of every net.
    pub fn eval64(&self, inputs: &[u64]) -> Vec<u64> {
        self.eval64_with_fault(inputs, None)
    }

    /// The primary-output words from a net-value vector.
    pub fn output_words(&self, values: &[u64]) -> Vec<u64> {
        self.outputs.iter().map(|n| values[n.0 as usize]).collect()
    }

    /// Single-pattern convenience evaluation (bit 0 of the parallel form).
    pub fn eval1(&self, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| b as u64).collect();
        let values = self.eval64(&words);
        self.output_words(&values)
            .iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// A reproducible random layered circuit: `n_inputs` inputs and
    /// `n_gates` two-input gates whose operands are drawn from earlier
    /// nets (with a locality bias). Every *sink* gate (one nothing else
    /// consumes) becomes a primary output, plus the last gates up to
    /// `min_outputs` — so every cone is observable, as in synthesized
    /// logic.
    ///
    /// # Panics
    ///
    /// Panics on degenerate sizes.
    pub fn random(n_inputs: u32, n_gates: u32, min_outputs: u32, seed: u64) -> Netlist {
        assert!(n_inputs >= 2 && n_gates >= 1 && min_outputs >= 1);
        assert!(min_outputs <= n_gates, "outputs come from gates");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new(n_inputs);
        let mut consumed = vec![false; (n_inputs + n_gates) as usize];
        for g in 0..n_gates {
            let avail = n_inputs + g;
            // Mixed locality: half the operands come from recent nets (so
            // depth grows), half from anywhere (so signal entropy keeps
            // flowing in from the inputs — pure chains go near-constant
            // and become untestable, unlike synthesized logic).
            let pick = |rng: &mut StdRng| {
                if rng.gen_bool(0.5) {
                    let back = rng.gen_range(1..=(avail.min(12)));
                    NetId(avail - back)
                } else {
                    NetId(rng.gen_range(0..avail))
                }
            };
            let a = pick(&mut rng);
            let mut c = pick(&mut rng);
            if c == a {
                c = NetId(rng.gen_range(0..avail));
            }
            let kind = match rng.gen_range(0..5) {
                0 => GateKind::And,
                1 => GateKind::Or,
                2 => GateKind::Nand,
                3 => GateKind::Nor,
                _ => GateKind::Xor,
            };
            consumed[a.0 as usize] = true;
            consumed[c.0 as usize] = true;
            b.add_gate(kind, vec![a, c]);
        }
        let mut outputs: Vec<NetId> = (n_inputs..n_inputs + n_gates)
            .filter(|&n| !consumed[n as usize])
            .map(NetId)
            .collect();
        for k in 0..min_outputs {
            let n = NetId(n_inputs + n_gates - 1 - k);
            if !outputs.contains(&n) {
                outputs.push(n);
            }
        }
        b.finish(outputs)
    }
}

/// Incremental netlist construction with validation.
#[derive(Debug, Clone)]
pub(crate) struct NetlistBuilder {
    n_inputs: u32,
    gates: Vec<Gate>,
}

impl NetlistBuilder {
    /// Starts a netlist with `n_inputs` primary inputs.
    ///
    /// # Panics
    ///
    /// Panics for zero inputs.
    pub(crate) fn new(n_inputs: u32) -> Self {
        assert!(n_inputs > 0, "a circuit needs inputs");
        NetlistBuilder {
            n_inputs,
            gates: Vec::new(),
        }
    }

    /// Adds a gate over existing nets, returning its output net.
    ///
    /// # Panics
    ///
    /// Panics if an input net does not exist yet, or the arity is invalid
    /// (every gate takes at least two inputs).
    pub(crate) fn add_gate(&mut self, kind: GateKind, inputs: Vec<NetId>) -> NetId {
        let avail = self.n_inputs + self.gates.len() as u32;
        for n in &inputs {
            assert!(n.0 < avail, "gate input {n} does not exist yet");
        }
        assert!(inputs.len() >= 2, "{kind} takes at least two inputs");
        self.gates.push(Gate { kind, inputs });
        NetId(avail)
    }

    /// Finishes the netlist with the given output nets.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is empty or references a missing net.
    pub(crate) fn finish(self, outputs: Vec<NetId>) -> Netlist {
        assert!(!outputs.is_empty(), "a circuit needs outputs");
        let total = self.n_inputs + self.gates.len() as u32;
        for n in &outputs {
            assert!(n.0 < total, "output {n} does not exist");
        }
        Netlist {
            n_inputs: self.n_inputs,
            gates: self.gates,
            outputs,
        }
    }
}

/// The ISCAS-85 benchmark circuit **c17**: 5 inputs, 6 NAND gates, 2
/// outputs — the classic known-answer circuit for test tooling.
pub fn c17() -> Netlist {
    // Inputs: n0..n4 = (1, 2, 3, 6, 7) in ISCAS naming.
    let mut b = NetlistBuilder::new(5);
    let n10 = b.add_gate(GateKind::Nand, vec![NetId(0), NetId(2)]); // 1,3
    let n11 = b.add_gate(GateKind::Nand, vec![NetId(2), NetId(3)]); // 3,6
    let n16 = b.add_gate(GateKind::Nand, vec![NetId(1), n11]); // 2,11
    let n19 = b.add_gate(GateKind::Nand, vec![n11, NetId(4)]); // 11,7
    let n22 = b.add_gate(GateKind::Nand, vec![n10, n16]); // 10,16
    let n23 = b.add_gate(GateKind::Nand, vec![n16, n19]); // 16,19
    b.finish(vec![n22, n23])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_structure() {
        let c = c17();
        assert_eq!(c.input_count(), 5);
        assert_eq!(c.gates.len(), 6);
        assert_eq!(c.output_count(), 2);
        assert_eq!(c.net_count(), 11);
    }

    #[test]
    fn c17_known_answers() {
        let c = c17();
        // All-zero inputs: n10 = !(0&0)=1, n11 = 1, n16 = !(0&1)=1,
        // n19 = !(1&0)=1, n22 = !(1&1)=0, n23 = !(1&1)=0.
        assert_eq!(c.eval1(&[false; 5]), vec![false, false]);
        // All-one inputs: n10 = 0, n11 = 0, n16 = 1, n19 = 1,
        // n22 = !(0&1)=1, n23 = !(1&1)=0.
        assert_eq!(c.eval1(&[true; 5]), vec![true, false]);
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let c = c17();
        // 32 exhaustive patterns packed into one 64-wide evaluation.
        let mut inputs = vec![0u64; 5];
        for p in 0..32u64 {
            for (i, w) in inputs.iter_mut().enumerate() {
                if (p >> i) & 1 == 1 {
                    *w |= 1 << p;
                }
            }
        }
        let values = c.eval64(&inputs);
        let outs = c.output_words(&values);
        for p in 0..32u64 {
            let bits: Vec<bool> = (0..5).map(|i| (p >> i) & 1 == 1).collect();
            let serial = c.eval1(&bits);
            for (o, &w) in outs.iter().enumerate() {
                assert_eq!(
                    (w >> p) & 1 == 1,
                    serial[o],
                    "pattern {p} output {o} diverges"
                );
            }
        }
    }

    #[test]
    fn all_gate_kinds_evaluate() {
        let mut b = NetlistBuilder::new(2);
        let and = b.add_gate(GateKind::And, vec![NetId(0), NetId(1)]);
        let or = b.add_gate(GateKind::Or, vec![NetId(0), NetId(1)]);
        let nand = b.add_gate(GateKind::Nand, vec![NetId(0), NetId(1)]);
        let nor = b.add_gate(GateKind::Nor, vec![NetId(0), NetId(1)]);
        let xor = b.add_gate(GateKind::Xor, vec![NetId(0), NetId(1)]);
        let n = b.finish(vec![and, or, nand, nor, xor]);
        assert_eq!(
            n.eval1(&[true, false]),
            vec![false, true, true, false, true]
        );
    }

    #[test]
    fn builder_validates() {
        let mut b = NetlistBuilder::new(2);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.add_gate(GateKind::And, vec![NetId(0), NetId(9)]);
        }))
        .is_err());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.add_gate(GateKind::And, vec![NetId(0)]);
        }))
        .is_err());
    }

    #[test]
    fn random_circuits_are_reproducible_and_seed_sensitive() {
        let a = Netlist::random(8, 64, 4, 1);
        let b = Netlist::random(8, 64, 4, 1);
        let c = Netlist::random(8, 64, 4, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.gates.len(), 64);
        assert!(a.output_count() >= 4, "sinks plus requested minimum");
        // The circuit is functional, not constant: over 64 random input
        // vectors some output must toggle.
        let inputs: Vec<u64> = (0..8u64)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i * 2 + 3))
            .collect();
        let outs = a.output_words(&a.eval64(&inputs));
        assert!(
            outs.iter().any(|&w| w != 0 && w != u64::MAX),
            "all outputs constant"
        );
    }

    #[test]
    fn fault_injection_on_an_input_net() {
        let c = c17();
        let inputs = vec![u64::MAX; 5];
        let clean = c.output_words(&c.eval64(&inputs));
        let faulty = c.output_words(&c.eval64_with_fault(&inputs, Some((NetId(0), false))));
        // Input 0 stuck-at-0 under all-one inputs flips n10 and hence n22.
        assert_ne!(clean, faulty);
    }
}
