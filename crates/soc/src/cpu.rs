//! The embedded processor as a *software* test engine.
//!
//! The paper's Section II: "the software part consists of the test program
//! executed on the ATE, **software modules executed on functional units
//! like embedded processor cores**, and the microcode to program the test
//! controllers" — and case-study test 7 runs the memory march "using a
//! program stored in L1 cache". This module models exactly that: a minimal
//! load/store CPU whose instructions execute from a local program store
//! (the L1 cache), touching the SoC only through bus transactions — so the
//! march becomes genuine software with the instruction-level timing the
//! abstract per-op model approximates.

use std::fmt;
use std::rc::Rc;

use tve_memtest::{MarchOp, MarchOrder, MarchTest};
use tve_sim::{Duration, SimHandle};
use tve_tlm::{InitiatorId, TamIf, TamIfExt};

/// A register index (16 registers; `r0` is an ordinary register).
pub type Reg = u8;

/// The instruction set: just enough for memory-test loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `rd ← imm`
    Li(Reg, u32),
    /// `rd ← ra + rb`
    Add(Reg, Reg, Reg),
    /// `rd ← ra + imm` (wrapping)
    Addi(Reg, Reg, i32),
    /// `rd ← ra ^ rb`
    Xor(Reg, Reg, Reg),
    /// `rd ← memory[ra]` (a bus read)
    Lw(Reg, Reg),
    /// `memory[ra] ← rs` (a bus write)
    Sw(Reg, Reg),
    /// Branch to `target` when `ra != rb`.
    Bne(Reg, Reg, usize),
    /// Branch to `target` when `ra == rb`.
    Beq(Reg, Reg, usize),
    /// Stop execution.
    Halt,
}

/// Execution record of a program run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuOutcome {
    /// Instructions executed.
    pub(crate) instructions: u64,
    /// Bus transactions issued (loads + stores).
    pub(crate) bus_ops: u64,
    /// Bus errors observed.
    pub(crate) bus_errors: u64,
    /// Final register file.
    pub regs: [u32; 16],
    /// Cycles elapsed.
    pub cycles: u64,
}

impl fmt::Display for CpuOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions, {} bus ops in {} cycles",
            self.instructions, self.bus_ops, self.cycles
        )
    }
}

/// A minimal embedded CPU: fixed cycles per instruction, memory access
/// through a [`TamIf`] (the system bus), program in a local store.
pub struct Cpu {
    handle: SimHandle,
    bus: Rc<dyn TamIf>,
    initiator: InitiatorId,
    /// Cycles per executed instruction (pipeline CPI), on top of bus time
    /// for loads/stores.
    pub(crate) cycles_per_insn: u64,
    /// Safety limit on executed instructions.
    pub(crate) max_instructions: u64,
}

impl Cpu {
    /// Creates a CPU attached to `bus` as `initiator`.
    pub fn new(handle: &SimHandle, bus: Rc<dyn TamIf>, initiator: InitiatorId) -> Self {
        Cpu {
            handle: handle.clone(),
            bus,
            initiator,
            cycles_per_insn: 1,
            max_instructions: 200_000_000,
        }
    }

    /// Executes `program` from instruction 0 until `Halt` (or the
    /// instruction limit) and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics on a branch target outside the program — an assembler bug,
    /// not a model condition.
    pub async fn run(&self, program: &[Insn]) -> CpuOutcome {
        let start = self.handle.now();
        let mut regs = [0u32; 16];
        let mut pc = 0usize;
        let mut out = CpuOutcome {
            instructions: 0,
            bus_ops: 0,
            bus_errors: 0,
            regs,
            cycles: 0,
        };
        while pc < program.len() && out.instructions < self.max_instructions {
            let insn = program[pc];
            out.instructions += 1;
            self.handle
                .wait(Duration::cycles(self.cycles_per_insn))
                .await;
            pc += 1;
            match insn {
                Insn::Li(rd, imm) => regs[rd as usize] = imm,
                Insn::Add(rd, ra, rb) => {
                    regs[rd as usize] = regs[ra as usize].wrapping_add(regs[rb as usize])
                }
                Insn::Addi(rd, ra, imm) => {
                    regs[rd as usize] = regs[ra as usize].wrapping_add(imm as u32)
                }
                Insn::Xor(rd, ra, rb) => regs[rd as usize] = regs[ra as usize] ^ regs[rb as usize],
                Insn::Lw(rd, ra) => {
                    out.bus_ops += 1;
                    match self.bus.read(self.initiator, regs[ra as usize], 32).await {
                        Ok(words) => regs[rd as usize] = words.first().copied().unwrap_or(0),
                        Err(_) => out.bus_errors += 1,
                    }
                }
                Insn::Sw(ra, rs) => {
                    out.bus_ops += 1;
                    if self
                        .bus
                        .write(self.initiator, regs[ra as usize], &[regs[rs as usize]], 32)
                        .await
                        .is_err()
                    {
                        out.bus_errors += 1;
                    }
                }
                Insn::Bne(ra, rb, target) => {
                    if regs[ra as usize] != regs[rb as usize] {
                        assert!(target <= program.len(), "branch target in range");
                        pc = target;
                    }
                }
                Insn::Beq(ra, rb, target) => {
                    if regs[ra as usize] == regs[rb as usize] {
                        assert!(target <= program.len(), "branch target in range");
                        pc = target;
                    }
                }
                Insn::Halt => break,
            }
        }
        out.regs = regs;
        out.cycles = (self.handle.now() - start).as_cycles();
        out
    }
}

/// Register conventions of the generated march program.
pub mod march_regs {
    /// Error counter (mismatching reads).
    pub const ERRORS: u8 = 15;
    /// Operations performed.
    pub const OPS: u8 = 14;
}

/// Assembles a march test into a CPU program over the memory window at
/// `base_addr` with `words` words: the "program stored in L1 cache" of the
/// paper's test 7. Mismatching reads increment `r15`; total operations are
/// counted in `r14`.
pub fn assemble_march(march: &MarchTest, base_addr: u32, words: u32) -> Vec<Insn> {
    // Register map: r1 = addr cursor, r2 = end sentinel, r3 = background,
    // r4 = loaded value, r5 = step, r6 = scratch-one, r14/r15 counters.
    let mut p: Vec<Insn> = Vec::new();
    p.push(Insn::Li(6, 1));
    for elem in march.elements() {
        let descending = elem.order == MarchOrder::Descending;
        // Cursor setup.
        if descending {
            p.push(Insn::Li(1, base_addr + words - 1));
            p.push(Insn::Li(2, base_addr.wrapping_sub(1)));
            p.push(Insn::Li(5, u32::MAX)); // -1
        } else {
            p.push(Insn::Li(1, base_addr));
            p.push(Insn::Li(2, base_addr + words));
            p.push(Insn::Li(5, 1));
        }
        let loop_top = p.len();
        for op in &elem.ops {
            match op {
                MarchOp::W0 | MarchOp::W1 => {
                    let bg = if *op == MarchOp::W1 { u32::MAX } else { 0 };
                    p.push(Insn::Li(3, bg));
                    p.push(Insn::Sw(1, 3));
                }
                MarchOp::R0 | MarchOp::R1 => {
                    let bg = if *op == MarchOp::R1 { u32::MAX } else { 0 };
                    p.push(Insn::Li(3, bg));
                    p.push(Insn::Lw(4, 1));
                    // if r4 == r3 skip the error increment
                    let skip = p.len() + 2;
                    p.push(Insn::Beq(4, 3, skip));
                    p.push(Insn::Add(15, 15, 6));
                }
            }
            p.push(Insn::Add(14, 14, 6));
        }
        p.push(Insn::Add(1, 1, 5));
        p.push(Insn::Bne(1, 2, loop_top));
    }
    p.push(Insn::Halt);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::{initiators, JpegEncoderSoc, SocConfig, MEM_BASE};
    use tve_memtest::Fault;
    use tve_sim::Simulation;

    #[test]
    fn arithmetic_and_branches() {
        let mut sim = Simulation::new();
        let soc = JpegEncoderSoc::build(&sim.handle(), SocConfig::small());
        let cpu = Cpu::new(
            &sim.handle(),
            Rc::clone(&soc.bus) as Rc<dyn TamIf>,
            initiators::PROCESSOR,
        );
        // Sum 1..=5 into r2 with a loop.
        let program = vec![
            Insn::Li(1, 5),
            Insn::Li(2, 0),
            Insn::Li(3, 0),
            // loop:
            Insn::Add(2, 2, 1),
            Insn::Addi(1, 1, -1),
            Insn::Bne(1, 3, 3),
            Insn::Halt,
        ];
        let jh = sim.spawn(async move { cpu.run(&program).await });
        sim.run();
        let out = jh.try_take().unwrap();
        assert_eq!(out.regs[2], 15);
        assert_eq!(out.bus_ops, 0);
        assert!(out.instructions > 10);
    }

    #[test]
    fn load_store_through_the_bus() {
        let mut sim = Simulation::new();
        let soc = JpegEncoderSoc::build(&sim.handle(), SocConfig::small());
        let cpu = Cpu::new(
            &sim.handle(),
            Rc::clone(&soc.bus) as Rc<dyn TamIf>,
            initiators::PROCESSOR,
        );
        let program = vec![
            Insn::Li(1, MEM_BASE + 3),
            Insn::Li(2, 0xCAFE),
            Insn::Sw(1, 2),
            Insn::Lw(4, 1),
            Insn::Xor(5, 4, 2), // r5 = 0 iff round-trip worked
            Insn::Halt,
        ];
        let jh = sim.spawn(async move { cpu.run(&program).await });
        sim.run();
        let out = jh.try_take().unwrap();
        assert_eq!(out.regs[4], 0xCAFE);
        assert_eq!(out.regs[5], 0);
        assert_eq!(out.bus_ops, 2);
        assert_eq!(out.bus_errors, 0);
    }

    fn run_march_program(faults: Vec<Fault>) -> CpuOutcome {
        let mut sim = Simulation::new();
        let mut config = SocConfig::small();
        config.memory_words = 64;
        let soc = JpegEncoderSoc::build(&sim.handle(), config);
        for f in faults {
            soc.memory.inject(f);
        }
        let cpu = Cpu::new(
            &sim.handle(),
            Rc::clone(&soc.bus) as Rc<dyn TamIf>,
            initiators::PROCESSOR,
        );
        let program = assemble_march(&MarchTest::mats_plus(), MEM_BASE, 64);
        let jh = sim.spawn(async move { cpu.run(&program).await });
        sim.run();
        jh.try_take().unwrap()
    }

    #[test]
    fn software_march_passes_clean_memory() {
        let out = run_march_program(vec![]);
        assert_eq!(out.regs[march_regs::ERRORS as usize], 0, "{out}");
        // MATS+ = 5 ops/cell over 64 words.
        assert_eq!(out.regs[march_regs::OPS as usize], 5 * 64);
        assert_eq!(out.bus_ops, 5 * 64);
    }

    #[test]
    fn software_march_counts_the_same_mismatches_as_the_hw_engine() {
        // The HW march engine (MATS+ on a stuck-at cell) reports 2
        // mismatching reads; the software march must agree.
        let faults = vec![Fault::stuck_at(17, 9, true)];
        let out = run_march_program(faults.clone());
        let sw_errors = out.regs[march_regs::ERRORS as usize];

        let mut mem = tve_memtest::MemoryArray::new(64);
        for f in faults {
            mem.inject(f);
        }
        let hw = MarchTest::mats_plus().run(&mut mem);
        assert_eq!(sw_errors as usize, hw.mismatches.len(), "{out}");
        assert!(sw_errors > 0);
    }

    #[test]
    fn software_timing_matches_the_abstract_processor_model() {
        // Table I's T7 models the processor at ~8 cycles/op; the actual
        // instruction-level march lands in the same band — the abstraction
        // refinement the paper's methodology promises.
        let out = run_march_program(vec![]);
        let ops = out.regs[march_regs::OPS as usize] as u64;
        let cycles_per_op = out.cycles as f64 / ops as f64;
        assert!(
            (5.0..12.0).contains(&cycles_per_op),
            "cycles/op {cycles_per_op} outside the abstract model's band"
        );
    }
}
