//! RTL-granularity scan simulation — the baseline of the paper's speed
//! comparison ("simulation of 300 million cycles of the RTL model of the
//! processor core alone already exceeds two days of CPU time").
//!
//! At register-transfer granularity, every clock cycle is a kernel event
//! and every scan flip-flop is state that moves: each cycle shifts every
//! chain by one position. The transaction-level model of the same workload
//! raises the abstraction to one event per *pattern*. Comparing
//! cycles-per-second between the two modes on identical workloads
//! regenerates the paper's orders-of-magnitude claim without needing the
//! authors' RTL netlist.

use std::fmt;

use tve_sim::{Duration, Simulation};
use tve_tpg::{Lfsr, ScanConfig};

/// Bit-true scan chains at register-transfer granularity: per cycle, every
/// chain shifts one position (word-level carries across the packed
/// registers — the dominant per-cycle cost of RTL scan simulation).
pub struct RtlScanChains {
    chains: Vec<Vec<u64>>,
    len: u32,
}

impl fmt::Debug for RtlScanChains {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RtlScanChains")
            .field("chains", &self.chains.len())
            .field("len", &self.len)
            .finish()
    }
}

impl RtlScanChains {
    /// Creates zeroed chains for `config`.
    pub(crate) fn new(config: ScanConfig) -> Self {
        let words = (config.max_chain_len() as usize).div_ceil(64);
        RtlScanChains {
            chains: vec![vec![0u64; words]; config.chains() as usize],
            len: config.max_chain_len(),
        }
    }

    /// Shifts chain `c` one cell, inserting `bit` and returning the bit
    /// shifted out — one chain's worth of one scan clock.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub(crate) fn shift(&mut self, c: usize, bit: bool) -> bool {
        let chain = &mut self.chains[c];
        let mut carry = bit;
        for w in chain.iter_mut() {
            let out = *w >> 63 & 1 == 1;
            *w = (*w << 1) | carry as u64;
            carry = out;
        }
        // The out-bit is the cell at position len-1.
        let idx = (self.len - 1) as usize;
        (self.chains[c][idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// One full scan clock: shifts every chain, returning the parity of the
    /// shifted-out slice (stands in for the response-observation logic).
    pub(crate) fn shift_all(&mut self, in_bits: u64) -> bool {
        let mut parity = false;
        for c in 0..self.chains.len() {
            let bit = (in_bits >> (c % 64)) & 1 == 1;
            parity ^= self.shift(c, bit);
        }
        parity
    }
}

/// Statistics of one abstraction-level simulation run.
#[derive(Debug, Clone, Copy)]
pub struct GranularityRunStats {
    /// Simulated clock cycles.
    pub(crate) simulated_cycles: u64,
    /// Kernel timer events actually fired (measured).
    pub(crate) kernel_waits: u64,
    /// Host wall-clock time.
    pub(crate) wall: std::time::Duration,
    /// Simulated cycles per host second.
    pub cycles_per_second: f64,
}

impl fmt::Display for GranularityRunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles in {:.3?} ({:.0} cycles/s, {} kernel waits)",
            self.simulated_cycles, self.wall, self.cycles_per_second, self.kernel_waits
        )
    }
}

/// Simulates `patterns` scan patterns of `config` at RTL granularity: one
/// kernel event *per clock cycle*, with bit-true shifting of every chain.
/// The events are counted timer events (`kernel_waits`), not task
/// suspensions: the clock process is the only task, so each one-cycle
/// wait completes inline and the whole run takes one poll.
pub fn simulate_rtl_scan(config: ScanConfig, patterns: u64) -> GranularityRunStats {
    let started = std::time::Instant::now();
    let mut sim = Simulation::new();
    let h = sim.handle();
    sim.spawn(async move {
        let mut chains = RtlScanChains::new(config);
        let mut lfsr = Lfsr::maximal(32, 0xF00D).expect("degree 32 tabled");
        let mut observed = false;
        for _ in 0..patterns {
            for _ in 0..config.max_chain_len() {
                h.wait(Duration::cycles(1)).await;
                let stim = lfsr.step_word(32);
                observed ^= chains.shift_all(stim);
            }
            // Capture cycle.
            h.wait(Duration::cycles(1)).await;
        }
        std::hint::black_box(observed);
    });
    let end = sim.run();
    let wall = started.elapsed();
    GranularityRunStats {
        simulated_cycles: end.cycles(),
        kernel_waits: sim.kernel_stats().1,
        wall,
        cycles_per_second: end.cycles() as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// Simulates `patterns` scan patterns at *gate level*: like
/// [`simulate_rtl_scan`], but every clock additionally evaluates a real
/// combinational netlist of `gates` gates — the extra per-cycle work that
/// makes gate-level simulation "another order of magnitude" slower than
/// RTL in the paper's comparison.
pub fn simulate_gate_level_scan(
    config: ScanConfig,
    patterns: u64,
    gates: u32,
) -> GranularityRunStats {
    use tve_netlist::Netlist;
    let started = std::time::Instant::now();
    let mut sim = Simulation::new();
    let h = sim.handle();
    sim.spawn(async move {
        let netlist = Netlist::random(config.chains().max(2), gates, 1, 0x6A7E);
        let mut chains = RtlScanChains::new(config);
        let mut lfsr = Lfsr::maximal(32, 0xF00D).expect("degree 32 tabled");
        let mut inputs = vec![0u64; netlist.input_count() as usize];
        let mut observed = 0u64;
        for _ in 0..patterns {
            for _ in 0..config.max_chain_len() {
                h.wait(Duration::cycles(1)).await;
                let stim = lfsr.step_word(32);
                chains.shift_all(stim);
                // Combinational logic settles every clock at gate level.
                for (i, w) in inputs.iter_mut().enumerate() {
                    *w = stim.rotate_left(i as u32);
                }
                let values = netlist.eval64(&inputs);
                observed ^= netlist.output_words(&values)[0];
            }
            h.wait(Duration::cycles(1)).await;
        }
        std::hint::black_box(observed);
    });
    let end = sim.run();
    let wall = started.elapsed();
    GranularityRunStats {
        simulated_cycles: end.cycles(),
        kernel_waits: sim.kernel_stats().1,
        wall,
        cycles_per_second: end.cycles() as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// Simulates the same workload at transaction-level granularity: one
/// wrapper transaction per pattern (volume policy), as in the exploration
/// flow.
pub fn simulate_tlm_scan(config: ScanConfig, patterns: u64) -> GranularityRunStats {
    use std::rc::Rc;
    use tve_core::{
        ConfigClient, DataPolicy, ScanKind, ScanSource, SyntheticLogicCore, TestWrapper,
        WrapperConfig, WrapperMode,
    };
    use tve_tlm::{InitiatorId, TamIf};

    let started = std::time::Instant::now();
    let mut sim = Simulation::new();
    let h = sim.handle();
    let core = Rc::new(SyntheticLogicCore::new("rtl-vs-tlm", config, 1));
    let wrapper = Rc::new(TestWrapper::new(
        &h,
        WrapperConfig {
            name: "w".to_string(),
            capture_cycles: 1,
            ..WrapperConfig::default()
        },
        core,
    ));
    wrapper.load_config(WrapperMode::Bist.encode());
    let src = ScanSource::new(
        &h,
        "tlm",
        wrapper as Rc<dyn TamIf>,
        0,
        InitiatorId(0),
        config,
        patterns,
        DataPolicy::Volume,
        1,
        ScanKind::Bist,
    );
    sim.spawn(async move {
        let out = src.run().await;
        assert_eq!(out.errors, 0);
    });
    let end = sim.run();
    let wall = started.elapsed();
    GranularityRunStats {
        simulated_cycles: end.cycles(),
        kernel_waits: sim.kernel_stats().1,
        wall,
        cycles_per_second: end.cycles() as f64 / wall.as_secs_f64().max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_shift_bits_through() {
        let cfg = ScanConfig::new(2, 8);
        let mut c = RtlScanChains::new(cfg);
        assert_eq!(c.chains.len(), 2);
        // Shift a 1 through chain 0: appears at the output after len shifts.
        assert!(!c.shift(0, true));
        for _ in 0..6 {
            assert!(!c.shift(0, false));
        }
        assert!(
            c.shift(0, false),
            "the injected 1 must emerge after 8 shifts"
        );
    }

    #[test]
    fn rtl_and_tlm_simulate_identical_cycle_counts() {
        let cfg = ScanConfig::new(4, 32);
        let rtl = simulate_rtl_scan(cfg, 10);
        let tlm = simulate_tlm_scan(cfg, 10);
        // Same workload, same simulated time: 10 patterns x 33 cycles.
        assert_eq!(rtl.simulated_cycles, 330);
        assert_eq!(tlm.simulated_cycles, 330);
        // But at vastly different event density.
        assert!(rtl.kernel_waits > 20 * tlm.kernel_waits);
    }

    #[test]
    fn gate_level_is_slower_than_rtl() {
        let cfg = ScanConfig::new(8, 32);
        let rtl = simulate_rtl_scan(cfg, 20);
        let gate = simulate_gate_level_scan(cfg, 20, 1500);
        assert_eq!(gate.simulated_cycles, rtl.simulated_cycles);
        assert!(
            gate.cycles_per_second < rtl.cycles_per_second,
            "gate {:.0} c/s must be below RTL {:.0} c/s",
            gate.cycles_per_second,
            rtl.cycles_per_second
        );
    }

    #[test]
    fn tlm_is_faster_than_rtl_per_simulated_cycle() {
        // A miniature of the paper's speed claim; the bench scales it up.
        let cfg = ScanConfig::new(8, 64);
        let rtl = simulate_rtl_scan(cfg, 50);
        let tlm = simulate_tlm_scan(cfg, 50);
        assert!(
            tlm.cycles_per_second > rtl.cycles_per_second,
            "TLM {:.0} c/s must beat RTL {:.0} c/s",
            tlm.cycles_per_second,
            rtl.cycles_per_second
        );
    }
}
