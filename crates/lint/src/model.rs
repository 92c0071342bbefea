//! The one static model of the seven Section IV tests.
//!
//! [`test_model`] reads the `(SocConfig, SocTestPlan)` pair that
//! [`tve_soc::build_test_runs`] builds the dynamic tests from and returns
//! one [`TestModel`] row per test: its static claims, written once in
//! [`CLAIMS`], and its per-pattern cost terms, from which it computes its
//! stand-alone test time `lo ≤ nominal ≤ hi`. The scheduler ranks by
//! `nominal`, [`crate::task_bounds`] certifies `[lo, hi]` and
//! [`crate::soc_facts`] copies out the claims.

use tve_core::{DataPolicy, WrapperMode};
use tve_soc::{
    SocConfig, SocTestPlan, RING_CODEC, RING_COLOR, RING_DCT, RING_EBI, RING_MEM, RING_PROC,
};

use crate::bounds::Interval;
use crate::facts::{TamChannel, WirWrite};

const fn wir(client: usize, value: u64) -> WirWrite {
    WirWrite { client, value }
}

// Test-mode writes to the wrapped cores; the EBI and codec take a 1.
const PROC_BIST: WirWrite = wir(RING_PROC, WrapperMode::Bist.encode());
const PROC_INT: WirWrite = wir(RING_PROC, WrapperMode::IntTest.encode());
const COLOR_BIST: WirWrite = wir(RING_COLOR, WrapperMode::Bist.encode());
const DCT_INT: WirWrite = wir(RING_DCT, WrapperMode::IntTest.encode());
const EBI_ON: WirWrite = wir(RING_EBI, 1);
const CODEC_ON: WirWrite = wir(RING_CODEC, 1);

#[rustfmt::skip]
type Claims = (&'static str, &'static [&'static str], TamChannel,
               &'static [WirWrite], &'static [usize], u32);

/// Name, cores (the core under test first), TAM channel, start-up WIR
/// writes, ring clients that must stay functional, and peak power of
/// tests 1–7. The marches access memory through its wrapper's functional
/// path, and the processor executes T7's program.
#[rustfmt::skip]
const CLAIMS: [Claims; 7] = {
    use TamChannel::{Bus, Serial};
    [
        ("T1 proc BIST",        &["processor"],            Bus,    &[PROC_BIST],                   &[],         180),
        ("T2 proc det",         &["processor"],            Serial, &[EBI_ON, PROC_INT],            &[],         120),
        ("T3 proc det 50x",     &["processor", "codec"],   Serial, &[EBI_ON, PROC_INT, CODEC_ON],  &[],         130),
        ("T4 color BIST",       &["color-conv"],           Bus,    &[COLOR_BIST],                  &[],          90),
        ("T5 dct det",          &["dct"],                  Serial, &[EBI_ON, DCT_INT],             &[],          60),
        ("T6 mem march (ctrl)", &["memory"],               Bus,    &[],                            &[RING_MEM],  70),
        ("T7 mem march (proc)", &["memory", "processor"],  Bus,    &[],                            &[RING_MEM], 110),
    ]
};

/// How a test's time follows from its terms.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cost {
    /// Scan BIST over the bus (T1, T4).
    #[default]
    Bist,
    /// Uncompressed ATE patterns over the serial channel (T2, T5).
    Ate,
    /// Compressed ATE patterns through the codec (T3): the downlink
    /// cycles and bus words of the stimulus stream the policy sends (one
    /// reseeding seed of at most 128 bits per pattern with full data),
    /// and whether unencodable cubes may be skipped (full data).
    Compressed(u64, u64, bool),
    /// The dedicated march controller (T6).
    ControllerMarch,
    /// The processor-driven march (T7).
    ProcessorMarch,
}

/// The per-pattern (per-op for the marches) cost terms of one test.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Terms {
    pub(crate) cost: Cost,
    /// Patterns, or memory operations.
    pub(crate) count: u64,
    /// Scan chains and the longest chain (0 for the marches).
    pub(crate) chains: u32,
    pub(crate) chain: u64,
    /// Shift-limited term: `chain + capture`.
    shift: u64,
    /// Bus-limited term: bus words plus one per transfer, or two per op
    /// (one word and its overhead).
    bus: u64,
    /// ATE downlink and uplink cycles.
    down: u64,
    up: u64,
    /// Engine overhead per memory operation.
    op: u64,
    /// Stimulus bits put on the TAM.
    bits: u64,
    /// Bus arbitration overhead per transaction.
    overhead: u64,
    /// Once-per-test ceiling: configuration-ring startup and the final
    /// signature or drain readout.
    tail: u64,
}

/// The static model of one Section IV test sequence.
#[derive(Debug, Clone, Copy)]
pub struct TestModel {
    /// Test name (matches the dynamic [`tve_core::TestRun`] name).
    pub name: &'static str,
    /// Exclusive structural resources, the core under test first.
    pub cores: &'static [&'static str],
    /// The TAM path the patterns use.
    pub channel: TamChannel,
    pub(crate) wir: &'static [WirWrite],
    pub(crate) needs_functional: &'static [usize],
    /// Peak power estimate (same units as the plan budget).
    pub peak_power: u32,
    pub(crate) terms: Terms,
}

/// `ceil(bits × den / num)` — cycles to move `bits` over a `(num, den)`
/// bits-per-cycle channel — without intermediate overflow.
fn channel_cycles(bits: u64, rate: (u64, u64)) -> u64 {
    let (num, den) = rate;
    if num == 0 {
        return u64::MAX / 4;
    }
    ((bits as u128 * den as u128).div_ceil(num as u128)) as u64
}

impl Terms {
    /// Per-pattern `(lo, nominal, hi)`; `dmi` takes each processor-driven
    /// march op's bus round trip off, as loosely-timed DMI does.
    fn per_unit(&self, dmi: bool) -> (u64, u64, u64) {
        let (shift, bus, down, up, op) = (self.shift, self.bus, self.down, self.up, self.op);
        let (chain, boh) = (self.chain, self.overhead);
        match self.cost {
            // Shift-limited floor; ceiling: transfer and shift serialized.
            Cost::Bist => (chain.max(bus - 1), shift.max(bus), shift + bus + boh + 7),
            // The EBI's combined accesses are full-duplex (the larger link
            // reservation) and posted toward the wrapper, so only the
            // serial reservation survives pipelining.
            Cost::Ate => (
                down.max(up),
                shift.max(down).max(up),
                down + up + shift + bus + 2 * boh + 15,
            ),
            // Codec stimuli are plain EBI writes and the compacted
            // responses plain reads: each pattern pays both links.
            Cost::Compressed(stream_down, stream_words, skips) => (
                if skips { 0 } else { down + up },
                shift.max(down + up),
                stream_down.max(down) + up + shift + stream_words + 2 * boh + 16,
            ),
            // A march engine pays its per-op overhead serially; the
            // unpipelined processor also pays the bus round trip.
            Cost::ControllerMarch => (op, op, op + 1 + boh),
            Cost::ProcessorMarch => (op + u64::from(!dmi), op + bus, op + 2 * boh + 6),
        }
    }
}

impl TestModel {
    /// The coarse stand-alone test time in cycles (at least 1): the
    /// binding one of the shift-, bus- and channel-limited terms.
    pub fn nominal(&self) -> u64 {
        (self.terms.count * self.terms.per_unit(false).1).max(1)
    }

    /// Coarse share of the shared bus TAM the test demands, in `(0, 1]`.
    pub fn tam_share(&self) -> f64 {
        let per_unit = self.terms.per_unit(false).1.max(1);
        (self.terms.bus as f64 / per_unit as f64).min(1.0)
    }

    /// The certified slot-span envelope of the test run alone, at
    /// loosely-timed `quantum` (0 = cycle-accurate). Contention only
    /// lengthens a slot, so `lo` also bounds the test inside any phase;
    /// temporal decoupling shifts timings, so a quantum widens both sides.
    pub fn envelope(&self, quantum: u64) -> Interval {
        let t = &self.terms;
        let (lo, _, hi) = t.per_unit(quantum > 0);
        let (lo, hi) = (t.count * lo, t.count * hi + t.tail);
        if quantum == 0 {
            return Interval { lo: lo.max(1), hi };
        }
        Interval {
            lo: (lo - lo / 32).saturating_sub(16 * quantum).max(1),
            hi: hi + hi / 16 + 16 * quantum,
        }
    }

    /// Total stimulus bits the test puts on its TAM.
    pub fn tam_bits(&self) -> u64 {
        self.terms.count * self.terms.bits
    }
}

/// Derives the seven case-study test models, indexed `0..=6` for tests
/// 1–7 like the dynamic test list.
pub fn test_model(config: &SocConfig, plan: &SocTestPlan) -> [TestModel; 7] {
    let words = |bits: u64| bits.div_ceil(u64::from(config.bus_width_bits));
    let (down_rate, up_rate) = (config.ate_down_rate, config.ate_up_rate);
    let boh = config.bus_overhead;
    // Worst-case startup: up to three configuration-ring rotations (at
    // most 256 bits in this SoC family) plus WIR handshakes.
    let start = 3 * 256 * config.ring_clock_div.max(1) + 128;
    let (signature, drain) = (words(64) + boh, 128 * (1 + boh));
    // Every chain shifts in parallel: the wrapper needs `chain` cycles per
    // pattern while the TAM moves `chains × chain` bits.
    let scan = |(chains, chain): (u32, u64), count: u64, cost: Cost| {
        let bits = u64::from(chains) * chain;
        Terms {
            cost,
            count,
            chains,
            chain,
            shift: chain + config.capture_cycles,
            bus: words(bits) + 1,
            down: channel_cycles(bits, down_rate),
            up: channel_cycles(bits, up_rate),
            bits,
            overhead: boh,
            tail: start + if cost == Cost::Bist { signature } else { 0 },
            ..Terms::default()
        }
    };
    let [proc, color, dct] = [&config.proc_scan, &config.color_scan, &config.dct_scan]
        .map(|s| (s.chains(), u64::from(s.max_chain_len())));

    // T3 moves compressed stimuli down and compacted responses up.
    let proc_bits = config.proc_scan.bits_per_pattern();
    let compressed = (proc_bits as f64 / config.decompress_ratio).ceil() as u64;
    let compacted = proc_bits.div_ceil(u64::from(config.compact_ratio.max(1)));
    let full = plan.policy == DataPolicy::Full;
    let stream = if full { 64 } else { compressed };
    let codec = Cost::Compressed(
        channel_cycles(stream.max(128), down_rate),
        words(stream) + words(compacted),
        full,
    );

    let mem_words = u64::from(config.memory_words);
    let ops = plan.march.total_ops(mem_words)
        + plan
            .pattern_tests
            .iter()
            .map(|p| p.ops_per_cell() * mem_words)
            .sum::<u64>();
    let march = |cost: Cost, op: u64, readout: u64| Terms {
        cost,
        count: ops,
        bus: 2,
        op,
        bits: 32,
        overhead: boh,
        tail: start + readout,
        ..Terms::default()
    };

    let terms = [
        scan(proc, plan.bist_proc_patterns, Cost::Bist),
        scan(proc, plan.det_proc_patterns, Cost::Ate),
        Terms {
            bus: words(compressed) + words(compacted) + 2,
            down: channel_cycles(compressed, down_rate),
            up: channel_cycles(compacted, up_rate),
            bits: compressed,
            ..scan(proc, plan.comp_proc_patterns, codec)
        },
        scan(color, plan.bist_color_patterns, Cost::Bist),
        scan(dct, plan.det_dct_patterns, Cost::Ate),
        march(Cost::ControllerMarch, config.controller_op_overhead, drain),
        march(Cost::ProcessorMarch, config.processor_op_overhead, 0),
    ];
    std::array::from_fn(|i| {
        let (name, cores, channel, wir, needs_functional, peak_power) = CLAIMS[i];
        TestModel {
            name,
            cores,
            channel,
            wir,
            needs_functional,
            peak_power,
            terms: terms[i],
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_volumes_are_the_plan_s_stimulus_bits() {
        let model = test_model(&SocConfig::paper(), &SocTestPlan::paper());
        let want = [4147.2, 829.44, 16.6, 318.72, 63.68, 125.82912, 125.82912];
        assert_eq!(model.map(|m| m.tam_bits() as f64 / 1e6), want);
    }

    #[test]
    fn full_data_t3_floor_degenerates_and_ceiling_covers_the_seed_stream() {
        let mut plan = SocTestPlan::small();
        for (policy, lo) in [(DataPolicy::Full, 1), (DataPolicy::Volume, 10 * (1 + 4))] {
            plan.policy = policy;
            let t3 = test_model(&SocConfig::small(), &plan)[2];
            let env = t3.envelope(0);
            assert_eq!(env.lo, lo, "{policy:?}");
            assert!(env.lo <= t3.nominal() && t3.nominal() <= env.hi);
        }
    }
}
