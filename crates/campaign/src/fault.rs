//! The fault population: what a campaign injects, and how the population
//! is enumerated deterministically from a seed.

use std::fmt;

use tve_core::{CoreModel, StuckCell, StuckWirBit};
use tve_memtest::Fault;
use tve_soc::{scan_view, SocConfig, WrappedCore, RING_EBI};
use tve_tlm::FaultyTamPolicy;

/// One injectable fault, as plain data: a spec names *what* to break; the
/// engine applies it to a freshly built SoC before the schedule runs.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// A stuck scan cell inside a wrapped core's scan chains.
    ScanCell {
        /// The core carrying the defective cell.
        core: WrappedCore,
        /// The stuck cell.
        cell: StuckCell,
    },
    /// A functional fault in the embedded memory array.
    Memory {
        /// The memory fault model instance.
        fault: Fault,
    },
    /// A corrupting/dropping TAM channel on the ATE path (EBI to bus).
    TamCorruption {
        /// The seeded corruption policy.
        policy: FaultyTamPolicy,
    },
    /// A stuck bit in a wrapper instruction register.
    WirStuck {
        /// The core whose wrapper WIR is defective.
        core: WrappedCore,
        /// The stuck bit.
        fault: StuckWirBit,
    },
    /// A severed configuration-ring wire: clients at `index` and beyond
    /// are unreachable.
    RingBreak {
        /// First unreachable ring client index.
        index: usize,
    },
}

impl FaultSpec {
    /// A short, stable, unique identifier (CSV/JSON key material).
    pub fn id(&self) -> String {
        match self {
            FaultSpec::ScanCell { core, cell } => format!(
                "scan:{}:c{}p{}s{}",
                core.label(),
                cell.chain,
                cell.position,
                u8::from(cell.value)
            ),
            FaultSpec::Memory { fault } => {
                format!("mem:{}:a{}b{}", fault.class(), fault.addr, fault.bit)
            }
            FaultSpec::TamCorruption { policy } => {
                if policy.drop_every > 0 {
                    format!("tam:drop-every-{}", policy.drop_every)
                } else {
                    format!("tam:corrupt-every-{}", policy.corrupt_every)
                }
            }
            FaultSpec::WirStuck { core, fault } => format!(
                "wir:{}:b{}s{}",
                core.label(),
                fault.bit,
                u8::from(fault.value)
            ),
            FaultSpec::RingBreak { index } => format!("ring:break@{index}"),
        }
    }

    /// The coverage-report class of this fault.
    pub fn class(&self) -> &'static str {
        match self {
            FaultSpec::ScanCell { .. } => "scan-cell",
            FaultSpec::Memory { .. } => "memory",
            FaultSpec::TamCorruption { .. } => "tam",
            FaultSpec::WirStuck { .. } => "wir",
            FaultSpec::RingBreak { .. } => "ring",
        }
    }

    /// Whether this fault sits in the test *infrastructure* (TAM, WIR,
    /// configuration ring) rather than in a core under test. The 100 %
    /// detection criterion applies to core faults; infrastructure faults
    /// must be detected *or* appear as named escapes — never vanish.
    pub fn is_infrastructure(&self) -> bool {
        matches!(
            self,
            FaultSpec::TamCorruption { .. }
                | FaultSpec::WirStuck { .. }
                | FaultSpec::RingBreak { .. }
        )
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

/// Parameters of the deterministic population generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationSpec {
    /// Seed for all sampling decisions.
    pub seed: u64,
    /// Stuck scan cells sampled per wrapped core (when not exhaustive).
    pub scan_cells_per_core: usize,
    /// When a core's scan-cell count (`chains × max_chain_len`) is at or
    /// under this cap, every cell is enumerated instead of sampled.
    pub exhaustive_cap: u32,
    /// Memory fault instances to sample.
    pub memory_faults: usize,
    /// Whether to include the infrastructure fault set (TAM corruption,
    /// stuck WIR bits, broken ring segments).
    pub infrastructure: bool,
    /// Whether to also sample scan cells in the *unscanned* memory
    /// periphery (whose chains no Table-I test exercises). Those faults
    /// are guaranteed escapes; the sampling benches include them to
    /// give the coverage-guided selector a genuinely escape-prone
    /// stratum to discover. Off by default — a population that asserts
    /// 100 % detection must not contain undetectable faults.
    pub include_unscanned: bool,
}

impl Default for PopulationSpec {
    fn default() -> Self {
        PopulationSpec {
            seed: 0xCA3A_1601,
            scan_cells_per_core: 4,
            exhaustive_cap: 16,
            memory_faults: 4,
            infrastructure: true,
            include_unscanned: false,
        }
    }
}

/// splitmix64: the population sampler. Deterministic, seedable, and
/// stateless between calls given the same counter.
pub(crate) struct SplitMix(pub(crate) u64);

impl SplitMix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The wrapped cores whose scan chains the Table-I test plan actually
/// exercises (T1/T2/T3 for the processor, T4 for color conversion, T5 for
/// the DCT). The memory periphery's chains are never scanned by any of
/// the seven tests, so stuck cells there would be guaranteed escapes —
/// they are deliberately not part of the default population.
pub(crate) const SCANNED_CORES: [WrappedCore; 3] = [
    WrappedCore::Processor,
    WrappedCore::ColorConversion,
    WrappedCore::Dct,
];

/// Enumerates the fault population for `config` per `spec`, in a stable
/// order: scan cells core by core, then memory faults, then the
/// infrastructure set. Equal inputs yield the identical population.
pub fn generate(spec: &PopulationSpec, config: &SocConfig) -> Vec<FaultSpec> {
    let mut rng = SplitMix(spec.seed);
    let mut population = Vec::new();

    // Appending the unscanned core *after* the scanned three keeps the
    // sampler stream — and therefore the default population — identical
    // when the flag is off.
    let mut cores: Vec<WrappedCore> = SCANNED_CORES.to_vec();
    if spec.include_unscanned {
        cores.push(WrappedCore::MemoryPeriphery);
    }
    for core in cores {
        let scan = scan_view(config, core).scan_config();
        let (chains, len) = (scan.chains(), scan.max_chain_len());
        if chains * len <= spec.exhaustive_cap {
            for chain in 0..chains {
                for position in 0..len {
                    population.push(FaultSpec::ScanCell {
                        core,
                        cell: StuckCell {
                            chain,
                            position,
                            value: (chain + position) % 2 == 1,
                        },
                    });
                }
            }
        } else {
            let mut picked: Vec<(u32, u32)> = Vec::new();
            while picked.len() < spec.scan_cells_per_core {
                let chain = (rng.next() % u64::from(chains)) as u32;
                let position = (rng.next() % u64::from(len)) as u32;
                if picked.contains(&(chain, position)) {
                    continue;
                }
                picked.push((chain, position));
                population.push(FaultSpec::ScanCell {
                    core,
                    cell: StuckCell {
                        chain,
                        position,
                        value: rng.next() % 2 == 1,
                    },
                });
            }
        }
    }

    // Memory faults, restricted to the kinds MATS+ (the plan's march
    // algorithm) guarantees to detect: stuck-at, rising transition and
    // address aliasing. Falling transitions and coupling faults escape
    // MATS+ by construction and belong in a dedicated march study, not in
    // a population that asserts 100 % detection.
    let words = u64::from(config.memory_words.max(2));
    for i in 0..spec.memory_faults {
        let addr = (rng.next() % words) as u32;
        let bit = (rng.next() % 32) as u8;
        let fault = match i % 4 {
            0 => Fault::stuck_at(addr, bit, false),
            1 => Fault::stuck_at(addr, bit, true),
            2 => Fault::transition(addr, bit, true),
            _ => {
                let other = (u64::from(addr) + 1 + rng.next() % (words - 1)) % words;
                Fault::address_alias(addr, other as u32)
            }
        };
        population.push(FaultSpec::Memory { fault });
    }

    if spec.infrastructure {
        population.push(FaultSpec::TamCorruption {
            policy: FaultyTamPolicy::corrupt(rng.next(), 5),
        });
        population.push(FaultSpec::TamCorruption {
            policy: FaultyTamPolicy::drop(rng.next(), 7),
        });
        for core in SCANNED_CORES {
            population.push(FaultSpec::WirStuck {
                core,
                fault: StuckWirBit {
                    bit: 0,
                    value: true,
                },
            });
        }
        population.push(FaultSpec::RingBreak { index: 0 });
        population.push(FaultSpec::RingBreak { index: RING_EBI });
    }

    population
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_deterministic_and_unique() {
        let spec = PopulationSpec::default();
        let cfg = SocConfig::small();
        let a = generate(&spec, &cfg);
        let b = generate(&spec, &cfg);
        assert_eq!(a, b, "same spec, same population");
        let ids: Vec<String> = a.iter().map(|f| f.id()).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "fault ids are unique: {ids:?}");
        // 3 cores x 4 cells + 4 memory + (2 tam + 3 wir + 2 ring).
        assert_eq!(a.len(), 12 + 4 + 7);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SocConfig::small();
        let a = generate(&PopulationSpec::default(), &cfg);
        let b = generate(
            &PopulationSpec {
                seed: 99,
                ..PopulationSpec::default()
            },
            &cfg,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn tiny_cores_are_enumerated_exhaustively() {
        use tve_tpg::ScanConfig;
        let cfg = SocConfig {
            dct_scan: ScanConfig::new(2, 8), // 16 cells <= cap
            ..SocConfig::small()
        };
        let spec = PopulationSpec {
            scan_cells_per_core: 2,
            exhaustive_cap: 16,
            memory_faults: 0,
            infrastructure: false,
            ..PopulationSpec::default()
        };
        let pop = generate(&spec, &cfg);
        let dct: Vec<_> = pop
            .iter()
            .filter(|f| matches!(f, FaultSpec::ScanCell { core, .. } if *core == WrappedCore::Dct))
            .collect();
        assert_eq!(dct.len(), 16, "every DCT cell enumerated");
        let others = pop.len() - dct.len();
        assert_eq!(others, 4, "sampled cores contribute 2 cells each");
    }

    #[test]
    fn ids_and_classes_are_stable() {
        let f = FaultSpec::ScanCell {
            core: WrappedCore::Processor,
            cell: StuckCell {
                chain: 1,
                position: 30,
                value: true,
            },
        };
        assert_eq!(f.id(), "scan:proc:c1p30s1");
        assert_eq!(f.class(), "scan-cell");
        assert!(!f.is_infrastructure());
        let r = FaultSpec::RingBreak { index: 5 };
        assert_eq!(r.id(), "ring:break@5");
        assert!(r.is_infrastructure());
        let w = FaultSpec::WirStuck {
            core: WrappedCore::Dct,
            fault: StuckWirBit {
                bit: 0,
                value: true,
            },
        };
        assert_eq!(w.id(), "wir:dct:b0s1");
        let t = FaultSpec::TamCorruption {
            policy: FaultyTamPolicy::drop(1, 7),
        };
        assert_eq!(t.id(), "tam:drop-every-7");
    }
}
