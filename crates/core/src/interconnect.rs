//! Interconnect (external) test: IEEE-1500 EXTEST between two wrapped
//! cores — the paper's wrapper supports "modes for the test of internal
//! logic *or of external interconnects*" (Section III.B).
//!
//! The driver core's boundary register launches a pattern onto the
//! inter-core nets; the receiver core's boundary register captures it;
//! comparing the capture against the fault-free mapping detects stuck,
//! open and bridging net defects.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tve_sim::SimHandle;
use tve_tlm::{InitiatorId, TamIfExt};
use tve_tpg::BitVec;

use crate::outcome::TestOutcome;
use crate::wrapper::TestWrapper;

/// A defect on an interconnect net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The net is shorted to a rail.
    StuckAt(bool),
    /// The net is broken; the receiver floats (reads 0 here).
    Open,
    /// Wired-AND bridge with another net (by net index).
    BridgeAnd(usize),
    /// Wired-OR bridge with another net (by net index).
    BridgeOr(usize),
}

impl fmt::Display for NetFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetFault::StuckAt(v) => write!(f, "stuck-at-{}", u8::from(*v)),
            NetFault::Open => write!(f, "open"),
            NetFault::BridgeAnd(n) => write!(f, "wired-AND bridge with net {n}"),
            NetFault::BridgeOr(n) => write!(f, "wired-OR bridge with net {n}"),
        }
    }
}

/// One point-to-point net from a driver boundary bit to a receiver
/// boundary bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Net {
    /// Driver-side boundary bit.
    pub(crate) src_bit: u32,
    /// Receiver-side boundary bit.
    pub(crate) dst_bit: u32,
    /// Injected defect, if any.
    pub(crate) fault: Option<NetFault>,
}

/// The interconnect between two wrapped cores: a list of nets plus the
/// fault-free and faulty propagation functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interconnect {
    nets: Vec<Net>,
    width: u32,
}

impl Interconnect {
    /// A straight-through interconnect of `width` nets (bit `i` → bit `i`).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn straight(width: u32) -> Self {
        assert!(width > 0, "interconnect must have nets");
        Interconnect {
            nets: (0..width)
                .map(|i| Net {
                    src_bit: i,
                    dst_bit: i,
                    fault: None,
                })
                .collect(),
            width,
        }
    }

    /// The boundary width this interconnect expects on both sides.
    pub(crate) fn width(&self) -> u32 {
        self.width
    }

    /// Injects `fault` on net `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` or a bridge partner is out of range.
    pub fn inject(&mut self, index: usize, fault: NetFault) {
        if let NetFault::BridgeAnd(j) | NetFault::BridgeOr(j) = fault {
            assert!(j < self.nets.len(), "bridge partner in range");
        }
        self.nets[index].fault = Some(fault);
    }

    /// The receiver-side image produced by driving `out`, honoring faults.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not match the interconnect width.
    pub(crate) fn propagate(&self, out: &BitVec) -> BitVec {
        assert_eq!(out.len() as u32, self.width, "driver image width");
        let mut image = BitVec::zeros(self.width as usize);
        for net in &self.nets {
            let driven = out.get(net.src_bit as usize).expect("in range");
            let v = match net.fault {
                None => driven,
                Some(NetFault::StuckAt(b)) => b,
                Some(NetFault::Open) => false,
                Some(NetFault::BridgeAnd(j)) => {
                    driven && out.get(self.nets[j].src_bit as usize).expect("in range")
                }
                Some(NetFault::BridgeOr(j)) => {
                    driven || out.get(self.nets[j].src_bit as usize).expect("in range")
                }
            };
            if v {
                image.set(net.dst_bit as usize, true);
            }
        }
        image
    }

    /// The fault-free expectation for `out`.
    pub(crate) fn golden(&self, out: &BitVec) -> BitVec {
        let clean = Interconnect {
            nets: self
                .nets
                .iter()
                .map(|n| Net { fault: None, ..*n })
                .collect(),
            width: self.width,
        };
        clean.propagate(out)
    }
}

/// Runs an EXTEST sequence: `patterns` pseudo-random boundary images are
/// driven from `driver` through `interconnect` into `receiver` (both must
/// be configured in ext-test mode and have boundaries of the interconnect
/// width), comparing each capture against the fault-free expectation.
///
/// The outcome's `mismatches` counts failing captures; its `errors` counts
/// rejected wrapper accesses (mode/geometry misconfiguration).
pub async fn run_interconnect_test(
    handle: &SimHandle,
    driver: &TestWrapper,
    receiver: &TestWrapper,
    interconnect: &Interconnect,
    patterns: u64,
    seed: u64,
) -> TestOutcome {
    let mut out = TestOutcome::begin("interconnect ext-test", handle.now());
    let width = interconnect.width() as usize;
    let init = InitiatorId(0);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..patterns {
        let image: BitVec = (0..width).map(|_| rng.gen_bool(0.5)).collect();
        // Shift the image into the driver's boundary register.
        if driver
            .write(init, 0, image.words(), width as u64)
            .await
            .is_err()
        {
            out.errors += 1;
            break;
        }
        driver.drain().await;
        out.patterns += 1;
        out.stimulus_bits += width as u64;
        // The nets settle combinationally; the receiver captures.
        let driven = driver.boundary_out().expect("driver shifted an image");
        receiver.set_boundary_in(interconnect.propagate(&driven));
        // Read the capture back out of the receiver's boundary register.
        match receiver.read(init, 0, width as u64).await {
            Ok(words) => {
                out.response_bits += width as u64;
                let captured = BitVec::from_words(words, width);
                if captured != interconnect.golden(&image) {
                    out.mismatches += 1;
                }
            }
            Err(_) => {
                out.errors += 1;
                break;
            }
        }
    }
    out.end = handle.now();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_bus::ConfigClient;
    use crate::model::SyntheticLogicCore;
    use crate::wrapper::{WrapperConfig, WrapperMode};
    use std::rc::Rc;
    use tve_sim::Simulation;
    use tve_tpg::ScanConfig;

    const WIDTH: u32 = 16;

    fn pair(sim: &Simulation) -> (Rc<TestWrapper>, Rc<TestWrapper>) {
        let mk = |name: &str| {
            let w = Rc::new(TestWrapper::new(
                &sim.handle(),
                WrapperConfig {
                    name: name.to_string(),
                    boundary_cells: WIDTH,
                    ..WrapperConfig::default()
                },
                Rc::new(SyntheticLogicCore::new(name, ScanConfig::new(2, 8), 1)),
            ));
            w.load_config(WrapperMode::ExtTest.encode());
            w
        };
        (mk("driver"), mk("receiver"))
    }

    fn run(interconnect: Interconnect, patterns: u64) -> TestOutcome {
        let mut sim = Simulation::new();
        let (driver, receiver) = pair(&sim);
        let h = sim.handle();
        let jh = sim.spawn(async move {
            run_interconnect_test(&h, &driver, &receiver, &interconnect, patterns, 3).await
        });
        sim.run();
        jh.try_take().expect("test completed")
    }

    #[test]
    fn fault_free_interconnect_passes() {
        let out = run(Interconnect::straight(WIDTH), 20);
        assert_eq!(out.patterns, 20);
        assert!(out.clean(), "{out}");
    }

    #[test]
    fn every_fault_class_is_detected() {
        for fault in [
            NetFault::StuckAt(false),
            NetFault::StuckAt(true),
            NetFault::Open,
            NetFault::BridgeAnd(9),
            NetFault::BridgeOr(9),
        ] {
            let mut ic = Interconnect::straight(WIDTH);
            ic.inject(3, fault);
            let out = run(ic, 20);
            assert!(out.mismatches > 0, "{fault} escaped 20 random patterns");
        }
    }

    #[test]
    fn crossed_nets_are_modeled() {
        // A swapped pair (routing permutation, not a fault).
        let mut nets: Vec<Net> = (0..WIDTH)
            .map(|i| Net {
                src_bit: i,
                dst_bit: i,
                fault: None,
            })
            .collect();
        nets[0].dst_bit = 1;
        nets[1].dst_bit = 0;
        let ic = Interconnect { nets, width: WIDTH };
        let out = run(ic, 10);
        // The golden model knows the permutation: still clean.
        assert!(out.clean(), "{out}");
    }

    #[test]
    fn propagate_applies_bridges_pairwise() {
        let mut ic = Interconnect::straight(4);
        ic.inject(0, NetFault::BridgeAnd(1));
        let out = BitVec::from_bits([true, false, true, true]);
        let image = ic.propagate(&out);
        assert_eq!(image.get(0), Some(false), "1 AND 0 = 0");
        assert_eq!(image.get(2), Some(true));
        let golden = ic.golden(&out);
        assert_eq!(golden.get(0), Some(true), "golden ignores the fault");
    }

    #[test]
    fn misconfigured_wrapper_reports_errors() {
        let mut sim = Simulation::new();
        let (driver, receiver) = pair(&sim);
        driver.load_config(WrapperMode::Functional.encode());
        let ic = Interconnect::straight(WIDTH);
        let h = sim.handle();
        let jh = sim
            .spawn(async move { run_interconnect_test(&h, &driver, &receiver, &ic, 5, 1).await });
        sim.run();
        let out = jh.try_take().unwrap();
        assert!(out.errors > 0);
        assert_eq!(out.patterns, 0);
    }
}
