//! [`NetlistCore`]: a gate-level circuit as the core behind a test
//! wrapper, with *gate-level* defect injection — closing the loop from a
//! stuck-at fault in the logic, through the scan response, to the MISR
//! signature the ATE checks.

use std::cell::Cell;
use std::fmt;

use tve_core::CoreModel;
use tve_tpg::{BitVec, ScanConfig};

use crate::fault::StuckAtFault;
use crate::netlist::Netlist;

/// A combinational netlist wrapped as a [`CoreModel`]: the scan stimulus
/// is chopped into input frames, each frame is evaluated through the real
/// gates, and the outputs fill the response image.
///
/// ```
/// use tve_netlist::{c17, NetlistCore};
/// use tve_core::CoreModel;
/// use tve_tpg::{BitVec, ScanConfig};
///
/// let core = NetlistCore::new(c17(), ScanConfig::new(2, 16));
/// let mut image = BitVec::ones(32);
/// core.capture(&mut image);
/// assert_eq!(image.len(), 32);
/// ```
pub struct NetlistCore {
    name: String,
    netlist: Netlist,
    scan: ScanConfig,
    fault: Cell<Option<StuckAtFault>>,
}

impl fmt::Debug for NetlistCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetlistCore")
            .field("name", &self.name)
            .field("netlist", &self.netlist.to_string())
            .field("scan", &self.scan)
            .finish()
    }
}

impl NetlistCore {
    /// Wraps `netlist` with the given scan geometry.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is smaller than one input frame.
    pub fn new(netlist: Netlist, scan: ScanConfig) -> Self {
        assert!(
            scan.bits_per_pattern() >= netlist.input_count() as u64,
            "scan image must hold at least one input frame"
        );
        NetlistCore {
            name: format!("netlist-core({netlist})"),
            netlist,
            scan,
            fault: Cell::new(None),
        }
    }

    /// Injects (or clears) a gate-level stuck-at defect.
    pub fn inject_fault(&self, fault: Option<StuckAtFault>) {
        self.fault.set(fault);
    }
}

impl CoreModel for NetlistCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn scan_config(&self) -> ScanConfig {
        self.scan
    }

    /// Evaluates every frame of the stimulus before the response replaces
    /// it: an output frame may be wider than an input frame, so the
    /// response cannot overwrite the stimulus as it goes.
    fn capture(&self, image: &mut BitVec) {
        let stimulus = &*image;
        assert_eq!(
            stimulus.len() as u64,
            self.scan.bits_per_pattern(),
            "stimulus must match the scan geometry"
        );
        let in_w = self.netlist.input_count() as usize;
        let out_w = self.netlist.output_count();
        let fault = self.fault.get().map(|f| (f.net, f.value));
        let mut response = BitVec::zeros(stimulus.len());
        let mut frame = vec![false; in_w];
        let frames = stimulus.len() / in_w;
        for k in 0..frames {
            for (i, f) in frame.iter_mut().enumerate() {
                *f = stimulus.get(k * in_w + i).expect("in range");
            }
            let words: Vec<u64> = frame.iter().map(|&b| b as u64).collect();
            let values = self.netlist.eval64_with_fault(&words, fault);
            let outs = self.netlist.output_words(&values);
            for (o, w) in outs.iter().enumerate() {
                let pos = k * out_w + o;
                if pos < response.len() && w & 1 == 1 {
                    response.set(pos, true);
                }
            }
        }
        *image = response;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{c17, NetId};

    fn core() -> NetlistCore {
        NetlistCore::new(c17(), ScanConfig::new(4, 16))
    }

    fn captured(c: &NetlistCore, mut image: BitVec) -> BitVec {
        c.capture(&mut image);
        image
    }

    #[test]
    fn response_is_deterministic_and_stimulus_sensitive() {
        let c = core();
        let a = captured(&c, BitVec::ones(64));
        let b = captured(&c, BitVec::ones(64));
        assert_eq!(a, b);
        let z = captured(&c, BitVec::zeros(64));
        assert_ne!(a, z);
    }

    #[test]
    fn gate_level_fault_changes_the_response() {
        let c = core();
        let stim = BitVec::ones(64);
        let clean = captured(&c, stim.clone());
        c.inject_fault(Some(StuckAtFault {
            net: NetId(0),
            value: false,
        }));
        let faulty = captured(&c, stim.clone());
        assert_ne!(clean, faulty);
        c.inject_fault(None);
        assert_eq!(captured(&c, stim), clean);
    }

    #[test]
    #[should_panic(expected = "input frame")]
    fn too_small_geometry_panics() {
        let _ = NetlistCore::new(c17(), ScanConfig::new(1, 4));
    }
}
