//! Gate level under the test infrastructure: a real combinational netlist
//! behind a test wrapper (the paper allows wrapped cores "even at gate
//! level"). A stuck-at defect injected into the *gates* must propagate
//! through the scan response and flip the BIST MISR signature the ATE
//! checks — the full defect-to-detection chain at transaction level.

use std::rc::Rc;

use tve::core::{
    ConfigClient, DataPolicy, ScanKind, ScanSource, TestWrapper, WrapperConfig, WrapperMode,
};
use tve::netlist::{c17, full_fault_list, NetlistCore, StuckAtFault};
use tve::sim::Simulation;
use tve::tlm::{InitiatorId, TamIf};
use tve::tpg::ScanConfig;

const SCAN: (u32, u32) = (5, 16); // 80-bit pattern = 16 c17 input frames

fn bist_signature(fault: Option<StuckAtFault>, patterns: u64) -> u64 {
    let mut sim = Simulation::new();
    let scan = ScanConfig::new(SCAN.0, SCAN.1);
    let core = Rc::new(NetlistCore::new(c17(), scan));
    core.inject_fault(fault);
    let wrapper = Rc::new(TestWrapper::new(
        &sim.handle(),
        WrapperConfig::default(),
        core,
    ));
    wrapper.load_config(WrapperMode::Bist.encode());
    let src = ScanSource::new(
        &sim.handle(),
        "gate-level BIST",
        wrapper as Rc<dyn TamIf>,
        0,
        InitiatorId(0),
        scan,
        patterns,
        DataPolicy::Full,
        0x17,
        ScanKind::Bist,
    );
    let jh = sim.spawn(async move { src.run().await });
    sim.run();
    let out = jh.try_take().expect("BIST completed");
    assert!(out.clean());
    out.signature.expect("full-data run")
}

#[test]
fn every_c17_stuck_at_fault_flips_the_bist_signature() {
    let golden = bist_signature(None, 50);
    let faults = full_fault_list(&c17());
    assert_eq!(faults.len(), 22);
    let mut detected = 0;
    for fault in &faults {
        if bist_signature(Some(*fault), 50) != golden {
            detected += 1;
        }
    }
    // c17 is fully single-stuck-at testable; 50 pseudo-random 80-bit
    // patterns (800 input frames) detect every fault through the MISR.
    assert_eq!(
        detected,
        faults.len(),
        "all gate-level faults must reach the signature"
    );
}

#[test]
fn golden_signature_is_stable() {
    assert_eq!(bist_signature(None, 20), bist_signature(None, 20));
    assert_ne!(bist_signature(None, 20), bist_signature(None, 21));
}
