//! The TAM spectrum of paper Section III.A, as assertions: the same
//! concurrent test workload over a serial daisy chain, a shared bus, and a
//! mesh NoC must order serial ≫ bus > NoC in test time, and all three must
//! deliver the identical pattern counts through the same `TamIf` interface.

use std::rc::Rc;

use tve::core::{
    ConfigClient, DataPolicy, ScanKind, ScanSource, SyntheticLogicCore, TestWrapper, WrapperConfig,
    WrapperMode,
};
use tve::noc::{MeshConfig, MeshNoc, NodeId};
use tve::sim::Simulation;
use tve::tlm::{AddrRange, BusConfig, BusTam, InitiatorId, SerialTam, TamIf};
use tve::tpg::ScanConfig;

const PATTERNS: u64 = 100;
const SCAN_A: (u32, u32) = (8, 64);
const SCAN_B: (u32, u32) = (4, 32);

fn wrapped_cores(sim: &Simulation) -> (Rc<TestWrapper>, Rc<TestWrapper>) {
    let mk = |name: &str, (chains, len): (u32, u32), seed| {
        let w = Rc::new(TestWrapper::new(
            &sim.handle(),
            WrapperConfig {
                name: name.to_string(),
                ..WrapperConfig::default()
            },
            Rc::new(SyntheticLogicCore::new(
                name,
                ScanConfig::new(chains, len),
                seed,
            )),
        ));
        w.load_config(WrapperMode::Bist.encode());
        w
    };
    (mk("a", SCAN_A, 1), mk("b", SCAN_B, 2))
}

fn run(sim: &mut Simulation, pa: Rc<dyn TamIf>, pb: Rc<dyn TamIf>) -> (u64, u64, u64) {
    let h = sim.handle();
    let sa = ScanSource::new(
        &h,
        "a",
        pa,
        0x100,
        InitiatorId(1),
        ScanConfig::new(SCAN_A.0, SCAN_A.1),
        PATTERNS,
        DataPolicy::Volume,
        1,
        ScanKind::Bist,
    );
    let sb = ScanSource::new(
        &h,
        "b",
        pb,
        0x200,
        InitiatorId(2),
        ScanConfig::new(SCAN_B.0, SCAN_B.1),
        PATTERNS,
        DataPolicy::Volume,
        2,
        ScanKind::Bist,
    );
    let ja = sim.spawn(async move { sa.run().await });
    let jb = sim.spawn(async move { sb.run().await });
    let end = sim.run().cycles();
    let (a, b) = (ja.try_take().unwrap(), jb.try_take().unwrap());
    assert!(a.clean() && b.clean());
    (end, a.patterns, b.patterns)
}

fn serial_time() -> u64 {
    let mut sim = Simulation::new();
    let (wa, wb) = wrapped_cores(&sim);
    let tam = Rc::new(SerialTam::new(&sim.handle(), "serial", 8));
    tam.bind(AddrRange::new(0x100, 0x10), 1, wa as Rc<dyn TamIf>)
        .unwrap();
    tam.bind(AddrRange::new(0x200, 0x10), 1, wb as Rc<dyn TamIf>)
        .unwrap();
    let (t, pa, pb) = run(
        &mut sim,
        Rc::clone(&tam) as Rc<dyn TamIf>,
        tam as Rc<dyn TamIf>,
    );
    assert_eq!((pa, pb), (PATTERNS, PATTERNS));
    t
}

fn bus_time() -> u64 {
    let mut sim = Simulation::new();
    let (wa, wb) = wrapped_cores(&sim);
    let bus = Rc::new(BusTam::new(
        &sim.handle(),
        BusConfig {
            width_bits: 8,
            ..BusConfig::default()
        },
    ));
    bus.bind(AddrRange::new(0x100, 0x10), wa as Rc<dyn TamIf>)
        .unwrap();
    bus.bind(AddrRange::new(0x200, 0x10), wb as Rc<dyn TamIf>)
        .unwrap();
    let (t, pa, pb) = run(
        &mut sim,
        Rc::clone(&bus) as Rc<dyn TamIf>,
        Rc::clone(&bus) as Rc<dyn TamIf>,
    );
    assert_eq!((pa, pb), (PATTERNS, PATTERNS));
    // The narrow shared bus is the bottleneck: it saturates.
    assert!(bus.monitor().peak_utilization() > 0.95);
    t
}

fn noc_time() -> u64 {
    let mut sim = Simulation::new();
    let (wa, wb) = wrapped_cores(&sim);
    let noc = Rc::new(MeshNoc::new(
        &sim.handle(),
        MeshConfig {
            cols: 2,
            rows: 2,
            link_width_bits: 8,
            hop_overhead: 2,
        },
    ));
    noc.bind(
        NodeId::new(1, 0),
        AddrRange::new(0x100, 0x10),
        wa as Rc<dyn TamIf>,
    )
    .unwrap();
    noc.bind(
        NodeId::new(1, 1),
        AddrRange::new(0x200, 0x10),
        wb as Rc<dyn TamIf>,
    )
    .unwrap();
    let pa = Rc::new(noc.port(NodeId::new(0, 0)));
    let pb = Rc::new(noc.port(NodeId::new(0, 1)));
    let (t, ca, cb) = run(&mut sim, pa, pb);
    assert_eq!((ca, cb), (PATTERNS, PATTERNS));
    t
}

#[test]
fn tam_spectrum_orders_serial_bus_noc() {
    let serial = serial_time();
    let bus = bus_time();
    let noc = noc_time();
    assert!(
        serial > 5 * bus,
        "serial chain must be far slower: {serial} vs {bus}"
    );
    assert!(
        noc < bus,
        "disjoint NoC paths must beat the contended bus: {noc} vs {bus}"
    );
}

#[test]
fn all_tams_are_deterministic() {
    assert_eq!(serial_time(), serial_time());
    assert_eq!(bus_time(), bus_time());
    assert_eq!(noc_time(), noc_time());
}
