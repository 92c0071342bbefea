//! Quickstart: wrap a core, configure its WIR over the configuration scan
//! ring, run a logic BIST through a bus TAM, and read the signature.
//!
//! Run with `cargo run --example quickstart`.

use std::rc::Rc;

use tve::core::{
    ConfigClient, ConfigScanRing, DataPolicy, ScanKind, ScanSource, SyntheticLogicCore,
    TestWrapper, WrapperConfig, WrapperMode,
};
use tve::sim::Simulation;
use tve::tlm::{AddrRange, BusConfig, BusTam, InitiatorId, TamIf};
use tve::tpg::ScanConfig;

fn main() {
    // 1. A simulation and a core with 8 scan chains of 128 cells.
    let mut sim = Simulation::new();
    let h = sim.handle();
    let scan = ScanConfig::new(8, 128);
    let core = Rc::new(SyntheticLogicCore::new("my-core", scan, 42));

    // 2. Wrap it and put the wrapper behind a bus TAM.
    let wrapper = Rc::new(TestWrapper::new(&h, WrapperConfig::default(), core));
    let bus = Rc::new(BusTam::new(&h, BusConfig::default()));
    bus.bind(
        AddrRange::new(0x1000, 0x100),
        Rc::clone(&wrapper) as Rc<dyn TamIf>,
    )
    .expect("fresh address map");

    // 3. The WIR is loaded over the configuration scan ring.
    let ring = Rc::new(ConfigScanRing::new(
        &h,
        vec![Rc::clone(&wrapper) as Rc<dyn ConfigClient>],
        1,
    ));

    // 4. A BIST pattern source streaming 500 pseudo-random patterns.
    let source = ScanSource::new(
        &h,
        "quickstart BIST",
        Rc::clone(&bus) as Rc<dyn TamIf>,
        0x1000,
        InitiatorId(1),
        scan,
        500,
        DataPolicy::Full,
        0xBEEF,
        ScanKind::Bist,
    );

    let outcome = sim.spawn(async move {
        ring.write(0, WrapperMode::Bist.encode()).await;
        source.run().await
    });
    let end = sim.run();

    let outcome = outcome.try_take().expect("process completed");
    println!("{outcome}");
    println!(
        "simulated {} cycles; wrapper accepted {} patterns; \
         bus peak utilization {:.1}%",
        end.cycles(),
        wrapper.stats().patterns,
        bus.monitor().peak_utilization() * 100.0
    );
    assert!(outcome.clean());
    assert_eq!(outcome.signature, Some(wrapper.signature()));
}
