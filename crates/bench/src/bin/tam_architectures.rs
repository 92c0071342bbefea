//! TAM architecture exploration across the paper's Section III.A spectrum:
//! the *same* two concurrent BIST workloads delivered over (a) a serial
//! daisy chain, (b) a shared bus reused as TAM, and (c) a 2×2 mesh NoC —
//! the trade-off a test engineer explores when choosing the TAM.
//!
//! Usage: `tam_architectures [--patterns N]` (default 500).
//!
//! The three architecture workloads are independent whole-simulation
//! runs, so they execute concurrently on the validation farm's generic
//! worker pool (each worker owns its own single-threaded simulator).

use std::rc::Rc;

use tve_sched::Farm;

use tve_core::{
    ConfigClient, DataPolicy, ScanKind, ScanSource, SyntheticLogicCore, TestOutcome, TestWrapper,
    WrapperConfig, WrapperMode,
};
use tve_noc::{MeshConfig, MeshNoc, NodeId};
use tve_sim::Simulation;
use tve_tlm::{AddrRange, BusConfig, BusTam, InitiatorId, SerialTam, TamIf};
use tve_tpg::ScanConfig;

/// The three points of the Section III.A TAM spectrum.
enum Arch {
    Serial,
    Bus,
    Noc,
}

const ADDR_A: u32 = 0x100;
const ADDR_B: u32 = 0x200;
const SCAN_A: (u32, u32) = (8, 128);
const SCAN_B: (u32, u32) = (4, 64);

fn wrappers(sim: &Simulation) -> (Rc<TestWrapper>, Rc<TestWrapper>) {
    let make = |name: &str, scan: (u32, u32), seed: u64| {
        let w = Rc::new(TestWrapper::new(
            &sim.handle(),
            WrapperConfig {
                name: name.to_string(),
                ..WrapperConfig::default()
            },
            Rc::new(SyntheticLogicCore::new(
                name,
                ScanConfig::new(scan.0, scan.1),
                seed,
            )),
        ));
        w.load_config(WrapperMode::Bist.encode());
        w
    };
    (make("core-a", SCAN_A, 1), make("core-b", SCAN_B, 2))
}

fn run_workload(
    sim: &mut Simulation,
    port_a: Rc<dyn TamIf>,
    port_b: Rc<dyn TamIf>,
    patterns: u64,
) -> (TestOutcome, TestOutcome) {
    let h = sim.handle();
    let src_a = ScanSource::new(
        &h,
        "bist-a",
        port_a,
        ADDR_A,
        InitiatorId(1),
        ScanConfig::new(SCAN_A.0, SCAN_A.1),
        patterns,
        DataPolicy::Volume,
        1,
        ScanKind::Bist,
    );
    let src_b = ScanSource::new(
        &h,
        "bist-b",
        port_b,
        ADDR_B,
        InitiatorId(2),
        ScanConfig::new(SCAN_B.0, SCAN_B.1),
        patterns,
        DataPolicy::Volume,
        2,
        ScanKind::Bist,
    );
    let a = sim.spawn(async move { src_a.run().await });
    let b = sim.spawn(async move { src_b.run().await });
    sim.run();
    (a.try_take().unwrap(), b.try_take().unwrap())
}

fn report(arch: &str, a: &TestOutcome, b: &TestOutcome, extra: &str) -> u64 {
    let total = a.end.max(b.end).cycles();
    println!(
        "{arch:<22} total {total:>9} cycles   (a: {:>8}, b: {:>8}){extra}",
        a.duration().as_cycles(),
        b.duration().as_cycles()
    );
    assert!(a.clean() && b.clean());
    total
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let patterns = args
        .iter()
        .position(|x| x == "--patterns")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(500u64);

    println!(
        "TAM architecture sweep: two concurrent BISTs ({patterns} patterns \
         each, cores {}x{} and {}x{})\n",
        SCAN_A.0, SCAN_A.1, SCAN_B.0, SCAN_B.1
    );

    // Each architecture builds and drives its own single-threaded
    // simulation; the three runs execute concurrently on the farm and
    // report back in deterministic order.
    let run_arch = |arch: &Arch| -> (&'static str, TestOutcome, TestOutcome, String) {
        match arch {
            // (a) Serial daisy chain, one bit per cycle.
            Arch::Serial => {
                let mut sim = Simulation::new();
                let (wa, wb) = wrappers(&sim);
                let serial = Rc::new(SerialTam::new(&sim.handle(), "serial", 8));
                serial
                    .bind(AddrRange::new(ADDR_A, 0x10), 1, wa as Rc<dyn TamIf>)
                    .unwrap();
                serial
                    .bind(AddrRange::new(ADDR_B, 0x10), 1, wb as Rc<dyn TamIf>)
                    .unwrap();
                let (a, b) = run_workload(
                    &mut sim,
                    Rc::clone(&serial) as Rc<dyn TamIf>,
                    serial as Rc<dyn TamIf>,
                    patterns,
                );
                ("serial daisy chain", a, b, String::new())
            }
            // (b) Shared 8-bit bus reused as TAM (narrow enough that the
            // two concurrent tests contend for it).
            Arch::Bus => {
                let mut sim = Simulation::new();
                let (wa, wb) = wrappers(&sim);
                let bus = Rc::new(BusTam::new(
                    &sim.handle(),
                    BusConfig {
                        width_bits: 8,
                        ..BusConfig::default()
                    },
                ));
                bus.bind(AddrRange::new(ADDR_A, 0x10), wa as Rc<dyn TamIf>)
                    .unwrap();
                bus.bind(AddrRange::new(ADDR_B, 0x10), wb as Rc<dyn TamIf>)
                    .unwrap();
                let (a, b) = run_workload(
                    &mut sim,
                    Rc::clone(&bus) as Rc<dyn TamIf>,
                    Rc::clone(&bus) as Rc<dyn TamIf>,
                    patterns,
                );
                let extra = format!(
                    "  [peak util {:.0}%]",
                    bus.monitor().peak_utilization() * 100.0
                );
                ("shared bus (8-bit)", a, b, extra)
            }
            // (c) 2x2 mesh NoC, 8-bit links, sources at disjoint corners.
            Arch::Noc => {
                let mut sim = Simulation::new();
                let (wa, wb) = wrappers(&sim);
                let noc = Rc::new(MeshNoc::new(
                    &sim.handle(),
                    MeshConfig {
                        cols: 2,
                        rows: 2,
                        link_width_bits: 8, // same wire budget per link as the bus
                        hop_overhead: 2,
                    },
                ));
                noc.bind(
                    NodeId::new(1, 0),
                    AddrRange::new(ADDR_A, 0x10),
                    wa as Rc<dyn TamIf>,
                )
                .unwrap();
                noc.bind(
                    NodeId::new(1, 1),
                    AddrRange::new(ADDR_B, 0x10),
                    wb as Rc<dyn TamIf>,
                )
                .unwrap();
                let pa = noc.port(NodeId::new(0, 0));
                let pb = noc.port(NodeId::new(0, 1));
                let (a, b) = run_workload(&mut sim, Rc::new(pa), Rc::new(pb), patterns);
                let extra = match noc.hottest_link() {
                    Some((link, busy)) => format!("  [hottest link {link}: {busy} cycles]"),
                    None => String::new(),
                };
                ("2x2 mesh NoC", a, b, extra)
            }
        }
    };

    let archs = [Arch::Serial, Arch::Bus, Arch::Noc];
    let (results, _, _) = Farm::new().run_map(&archs, run_arch);
    let mut totals = Vec::new();
    for (_, result) in results {
        let (name, a, b, extra) = result.expect("architecture run panicked");
        totals.push(report(name, &a, &b, &extra));
    }
    let (t_serial, t_bus, t_noc) = (totals[0], totals[1], totals[2]);

    println!(
        "\nserial/bus slowdown: {:.1}x    bus/NoC slowdown: {:.2}x",
        t_serial as f64 / t_bus as f64,
        t_bus as f64 / t_noc as f64
    );
    println!(
        "the spectrum of Section III.A, quantified: wires buy concurrency; \
         the case study's bus-reuse TAM sits between the serial chain and a \
         dedicated NoC."
    );
}
