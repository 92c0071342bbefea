#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

//! # tve-noc — a mesh network-on-chip as test access mechanism
//!
//! The high end of the paper's TAM spectrum (Section III.A: "the spectrum
//! of different TAMs ranges from serial boundary scan chains to reuse of
//! buses and NoCs"). A 2-D mesh with dimension-ordered (XY) routing and
//! store-and-forward packet switching: every directed link is an
//! arbitrated resource, a packet occupies each hop for
//! `hop_overhead + ⌈bits/link_width⌉` cycles, and per-link utilization is
//! monitored — so a test engineer can see not just *whether* a schedule
//! fits but *which link* is the hot spot.
//!
//! Targets bind to mesh nodes with address ranges; initiators attach at a
//! node via [`MeshNoc::port`] and use the standard
//! [`TamIf`](tve_tlm::TamIf) interface, making the NoC a drop-in TAM
//! alternative to [`BusTam`](tve_tlm::BusTam) and
//! [`SerialTam`](tve_tlm::SerialTam).
//!
//! ```
//! use std::rc::Rc;
//! use tve_sim::Simulation;
//! use tve_noc::{MeshConfig, MeshNoc, NodeId};
//! use tve_tlm::{AddrRange, InitiatorId, SinkTarget, TamIfExt};
//!
//! let mut sim = Simulation::new();
//! let noc = Rc::new(MeshNoc::new(&sim.handle(), MeshConfig::default()));
//! noc.bind(NodeId::new(2, 1), AddrRange::new(0x100, 0x10),
//!          Rc::new(SinkTarget::new("dct"))).unwrap();
//! let port = noc.port(NodeId::new(0, 0));
//! sim.spawn(async move {
//!     port.write(InitiatorId(0), 0x100, &[0xAB; 4], 128).await.unwrap();
//! });
//! sim.run();
//! assert!(noc.total_busy_cycles() > 0);
//! ```

mod mesh;

pub use mesh::{LinkId, MeshConfig, MeshNoc, NocPort, NodeId};
