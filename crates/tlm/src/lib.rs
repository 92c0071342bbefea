#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

//! # tve-tlm — transaction-level modeling layer
//!
//! The communication-centric substrate of the reproduction: transaction
//! payloads, the object-safe [`TamIf`] transport interface of the paper's
//! Fig. 2 (`read` / `write` / `write_read`), a shared-bus TAM channel with
//! arbitration and bandwidth accounting, utilization monitors for the Table I
//! metrics, and a rate limiter modeling the ATE channel.
//!
//! The paper deliberately does *not* use the SystemC TLM-2.0 base protocol
//! because TAMs need properties beyond SoC buses; accordingly this layer
//! defines its own minimal payload and interface mirroring the paper's class
//! diagram.
//!
//! ```
//! use tve_sim::Simulation;
//! use tve_tlm::{BusTam, BusConfig, AddrRange, TamIfExt, SinkTarget, InitiatorId};
//! use std::rc::Rc;
//!
//! let mut sim = Simulation::new();
//! let h = sim.handle();
//! let bus = Rc::new(BusTam::new(&h, BusConfig::default()));
//! bus.bind(AddrRange::new(0x1000, 0x100), Rc::new(SinkTarget::new("sink")))
//!     .unwrap();
//! let bus2 = Rc::clone(&bus);
//! sim.spawn(async move {
//!     bus2.write(InitiatorId(0), 0x1000, &[0xDEAD_BEEF], 32).await.unwrap();
//! });
//! sim.run();
//! assert!(bus.monitor().total_busy_cycles() > 0);
//! ```

mod arbiter;
mod bus;
mod faulty;
mod monitor;
mod payload;
mod power;
mod rate;
mod serial;
mod transport;

pub use arbiter::{Arbiter, ArbiterPolicy};
pub use bus::{AddrRange, BindError, BusConfig, BusTam, SinkTarget};
pub use faulty::{FaultyTam, FaultyTamPolicy};
pub use monitor::UtilizationMonitor;
pub use payload::{Command, InitiatorId, ResponseStatus, Transaction};
pub use power::PowerMeter;
pub use rate::RateLimiter;
pub use serial::SerialTam;
pub use transport::{DmiAccess, DmiWord, LocalBoxFuture, TamError, TamIf, TamIfExt};
