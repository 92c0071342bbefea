//! Serial daisy-chain TAM — the low-cost end of the paper's TAM spectrum
//! ("the spectrum of different TAMs ranges from serial boundary scan
//! chains to reuse of buses and NoCs", Section III.A).
//!
//! All wrappers sit on one serial line (IEEE 1149.1 style): accessing one
//! target shifts its payload through every *other* member's bypass
//! register, one bit per cycle, one access at a time.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use tve_sim::{Duration, SimHandle};

use crate::bus::{AddrRange, BindError};
use crate::payload::{ResponseStatus, Transaction};
use crate::transport::{LocalBoxFuture, TamIf};
use crate::Arbiter;

struct SerialSlot {
    range: AddrRange,
    bypass_bits: u32,
    target: Rc<dyn TamIf>,
}

/// A single serial scan chain acting as TAM.
///
/// An access to the slot mapped at the transaction's address costs
/// `bit_len + Σ(other slots' bypass bits) + overhead` cycles at one bit per
/// cycle; concurrent initiators serialize on the chain. Cheap in wires,
/// expensive in time — the baseline the bus-reuse TAM of the case study is
/// implicitly compared against.
pub struct SerialTam {
    handle: SimHandle,
    name: String,
    overhead_cycles: u64,
    slots: RefCell<Vec<SerialSlot>>,
    arbiter: Arbiter,
}

impl fmt::Debug for SerialTam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SerialTam")
            .field("name", &self.name)
            .field("slots", &self.slots.borrow().len())
            .finish()
    }
}

impl SerialTam {
    /// Creates an empty chain with the given per-access protocol overhead
    /// (capture/update states of the TAP-style controller).
    pub fn new(handle: &SimHandle, name: impl Into<String>, overhead_cycles: u64) -> Self {
        SerialTam {
            handle: handle.clone(),
            name: name.into(),
            overhead_cycles,
            slots: RefCell::new(Vec::new()),
            arbiter: Arbiter::new(handle, crate::ArbiterPolicy::Fcfs),
        }
    }

    /// Appends `target` to the chain, reachable at `range`, contributing
    /// `bypass_bits` to every other member's access cost.
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] if `range` overlaps an existing mapping.
    pub fn bind(
        &self,
        range: AddrRange,
        bypass_bits: u32,
        target: Rc<dyn TamIf>,
    ) -> Result<(), BindError> {
        let mut slots = self.slots.borrow_mut();
        for s in slots.iter() {
            if s.range.overlaps(&range) {
                return Err(BindError {
                    range,
                    conflict: s.range,
                });
            }
        }
        slots.push(SerialSlot {
            range,
            bypass_bits,
            target,
        });
        Ok(())
    }

    /// Cycles an access of `bit_len` bits to the slot at `addr` occupies
    /// the chain, with that slot's target; `None` for an unmapped address.
    fn route(&self, addr: u32, bit_len: u64) -> Option<(Duration, Rc<dyn TamIf>)> {
        let slots = self.slots.borrow();
        let hit = slots.iter().position(|s| s.range.contains(addr))?;
        let bypass: u64 = slots
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != hit)
            .map(|(_, s)| s.bypass_bits as u64)
            .sum();
        let dur = Duration::cycles(self.overhead_cycles + bit_len + bypass);
        Some((dur, Rc::clone(&slots[hit].target)))
    }
}

impl TamIf for SerialTam {
    fn name(&self) -> &str {
        &self.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            let Some((dur, target)) = self.route(txn.addr, txn.bit_len) else {
                txn.status = ResponseStatus::AddressError;
                return;
            };
            self.arbiter.acquire(txn.initiator).await;
            self.handle.wait(dur).await;
            self.arbiter.release();
            target.transport(txn).await;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::SinkTarget;
    use crate::payload::{Command, InitiatorId};
    use crate::transport::TamIfExt;
    use tve_sim::Simulation;

    fn chain(sim: &Simulation) -> (Rc<SerialTam>, Rc<SinkTarget>, Rc<SinkTarget>) {
        let tam = Rc::new(SerialTam::new(&sim.handle(), "jtag", 5));
        let a = Rc::new(SinkTarget::new("a"));
        let b = Rc::new(SinkTarget::new("b"));
        tam.bind(
            AddrRange::new(0x100, 0x10),
            1,
            Rc::clone(&a) as Rc<dyn TamIf>,
        )
        .unwrap();
        tam.bind(
            AddrRange::new(0x200, 0x10),
            3,
            Rc::clone(&b) as Rc<dyn TamIf>,
        )
        .unwrap();
        (tam, a, b)
    }

    #[test]
    fn access_cost_includes_other_members_bypass() {
        let sim = Simulation::new();
        let (tam, _, _) = chain(&sim);
        // Access to a: 5 overhead + 64 payload + 3 (b's bypass).
        let occupancy = |addr| tam.route(addr, 64).map(|(dur, _)| dur);
        assert_eq!(occupancy(0x100), Some(Duration::cycles(72)));
        // Access to b: 5 + 64 + 1 (a's bypass).
        assert_eq!(occupancy(0x200), Some(Duration::cycles(70)));
        assert_eq!(occupancy(0x900), None);
    }

    #[test]
    fn transfers_serialize_on_the_chain() {
        let mut sim = Simulation::new();
        let (tam, a, b) = chain(&sim);
        for (i, addr) in [(0u8, 0x100u32), (1, 0x200)] {
            let tam = Rc::clone(&tam);
            sim.spawn(async move {
                tam.transfer_volume(InitiatorId(i), Command::Write, addr, 64)
                    .await
                    .unwrap();
            });
        }
        // 72 + 70, strictly sequential.
        assert_eq!(sim.run().cycles(), 142);
        assert_eq!(a.transaction_count(), 1);
        assert_eq!(b.transaction_count(), 1);
    }

    #[test]
    fn unmapped_address_errors() {
        let mut sim = Simulation::new();
        let (tam, _, _) = chain(&sim);
        let t = Rc::clone(&tam);
        let jh = sim.spawn(async move { t.read(InitiatorId(0), 0x900, 32).await });
        sim.run();
        assert_eq!(
            jh.try_take().unwrap().unwrap_err().status,
            ResponseStatus::AddressError
        );
    }

    #[test]
    fn serial_is_much_slower_than_a_bus_for_wide_payloads() {
        // The TAM-spectrum trade-off in one assertion.
        let sim = Simulation::new();
        let (tam, _, _) = chain(&sim);
        let serial = tam.route(0x100, 4096).unwrap().0;
        let bus = crate::BusTam::new(
            &sim.handle(),
            crate::BusConfig {
                width_bits: 32,
                ..Default::default()
            },
        )
        .occupancy_of(4096);
        assert!(serial.as_cycles() > 30 * bus.as_cycles());
    }

    #[test]
    fn overlapping_bind_rejected() {
        let sim = Simulation::new();
        let (tam, _, _) = chain(&sim);
        let c = Rc::new(SinkTarget::new("c"));
        assert!(tam
            .bind(AddrRange::new(0x105, 4), 1, c as Rc<dyn TamIf>)
            .is_err());
        assert_eq!(tam.slots.borrow().len(), 2);
    }
}
