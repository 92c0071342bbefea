//! The configuration scan bus (Fig. 3/4): a serial ring through the
//! configuration registers (WIRs, codec configs, EBI config) of all test
//! infrastructure blocks.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use tve_obs::{Counter, Recorder, SpanKind, SpanRecord};
use tve_sim::{Duration, SimHandle, Time};

/// A block with a configuration register on the scan ring.
pub trait ConfigClient {
    /// Client name for diagnostics.
    fn name(&self) -> &str;
    /// Register length in bits (its share of the ring).
    fn config_len(&self) -> u32;
    /// Loads a new register value (update phase of the ring rotation).
    fn load_config(&self, value: u64);
    /// Captures the current register value.
    fn read_config(&self) -> u64;
}

/// Attached observability state: the shared recorder plus the rotation
/// counter pre-registered at attach time.
struct RingRecorder {
    rec: Rc<Recorder>,
    rotations: Counter,
}

/// The serial configuration scan ring.
///
/// Any access shifts the *entire* ring once (that is the point of a ring:
/// one wire, all registers in series), so an access costs
/// `ring length × clock divider` cycles. [`ConfigScanRing::write_all`]
/// reconfigures every client in a single rotation — how the ATE sets up a
/// concurrent test session.
pub struct ConfigScanRing {
    handle: SimHandle,
    clients: Vec<Rc<dyn ConfigClient>>,
    clock_div: u64,
    rotations: Cell<u64>,
    /// Fault hook: clients at index >= this never see shifted data.
    broken_at: Cell<Option<usize>>,
    /// Configuration operations swallowed by the broken segment.
    lost_ops: Cell<u64>,
    recorder: RefCell<Option<RingRecorder>>,
}

impl fmt::Debug for ConfigScanRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConfigScanRing")
            .field("clients", &self.clients.len())
            .field("ring_length", &self.ring_length())
            .field("rotations", &self.rotations.get())
            .finish()
    }
}

impl ConfigScanRing {
    /// Creates a ring over `clients`, shifted at `1/clock_div` of the
    /// system clock.
    ///
    /// # Panics
    ///
    /// Panics if `clock_div` is zero.
    pub fn new(handle: &SimHandle, clients: Vec<Rc<dyn ConfigClient>>, clock_div: u64) -> Self {
        assert!(clock_div > 0, "clock divider must be positive");
        ConfigScanRing {
            handle: handle.clone(),
            clients,
            clock_div,
            rotations: Cell::new(0),
            broken_at: Cell::new(None),
            lost_ops: Cell::new(0),
            recorder: RefCell::new(None),
        }
    }

    /// Breaks (or repairs, with `None`) the ring wire just before client
    /// `index`: clients at `index` and beyond stop receiving shifted data —
    /// writes to them are lost and reads from them return zero — while the
    /// rotation still costs full time (the ATE keeps clocking an open
    /// circuit). Models a severed test-infrastructure segment for
    /// fault-injection campaigns.
    pub fn break_segment(&self, index: Option<usize>) {
        self.broken_at.set(index);
    }

    fn reaches(&self, index: usize) -> bool {
        match self.broken_at.get() {
            Some(b) if index >= b => {
                self.lost_ops.set(self.lost_ops.get() + 1);
                false
            }
            _ => true,
        }
    }

    /// Attaches an observability recorder: every ring access becomes a
    /// [`tve_obs::SpanKind::ConfigScan`] span on the `"config-ring"`
    /// track and the `"config-ring.rotations"` counter accumulates in the
    /// recorder's metrics registry.
    pub fn attach_recorder(&self, recorder: Rc<Recorder>) {
        let rotations = recorder.metrics().counter("config-ring.rotations");
        *self.recorder.borrow_mut() = Some(RingRecorder {
            rec: recorder,
            rotations,
        });
    }

    fn record_rotation(&self, op: &str, client: Option<usize>, start: Time) {
        if let Some(obs) = &*self.recorder.borrow() {
            let end = self.handle.now();
            obs.rec.record_with(|| {
                let name = match client {
                    Some(i) => format!("{op} {i}"),
                    None => op.to_string(),
                };
                SpanRecord::new(SpanKind::ConfigScan, "config-ring", name, start, end)
                    .with_bits(self.ring_length() as u64)
            });
            obs.rotations.inc();
        }
    }

    /// Number of clients on the ring.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Total ring length in bits.
    pub(crate) fn ring_length(&self) -> u32 {
        self.clients.iter().map(|c| c.config_len()).sum()
    }

    /// Completed ring rotations (diagnostics).
    pub fn rotation_count(&self) -> u64 {
        self.rotations.get()
    }

    /// The simulated cost of one full rotation.
    pub(crate) fn rotation_cost(&self) -> Duration {
        Duration::cycles(self.ring_length() as u64 * self.clock_div)
    }

    async fn rotate(&self) {
        self.handle.wait(self.rotation_cost()).await;
        self.rotations.set(self.rotations.get() + 1);
    }

    /// Writes `value` into client `index`'s register (one full rotation,
    /// other registers are recirculated unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub async fn write(&self, index: usize, value: u64) {
        assert!(index < self.clients.len(), "config client index in range");
        let start = self.handle.now();
        self.rotate().await;
        if self.reaches(index) {
            self.clients[index].load_config(value);
        }
        self.record_rotation("write", Some(index), start);
    }

    /// Reconfigures every client in one rotation; `values[i]` goes to
    /// client `i`.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the client count.
    pub async fn write_all(&self, values: &[u64]) {
        assert_eq!(
            values.len(),
            self.clients.len(),
            "one value per ring client"
        );
        let start = self.handle.now();
        self.rotate().await;
        for (i, (c, &v)) in self.clients.iter().zip(values).enumerate() {
            if self.reaches(i) {
                c.load_config(v);
            }
        }
        self.record_rotation("write_all", None, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use tve_sim::Simulation;

    struct Reg {
        name: String,
        len: u32,
        value: Cell<u64>,
    }

    impl ConfigClient for Reg {
        fn name(&self) -> &str {
            &self.name
        }
        fn config_len(&self) -> u32 {
            self.len
        }
        fn load_config(&self, value: u64) {
            self.value.set(value);
        }
        fn read_config(&self) -> u64 {
            self.value.get()
        }
    }

    fn reg(name: &str, len: u32) -> Rc<Reg> {
        Rc::new(Reg {
            name: name.to_string(),
            len,
            value: Cell::new(0),
        })
    }

    #[test]
    fn write_costs_one_rotation() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let a = reg("a", 3);
        let b = reg("b", 5);
        let ring = Rc::new(ConfigScanRing::new(
            &h,
            vec![a.clone() as Rc<dyn ConfigClient>, b.clone()],
            1,
        ));
        assert_eq!(ring.ring_length(), 8);
        let r = Rc::clone(&ring);
        sim.spawn(async move {
            r.write(1, 0b10110).await;
        });
        assert_eq!(sim.run().cycles(), 8);
        assert_eq!(b.read_config(), 0b10110);
        assert_eq!(a.read_config(), 0);
        assert_eq!(ring.rotation_count(), 1);
    }

    #[test]
    fn clock_divider_scales_cost() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ring = Rc::new(ConfigScanRing::new(
            &h,
            vec![reg("a", 4) as Rc<dyn ConfigClient>],
            8,
        ));
        let r = Rc::clone(&ring);
        sim.spawn(async move {
            r.write(0, 1).await;
        });
        assert_eq!(sim.run().cycles(), 32);
    }

    #[test]
    fn write_all_is_a_single_rotation() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let a = reg("a", 3);
        let b = reg("b", 3);
        let c = reg("c", 3);
        let ring = Rc::new(ConfigScanRing::new(
            &h,
            vec![a.clone() as Rc<dyn ConfigClient>, b.clone(), c.clone()],
            1,
        ));
        let r = Rc::clone(&ring);
        sim.spawn(async move {
            r.write_all(&[1, 2, 3]).await;
        });
        assert_eq!(sim.run().cycles(), 9);
        assert_eq!(
            (a.read_config(), b.read_config(), c.read_config()),
            (1, 2, 3)
        );
        assert_eq!(ring.rotation_count(), 1);
    }

    #[test]
    fn broken_segment_swallows_ops_but_keeps_timing() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let a = reg("a", 4);
        let b = reg("b", 4);
        b.load_config(0x9);
        let ring = Rc::new(ConfigScanRing::new(
            &h,
            vec![a.clone() as Rc<dyn ConfigClient>, b.clone()],
            1,
        ));
        ring.break_segment(Some(1));
        let r = Rc::clone(&ring);
        sim.spawn(async move {
            r.write(0, 3).await; // reaches client 0
            r.write(1, 7).await; // lost
            r.write_all(&[5, 6]).await; // client 1's share lost
        });
        // Timing is unchanged: 3 rotations x 8 bits.
        assert_eq!(sim.run().cycles(), 24);
        assert_eq!(a.read_config(), 5);
        assert_eq!(b.read_config(), 0x9, "writes past the break are lost");
        assert_eq!(ring.lost_ops.get(), 2);
        // Repair restores delivery.
        ring.break_segment(None);
        b.load_config(0);
        let mut sim2 = Simulation::new();
        let ring2 = Rc::new(ConfigScanRing::new(
            &sim2.handle(),
            vec![a as Rc<dyn ConfigClient>, b.clone()],
            1,
        ));
        let r2 = Rc::clone(&ring2);
        sim2.spawn(async move {
            r2.write(1, 7).await;
        });
        sim2.run();
        assert_eq!(b.read_config(), 7);
    }
}
