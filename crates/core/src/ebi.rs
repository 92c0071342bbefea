//! The external bus interface (EBI): the adaptor translating the ATE
//! protocol into the TAM protocol (paper Section III.C/E).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use tve_sim::{JoinHandle, SimHandle};
use tve_tlm::{Command, LocalBoxFuture, RateLimiter, ResponseStatus, TamIf, Transaction};

use crate::config_bus::ConfigClient;

/// The EBI TLM: transactions pass through two rate-limited serial channels
/// (stimulus downlink and response uplink, full duplex) before reaching the
/// on-chip TAM — the tester-channel throughput bottleneck that slows the
/// uncompressed external test of the paper's schedule 1.
///
/// The EBI is also a [`ConfigClient`]: bit 0 of its register enables the
/// interface.
pub struct Ebi {
    handle: SimHandle,
    name: String,
    downstream: Rc<dyn TamIf>,
    downlink: RateLimiter,
    uplink: RateLimiter,
    enabled: Cell<bool>,
    config: Cell<u64>,
    rejected: Cell<u64>,
    /// The in-flight store-and-forward bus transfer.
    posted: RefCell<Option<JoinHandle<()>>>,
    posted_errors: Rc<Cell<u64>>,
    /// Last shifted-out data, returned one combined access late.
    response_buffer: Rc<RefCell<Vec<u32>>>,
}

impl fmt::Debug for Ebi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ebi")
            .field("name", &self.name)
            .field("enabled", &self.enabled.get())
            .field("down_bits", &self.downlink.total_bits())
            .field("up_bits", &self.uplink.total_bits())
            .finish()
    }
}

impl Ebi {
    /// Creates an EBI in front of `downstream` (normally the system
    /// bus/TAM) with ATE channel rates of `down_bits_per_cycle` and
    /// `up_bits_per_cycle` (numerator/denominator pairs).
    ///
    /// The interface starts *disabled*: the ATE must enable it over the
    /// configuration ring first.
    pub fn new(
        handle: &SimHandle,
        name: impl Into<String>,
        downstream: Rc<dyn TamIf>,
        down_rate: (u64, u64),
        up_rate: (u64, u64),
    ) -> Self {
        Ebi {
            handle: handle.clone(),
            name: name.into(),
            downstream,
            downlink: RateLimiter::new(handle, down_rate.0, down_rate.1),
            uplink: RateLimiter::new(handle, up_rate.0, up_rate.1),
            enabled: Cell::new(false),
            config: Cell::new(0),
            rejected: Cell::new(0),
            posted: RefCell::new(None),
            posted_errors: Rc::new(Cell::new(0)),
            response_buffer: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Waits for any in-flight posted transfer to finish.
    pub(crate) async fn flush(&self) {
        let pending = self.posted.borrow_mut().take();
        if let Some(h) = pending {
            h.await;
        }
    }

    /// Whether the interface is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Total bits moved over the response uplink.
    pub fn uplink_bits(&self) -> u64 {
        self.uplink.total_bits()
    }
}

/// The posted bus transaction for `txn`: its header, with the payload
/// moved out of `txn` rather than copied (a `WriteRead` then refills
/// `txn.data` with what it returns to the tester).
fn posted(txn: &mut Transaction) -> Transaction {
    let data = std::mem::take(&mut txn.data);
    let mut inner = txn.clone();
    inner.data = data;
    inner.status = ResponseStatus::Incomplete;
    inner
}

impl TamIf for Ebi {
    fn name(&self) -> &str {
        &self.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            if !self.enabled.get() {
                self.rejected.set(self.rejected.get() + 1);
                txn.status = ResponseStatus::TargetError;
                return;
            }
            // Surface any earlier posted-transfer failure before accepting
            // more traffic (one-transaction-delayed error reporting).
            if self.posted_errors.get() > 0 {
                txn.status = ResponseStatus::TargetError;
                return;
            }
            match txn.cmd {
                Command::Write | Command::WriteRead if txn.is_volume_only() => {
                    // Channel time. For write_read the response of the
                    // previous shift uploads while the next stimulus
                    // downloads (full duplex): cost is the maximum.
                    let mut done = self.downlink.reserve(txn.bit_len);
                    if txn.cmd == Command::WriteRead {
                        done = done.max(self.uplink.reserve(txn.bit_len));
                    }
                    self.handle.wait_until(done).await;
                    // Store-and-forward: deliver to the TAM in the
                    // background so the next download overlaps the bus
                    // transfer (single buffer: wait for the previous one).
                    self.flush().await;
                    let mut inner = posted(txn);
                    let downstream = Rc::clone(&self.downstream);
                    let errors = Rc::clone(&self.posted_errors);
                    let handle = self.handle.spawn(async move {
                        downstream.transport(&mut inner).await;
                        if !inner.status.is_ok() {
                            errors.set(errors.get() + 1);
                        }
                    });
                    *self.posted.borrow_mut() = Some(handle);
                    txn.status = ResponseStatus::Ok;
                }
                Command::Write => {
                    self.downlink.consume(txn.bit_len).await;
                    self.flush().await;
                    self.downstream.transport(txn).await;
                }
                Command::Read => {
                    self.flush().await;
                    self.downstream.transport(txn).await;
                    self.uplink.consume(txn.bit_len).await;
                }
                Command::WriteRead => {
                    // Bit-true combined access: same store-and-forward
                    // pipelining as the volume path. The data shifted out
                    // is returned one transaction late (from the EBI's
                    // response buffer), mirroring the full-duplex pipeline
                    // of a real tester channel.
                    let down_done = self.downlink.reserve(txn.bit_len);
                    let up_done = self.uplink.reserve(txn.bit_len);
                    self.handle.wait_until(down_done.max(up_done)).await;
                    self.flush().await;
                    let mut inner = posted(txn);
                    let downstream = Rc::clone(&self.downstream);
                    let errors = Rc::clone(&self.posted_errors);
                    let response = Rc::clone(&self.response_buffer);
                    let handle = self.handle.spawn(async move {
                        downstream.transport(&mut inner).await;
                        if inner.status.is_ok() {
                            *response.borrow_mut() = inner.data;
                        } else {
                            errors.set(errors.get() + 1);
                        }
                    });
                    *self.posted.borrow_mut() = Some(handle);
                    txn.data = self.response_buffer.borrow().clone();
                    if txn.data.is_empty() {
                        txn.data = vec![0; (txn.bit_len as usize).div_ceil(32)];
                    }
                    txn.status = ResponseStatus::Ok;
                }
            }
        })
    }
}

impl ConfigClient for Ebi {
    fn name(&self) -> &str {
        &self.name
    }

    fn config_len(&self) -> u32 {
        4
    }

    fn load_config(&self, value: u64) {
        self.config.set(value);
        self.enabled.set(value & 1 == 1);
    }

    fn read_config(&self) -> u64 {
        self.config.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_sim::Simulation;
    use tve_tlm::{InitiatorId, SinkTarget, TamIfExt};

    fn setup(down: (u64, u64), up: (u64, u64)) -> (Simulation, Rc<Ebi>, Rc<SinkTarget>) {
        let sim = Simulation::new();
        let sink = Rc::new(SinkTarget::new("bus"));
        let ebi = Rc::new(Ebi::new(
            &sim.handle(),
            "ebi",
            sink.clone() as Rc<dyn TamIf>,
            down,
            up,
        ));
        (sim, ebi, sink)
    }

    #[test]
    fn disabled_ebi_rejects() {
        let (mut sim, ebi, sink) = setup((8, 1), (8, 1));
        let e = Rc::clone(&ebi);
        let jh = sim.spawn(async move { e.write(InitiatorId(0), 0, &[1], 32).await });
        sim.run();
        assert!(jh.try_take().unwrap().is_err());
        assert_eq!(sink.transaction_count(), 0);
        assert_eq!(ebi.rejected.get(), 1);
    }

    #[test]
    fn write_pays_downlink_time() {
        let (mut sim, ebi, sink) = setup((8, 1), (8, 1));
        ebi.load_config(1);
        let e = Rc::clone(&ebi);
        sim.spawn(async move {
            e.write(InitiatorId(0), 0, &[0; 4], 128).await.unwrap();
        });
        // 128 bits at 8 bits/cycle = 16 cycles; sink is instant.
        assert_eq!(sim.run().cycles(), 16);
        assert_eq!(ebi.downlink.total_bits(), 128);
        assert_eq!(ebi.uplink_bits(), 0);
        assert_eq!(sink.transaction_count(), 1);
    }

    #[test]
    fn read_pays_uplink_time() {
        let (mut sim, ebi, _) = setup((8, 1), (4, 1));
        ebi.load_config(1);
        let e = Rc::clone(&ebi);
        sim.spawn(async move {
            e.read(InitiatorId(0), 0, 128).await.unwrap();
        });
        // 128 bits at 4 bits/cycle = 32 cycles.
        assert_eq!(sim.run().cycles(), 32);
        assert_eq!(ebi.uplink_bits(), 128);
    }

    #[test]
    fn posted_write_failure_surfaces_on_the_next_transaction() {
        // Store-and-forward volume writes report Ok optimistically; a
        // downstream failure is surfaced as TargetError on the *next*
        // access (and the EBI stays poisoned — fail loudly).
        use tve_tlm::{BusConfig, BusTam};
        let mut sim = Simulation::new();
        let h = sim.handle();
        // A bus with no targets: every delivery fails address decode.
        let bus = Rc::new(BusTam::new(&h, BusConfig::default()));
        let ebi = Rc::new(Ebi::new(&h, "ebi", bus as Rc<dyn TamIf>, (8, 1), (8, 1)));
        ebi.load_config(1);
        let e = Rc::clone(&ebi);
        let jh = sim.spawn(async move {
            let first = e
                .transfer_volume(InitiatorId(0), Command::Write, 0x100, 64)
                .await;
            e.flush().await;
            let second = e
                .transfer_volume(InitiatorId(0), Command::Write, 0x100, 64)
                .await;
            (first.is_ok(), second.is_err())
        });
        sim.run();
        assert_eq!(jh.try_take(), Some((true, true)));
        assert_eq!(ebi.posted_errors.get(), 1);
    }

    #[test]
    fn write_read_full_data_returns_previous_response() {
        // The EBI's one-deep response pipeline: shifted-out data arrives
        // one combined access late.
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sink = Rc::new(SinkTarget::new("bus"));
        let ebi = Rc::new(Ebi::new(&h, "ebi", sink as Rc<dyn TamIf>, (8, 1), (8, 1)));
        ebi.load_config(1);
        let e = Rc::clone(&ebi);
        let jh = sim.spawn(async move {
            let first = e
                .write_read(InitiatorId(0), 0, vec![0xAA], 32)
                .await
                .unwrap();
            e.flush().await;
            let second = e
                .write_read(InitiatorId(0), 0, vec![0xBB], 32)
                .await
                .unwrap();
            (first, second)
        });
        sim.run();
        let (first, second) = jh.try_take().unwrap();
        // First access: buffer empty -> zeros; second: the sink's zeroed
        // write_read response from the first access.
        assert_eq!(first, vec![0]);
        assert_eq!(second, vec![0]);
        assert_eq!(ebi.downlink.total_bits(), 64);
        assert_eq!(ebi.uplink_bits(), 64);
    }

    #[test]
    fn config_toggles_enable() {
        let (_sim, ebi, _) = setup((1, 1), (1, 1));
        assert!(!ebi.is_enabled());
        ebi.load_config(0b1);
        assert!(ebi.is_enabled());
        assert_eq!(ebi.read_config(), 1);
        ebi.load_config(0b0);
        assert!(!ebi.is_enabled());
        assert_eq!(ConfigClient::config_len(&*ebi), 4);
    }
}
