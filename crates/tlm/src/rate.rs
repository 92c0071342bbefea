//! Throughput-limited serial channels (ATE link, boundary-scan chains).

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use tve_sim::{SimHandle, Time};

/// A serial channel delivering at most `num/den` bits per cycle, modeled as
/// a pipelined link: consecutive transfers queue back-to-back.
///
/// This models the ATE channel of the paper's evaluation — the bottleneck
/// that makes schedule 1 (uncompressed external patterns) slow.
///
/// ```
/// use tve_sim::Simulation;
/// use tve_tlm::RateLimiter;
///
/// let mut sim = Simulation::new();
/// let h = sim.handle();
/// let link = RateLimiter::new(&h, 8, 1); // 8 bits per cycle
/// let l = link.clone();
/// sim.spawn(async move {
///     l.consume(64).await; // 8 cycles
///     l.consume(64).await; // 8 more
/// });
/// assert_eq!(sim.run().cycles(), 16);
/// ```
#[derive(Clone)]
pub struct RateLimiter {
    inner: Rc<RateInner>,
}

struct RateInner {
    handle: SimHandle,
    bits_num: u64,
    bits_den: u64,
    next_free: Cell<u64>,
    total_bits: Cell<u64>,
}

impl fmt::Debug for RateLimiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RateLimiter")
            .field(
                "bits_per_cycle",
                &(self.inner.bits_num as f64 / self.inner.bits_den as f64),
            )
            .field("total_bits", &self.inner.total_bits.get())
            .finish()
    }
}

impl RateLimiter {
    /// Creates a limiter delivering `bits_num / bits_den` bits per cycle.
    ///
    /// # Panics
    ///
    /// Panics if either component is zero.
    pub fn new(handle: &SimHandle, bits_num: u64, bits_den: u64) -> Self {
        assert!(bits_num > 0 && bits_den > 0, "rate must be positive");
        RateLimiter {
            inner: Rc::new(RateInner {
                handle: handle.clone(),
                bits_num,
                bits_den,
                next_free: Cell::new(0),
                total_bits: Cell::new(0),
            }),
        }
    }

    /// Total bits transported so far.
    pub fn total_bits(&self) -> u64 {
        self.inner.total_bits.get()
    }

    /// The number of cycles `bits` occupy on this link.
    pub(crate) fn duration_of(&self, bits: u64) -> u64 {
        // ceil(bits * den / num)
        (bits * self.inner.bits_den).div_ceil(self.inner.bits_num)
    }

    /// Books `bits` on the link without waiting, returning the delivery
    /// completion time. Useful to overlap transfers on independent links
    /// (full-duplex ATE channels): reserve on each, then wait for the
    /// latest completion.
    pub fn reserve(&self, bits: u64) -> Time {
        let end = self.peek(bits);
        self.book(bits, end);
        end
    }

    /// The completion time [`RateLimiter::reserve`] would return for
    /// `bits` now, booking nothing.
    pub fn peek(&self, bits: u64) -> Time {
        let inner = &self.inner;
        let now = inner.handle.now().cycles();
        if bits == 0 {
            return Time::from_cycles(now);
        }
        let start = inner.next_free.get().max(now);
        Time::from_cycles(start + self.duration_of(bits))
    }

    /// Books `bits` ending at `end`, the time [`RateLimiter::peek`]
    /// returned for them with nothing booked since: the reservation as
    /// of the peek, even when time has moved on in between.
    pub fn book(&self, bits: u64, end: Time) {
        if bits == 0 {
            return;
        }
        let inner = &self.inner;
        inner.next_free.set(end.cycles());
        inner.total_bits.set(inner.total_bits.get() + bits);
    }

    /// Transports `bits` over the link, suspending until delivery finishes.
    /// Transfers are serialized in issue order.
    pub async fn consume(&self, bits: u64) {
        if bits == 0 {
            return;
        }
        let end = self.reserve(bits);
        self.inner.handle.wait_until(end).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_sim::{Duration, Simulation};

    #[test]
    fn fractional_rate_rounds_up() {
        let sim = Simulation::new();
        let l = RateLimiter::new(&sim.handle(), 1, 3); // 1/3 bit per cycle
        assert_eq!(l.duration_of(1), 3);
        assert_eq!(l.duration_of(2), 6);
        assert_eq!(l.duration_of(4), 12);
    }

    #[test]
    fn concurrent_consumers_serialize() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let link = RateLimiter::new(&h, 1, 1);
        for _ in 0..4 {
            let link = link.clone();
            sim.spawn(async move {
                link.consume(10).await;
            });
        }
        assert_eq!(sim.run().cycles(), 40);
        assert_eq!(link.total_bits(), 40);
    }

    #[test]
    fn idle_gap_does_not_accumulate_credit() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let link = RateLimiter::new(&h, 1, 1);
        let l = link.clone();
        let h2 = h.clone();
        sim.spawn(async move {
            l.consume(5).await;
            h2.wait(Duration::cycles(100)).await; // idle
            l.consume(5).await; // starts at 105, not 10
        });
        assert_eq!(sim.run().cycles(), 110);
    }

    #[test]
    fn zero_bits_is_free() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let link = RateLimiter::new(&h, 4, 1);
        let l = link.clone();
        sim.spawn(async move {
            l.consume(0).await;
        });
        assert_eq!(sim.run().cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let sim = Simulation::new();
        let _ = RateLimiter::new(&sim.handle(), 0, 1);
    }
}
