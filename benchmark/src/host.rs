//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by tens of percent over minutes, as other tenants come and go. The
//! Table I and serve workloads time a fixed reference kernel after each
//! unit of work, on the thread that did it, and their timings are scaled
//! to a nominal host speed: a time `t` measured while the reference took
//! `r` (the run's median) is reported as `t × NOMINAL_REF_S / r`, and a
//! rate the other way round.
//!
//! The kernel is the benchmark's own code and uses no repository crate,
//! so a change to the program moves the scaled times as much as the raw
//! ones. It has the shape of the paper-scale simulator: an event queue in
//! a binary heap, a hash map, and scattered reads and writes over a 1 MiB
//! buffer. Host contention slows such code the way it slows that
//! simulator; a compute loop without memory traffic tracks it less well,
//! and so does the small SoC of the campaign, which stays unscaled.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::SplitMix;

/// The median time of one reference kernel call on the host the baseline
/// in `README.md` was measured on (2 vCPUs of an Intel Xeon), in a quiet
/// phase. Scaled times read as times on that host at that speed.
pub const NOMINAL_REF_S: f64 = 0.012;

/// Events one reference kernel call processes.
const EVENTS: u64 = 200_000;
/// Words of the reference kernel's buffer (1 MiB).
const WORDS: usize = 1 << 17;
/// Share of a work unit's time spent on the reference after it.
const SHARE: f64 = 0.02;

/// The reference kernel's samples over one run.
#[derive(Default)]
pub struct HostRef {
    kernel: Kernel,
    /// Time of every kernel call so far, in seconds.
    pub samples_s: Vec<f64>,
}

impl HostRef {
    /// Times the kernel on this thread after a work unit of `unit_s`
    /// seconds that ran on it: for about 2% of the unit, and at least
    /// once.
    pub fn after(&mut self, unit_s: f64) {
        let last = self.samples_s.last().copied().unwrap_or(NOMINAL_REF_S);
        for _ in 0..((SHARE * unit_s / last).round() as usize).max(1) {
            self.samples_s.push(self.kernel.timed());
        }
    }

    /// Seconds spent sampling so far.
    pub fn spent_s(&self) -> f64 {
        self.samples_s.iter().sum()
    }
}

/// The reference kernel's memory, allocated once, so a call times no
/// allocation and the run's peak memory grows by a constant.
struct Kernel {
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    tally: HashMap<u64, u64>,
    buf: Vec<u64>,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            queue: BinaryHeap::with_capacity(256),
            tally: HashMap::with_capacity(4096),
            buf: vec![0; WORDS],
        }
    }
}

impl Kernel {
    /// Runs the kernel once and returns its time in seconds.
    fn timed(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.run(EVENTS));
        t.elapsed().as_secs_f64()
    }

    /// `events` steps of a discrete-event loop: 256 tasks re-arm random
    /// timers, tally into a hash map, and touch a random word of the 1 MiB
    /// buffer per step.
    fn run(&mut self, events: u64) -> u64 {
        let mut rng = SplitMix(0x5EED_CA1B);
        self.queue.clear();
        self.queue
            .extend((0..256).map(|task| Reverse((rng.below(1000), task))));
        self.tally.clear();
        let mut acc = 0u64;
        for step in 0..events {
            let Some(Reverse((now, task))) = self.queue.pop() else {
                break;
            };
            let r = rng.next_u64();
            self.queue.push(Reverse((now + 1 + r % 64, task)));
            *self.tally.entry(r % 4096).or_default() += now;
            let i = (r >> 20) as usize % WORDS;
            self.buf[i] = self.buf[i].wrapping_add(step);
            acc = acc.wrapping_add(self.buf[(i * 7 + 3) % WORDS]);
        }
        acc ^ self.tally.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_take_a_share_of_the_unit() {
        let mut host = HostRef::default();
        host.after(0.0);
        assert_eq!(host.samples_s.len(), 1, "at least one sample");
        let one = host.samples_s[0];
        host.after(one * 200.0);
        assert!(host.samples_s.len() >= 3, "{:?}", host.samples_s);
        assert!(host.spent_s() >= one);
        assert_ne!(Kernel::default().run(5_000), Kernel::default().run(50_000));
    }
}
