#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

//! # tve-sim — deterministic discrete-event simulation kernel
//!
//! A single-threaded, deterministic, cycle-granular discrete-event simulation
//! kernel with cooperative `async` processes. It plays the role SystemC's
//! kernel plays in the original paper: processes (≙ `SC_THREAD`s) suspend on
//! timed waits and [`Event`] notifications, and the kernel advances simulated
//! time from one event to the next.
//!
//! Determinism: all wakeups carry a `(time, sequence)` key; two wakeups at the
//! same simulated time fire in the order they were scheduled, and processes
//! made ready in the same *delta cycle* run in ready-queue order. Repeated
//! runs of the same model produce identical traces.
//!
//! Internally, tasks live in a slab arena with generation-checked ids and
//! an intrusive ready queue, timers are bucketed by timestamp in a vector
//! sorted by descending time and fired in same-instant batches (one pop
//! of the last bucket), the external-wake queue costs one relaxed load
//! per check while empty, waits/notifications move packed task ids
//! instead of cloned `Waker`s, and a timed wait that nothing else can
//! precede completes inline without suspending — see the `executor`
//! module docs. An opt-in loosely-timed mode
//! ([`Simulation::with_quantum`]) trades intra-quantum timing fidelity for
//! speed through temporal decoupling; the default mode is cycle-accurate
//! and digest-stable across kernel versions.
//!
//! ```
//! use tve_sim::{Simulation, Duration};
//!
//! let mut sim = Simulation::new();
//! let h = sim.handle();
//! sim.spawn(async move {
//!     h.wait(Duration::cycles(10)).await;
//!     assert_eq!(h.now().cycles(), 10);
//! });
//! sim.run();
//! assert_eq!(sim.now().cycles(), 10);
//! ```

mod arena;
mod cancel;
mod event;
mod executor;
mod sync;
mod time;
mod trace;
mod vcd;
mod waitq;

pub use cancel::{
    panic_message, silence_cancelled_panics, with_cancel_token, CancelToken, Cancelled,
};
pub use event::Event;
pub use executor::{JoinHandle, SimHandle, Simulation};
pub use sync::Fifo;
pub use time::{Duration, Time};
pub use trace::ScalarTrace;
pub use vcd::write_vcd;
