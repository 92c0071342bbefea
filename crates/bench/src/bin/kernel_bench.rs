//! Kernel performance snapshot for the `BENCH_kernel.json` trajectory.
//!
//! Measures three things and writes them as a flat JSON snapshot:
//!
//! 1. **events/sec** — raw timed-wakeup throughput of the arena kernel
//!    against an embedded replica of the pre-arena kernel (Rc/RefCell
//!    task table in a `HashMap`, one `Arc` waker per task, `Mutex<Vec>`
//!    ready list, `BinaryHeap` popped once per timer entry). The replica
//!    is frozen here so the comparison stays live as the real kernel
//!    evolves.
//! 2. **Table I wall-clock** — the four paper schedules at `--scale 10`
//!    with the full 1 MiB memory array, in cycle-accurate mode and in
//!    loosely-timed mode (`TVE_QUANTUM=100000`).
//! 3. **farm throughput** — scenario jobs/sec at 1, 2 and 4 workers on
//!    the reduced digest-test workload.
//!
//! Usage: `kernel_bench [--out PATH] [--check [BASELINE]] [--quick]`
//!
//! `--out` (default `target/BENCH_kernel.json`) is where the fresh
//! snapshot is written; pass `--out BENCH_kernel.json` explicitly to
//! re-record the committed baseline. `--check` additionally loads the committed baseline and
//! gates: every measured scalar must be within ±25% of the baseline,
//! and the two acceptance ratios must hold outright (arena ≥ 2x legacy
//! events/sec, loosely-timed ≥ 5x accurate on Table I). `--quick`
//! shrinks every workload for smoke runs and skips the gates.

use std::time::Instant;

use tve_bench::{drift_failures, write_artifact};
use tve_sched::{Farm, ScenarioJob};
use tve_sim::{Duration, Simulation};
use tve_soc::{paper_schedules, run_scenario, SocConfig, SocTestPlan, Workload};

/// A faithful replica of the pre-arena kernel, kept as the fixed
/// comparison baseline. Only the surface the throughput workload needs
/// survives: spawn, timed wait, run.
mod legacy {
    use std::cell::{Cell, RefCell};
    use std::collections::{BinaryHeap, HashMap};
    use std::future::Future;
    use std::pin::Pin;
    use std::rc::Rc;
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Wake, Waker};

    type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

    struct TimerEntry {
        time: u64,
        seq: u64,
        waker: Waker,
    }

    impl PartialEq for TimerEntry {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl Eq for TimerEntry {}
    impl PartialOrd for TimerEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for TimerEntry {
        // Reversed so the max-heap pops the earliest `(time, seq)` first.
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    struct TaskWaker {
        id: u64,
        ready: Arc<Mutex<Vec<u64>>>,
    }

    impl Wake for TaskWaker {
        fn wake(self: Arc<Self>) {
            self.ready
                .lock()
                .expect("waker list poisoned")
                .push(self.id);
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.ready
                .lock()
                .expect("waker list poisoned")
                .push(self.id);
        }
    }

    struct TaskSlot {
        future: LocalFuture,
        waker: Waker,
    }

    pub struct Kernel {
        now: Cell<u64>,
        seq: Cell<u64>,
        spawn_seq: Cell<u64>,
        timers: RefCell<BinaryHeap<TimerEntry>>,
        ready: Arc<Mutex<Vec<u64>>>,
        tasks: RefCell<HashMap<u64, TaskSlot>>,
        pending_spawn: RefCell<Vec<(u64, LocalFuture)>>,
    }

    impl Kernel {
        fn schedule(&self, time: u64, waker: Waker) {
            let seq = self.seq.get();
            self.seq.set(seq + 1);
            self.timers.borrow_mut().push(TimerEntry {
                time: time.max(self.now.get()),
                seq,
                waker,
            });
        }

        fn install_spawned(&self) {
            let spawned: Vec<_> = self.pending_spawn.borrow_mut().drain(..).collect();
            for (id, future) in spawned {
                let waker = Waker::from(Arc::new(TaskWaker {
                    id,
                    ready: Arc::clone(&self.ready),
                }));
                self.tasks
                    .borrow_mut()
                    .insert(id, TaskSlot { future, waker });
                self.ready.lock().expect("waker list poisoned").push(id);
            }
        }

        fn poll_task(&self, id: u64) {
            let Some(mut slot) = self.tasks.borrow_mut().remove(&id) else {
                return; // already completed; stale wakeup
            };
            let waker = slot.waker.clone();
            let mut cx = Context::from_waker(&waker);
            if slot.future.as_mut().poll(&mut cx).is_pending() {
                self.tasks.borrow_mut().insert(id, slot);
            }
        }

        fn drain_ready(&self) {
            loop {
                self.install_spawned();
                let batch: Vec<u64> =
                    std::mem::take(&mut *self.ready.lock().expect("waker list poisoned"));
                if batch.is_empty() {
                    break;
                }
                for id in batch {
                    self.poll_task(id);
                    self.install_spawned();
                }
            }
        }

        /// One heap pop + wake per timer entry, exactly like the old kernel.
        fn advance(&self) -> bool {
            let next = match self.timers.borrow().peek() {
                Some(e) => e.time,
                None => return false,
            };
            self.now.set(next);
            loop {
                let fire = {
                    let mut timers = self.timers.borrow_mut();
                    match timers.peek() {
                        Some(e) if e.time == next => timers.pop(),
                        _ => None,
                    }
                };
                let Some(entry) = fire else { break };
                entry.waker.wake();
            }
            true
        }
    }

    pub struct LegacySim {
        kernel: Rc<Kernel>,
    }

    impl LegacySim {
        pub fn new() -> Self {
            LegacySim {
                kernel: Rc::new(Kernel {
                    now: Cell::new(0),
                    seq: Cell::new(0),
                    spawn_seq: Cell::new(0),
                    timers: RefCell::new(BinaryHeap::new()),
                    ready: Arc::new(Mutex::new(Vec::new())),
                    tasks: RefCell::new(HashMap::new()),
                    pending_spawn: RefCell::new(Vec::new()),
                }),
            }
        }

        pub fn handle(&self) -> LegacyHandle {
            LegacyHandle {
                kernel: Rc::clone(&self.kernel),
            }
        }

        pub fn spawn(&mut self, future: impl Future<Output = ()> + 'static) {
            let id = self.kernel.spawn_seq.get();
            self.kernel.spawn_seq.set(id + 1);
            self.kernel
                .pending_spawn
                .borrow_mut()
                .push((id, Box::pin(future)));
        }

        pub fn run(&mut self) -> u64 {
            loop {
                self.kernel.drain_ready();
                if !self.kernel.advance() {
                    break;
                }
            }
            self.kernel.now.get()
        }
    }

    #[derive(Clone)]
    pub struct LegacyHandle {
        kernel: Rc<Kernel>,
    }

    impl LegacyHandle {
        pub fn wait(&self, cycles: u64) -> LegacyWait {
            LegacyWait {
                kernel: Rc::clone(&self.kernel),
                at: self.kernel.now.get().saturating_add(cycles),
                armed: false,
            }
        }
    }

    pub struct LegacyWait {
        kernel: Rc<Kernel>,
        at: u64,
        armed: bool,
    }

    impl Future for LegacyWait {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.kernel.now.get() >= self.at && self.armed {
                return Poll::Ready(());
            }
            self.armed = true;
            self.kernel.schedule(self.at, cx.waker().clone());
            Poll::Pending
        }
    }
}

/// The timed-wakeup throughput workload, identical for both kernels:
/// `tasks` concurrent processes each performing `waits` staggered timed
/// waits. Returns total timer events.
fn events_workload(tasks: usize, waits: u64) -> u64 {
    tasks as u64 * waits
}

fn run_arena(tasks: usize, waits: u64) {
    let mut sim = Simulation::new();
    let h = sim.handle();
    for i in 0..tasks {
        let h = h.clone();
        sim.spawn(async move {
            for k in 0..waits {
                h.wait(Duration::cycles(1 + (i as u64 + k) % 7)).await;
            }
        });
    }
    sim.run();
}

fn run_legacy(tasks: usize, waits: u64) {
    let mut sim = legacy::LegacySim::new();
    let h = sim.handle();
    for i in 0..tasks {
        let h = h.clone();
        sim.spawn(async move {
            for k in 0..waits {
                h.wait(1 + (i as u64 + k) % 7).await;
            }
        });
    }
    sim.run();
}

/// Minimum wall-clock over `reps` runs of `f` — the estimator least
/// sensitive to scheduler noise, since noise is strictly additive.
fn min_wall<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn table1_wall(config: &SocConfig, plan: &SocTestPlan) -> f64 {
    let t = Instant::now();
    for schedule in paper_schedules() {
        let m = run_scenario(config, plan, &schedule).expect("paper schedule rejected");
        assert!(m.result.clean(), "scenario reported errors");
    }
    t.elapsed().as_secs_f64()
}

struct Snapshot {
    tasks: usize,
    waits: u64,
    arena_eps: f64,
    legacy_eps: f64,
    scale: u64,
    quantum: u64,
    accurate_wall: f64,
    loose_wall: f64,
    farm_jobs: usize,
    farm_eps: [f64; 3], // jobs/sec at 1, 2, 4 workers
}

impl Snapshot {
    fn arena_speedup(&self) -> f64 {
        self.arena_eps / self.legacy_eps
    }
    fn loose_speedup(&self) -> f64 {
        self.accurate_wall / self.loose_wall
    }

    fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"tve-kernel-bench/1\",\n  \"events\": {{\n    \
             \"workload\": \"{} tasks x {} timed waits\",\n    \
             \"arena_events_per_sec\": {:.0},\n    \
             \"legacy_events_per_sec\": {:.0},\n    \
             \"arena_speedup\": {:.3}\n  }},\n  \"table1\": {{\n    \
             \"scale\": {},\n    \"quantum\": {},\n    \
             \"accurate_wall_s\": {:.4},\n    \"loose_wall_s\": {:.4},\n    \
             \"loose_speedup\": {:.3}\n  }},\n  \"farm\": {{\n    \
             \"jobs\": {},\n    \"jobs_per_sec_w1\": {:.3},\n    \
             \"jobs_per_sec_w2\": {:.3},\n    \"jobs_per_sec_w4\": {:.3}\n  }}\n}}\n",
            self.tasks,
            self.waits,
            self.arena_eps,
            self.legacy_eps,
            self.arena_speedup(),
            self.scale,
            self.quantum,
            self.accurate_wall,
            self.loose_wall,
            self.loose_speedup(),
            self.farm_jobs,
            self.farm_eps[0],
            self.farm_eps[1],
            self.farm_eps[2],
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "target/BENCH_kernel.json".into());
    let check = args.iter().position(|a| a == "--check").map(|i| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_kernel.json".into())
    });

    // --- 1. events/sec: arena kernel vs embedded legacy replica -------
    let (tasks, waits, reps) = if quick {
        (10, 1_000, 1)
    } else {
        (100, 10_000, 3)
    };
    let events = events_workload(tasks, waits);
    eprintln!("events/sec: {tasks} tasks x {waits} timed waits, {reps} rep(s) each kernel");
    let arena_eps = events as f64 / min_wall(reps, || run_arena(tasks, waits));
    let legacy_eps = events as f64 / min_wall(reps, || run_legacy(tasks, waits));

    // --- 2. Table I wall-clock: accurate vs loosely-timed -------------
    let scale = if quick { 100 } else { 10 };
    let quantum = 100_000u64;
    let mut workload = Workload::paper().with_scale(scale);
    if quick {
        workload = workload.with_mem_words(2622);
    }
    let (config, plan) = workload.build();
    let t1_reps = if quick { 1 } else { 3 };
    eprintln!("table1: 4 schedules, scale 1/{scale}, {t1_reps} rep(s) per mode");
    std::env::remove_var("TVE_QUANTUM");
    let accurate_wall = min_wall(t1_reps, || {
        table1_wall(&config, &plan);
    });
    std::env::set_var("TVE_QUANTUM", quantum.to_string());
    let loose_wall = min_wall(t1_reps, || {
        table1_wall(&config, &plan);
    });
    std::env::remove_var("TVE_QUANTUM");

    // --- 3. farm throughput at 1/2/4 workers ---------------------------
    let (farm_config, farm_plan) = Workload::bench().build();
    let jobs: Vec<ScenarioJob> = paper_schedules()
        .iter()
        .cycle()
        .take(8)
        .map(|s| ScenarioJob::new(farm_config.clone(), farm_plan.clone(), s.clone()))
        .collect();
    let farm_reps = if quick { 1 } else { 3 };
    eprintln!(
        "farm: {} jobs at 1/2/4 workers, {farm_reps} rep(s)",
        jobs.len()
    );
    let mut farm_eps = [0.0f64; 3];
    for (i, workers) in [1usize, 2, 4].into_iter().enumerate() {
        let farm = Farm::with_workers(workers);
        let wall = min_wall(farm_reps, || {
            let report = farm.run(&jobs);
            assert!(report.all_ok(), "farm job failed");
        });
        farm_eps[i] = jobs.len() as f64 / wall;
    }

    let snap = Snapshot {
        tasks,
        waits,
        arena_eps,
        legacy_eps,
        scale,
        quantum,
        accurate_wall,
        loose_wall,
        farm_jobs: jobs.len(),
        farm_eps,
    };

    println!(
        "kernel throughput:  arena {:>12.0} events/s",
        snap.arena_eps
    );
    println!(
        "                    legacy {:>11.0} events/s",
        snap.legacy_eps
    );
    println!("                    speedup {:.2}x", snap.arena_speedup());
    println!(
        "table1 (scale 1/{}): accurate {:.3}s, loose {:.3}s (quantum {}), speedup {:.2}x",
        snap.scale,
        snap.accurate_wall,
        snap.loose_wall,
        snap.quantum,
        snap.loose_speedup()
    );
    println!(
        "farm ({} jobs):      {:.2} / {:.2} / {:.2} jobs/s at 1/2/4 workers",
        snap.farm_jobs, snap.farm_eps[0], snap.farm_eps[1], snap.farm_eps[2]
    );

    // Read the baseline before writing the fresh snapshot: with the
    // default `--out`, baseline and artifact are the same path, and
    // writing first would make the gate compare the snapshot to itself.
    let baseline =
        check
            .as_ref()
            .filter(|_| !quick)
            .map(|path| match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read baseline {path}: {e}");
                    std::process::exit(2);
                }
            });

    let json = snap.to_json();
    write_artifact(std::path::Path::new(&out), &json);
    println!("wrote {out}");

    let Some(baseline_path) = check else { return };
    if quick {
        println!("--quick: skipping baseline gates");
        return;
    }
    let baseline = baseline.expect("baseline read above when checking");
    let mut failures = Vec::new();

    // Hard acceptance ratios, independent of the committed baseline.
    if snap.arena_speedup() < 2.0 {
        failures.push(format!(
            "arena kernel only {:.2}x legacy events/sec (need >= 2x)",
            snap.arena_speedup()
        ));
    }
    if snap.loose_speedup() < 5.0 {
        failures.push(format!(
            "loosely-timed mode only {:.2}x accurate on table1 (need >= 5x)",
            snap.loose_speedup()
        ));
    }

    // ±25% tolerance against the committed snapshot. Wall-clocks and
    // rates both regress loudly; improvements beyond the band also trip
    // the gate so the baseline gets re-recorded rather than going stale.
    let tracked = [
        ("arena_events_per_sec", snap.arena_eps),
        ("legacy_events_per_sec", snap.legacy_eps),
        ("accurate_wall_s", snap.accurate_wall),
        ("loose_wall_s", snap.loose_wall),
        ("jobs_per_sec_w1", snap.farm_eps[0]),
        ("jobs_per_sec_w2", snap.farm_eps[1]),
        ("jobs_per_sec_w4", snap.farm_eps[2]),
    ];
    failures.extend(drift_failures(&baseline, &baseline_path, &tracked));

    if failures.is_empty() {
        println!("perf gate: OK (all metrics within ±25% of {baseline_path}, ratios hold)");
    } else {
        eprintln!("perf gate FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
