//! The on-chip test controller (paper Section III.E): drives the memory
//! array BIST (march + pattern tests) over the TAM.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use tve_memtest::{MarchOp, MarchOrder, MarchTest, PatternTest};
use tve_obs::{Recorder, SpanKind, SpanRecord};
use tve_sim::{Duration, SimHandle};
use tve_tlm::{Command, DmiAccess, DmiWord, InitiatorId, TamIf, TamIfExt};

use crate::model::DataPolicy;
use crate::outcome::TestOutcome;

/// Plan for a memory test sequence: the march algorithm, optional pattern
/// tests, the memory's TAM window, and per-operation cost.
#[derive(Debug, Clone)]
pub struct MemoryTestPlan {
    /// Sequence name.
    pub name: String,
    /// The march algorithm.
    pub march: MarchTest,
    /// Background pattern tests appended after the march.
    pub patterns: Vec<PatternTest>,
    /// TAM base address of the memory window (word addressed: word `i`
    /// lives at `base_addr + i`).
    pub base_addr: u32,
    /// Number of words under test.
    pub words: u32,
    /// Engine overhead per operation, on top of the TAM access itself —
    /// the knob that distinguishes the dedicated BIST controller (test 6)
    /// from the processor-driven variant (test 7).
    pub op_overhead: Duration,
    /// In-flight operation queue depth. `1` models a blocking engine (each
    /// access completes before the next issues — the processor-driven
    /// variant); larger depths model a pipelined BIST FSM with posted
    /// accesses, which keeps requesting under bus contention and can
    /// therefore saturate a shared TAM.
    pub posted_depth: usize,
    /// Volume or full-data simulation.
    pub policy: DataPolicy,
}

/// The test controller TLM: a TAM initiator executing [`MemoryTestPlan`]s.
///
/// The same component models the paper's test 7 (processor-driven march
/// from a program in L1 cache) with a larger `op_overhead` — the
/// architectural difference the paper's schedule comparison turns on.
#[derive(Clone)]
pub struct TestController {
    handle: SimHandle,
    name: String,
    tam: Rc<dyn TamIf>,
    initiator: InitiatorId,
    recorder: RefCell<Option<Rc<Recorder>>>,
}

impl fmt::Debug for TestController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TestController")
            .field("name", &self.name)
            .field("initiator", &self.initiator)
            .finish()
    }
}

impl TestController {
    /// Creates a controller injecting into `tam` as `initiator`.
    pub fn new(
        handle: &SimHandle,
        name: impl Into<String>,
        tam: Rc<dyn TamIf>,
        initiator: InitiatorId,
    ) -> Self {
        TestController {
            handle: handle.clone(),
            name: name.into(),
            tam,
            initiator,
            recorder: RefCell::new(None),
        }
    }

    /// Attaches an observability recorder: each executed plan becomes a
    /// [`tve_obs::SpanKind::Test`] span on the `ctrl/<name>` track.
    pub fn attach_recorder(&self, recorder: Rc<Recorder>) {
        *self.recorder.borrow_mut() = Some(recorder);
    }

    async fn bus_write(&self, plan: &MemoryTestPlan, out: &mut TestOutcome, addr: u32, value: u32) {
        let result = if plan.policy == DataPolicy::Volume {
            self.tam
                .transfer_volume(self.initiator, Command::Write, plan.base_addr + addr, 32)
                .await
        } else {
            self.tam
                .write(self.initiator, plan.base_addr + addr, &[value], 32)
                .await
        };
        out.patterns += 1;
        out.stimulus_bits += 32;
        if result.is_err() {
            out.errors += 1;
        }
    }

    async fn bus_read(&self, plan: &MemoryTestPlan, out: &mut TestOutcome, addr: u32, expect: u32) {
        out.patterns += 1;
        out.response_bits += 32;
        if plan.policy == DataPolicy::Volume {
            if self
                .tam
                .transfer_volume(self.initiator, Command::Read, plan.base_addr + addr, 32)
                .await
                .is_err()
            {
                out.errors += 1;
            }
        } else {
            match self
                .tam
                .read(self.initiator, plan.base_addr + addr, 32)
                .await
            {
                Ok(words) => {
                    if words.first().copied().unwrap_or(!expect) != expect {
                        note_mismatch(out, addr);
                    }
                }
                Err(_) => out.errors += 1,
            }
        }
    }

    /// The transactional TAM access of one operation.
    async fn bus_op(&self, plan: &MemoryTestPlan, out: &mut TestOutcome, op: MemOp) {
        match op.write {
            Some(v) => self.bus_write(plan, out, op.addr, v).await,
            None => {
                self.bus_read(plan, out, op.addr, op.expect.unwrap_or(0))
                    .await
            }
        }
    }

    /// A DMI grant over the plan's word window. A march hammers that
    /// window with single-word accesses; over the grant each operation
    /// skips the transaction build and per-op interface walk. Every
    /// granting layer replicates its observable side effects (simulated
    /// time, bus utilization, power, counters) per op or declines the
    /// op, so results are identical either way
    /// (`tests/kernel_digests.rs`). In accurate mode the bus admits a
    /// word exactly when the transactional access would complete
    /// without suspending.
    fn dmi_window(&self, plan: &MemoryTestPlan) -> Option<Rc<dyn DmiAccess>> {
        Rc::clone(&self.tam).dmi_window(plan.base_addr, plan.words, self.initiator)
    }

    /// Executes the full plan (march, then pattern tests) and returns its
    /// outcome; `patterns` in the outcome counts memory operations.
    pub async fn run_memory_test(&self, plan: &MemoryTestPlan) -> TestOutcome {
        let out = if plan.posted_depth > 1 {
            self.run_posted(plan).await
        } else {
            self.run_blocking(plan).await
        };
        if let Some(rec) = &*self.recorder.borrow() {
            rec.record_with(|| {
                SpanRecord::new(
                    SpanKind::Test,
                    format!("ctrl/{}", self.name),
                    out.name.clone(),
                    out.start,
                    out.end,
                )
                .with_initiator(self.initiator.0)
                .with_bits(out.stimulus_bits + out.response_bits)
            });
        }
        out
    }

    /// Blocking engine: each op pays `op_overhead`, then its access.
    /// Over a DMI grant in accurate mode, the ops that nothing could
    /// interleave with go in runs ([`TestController::take_runs`]); the
    /// rest go one at a time, exactly as without runs.
    async fn run_blocking(&self, plan: &MemoryTestPlan) -> TestOutcome {
        let mut out = TestOutcome::begin(&plan.name, self.handle.now());
        let dmi = self.dmi_window(plan);
        // Runs need the kernel's inline horizon, which loosely-timed mode
        // never offers.
        let runs = dmi.as_deref().filter(|_| !self.handle.lt_active());
        let mut ops = plan.ops();
        let mut run = MarchRun::default();
        loop {
            if let Some(window) = runs {
                self.take_runs(window, plan, &mut out, &mut ops, &mut run);
            }
            let Some(op) = run.pop(plan, &mut ops) else {
                break;
            };
            // Engine overhead, identical on both paths. `try_advance`
            // takes it without even building a `Wait` whenever the wait
            // would not suspend; at memory-test op rates that bypass is
            // measurable.
            if !self.handle.try_advance(plan.op_overhead) {
                self.handle.wait(plan.op_overhead).await;
            }
            match &dmi {
                Some(window) => self.dmi_access(window.as_ref(), plan, &mut out, op).await,
                None => self.bus_op(plan, &mut out, op).await,
            }
        }
        out.end = self.handle.now();
        out
    }

    /// Hands the upcoming ops to `window` in runs
    /// ([`DmiAccess::dmi_run`]) for as long as the kernel offers an
    /// inline horizon and the grant takes them: the exact-lookahead rule
    /// applied to a sequence. Each run books its ops' outcomes in order,
    /// as [`TestController::dmi_access`] books one. Returns when a run
    /// falls short, leaving the op it stopped at to the per-op path; a
    /// run holds at most [`MARCH_RUN_OPS`] ops, so a tripped cancel
    /// token (which withdraws the horizon) stops the march within one.
    fn take_runs(
        &self,
        window: &dyn DmiAccess,
        plan: &MemoryTestPlan,
        out: &mut TestOutcome,
        ops: &mut Ops<'_>,
        run: &mut MarchRun,
    ) {
        while let Some(horizon) = self.handle.inline_horizon() {
            if run.is_empty() && !run.fill(plan, ops) {
                return;
            }
            let pending = run.pending(plan);
            let offered = pending.len();
            let done = window.dmi_run(pending, plan.op_overhead, horizon);
            run.book(done, plan, out);
            if done < offered {
                return;
            }
        }
    }

    /// The TAM access of one operation over a DMI grant, falling back to
    /// the transactional path when the grant declines (revocation,
    /// contention, an access that could not complete without
    /// suspending). The outcome bookkeeping
    /// mirrors [`TestController::bus_write`] / [`TestController::bus_read`]
    /// exactly; a granted access cannot fail, so the error counter has
    /// no DMI arm.
    async fn dmi_access(
        &self,
        window: &dyn DmiAccess,
        plan: &MemoryTestPlan,
        out: &mut TestOutcome,
        op: MemOp,
    ) {
        let MemOp {
            addr,
            write,
            expect,
        } = op;
        if let Some(v) = write {
            // Volume mode carries no data: the transactional path writes
            // zeroes through `is_volume_only`, so mirror that here.
            let value = if plan.policy == DataPolicy::Volume {
                0
            } else {
                v
            };
            if window.dmi_write(plan.base_addr + addr, value) {
                out.patterns += 1;
                out.stimulus_bits += 32;
            } else {
                self.bus_write(plan, out, addr, v).await;
            }
        } else {
            let expect = expect.unwrap_or(0);
            match window.dmi_read(plan.base_addr + addr) {
                Some(word) => {
                    out.patterns += 1;
                    out.response_bits += 32;
                    if plan.policy != DataPolicy::Volume && word != expect {
                        note_mismatch(out, addr);
                    }
                }
                None => self.bus_read(plan, out, addr, expect).await,
            }
        }
    }

    /// Pipelined engine: an address generator issues one operation per
    /// `op_overhead` cycles into a bounded queue; an access unit drains the
    /// queue onto the TAM. Under contention the queue backlogs, so the
    /// engine keeps a request pending at the bus.
    ///
    /// The access unit takes a DMI grant over the plan's window, exactly
    /// as [`TestController::run_blocking`] does: each granted access
    /// replicates the transactional path's side effects or declines to
    /// it, so outcomes are identical either way. In accurate mode the
    /// two tasks alternate through the queue, so a word is admitted only
    /// when the generator is not runnable and its next timer lies beyond
    /// the access.
    async fn run_posted(&self, plan: &MemoryTestPlan) -> TestOutcome {
        let start = self.handle.now();
        let queue: tve_sim::Fifo<Option<MemOp>> =
            tve_sim::Fifo::new(&self.handle, plan.posted_depth);
        let consumer = {
            let queue = queue.clone();
            let plan = plan.clone();
            let this = self.clone();
            self.handle.spawn(async move {
                let mut out = TestOutcome::begin(&plan.name, this.handle.now());
                let dmi = this.dmi_window(&plan);
                loop {
                    // Uncontended fast path: skip the suspension future
                    // when an item is already queued.
                    let next = match queue.try_pop() {
                        Some(v) => v,
                        None => queue.pop().await,
                    };
                    let Some(op) = next else {
                        break;
                    };
                    match &dmi {
                        Some(window) => this.dmi_access(window.as_ref(), &plan, &mut out, op).await,
                        None => this.bus_op(&plan, &mut out, op).await,
                    }
                }
                out
            })
        };
        let mut ops = plan.ops();
        let mut run = MarchRun::default();
        while let Some(op) = run.pop(plan, &mut ops) {
            if !self.handle.try_advance(plan.op_overhead) {
                self.handle.wait(plan.op_overhead).await;
            }
            if let Err(v) = queue.try_push(Some(op)) {
                queue.push(v).await;
            }
        }
        queue.push(None).await;
        let mut out = consumer.await;
        out.start = start;
        out.end = self.handle.now();
        out
    }
}

/// Books a read of word `addr` that did not return what it expected:
/// the first 32 distinct failing addresses are kept, in order.
fn note_mismatch(out: &mut TestOutcome, addr: u32) {
    out.mismatches += 1;
    if out.failing_addresses.len() < 32 && !out.failing_addresses.contains(&addr) {
        out.failing_addresses.push(addr);
    }
}

/// One memory-test operation.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    addr: u32,
    write: Option<u32>,
    expect: Option<u32>,
}

/// The most ops the blocking engine hands a DMI grant in one run. Each
/// run starts with a fresh [`SimHandle::inline_horizon`], which a
/// tripped cancel token withdraws, so this bounds how far a march runs
/// on after a cancellation.
const MARCH_RUN_OPS: usize = 4096;

/// An engine's buffer of upcoming ops, in the form a DMI run takes them:
/// `words[next..len]` are not performed yet. Sized once per test, to at
/// most [`MARCH_RUN_OPS`] entries whatever the memory size, and refilled
/// in place. Runs and the per-op path both take their ops from it.
#[derive(Default)]
struct MarchRun {
    words: Vec<DmiWord>,
    /// The word each op carried before its run, index for index with
    /// `words`: what a performed read expected. Empty for a Volume plan,
    /// which checks no data, and until a Full-data plan's first run.
    expect: Vec<u32>,
    len: usize,
    next: usize,
}

impl MarchRun {
    fn is_empty(&self) -> bool {
        self.next == self.len
    }

    /// The buffered ops not performed yet, for a run. A Full-data plan
    /// first records the word each of them carries in `expect`, since a
    /// performed read replaces the word it expects; the per-op path,
    /// which reads the expectation from the unperformed word, skips this.
    fn pending(&mut self, plan: &MemoryTestPlan) -> &mut [DmiWord] {
        let pending = self.next..self.len;
        if plan.policy != DataPolicy::Volume {
            if self.expect.is_empty() {
                self.expect = vec![0; self.words.len()];
            }
            let words = &self.words[pending.clone()];
            for (expect, word) in self.expect[pending.clone()].iter_mut().zip(words) {
                *expect = word.data;
            }
        }
        &mut self.words[pending]
    }

    /// Refills the buffer with the next ops of `ops`; returns whether any
    /// were left.
    fn fill(&mut self, plan: &MemoryTestPlan, ops: &mut Ops<'_>) -> bool {
        if self.words.is_empty() {
            let size =
                usize::try_from(plan.op_count()).map_or(MARCH_RUN_OPS, |n| n.min(MARCH_RUN_OPS));
            self.words = vec![DmiWord::default(); size];
        }
        self.len = ops.fill(&mut self.words);
        self.next = 0;
        self.len > 0
    }

    /// Books the outcomes of the next `done` ops, which a run performed.
    /// A Volume run checks no data, so only its mix of writes and reads
    /// counts.
    fn book(&mut self, done: usize, plan: &MemoryTestPlan, out: &mut TestOutcome) {
        let end = self.next + done;
        let performed = &self.words[self.next..end];
        if plan.policy == DataPolicy::Volume {
            let writes = performed.iter().filter(|word| word.write).count() as u64;
            let ops = done as u64;
            out.patterns += ops;
            out.stimulus_bits += 32 * writes;
            out.response_bits += 32 * (ops - writes);
        } else {
            for (word, &expect) in performed.iter().zip(&self.expect[self.next..end]) {
                out.patterns += 1;
                if word.write {
                    out.stimulus_bits += 32;
                    continue;
                }
                out.response_bits += 32;
                if word.data != expect {
                    note_mismatch(out, word.addr - plan.base_addr);
                }
            }
        }
        self.next = end;
    }

    /// Takes the next op for the per-op path, refilling the buffer from
    /// `ops` when it is empty.
    fn pop(&mut self, plan: &MemoryTestPlan, ops: &mut Ops<'_>) -> Option<MemOp> {
        if self.is_empty() && !self.fill(plan, ops) {
            return None;
        }
        let word = self.words[self.next];
        self.next += 1;
        Some(MemOp {
            addr: word.addr - plan.base_addr,
            write: word.write.then_some(word.data),
            expect: (!word.write).then_some(word.data),
        })
    }
}

impl MemoryTestPlan {
    /// How many operations the plan performs.
    fn op_count(&self) -> u64 {
        let words = u64::from(self.words);
        let patterns: u64 = self.patterns.iter().map(|p| p.ops_per_cell() * words).sum();
        self.march.total_ops(words) + patterns
    }

    /// A cursor over the full operation sequence (march elements, then
    /// pattern tests) in execution order.
    fn ops(&self) -> Ops<'_> {
        Ops {
            plan: self,
            phase: 0,
            word: 0,
            step: 0,
        }
    }
}

/// Index cursor over a plan's operation sequence: no per-element address
/// list, no per-address allocation.
struct Ops<'a> {
    plan: &'a MemoryTestPlan,
    /// March element index, then `elements().len() + k` for pattern test `k`.
    phase: usize,
    /// Position within the phase's address sweep (0..words).
    word: u32,
    /// March phases: index into the element's ops. Pattern phases: 0 for
    /// the write sweep, 1 for the read sweep.
    step: usize,
}

impl Ops<'_> {
    /// Writes the upcoming ops into `words`, in the form a DMI run takes
    /// them, until it is full or the sequence ends, and returns how many
    /// it wrote, a march element or a background sweep at a time. A
    /// Full-data op carries the word it writes, or the word a read
    /// expects until the read replaces it; a Volume op carries a zero, as
    /// [`TestController::dmi_access`] writes it.
    fn fill(&mut self, words: &mut [DmiWord]) -> usize {
        let plan = self.plan;
        let (n, base) = (plan.words, plan.base_addr);
        let full = plan.policy != DataPolicy::Volume;
        let elements = plan.march.elements();
        let mut k = 0;
        loop {
            if let Some(elem) = elements.get(self.phase) {
                let m = elem.ops.len();
                let put = |slots: &mut [DmiWord], word: u32, ops: &[MarchOp]| {
                    let addr = base
                        + match elem.order {
                            MarchOrder::Ascending | MarchOrder::Any => word,
                            MarchOrder::Descending => n - 1 - word,
                        };
                    for (slot, &op) in slots.iter_mut().zip(ops) {
                        let (write, value) = march_word(op);
                        let data = if full { value } else { 0 };
                        *slot = DmiWord { addr, write, data };
                    }
                };
                // The rest of a word that the last fill left part-done.
                if self.step > 0 {
                    let ops = &elem.ops[self.step..m.min(self.step + words.len() - k)];
                    put(&mut words[k..], self.word, ops);
                    k += ops.len();
                    self.step += ops.len();
                    if self.step < m {
                        return k;
                    }
                    self.step = 0;
                    self.word += 1;
                }
                // Whole words, then the first ops of a word that does not
                // fit. An element without ops has no words to sweep.
                if let Some(room) = (words.len() - k).checked_div(m) {
                    let whole = room.min((n - self.word) as usize);
                    let slots = words[k..k + whole * m].chunks_exact_mut(m);
                    for (word, slots) in (self.word..).zip(slots) {
                        put(slots, word, &elem.ops);
                    }
                    k += whole * m;
                    self.word += whole as u32;
                    if self.word < n {
                        self.step = words.len() - k;
                        put(&mut words[k..], self.word, &elem.ops[..self.step]);
                        return words.len();
                    }
                }
            } else {
                let Some(p) = plan.patterns.get(self.phase - elements.len()) else {
                    return k;
                };
                // The rest of the write sweep (step 0) or the read sweep.
                let write = self.step == 0;
                let first = self.word;
                let count = (words.len() - k).min((n - first) as usize);
                for (addr, slot) in (first..).zip(&mut words[k..k + count]) {
                    let data = if full { p.background(addr) } else { 0 };
                    *slot = DmiWord {
                        addr: base + addr,
                        write,
                        data,
                    };
                }
                k += count;
                self.word += count as u32;
                if self.word < n {
                    return k;
                }
                if write {
                    self.step = 1;
                    self.word = 0;
                    continue;
                }
            }
            self.phase += 1;
            self.word = 0;
            self.step = 0;
        }
    }
}

/// Whether march op `op` writes, and the word it writes or expects.
#[inline]
fn march_word(op: MarchOp) -> (bool, u32) {
    match op {
        MarchOp::W0 => (true, 0),
        MarchOp::W1 => (true, u32::MAX),
        MarchOp::R0 => (false, 0),
        MarchOp::R1 => (false, u32::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use tve_memtest::{Fault, MemoryArray};
    use tve_sim::Simulation;
    use tve_tlm::{LocalBoxFuture, ResponseStatus, Transaction};

    /// A minimal word-RAM TAM target backed by a real `MemoryArray`.
    struct RamTarget {
        mem: RefCell<MemoryArray>,
    }

    impl TamIf for RamTarget {
        fn name(&self) -> &str {
            "ram"
        }
        fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
            Box::pin(async move {
                let mut mem = self.mem.borrow_mut();
                match txn.cmd {
                    Command::Write => {
                        let v = txn.data.first().copied().unwrap_or(0);
                        mem.write(txn.addr, v);
                    }
                    Command::Read => {
                        let v = mem.read(txn.addr);
                        txn.data = vec![v];
                    }
                    Command::WriteRead => {
                        let v = txn.data.first().copied().unwrap_or(0);
                        let old = mem.read(txn.addr);
                        mem.write(txn.addr, v);
                        txn.data = vec![old];
                    }
                }
                txn.status = ResponseStatus::Ok;
            })
        }
    }

    fn plan(words: u32, policy: DataPolicy) -> MemoryTestPlan {
        MemoryTestPlan {
            name: "memtest".to_string(),
            march: MarchTest::mats_plus(),
            patterns: vec![PatternTest::Checkerboard, PatternTest::AddressInData],
            base_addr: 0,
            words,
            op_overhead: Duration::cycles(5),
            posted_depth: 1,
            policy,
        }
    }

    fn run(policy: DataPolicy, faults: Vec<Fault>, words: u32) -> TestOutcome {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let mut mem = MemoryArray::new(words as usize);
        for f in faults {
            mem.inject(f);
        }
        let ram = Rc::new(RamTarget {
            mem: RefCell::new(mem),
        });
        let ctrl = TestController::new(&h, "ctrl", ram as Rc<dyn TamIf>, InitiatorId(5));
        let p = plan(words, policy);
        let jh = sim.spawn(async move { ctrl.run_memory_test(&p).await });
        sim.run();
        jh.try_take().unwrap()
    }

    #[test]
    fn op_count_matches_plan() {
        let p = plan(32, DataPolicy::Volume);
        // MATS+ = 5 ops/cell, two pattern tests = 4 ops/cell.
        assert_eq!(p.op_count(), 32 * 9);
        let out = run(DataPolicy::Volume, vec![], 32);
        assert_eq!(out.patterns, 32 * 9);
        assert!(out.clean());
    }

    #[test]
    fn fault_free_memory_passes_full_mode() {
        let out = run(DataPolicy::Full, vec![], 32);
        assert_eq!(out.mismatches, 0);
        assert_eq!(out.errors, 0);
    }

    #[test]
    fn stuck_at_is_detected_in_full_mode() {
        let out = run(DataPolicy::Full, vec![Fault::stuck_at(7, 3, true)], 32);
        assert!(out.mismatches > 0);
    }

    #[test]
    fn address_alias_is_detected_in_full_mode() {
        let out = run(DataPolicy::Full, vec![Fault::address_alias(2, 20)], 32);
        assert!(out.mismatches > 0);
    }

    /// A [`RamTarget`] that also grants DMI, counting direct accesses so
    /// tests can assert the fast path actually engaged.
    struct DmiRam {
        mem: RefCell<MemoryArray>,
        dmi_ops: Cell<u64>,
    }

    impl TamIf for DmiRam {
        fn name(&self) -> &str {
            "dmi-ram"
        }
        fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
            Box::pin(async move {
                let mut mem = self.mem.borrow_mut();
                match txn.cmd {
                    Command::Write => {
                        mem.write(txn.addr, txn.data.first().copied().unwrap_or(0));
                    }
                    Command::Read => txn.data = vec![mem.read(txn.addr)],
                    Command::WriteRead => unreachable!("marches never write-read"),
                }
                txn.status = ResponseStatus::Ok;
            })
        }
        fn dmi_window(
            self: Rc<Self>,
            _base: u32,
            _words: u32,
            _initiator: InitiatorId,
        ) -> Option<Rc<dyn DmiAccess>> {
            Some(self)
        }
    }

    impl DmiAccess for DmiRam {
        fn dmi_read(&self, addr: u32) -> Option<u32> {
            self.dmi_ops.set(self.dmi_ops.get() + 1);
            Some(self.mem.borrow_mut().read(addr))
        }
        fn dmi_write(&self, addr: u32, value: u32) -> bool {
            self.dmi_ops.set(self.dmi_ops.get() + 1);
            self.mem.borrow_mut().write(addr, value);
            true
        }
    }

    #[test]
    fn quantum_march_runs_over_dmi_with_identical_outcome() {
        let faults = vec![Fault::stuck_at(7, 3, true)];
        let accurate = run(DataPolicy::Full, faults.clone(), 32);

        let mut sim = Simulation::with_quantum(Duration::cycles(10_000));
        let h = sim.handle();
        let mut mem = MemoryArray::new(32);
        for f in faults {
            mem.inject(f);
        }
        let ram = Rc::new(DmiRam {
            mem: RefCell::new(mem),
            dmi_ops: Cell::new(0),
        });
        let ctrl =
            TestController::new(&h, "ctrl", Rc::clone(&ram) as Rc<dyn TamIf>, InitiatorId(5));
        let p = plan(32, DataPolicy::Full);
        let total = p.op_count();
        let jh = sim.spawn(async move { ctrl.run_memory_test(&p).await });
        sim.run();
        let out = jh.try_take().unwrap();

        assert_eq!(ram.dmi_ops.get(), total, "every op took the DMI path");
        assert_eq!(out.patterns, accurate.patterns);
        assert_eq!(out.stimulus_bits, accurate.stimulus_bits);
        assert_eq!(out.response_bits, accurate.response_bits);
        assert_eq!(out.mismatches, accurate.mismatches);
        assert_eq!(out.errors, accurate.errors);
        assert_eq!(out.failing_addresses, accurate.failing_addresses);
        assert_eq!(
            out.duration(),
            accurate.duration(),
            "DMI must absorb exactly the transactional path's time"
        );
    }

    /// Runs a loosely-timed posted (depth 8) full-data plan over
    /// `target`, with a stuck-at fault in the array.
    fn run_posted_lt(target: Rc<dyn TamIf>) -> TestOutcome {
        let mut sim = Simulation::with_quantum(Duration::cycles(10_000));
        let h = sim.handle();
        let ctrl = TestController::new(&h, "ctrl", target, InitiatorId(5));
        let p = MemoryTestPlan {
            posted_depth: 8,
            ..plan(32, DataPolicy::Full)
        };
        let jh = sim.spawn(async move { ctrl.run_memory_test(&p).await });
        sim.run();
        jh.try_take().unwrap()
    }

    #[test]
    fn posted_plan_over_dmi_matches_the_transactional_path() {
        let faulty_array = || {
            let mut mem = MemoryArray::new(32);
            mem.inject(Fault::stuck_at(7, 3, true));
            RefCell::new(mem)
        };
        let granting = Rc::new(DmiRam {
            mem: faulty_array(),
            dmi_ops: Cell::new(0),
        });
        let declining = Rc::new(RamTarget {
            mem: faulty_array(),
        });
        let over_dmi = run_posted_lt(Rc::clone(&granting) as Rc<dyn TamIf>);
        let over_bus = run_posted_lt(declining);
        assert_eq!(
            granting.dmi_ops.get(),
            plan(32, DataPolicy::Full).op_count(),
            "the posted access unit took the DMI path"
        );
        assert!(over_dmi.mismatches > 0);
        assert_eq!(over_dmi, over_bus);
    }

    /// A zero-latency RAM grant that runs: each op costs the engine's
    /// overhead, one fired timer apiece. It trips `token` as it performs
    /// op `trip_at`, as another thread may while a run is under way.
    struct TrippingRam {
        handle: SimHandle,
        mem: RefCell<MemoryArray>,
        token: std::sync::Arc<tve_sim::CancelToken>,
        trip_at: u64,
        ops: Cell<u64>,
    }

    impl TamIf for TrippingRam {
        fn name(&self) -> &str {
            "tripping-ram"
        }
        fn transport<'a>(&'a self, _txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
            unreachable!("every op goes through the grant")
        }
        fn dmi_window(
            self: Rc<Self>,
            _base: u32,
            _words: u32,
            _initiator: InitiatorId,
        ) -> Option<Rc<dyn DmiAccess>> {
            Some(self)
        }
    }

    impl TrippingRam {
        fn op(&self, word: &mut DmiWord) {
            let mut mem = self.mem.borrow_mut();
            if word.write {
                mem.write(word.addr, word.data);
            } else {
                word.data = mem.read(word.addr);
            }
            self.ops.set(self.ops.get() + 1);
            if self.ops.get() == self.trip_at {
                self.token.cancel();
            }
        }
    }

    impl DmiAccess for TrippingRam {
        fn dmi_read(&self, addr: u32) -> Option<u32> {
            let mut word = DmiWord {
                addr,
                ..DmiWord::default()
            };
            self.op(&mut word);
            Some(word.data)
        }
        fn dmi_write(&self, addr: u32, value: u32) -> bool {
            self.op(&mut DmiWord {
                addr,
                write: true,
                data: value,
            });
            true
        }
        fn dmi_run(
            &self,
            ops: &mut [DmiWord],
            overhead: Duration,
            horizon: tve_sim::Time,
        ) -> usize {
            let (oh, now) = (overhead.as_cycles(), self.handle.now().cycles());
            let n = ops
                .len()
                .min((horizon.cycles().saturating_sub(now) / oh) as usize);
            ops[..n].iter_mut().for_each(|word| self.op(word));
            let end = tve_sim::Time::from_cycles(now + n as u64 * oh);
            self.handle.advance_inline_to(end, n as u64);
            n
        }
    }

    #[test]
    fn cancelling_during_a_march_run_stops_within_one_run() {
        tve_sim::silence_cancelled_panics();
        const TRIP: u64 = 1000;
        let token = tve_sim::CancelToken::new();
        let mut sim = tve_sim::with_cancel_token(&token, Simulation::new);
        let h = sim.handle();
        let ram = Rc::new(TrippingRam {
            handle: h.clone(),
            mem: RefCell::new(MemoryArray::new(4096)),
            token,
            trip_at: TRIP,
            ops: Cell::new(0),
        });
        let ctrl =
            TestController::new(&h, "ctrl", Rc::clone(&ram) as Rc<dyn TamIf>, InitiatorId(5));
        // 4,096 words of march C- and two pattern tests: 57,344 ops.
        let p = MemoryTestPlan {
            march: MarchTest::march_c_minus(),
            ..plan(4096, DataPolicy::Full)
        };
        sim.spawn(async move { ctrl.run_memory_test(&p).await });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("a token tripped inside a run must unwind out of run");
        assert!(err.is::<tve_sim::Cancelled>());
        let ops = ram.ops.get();
        assert!(
            (TRIP..=TRIP + MARCH_RUN_OPS as u64).contains(&ops),
            "{ops} ops ran, past one run after the trip at {TRIP}"
        );
    }

    /// The operation sequence as nested loops over march elements and
    /// pattern tests: the reference for [`Ops::fill`].
    fn reference_ops(p: &MemoryTestPlan) -> Vec<(u32, Option<u32>, Option<u32>)> {
        let mut ops = Vec::new();
        for elem in p.march.elements() {
            let addrs: Vec<u32> = match elem.order {
                MarchOrder::Ascending | MarchOrder::Any => (0..p.words).collect(),
                MarchOrder::Descending => (0..p.words).rev().collect(),
            };
            for addr in addrs {
                for op in &elem.ops {
                    ops.push(match op {
                        MarchOp::W0 => (addr, Some(0), None),
                        MarchOp::W1 => (addr, Some(u32::MAX), None),
                        MarchOp::R0 => (addr, None, Some(0)),
                        MarchOp::R1 => (addr, None, Some(u32::MAX)),
                    });
                }
            }
        }
        for pt in &p.patterns {
            ops.extend((0..p.words).map(|a| (a, Some(pt.background(a)), None)));
            ops.extend((0..p.words).map(|a| (a, None, Some(pt.background(a)))));
        }
        ops
    }

    /// An op as a DMI run sees it: TAM address, write flag, and for a
    /// Full-data plan the word it writes or expects.
    type RunWord = (u32, bool, u32);

    fn run_word(p: &MemoryTestPlan, addr: u32, write: Option<u32>, expect: Option<u32>) -> RunWord {
        let full = p.policy != DataPolicy::Volume;
        let data = write.or(expect).filter(|_| full).unwrap_or(0);
        (p.base_addr + addr, write.is_some(), data)
    }

    /// The sequence [`Ops::fill`] writes into buffers of `cap` ops.
    fn filled(p: &MemoryTestPlan, cap: usize) -> Vec<RunWord> {
        let mut words = vec![DmiWord::default(); cap];
        let mut ops = p.ops();
        let mut got = Vec::new();
        loop {
            let n = ops.fill(&mut words);
            got.extend(words[..n].iter().map(|w| (w.addr, w.write, w.data)));
            assert!(
                got.len() as u64 <= p.op_count(),
                "fills ran past the sequence"
            );
            if n < cap {
                assert_eq!(
                    ops.fill(&mut words),
                    0,
                    "a fill stopped short of a full buffer"
                );
                return got;
            }
        }
    }

    #[test]
    fn segment_fill_matches_the_per_op_cursor() {
        let marches = [
            MarchTest::mats_plus(),
            MarchTest::march_c_minus(),
            MarchTest::march_x(),
            MarchTest::march_y(),
            MarchTest::march_b(),
        ];
        let pattern_sets = [
            vec![],
            vec![
                PatternTest::Checkerboard,
                PatternTest::AddressInData,
                PatternTest::Solid(0x0F0F_F0F0),
            ],
        ];
        for march in &marches {
            for patterns in &pattern_sets {
                for words in [0, 1, 5, 32, 4097] {
                    for policy in [DataPolicy::Full, DataPolicy::Volume] {
                        let p = MemoryTestPlan {
                            march: march.clone(),
                            patterns: patterns.clone(),
                            base_addr: 0x40_0000,
                            ..plan(words, policy)
                        };
                        let want: Vec<RunWord> = reference_ops(&p)
                            .into_iter()
                            .map(|(addr, write, expect)| run_word(&p, addr, write, expect))
                            .collect();
                        assert_eq!(want.len() as u64, p.op_count());
                        // Caps 1, 3 and 7 cut elements mid-word and every
                        // sweep in the middle; 4,096 is the engine's.
                        for cap in [1, 3, 7, MARCH_RUN_OPS] {
                            assert!(
                                filled(&p, cap) == want,
                                "{} + {} patterns over {words} words, {policy:?}, cap {cap}",
                                march.name(),
                                patterns.len(),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_run_after_a_per_op_refill_books_each_read_against_its_word() {
        // The per-op path refills the buffer and takes its first op; a
        // run then performs the rest, and every read returns the wrong
        // word.
        let p = plan(8, DataPolicy::Full);
        let (mut ops, mut run) = (p.ops(), MarchRun::default());
        assert!(run.pop(&p, &mut ops).is_some());
        let pending = run.pending(&p);
        let mut reads = 0;
        for word in pending.iter_mut().filter(|w| !w.write) {
            word.data = !word.data;
            reads += 1;
        }
        let done = pending.len();
        let mut out = TestOutcome::begin("t", tve_sim::Time::ZERO);
        run.book(done, &p, &mut out);
        assert_eq!((out.patterns, out.mismatches), (done as u64, reads));
        assert!(reads > 0 && run.is_empty());
    }

    #[test]
    fn volume_mode_cannot_see_faults_but_keeps_timing() {
        let faulty = run(DataPolicy::Volume, vec![Fault::stuck_at(7, 3, true)], 32);
        let clean = run(DataPolicy::Volume, vec![], 32);
        assert_eq!(faulty.mismatches, 0, "volume mode carries no data");
        assert_eq!(faulty.duration(), clean.duration());
        // 9 ops/cell x 32 words x 5 cycles overhead (RAM target is instant).
        assert_eq!(clean.duration().as_cycles(), 9 * 32 * 5);
    }
}
