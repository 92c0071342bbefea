//! The `tve-serve` daemon: a Unix-domain socket server owning a warm
//! [`Farm`] and the content-addressed [`ResultCache`].
//!
//! Connections are handled on one thread each; jobs submitted with
//! `"wait": false` run on their own thread and are polled through the
//! job table (`status` / `result`). All simulation fan-out inside a
//! job goes through the shared farm, so `TVE_JOBS` governs the daemon
//! exactly as it governs the batch bins — and results are
//! byte-identical for any worker count, which is what makes caching
//! across clients sound.
//!
//! A campaign job is the `tve-campaign` matrix walk
//! ([`run_campaign_shard_with`]) with the cache as its store
//! (`CacheStore`): the daemon owns keys, verify sampling and counters,
//! never the walk itself. Schedule, lint and bounds jobs go through the
//! same per-job cache view (`JobCache`).
//!
//! ## Fault tolerance
//!
//! Every submission passes [`Admission`] (bounded queue, priority
//! quotas, cost-cap shedding — see `admission.rs`), runs under a
//! per-job [`CancelToken`] with an optional deadline watcher, and fans
//! out through the *supervised* farm
//! ([`Farm::run_map_supervised`](tve_sched::Farm::run_map_supervised)):
//! a panicked worker attempt is retried on a fresh worker within a
//! retry budget, a permanent failure comes back as a typed error, and
//! the job's deadline cancels the whole map — never a hang, never a
//! hole in the batch.
//! SIGTERM (or the `drain` command) starts a graceful drain: running
//! jobs finish, the cache snapshot is persisted atomically, new
//! submissions are refused with a typed `draining` error. The `--chaos`
//! spec (`chaos.rs`) injects worker, frame, and snapshot faults at
//! deterministic occurrence counts so all of the above is provable.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tve_campaign::{
    run_campaign_shard_with, CampaignConfig, CampaignError, CampaignReport, CampaignStore,
    CellOutcome, CellResult, DiagnosisCheck, ShardSpec,
};
use tve_core::Schedule;
use tve_obs::{
    append_json_string, fnv1a, parse_json, IoPolicy, JsonValue, OpsCounters, WriteFault,
};
use tve_sched::{ChaosFault, ChaosHook, Farm, SupervisePolicy};
use tve_sim::{silence_cancelled_panics, with_cancel_token, CancelToken, Cancelled};
use tve_soc::{paper_schedules, run_scenario, ScenarioMetrics};

use crate::admission::{Admission, AdmissionConfig};
use crate::cache::{CachedValue, ResultCache};
use crate::chaos::{ChaosSite, ChaosSpec};
use crate::error::ServeError;
use crate::invalidate::edit_impact;
use crate::key::{bounds_key, cell_key, diagnosis_key, lint_key, schedule_tests, test_mask};
use crate::proto::{read_frame, write_frame, JobKind, JobSpec};

/// The default socket path (also the `TVE_SERVE_SOCKET` default).
pub const DEFAULT_SOCKET: &str = "target/tve-serve.sock";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Where to listen.
    pub socket: PathBuf,
    /// Farm worker override (`None` = `TVE_JOBS` / available cores).
    pub workers: Option<usize>,
    /// Daemon-wide cache-verification fraction: every cache hit is
    /// re-executed with this probability and compared bit for bit.
    /// Per-job `verify` fields override it.
    pub verify: Option<f64>,
    /// Suppress per-request logging.
    pub quiet: bool,
    /// Persist the result cache here: loaded (if present) when the
    /// daemon binds, written back when it shuts down cleanly — the warm
    /// state survives restarts, and `--verify-cache 1.0` after a
    /// restart proves it bit for bit.
    pub cache_file: Option<PathBuf>,
    /// Maximum jobs executing concurrently (admission run cap).
    pub max_running: usize,
    /// Maximum jobs waiting for a run slot before shedding.
    pub max_queue: usize,
    /// Cost-cap shedding threshold in simulated ns (`f64::INFINITY`
    /// disables it); see `admission.rs`.
    pub cost_cap: f64,
    /// Daemon-wide default per-job deadline. A job's own `deadline_ms`
    /// overrides it.
    pub deadline_ms: Option<u64>,
    /// Supervised-farm retry budget: a panicked worker attempt is
    /// retried this many times on a fresh worker.
    pub retries: usize,
    /// Per-connection read timeout: an idle or wedged client is
    /// disconnected instead of pinning a connection thread forever.
    pub read_timeout_ms: u64,
    /// Chaos spec (`site@N[=ARG],...` — see `chaos.rs`), empty = none.
    pub chaos: String,
    /// Poll the process-global SIGTERM flag (`signal.rs`) in the accept
    /// loop. Only the daemon binary sets this; in-process daemons drain
    /// via the `drain` command.
    pub watch_signals: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from(
                std::env::var("TVE_SERVE_SOCKET").unwrap_or_else(|_| DEFAULT_SOCKET.into()),
            ),
            workers: None,
            verify: None,
            quiet: false,
            cache_file: None,
            max_running: 2,
            max_queue: 8,
            cost_cap: f64::INFINITY,
            deadline_ms: None,
            retries: 1,
            read_timeout_ms: 30_000,
            chaos: String::new(),
            watch_signals: false,
        }
    }
}

enum JobState {
    Running,
    Done(String),
    Failed(ServeError),
}

#[derive(Default)]
struct JobTable {
    next_id: u64,
    jobs: BTreeMap<u64, JobState>,
}

struct Shared {
    cache: ResultCache,
    farm: Farm,
    quantum: String,
    verify: Option<f64>,
    socket: PathBuf,
    cache_file: Option<PathBuf>,
    quiet: bool,
    jobs: Mutex<JobTable>,
    jobs_cv: Condvar,
    shutdown: AtomicBool,
    started: Instant,
    requests: AtomicU64,
    admission: Admission,
    ops: OpsCounters,
    chaos: ChaosSpec,
    /// Set once the drain decision is made (accept loop).
    draining: AtomicBool,
    /// Set by the `drain` protocol command; the accept loop acts on it.
    drain_requested: AtomicBool,
    /// Recent panic payloads from job / connection threads (bounded),
    /// surfaced through the `stats` response.
    panics: Mutex<Vec<String>>,
    deadline_ms: Option<u64>,
    retries: usize,
    read_timeout: Duration,
    watch_signals: bool,
}

/// Per-job execution context: the cancellation token every kernel built
/// on this job's threads (and every supervised farm worker) observes,
/// plus the effective deadline.
struct JobCtx {
    token: Arc<CancelToken>,
    deadline: Option<Duration>,
}

impl Shared {
    fn verify_fraction(&self, job: &JobSpec) -> f64 {
        job.verify.or(self.verify).unwrap_or(0.0)
    }

    fn record_panic(&self, message: &str) {
        self.ops.note("jobs.panicked", message);
        let mut panics = self.panics.lock().expect("panic log lock");
        if panics.len() >= 32 {
            panics.remove(0);
        }
        panics.push(message.to_string());
    }

    /// The supervised-farm chaos hook: consults the daemon chaos spec
    /// once per *first* attempt, so a retry runs clean — which is
    /// exactly the fault model "this worker died, a fresh one works".
    fn chaos_hook(self: &Arc<Self>) -> Option<ChaosHook> {
        if self.chaos.is_empty() {
            return None;
        }
        let shared = Arc::clone(self);
        Some(Arc::new(move |_item, attempt| {
            if attempt > 0 {
                return None;
            }
            if shared.chaos.fire(ChaosSite::WorkerPanic).is_some() {
                return Some(ChaosFault::Panic);
            }
            if let Some(ms) = shared.chaos.fire(ChaosSite::WorkerSlow) {
                return Some(ChaosFault::Delay(Duration::from_millis(ms)));
            }
            None
        }))
    }

    /// The farm policy of one job's campaign walk: worker panics are
    /// retried within the daemon retry budget, the job token cancels
    /// the map, and the chaos hook injects worker faults.
    fn farm_policy(self: &Arc<Self>, ctx: &JobCtx) -> SupervisePolicy {
        let mut policy = SupervisePolicy::default()
            .with_retry_budget(self.retries)
            .with_external(Arc::clone(&ctx.token))
            .with_counters(self.ops.clone());
        if let Some(hook) = self.chaos_hook() {
            policy = policy.with_chaos(hook);
        }
        policy
    }
}

const KIND_MISMATCH: &str = "cache kind mismatch (key collision?)";

/// One job's view of the result cache. `--verify-cache` samples hits at
/// the job's fraction: a sampled hit is answered as a miss and held
/// back, and when its fresh result is put, the two are compared instead
/// of the fresh one being inserted.
struct JobCache<'a> {
    cache: &'a ResultCache,
    fraction: f64,
    sampled: HashMap<u64, CachedValue>,
    /// Sampled hits compared so far.
    verified: u64,
    /// Sampled hits whose fresh result differed.
    failures: Vec<String>,
}

impl<'a> JobCache<'a> {
    fn new(shared: &'a Shared, job: &JobSpec) -> Self {
        JobCache {
            cache: &shared.cache,
            fraction: shared.verify_fraction(job),
            sampled: HashMap::new(),
            verified: 0,
            failures: Vec::new(),
        }
    }

    /// The cached value of `key`; `None` for a miss or a sampled hit,
    /// which the caller computes and [`put`](JobCache::put)s.
    fn get(&mut self, key: u64) -> Option<CachedValue> {
        let value = self.cache.lookup(key)?;
        if verify_sampled(key, self.fraction) {
            self.sampled.insert(key, value);
            return None;
        }
        Some(value)
    }

    /// Keeps a computed value and says whether `key` was a sampled hit.
    /// After a miss the value is inserted with `mask`; after a sampled
    /// hit it is compared, and a mismatch is recorded as
    /// `mismatch(cached value)`.
    fn put(
        &mut self,
        key: u64,
        mask: u8,
        fresh: CachedValue,
        mismatch: impl FnOnce(&CachedValue) -> String,
    ) -> bool {
        let Some(cached) = self.sampled.remove(&key) else {
            self.cache.insert(key, fresh, mask);
            return false;
        };
        let ok = cached.reproduces(&fresh);
        self.cache.record_verified(ok);
        self.verified += 1;
        if !ok {
            self.failures.push(mismatch(&cached));
        }
        true
    }

    /// Serves a single-result job: the cached value of `key`, or else
    /// `compute`d and put with `mask`. A sampled hit that does not
    /// reproduce fails with `mismatch(cached, fresh)`. Returns the value
    /// and whether `key` was a hit.
    fn serve(
        &mut self,
        key: u64,
        mask: u8,
        compute: impl FnOnce() -> Result<CachedValue, String>,
        mismatch: impl FnOnce(&CachedValue, &CachedValue) -> String,
    ) -> Result<(CachedValue, bool), String> {
        if let Some(hit) = self.get(key) {
            return Ok((hit, true));
        }
        let fresh = compute()?;
        let hit = self.put(key, mask, fresh.clone(), |cached| mismatch(cached, &fresh));
        self.failures.pop().map_or(Ok((fresh, hit)), Err)
    }
}

/// The campaign walk's store over the daemon cache: goldens, cells and
/// diagnoses under their content keys, verify sampling through
/// [`JobCache`], and counts of what the job simulated.
struct CacheStore<'a> {
    cache: JobCache<'a>,
    campaign: &'a CampaignConfig,
    quantum: &'a str,
    cells_simulated: usize,
    goldens_simulated: usize,
    diagnoses_simulated: usize,
}

impl CacheStore<'_> {
    fn cell_key(&self, schedule: &Schedule, fault_id: &str) -> u64 {
        let c = self.campaign;
        cell_key(&c.soc, &c.plan, schedule, fault_id, self.quantum)
    }

    fn diagnosis_key(&self, fault_id: &str) -> u64 {
        let c = self.campaign;
        diagnosis_key(
            &c.soc,
            c.plan.seed,
            c.diagnosis_patterns,
            c.diagnosis_window,
            fault_id,
        )
    }
}

impl CampaignStore for CacheStore<'_> {
    fn golden(&mut self, schedule: &Schedule) -> Result<Option<ScenarioMetrics>, CampaignError> {
        match self.cache.get(self.cell_key(schedule, "golden")) {
            None => Ok(None),
            Some(CachedValue::Metrics(metrics)) => Ok(Some(*metrics)),
            Some(_) => Err(CampaignError::Store(KIND_MISMATCH.into())),
        }
    }

    fn put_golden(
        &mut self,
        schedule: &Schedule,
        metrics: &ScenarioMetrics,
    ) -> Result<(), CampaignError> {
        let key = self.cell_key(schedule, "golden");
        let fresh = CachedValue::Metrics(Box::new(metrics.clone()));
        let mask = test_mask(&schedule_tests(schedule));
        let what = |_: &CachedValue| format!("golden '{}'", schedule.name);
        self.goldens_simulated += usize::from(!self.cache.put(key, mask, fresh, what));
        Ok(())
    }

    fn cell(
        &mut self,
        _: usize,
        schedule: &Schedule,
        fault_id: &str,
    ) -> Result<Option<CellOutcome>, CampaignError> {
        match self.cache.get(self.cell_key(schedule, fault_id)) {
            None => Ok(None),
            Some(CachedValue::Cell(outcome)) => Ok(Some(outcome)),
            Some(_) => Err(CampaignError::Store(KIND_MISMATCH.into())),
        }
    }

    fn put_cell(
        &mut self,
        _: usize,
        schedule: &Schedule,
        cell: &CellResult,
    ) -> Result<(), CampaignError> {
        let key = self.cell_key(schedule, &cell.fault_id);
        let fresh = CachedValue::Cell(cell.outcome.clone());
        let mask = test_mask(&schedule_tests(schedule));
        let what = |_: &CachedValue| format!("cell {} x '{}'", cell.fault_id, schedule.name);
        self.cells_simulated += usize::from(!self.cache.put(key, mask, fresh, what));
        Ok(())
    }

    fn diagnosis(&mut self, fault_id: &str) -> Result<Option<DiagnosisCheck>, CampaignError> {
        match self.cache.get(self.diagnosis_key(fault_id)) {
            None => Ok(None),
            Some(CachedValue::Diagnosis(check)) => Ok(Some(*check)),
            Some(_) => Err(CampaignError::Store(KIND_MISMATCH.into())),
        }
    }

    /// Diagnosis depends on no schedule: the entry is maskless and
    /// survives schedule-set changes.
    fn put_diagnosis(&mut self, check: &DiagnosisCheck) -> Result<(), CampaignError> {
        let key = self.diagnosis_key(&check.fault_id);
        let fresh = CachedValue::Diagnosis(Box::new(check.clone()));
        let what = |_: &CachedValue| format!("diagnosis {}", check.fault_id);
        self.diagnoses_simulated += usize::from(!self.cache.put(key, 0, fresh, what));
        Ok(())
    }
}

fn deadline_error(ctx: &JobCtx) -> ServeError {
    match ctx.deadline {
        Some(limit) => ServeError::deadline(format!(
            "job cancelled after exceeding its {} ms deadline",
            limit.as_millis()
        )),
        None => ServeError::deadline("job cancelled"),
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
        .to_string()
}

/// Watches one job's deadline on a helper thread; cancels the job token
/// when it fires. Drop (job finished) stops the watcher promptly.
struct DeadlineWatch {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl DeadlineWatch {
    fn spawn(token: Arc<CancelToken>, limit: Duration) -> DeadlineWatch {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let inner = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("tve-serve-deadline".into())
            .spawn(move || {
                let (lock, cv) = &*inner;
                let deadline = Instant::now() + limit;
                let mut done = lock.lock().expect("deadline watch lock");
                while !*done {
                    let now = Instant::now();
                    if now >= deadline {
                        token.cancel();
                        return;
                    }
                    let (next, _) = cv
                        .wait_timeout(done, deadline - now)
                        .expect("deadline watch lock (condvar)");
                    done = next;
                }
            })
            .expect("spawn deadline watcher");
        DeadlineWatch {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for DeadlineWatch {
    fn drop(&mut self) {
        *self.stop.0.lock().expect("deadline watch lock") = true;
        self.stop.1.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Deterministic per-key sampling: whether a hit on `key` gets
/// re-executed at `fraction`.
fn verify_sampled(key: u64, fraction: f64) -> bool {
    if fraction >= 1.0 {
        return true;
    }
    if fraction <= 0.0 {
        return false;
    }
    // splitmix64 of the key, mapped to [0, 1).
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) < fraction
}

/// A running daemon spawned in-process (tests, benches).
pub struct DaemonHandle {
    thread: std::thread::JoinHandle<io::Result<()>>,
    /// The socket the daemon listens on.
    pub socket: PathBuf,
}

impl DaemonHandle {
    /// Waits for the daemon to exit (send `shutdown` first). A panic on
    /// the daemon thread is reported with its payload preserved, not
    /// collapsed into a generic message.
    pub fn join(self) -> io::Result<()> {
        match self.thread.join() {
            Ok(result) => result,
            Err(payload) => Err(io::Error::other(format!(
                "daemon thread panicked: {}",
                payload_message(payload.as_ref())
            ))),
        }
    }
}

/// Binds and serves until a `shutdown` request arrives or a drain
/// completes. Blocking.
pub fn serve(options: &ServeOptions) -> io::Result<()> {
    let (listener, shared) = bind(options)?;
    accept_loop(listener, shared)
}

/// Binds, then serves on a background thread. The listener is bound
/// before this returns, so clients may connect immediately.
pub fn spawn(options: &ServeOptions) -> io::Result<DaemonHandle> {
    let (listener, shared) = bind(options)?;
    let socket = shared.socket.clone();
    let thread = std::thread::Builder::new()
        .name("tve-serve-accept".into())
        .spawn(move || accept_loop(listener, shared))?;
    Ok(DaemonHandle { thread, socket })
}

fn bind(options: &ServeOptions) -> io::Result<(UnixListener, Arc<Shared>)> {
    silence_cancelled_panics();
    let chaos = ChaosSpec::parse(&options.chaos)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    if options.socket.exists() {
        std::fs::remove_file(&options.socket)?;
    }
    if let Some(parent) = options.socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let listener = UnixListener::bind(&options.socket)?;
    let farm = match options.workers {
        Some(n) => Farm::with_workers(n),
        None => Farm::new(),
    };
    let cache = ResultCache::new();
    if let Some(path) = &options.cache_file {
        match crate::persist::load_cache(&cache, path) {
            Ok(load) => {
                if !options.quiet && (load.loaded > 0 || load.defect.is_some()) {
                    println!(
                        "tve-serve: loaded {} cached results from {}",
                        load.loaded,
                        path.display()
                    );
                }
                if let Some(defect) = load.defect {
                    eprintln!("tve-serve: cache snapshot damaged — {defect}");
                }
            }
            Err(e) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("cache snapshot {}: {e}", path.display()),
                ))
            }
        }
    }
    let shared = Arc::new(Shared {
        cache,
        farm,
        quantum: std::env::var("TVE_QUANTUM").unwrap_or_default(),
        verify: options.verify,
        socket: options.socket.clone(),
        cache_file: options.cache_file.clone(),
        quiet: options.quiet,
        jobs: Mutex::new(JobTable::default()),
        jobs_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        requests: AtomicU64::new(0),
        admission: Admission::new(AdmissionConfig {
            max_running: options.max_running.max(1),
            max_queue: options.max_queue,
            cost_cap: options.cost_cap,
        }),
        ops: OpsCounters::new(),
        chaos,
        draining: AtomicBool::new(false),
        drain_requested: AtomicBool::new(false),
        panics: Mutex::new(Vec::new()),
        deadline_ms: options.deadline_ms,
        retries: options.retries,
        read_timeout: Duration::from_millis(options.read_timeout_ms.max(1)),
        watch_signals: options.watch_signals,
    });
    if !options.quiet {
        println!(
            "tve-serve: listening on {} ({} farm workers, verify {:?}, quantum {:?})",
            options.socket.display(),
            shared.farm.workers(),
            options.verify,
            shared.quantum
        );
    }
    Ok((listener, shared))
}

fn accept_loop(listener: UnixListener, shared: Arc<Shared>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if !shared.draining.load(Ordering::SeqCst)
            && (shared.drain_requested.load(Ordering::SeqCst)
                || (shared.watch_signals && crate::signal::drain_requested()))
        {
            shared.draining.store(true, Ordering::SeqCst);
            shared.admission.drain();
            shared.ops.note(
                "drain.requested",
                "finishing running jobs, refusing new submissions",
            );
            if !shared.quiet {
                println!("tve-serve: draining — finishing running jobs, refusing new submissions");
            }
        }
        if shared.draining.load(Ordering::SeqCst) && shared.admission.idle() {
            // Give in-flight response writes a beat to flush before the
            // socket goes away.
            std::thread::sleep(Duration::from_millis(50));
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(shared.read_timeout));
                let conn_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("tve-serve-conn".into())
                    .spawn(move || {
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let _ = handle_connection(stream, &conn_shared);
                        }));
                        if let Err(payload) = result {
                            conn_shared.record_panic(&format!(
                                "connection thread panicked: {}",
                                payload_message(payload.as_ref())
                            ));
                        }
                    })?;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    teardown(&shared)
}

fn teardown(shared: &Arc<Shared>) -> io::Result<()> {
    let _ = std::fs::remove_file(&shared.socket);
    if let Some(path) = &shared.cache_file {
        // The snapshot chaos sites model the disk filling up mid-write:
        // the atomic tmp-and-rename in `save_cache_with` must leave the
        // previous snapshot intact either way.
        let policy = IoPolicy::new();
        if let Some(keep) = shared.chaos.fire(ChaosSite::SnapshotShortWrite) {
            policy.fail_nth_write(
                2,
                WriteFault::Short {
                    keep: keep as usize,
                },
            );
        } else if shared.chaos.fire(ChaosSite::SnapshotEnospc).is_some() {
            policy.fail_nth_write(2, WriteFault::Enospc);
        }
        match crate::persist::save_cache_with(&shared.cache, path, &policy) {
            Ok(written) => {
                if !shared.quiet {
                    println!(
                        "tve-serve: persisted {written} cached results to {}",
                        path.display()
                    );
                }
            }
            Err(e) => {
                shared.ops.note(
                    "snapshot.failed",
                    format!("cache snapshot {}: {e}", path.display()),
                );
                eprintln!(
                    "tve-serve: cache snapshot failed ({e}); previous snapshot at {} kept",
                    path.display()
                );
            }
        }
    }
    if !shared.quiet {
        println!(
            "tve-serve: shut down after {} requests, cache {:?}",
            shared.requests.load(Ordering::SeqCst),
            shared.cache.stats()
        );
    }
    Ok(())
}

fn handle_connection(mut stream: UnixStream, shared: &Arc<Shared>) -> io::Result<()> {
    loop {
        let text = match read_frame(&mut stream) {
            Ok(Some(text)) => text,
            Ok(None) => break,
            // Read timeout: an idle or wedged client does not get to pin
            // a connection thread forever.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                shared.ops.incr("conn.read_timeout");
                break;
            }
            // A malformed frame (oversized length prefix, non-UTF-8
            // payload) earns one typed protocol error, then the
            // connection closes — the framing is unrecoverable.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                shared.ops.incr("conn.bad_frame");
                let err = ServeError::protocol(format!("bad frame: {e}"));
                let _ = write_frame(&mut stream, &err.render());
                break;
            }
            Err(e) => return Err(e),
        };
        shared.requests.fetch_add(1, Ordering::SeqCst);
        let response = match dispatch(&text, shared) {
            Ok(body) => body,
            Err(err) => {
                shared.ops.incr(&format!("errors.{}", err.kind.as_str()));
                err.render()
            }
        };
        if !write_response(&mut stream, shared, &response)? {
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

/// Writes one response frame, with the connection-level chaos sites in
/// the path. Returns whether the connection should stay open.
fn write_response(stream: &mut UnixStream, shared: &Shared, response: &str) -> io::Result<bool> {
    if !shared.chaos.is_empty() {
        if shared.chaos.fire(ChaosSite::Disconnect).is_some() {
            shared.ops.incr("chaos.disconnect");
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Ok(false);
        }
        if shared.chaos.fire(ChaosSite::FrameCorrupt).is_some() {
            shared.ops.incr("chaos.frame_corrupt");
            use std::io::Write;
            // An impossible length prefix: the client's `read_frame`
            // rejects it as a protocol error rather than waiting on
            // bytes that will never come.
            let _ = stream.write_all(&u32::MAX.to_le_bytes());
            let _ = stream.flush();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Ok(false);
        }
    }
    write_frame(stream, response)?;
    Ok(true)
}

/// Static cost estimate for admission control: the summed upper bound
/// of the job's certified bounds envelopes, in simulated ns — no
/// simulation, just the `tve-lint` interval analysis. Campaigns scale by
/// their cell count (population × one golden pass).
fn estimate_cost(job: &JobSpec, quantum: &str) -> Option<f64> {
    let quantum: u64 = quantum.parse().unwrap_or(0);
    match &job.kind {
        JobKind::Lint { .. } | JobKind::Bounds { .. } => None,
        JobKind::Schedule { index } => {
            let (config, plan) = job.workload.build();
            let schedules = selected_schedules(&[*index]);
            let envelopes = tve_lint::schedule_envelopes(&config, &plan, &schedules, quantum);
            Some(envelopes.iter().map(|e| e.total.hi as f64).sum())
        }
        JobKind::Campaign { .. } => {
            let campaign = job.campaign_config()?;
            let envelopes = tve_lint::schedule_envelopes(
                &campaign.soc,
                &campaign.plan,
                &campaign.schedules,
                quantum,
            );
            let per_pass: f64 = envelopes.iter().map(|e| e.total.hi as f64).sum();
            Some(per_pass * (campaign.population.len() as f64 + 1.0))
        }
    }
}

fn dispatch(text: &str, shared: &Arc<Shared>) -> Result<String, ServeError> {
    let request =
        parse_json(text).map_err(|e| ServeError::protocol(format!("bad request: {e}")))?;
    let cmd = request
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServeError::protocol("request wants a \"cmd\" string"))?;
    match cmd {
        "ping" => Ok(format!(
            "{{\"ok\":true,\"pid\":{},\"workers\":{},\"quantum\":\"{}\"}}",
            std::process::id(),
            shared.farm.workers(),
            shared.quantum
        )),
        "stats" => Ok(stats_response(shared)),
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Ok("{\"ok\":true}".into())
        }
        "drain" => {
            shared.drain_requested.store(true, Ordering::SeqCst);
            Ok("{\"ok\":true,\"draining\":true}".into())
        }
        "submit" => {
            let job = JobSpec::from_json(
                request
                    .get("job")
                    .ok_or_else(|| ServeError::protocol("submit wants a \"job\""))?,
            )
            .map_err(ServeError::protocol)?;
            if shared.draining.load(Ordering::SeqCst)
                || shared.drain_requested.load(Ordering::SeqCst)
            {
                return Err(ServeError::draining(
                    "daemon is draining; new submissions are refused",
                ));
            }
            let wait = request
                .get("wait")
                .and_then(JsonValue::as_bool)
                .unwrap_or(true);
            let cost = estimate_cost(&job, &shared.quantum);
            let ticket = shared
                .admission
                .admit(job.priority(), cost)
                .map_err(|shed| {
                    shared.ops.note("admission.shed", shed.reason.clone());
                    if shed.draining {
                        ServeError::draining(shed.reason)
                    } else {
                        ServeError::overloaded(shed.reason, shed.retry_after_ms)
                    }
                })?;
            let id = {
                let mut table = shared.jobs.lock().expect("job table lock");
                table.next_id += 1;
                let id = table.next_id;
                table.jobs.insert(id, JobState::Running);
                id
            };
            if wait {
                let result = execute_guarded(shared, &job);
                drop(ticket);
                finish_job(shared, id, &result);
                let body = result?;
                Ok(format!("{{\"ok\":true,\"id\":{id},\"result\":{body}}}"))
            } else {
                let job_shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("tve-serve-job-{id}"))
                    .spawn(move || {
                        let result = execute_guarded(&job_shared, &job);
                        drop(ticket);
                        finish_job(&job_shared, id, &result);
                    })
                    .map_err(|e| ServeError::internal(format!("cannot spawn job thread: {e}")))?;
                Ok(format!("{{\"ok\":true,\"id\":{id},\"state\":\"running\"}}"))
            }
        }
        "status" | "result" => {
            let id = request
                .get("id")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| ServeError::protocol("wants an \"id\""))?;
            let wait = cmd == "result"
                && request
                    .get("wait")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false);
            let mut table = shared.jobs.lock().expect("job table lock");
            if wait {
                while matches!(table.jobs.get(&id), Some(JobState::Running)) {
                    table = shared
                        .jobs_cv
                        .wait(table)
                        .expect("job table lock (condvar)");
                }
            }
            match table.jobs.get(&id) {
                None => Err(ServeError::protocol(format!("unknown job id {id}"))),
                Some(JobState::Running) => {
                    Ok(format!("{{\"ok\":true,\"id\":{id},\"state\":\"running\"}}"))
                }
                Some(JobState::Failed(error)) => {
                    let mut out =
                        format!("{{\"ok\":true,\"id\":{id},\"state\":\"failed\",\"error\":");
                    append_json_string(&mut out, &error.message);
                    out.push_str(&format!(",\"error_kind\":\"{}\"", error.kind.as_str()));
                    out.push('}');
                    Ok(out)
                }
                Some(JobState::Done(body)) => {
                    if cmd == "status" {
                        Ok(format!("{{\"ok\":true,\"id\":{id},\"state\":\"done\"}}"))
                    } else {
                        Ok(format!(
                            "{{\"ok\":true,\"id\":{id},\"state\":\"done\",\"result\":{body}}}"
                        ))
                    }
                }
            }
        }
        "invalidate" => {
            let workload = crate::proto::decode_workload(
                request
                    .get("workload")
                    .ok_or_else(|| ServeError::protocol("invalidate wants a \"workload\""))?,
            )
            .map_err(ServeError::protocol)?;
            let edit = crate::proto::decode_overrides(
                request
                    .get("edit")
                    .ok_or_else(|| ServeError::protocol("invalidate wants an \"edit\""))?,
            )
            .map_err(ServeError::protocol)?;
            let (config, plan) = workload.build();
            let facts = tve_lint::soc_facts(&config, &plan);
            let impact = edit_impact(&facts, &edit, &paper_schedules());
            let evicted = shared.cache.evict_tests(impact.touched_mask);
            let mut out = format!(
                "{{\"ok\":true,\"evicted\":{evicted},\"touched_tests\":[{}],\"cores\":[",
                impact
                    .touched_tests
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            );
            for (i, core) in impact.cores.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                append_json_string(&mut out, core);
            }
            out.push_str("],\"affected_schedules\":[");
            for (i, name) in impact.affected_schedules.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                append_json_string(&mut out, name);
            }
            out.push_str("]}");
            Ok(out)
        }
        other => Err(ServeError::protocol(format!("unknown command {other:?}"))),
    }
}

fn finish_job(shared: &Shared, id: u64, result: &Result<String, ServeError>) {
    let mut table = shared.jobs.lock().expect("job table lock");
    let state = match result {
        Ok(body) => JobState::Done(body.clone()),
        Err(error) => JobState::Failed(error.clone()),
    };
    table.jobs.insert(id, state);
    shared.jobs_cv.notify_all();
}

fn stats_response(shared: &Shared) -> String {
    let stats = shared.cache.stats();
    let jobs = shared.jobs.lock().expect("job table lock").jobs.len();
    let (running, queued, admitted, shed) = shared.admission.depth();
    let panics = shared.panics.lock().expect("panic log lock");
    let mut out = format!(
        "{{\"ok\":true,\"entries\":{},\"hits\":{},\"misses\":{},\"hit_rate\":{:.6},\
         \"evicted\":{},\"verified\":{},\"verify_failures\":{},\"jobs\":{jobs},\
         \"uptime_ms\":{},\"workers\":{},\"running\":{running},\"queued\":{queued},\
         \"admitted\":{admitted},\"shed\":{shed},\"draining\":{},\"panics\":{}",
        stats.entries,
        stats.hits,
        stats.misses,
        stats.hit_rate(),
        stats.evicted,
        stats.verified,
        stats.verify_failures,
        shared.started.elapsed().as_millis(),
        shared.farm.workers(),
        shared.draining.load(Ordering::SeqCst) || shared.drain_requested.load(Ordering::SeqCst),
        panics.len()
    );
    if let Some(last) = panics.last() {
        out.push_str(",\"last_panic\":");
        append_json_string(&mut out, last);
    }
    out.push_str(",\"ops\":");
    out.push_str(&shared.ops.to_json());
    out.push_str(",\"chaos\":");
    out.push_str(&shared.chaos.counters_json());
    out.push('}');
    out
}

fn selected_schedules(indices: &[usize]) -> Vec<Schedule> {
    let all = paper_schedules();
    indices.iter().map(|&i| all[i - 1].clone()).collect()
}

/// Executes one job under its guard rails: a per-job [`CancelToken`]
/// installed thread-locally (every [`tve_sim::Kernel`] built while it is
/// current observes it at each scheduling boundary), a deadline watcher
/// that cancels the token, and a panic boundary that preserves payloads
/// into the panic log instead of killing the connection thread.
fn execute_guarded(shared: &Arc<Shared>, job: &JobSpec) -> Result<String, ServeError> {
    let deadline_ms = job.deadline_ms.or(shared.deadline_ms);
    let ctx = JobCtx {
        token: CancelToken::new(),
        deadline: deadline_ms.map(Duration::from_millis),
    };
    let _watch = ctx
        .deadline
        .map(|limit| DeadlineWatch::spawn(Arc::clone(&ctx.token), limit));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        with_cancel_token(&ctx.token, || execute(shared, job, &ctx))
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            if payload.is::<Cancelled>() || ctx.token.is_cancelled() {
                shared.ops.incr("jobs.deadline_cancelled");
                Err(deadline_error(&ctx))
            } else {
                let message = payload_message(payload.as_ref());
                shared.record_panic(&format!("job panicked: {message}"));
                Err(ServeError::internal(format!("job panicked: {message}")))
            }
        }
    }
}

fn execute(shared: &Arc<Shared>, job: &JobSpec, ctx: &JobCtx) -> Result<String, ServeError> {
    let started = Instant::now();
    let body = match &job.kind {
        JobKind::Schedule { index } => run_schedule_job(shared, job, *index)?,
        JobKind::Campaign { shard, .. } => run_campaign_job(shared, job, ctx, *shard)?,
        JobKind::Lint { schedules, program } => run_lint_job(shared, job, schedules, program)?,
        JobKind::Bounds { schedules } => run_bounds_job(shared, job, schedules)?,
    };
    if !shared.quiet {
        println!(
            "tve-serve: job done in {:.1} ms ({})",
            started.elapsed().as_secs_f64() * 1e3,
            match &job.kind {
                JobKind::Schedule { index } => format!("schedule {index}"),
                JobKind::Campaign { schedules, .. } =>
                    format!("campaign over {} schedules", schedules.len()),
                JobKind::Lint { schedules, .. } => format!("lint {} schedules", schedules.len()),
                JobKind::Bounds { schedules } => format!("bounds {} schedules", schedules.len()),
            }
        );
    }
    // Close the wall-clock over the whole job, cache time included.
    let wall_us = started.elapsed().as_micros();
    Ok(format!("{{{body},\"wall_us\":{wall_us}}}"))
}

/// Runs or serves one fault-free schedule; body fields only (caller
/// wraps the braces and appends timing). Runs on the job thread, so the
/// job token covers its kernels directly.
fn run_schedule_job(shared: &Shared, job: &JobSpec, index: usize) -> Result<String, String> {
    let (config, plan) = job.workload.build();
    let schedule = selected_schedules(&[index]).remove(0);
    let key = cell_key(&config, &plan, &schedule, "golden", &shared.quantum);
    let mask = test_mask(&schedule_tests(&schedule));
    let compute = || {
        let metrics = run_scenario(&config, &plan, &schedule).map_err(|e| e.to_string())?;
        Ok(CachedValue::Metrics(Box::new(metrics)))
    };
    let digest = |value: &CachedValue| match value {
        CachedValue::Metrics(metrics) => metrics.digest(),
        _ => 0,
    };
    let (value, cached) =
        JobCache::new(shared, job).serve(key, mask, compute, |cached, fresh| {
            format!(
                "verify-cache mismatch on '{}': cached {:#018x} vs fresh {:#018x}",
                schedule.name,
                digest(cached),
                digest(fresh)
            )
        })?;
    let CachedValue::Metrics(metrics) = value else {
        return Err(KIND_MISMATCH.into());
    };

    let mut out = String::from("\"kind\":\"schedule\",\"schedule\":");
    append_json_string(&mut out, &schedule.name);
    use std::fmt::Write;
    let _ = write!(
        out,
        ",\"digest\":\"{:#018x}\",\"peak\":{:.6},\"avg\":{:.6},\"cycles\":{},\"clean\":{},\"cached\":{cached}",
        metrics.digest(),
        metrics.peak_utilization,
        metrics.avg_utilization,
        metrics.total_cycles,
        metrics.result.clean()
    );
    Ok(out)
}

fn run_campaign_job(
    shared: &Arc<Shared>,
    job: &JobSpec,
    ctx: &JobCtx,
    shard: Option<ShardSpec>,
) -> Result<String, ServeError> {
    // The one canonical construction (shared with merging clients):
    // equal job fields mean an equal matrix on both ends of the socket.
    let campaign = job
        .campaign_config()
        .expect("run_campaign_job is only dispatched for campaign jobs");
    let mut store = CacheStore {
        cache: JobCache::new(shared, job),
        campaign: &campaign,
        quantum: &shared.quantum,
        cells_simulated: 0,
        goldens_simulated: 0,
        diagnoses_simulated: 0,
    };
    let shard_report = run_campaign_shard_with(
        &campaign,
        &shared.farm,
        shard.unwrap_or_else(ShardSpec::full),
        &shared.farm_policy(ctx),
        &mut store,
    )
    .map_err(|e| match e {
        CampaignError::Cancelled => deadline_error(ctx),
        other => ServeError::internal(other.to_string()),
    })?;
    let CacheStore {
        cache,
        cells_simulated,
        goldens_simulated,
        diagnoses_simulated,
        ..
    } = store;
    let verified = cache.verified;
    if !cache.failures.is_empty() {
        return Err(format!(
            "verify-cache mismatch on {} of {verified} sampled hits: {}",
            cache.failures.len(),
            cache.failures.join(", ")
        )
        .into());
    }

    // Shard jobs answer with a mergeable shard report instead of the
    // full artifacts; `merge_shards` on the client side validates the
    // fingerprint and reassembles the byte-identical matrix.
    if let Some(shard) = shard {
        let mut out = format!(
            "\"kind\":\"campaign-shard\",\"shard\":\"{shard}\",\
             \"fingerprint\":\"{:016x}\",\"cells\":{},\
             \"cells_simulated\":{cells_simulated},\
             \"goldens_simulated\":{goldens_simulated},\
             \"diagnoses_simulated\":{diagnoses_simulated},\
             \"verified\":{verified},\"shard_json\":",
            shard_report.fingerprint,
            shard_report.cells.len()
        );
        append_json_string(&mut out, &shard_report.to_json());
        return Ok(out);
    }

    let report = CampaignReport {
        schedules: shard_report.schedules,
        prescreened: shard_report.prescreened,
        cells: shard_report
            .cells
            .into_iter()
            .map(|(_, cell)| cell)
            .collect(),
        diagnosis: shard_report.diagnosis,
    };
    let csv = report.to_csv();
    let json = report.to_json();

    use std::fmt::Write;
    let mut out = String::with_capacity(csv.len() + json.len() + 512);
    let _ = write!(
        out,
        "\"kind\":\"campaign\",\"cells\":{},\"cells_simulated\":{cells_simulated},\
         \"cells_cached\":{},\"goldens_simulated\":{goldens_simulated},\
         \"diagnoses_simulated\":{diagnoses_simulated},\"verified\":{verified},\
         \"csv_digest\":\"{:#018x}\",\"union_escapes\":{},\
         \"all_diagnoses_confirmed\":{},\"coverage\":[",
        report.cells.len(),
        report.cells.len() - cells_simulated,
        fnv1a(csv.as_bytes()),
        report.union_escapes().len(),
        report.all_diagnoses_confirmed()
    );
    for (i, schedule) in report.schedules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"schedule\":");
        append_json_string(&mut out, schedule);
        let _ = write!(
            out,
            ",\"core_coverage\":{:.6},\"escapes\":{}}}",
            report.core_coverage(schedule),
            report.escapes(schedule).len()
        );
    }
    out.push_str("],\"csv\":");
    append_json_string(&mut out, &csv);
    out.push_str(",\"json\":");
    append_json_string(&mut out, &json);
    Ok(out)
}

fn run_lint_job(
    shared: &Shared,
    job: &JobSpec,
    schedule_indices: &[usize],
    program: &Option<(String, String)>,
) -> Result<String, String> {
    let (config, plan) = job.workload.build();
    let schedules = selected_schedules(schedule_indices);
    // One cache entry per lint job shape: key over every schedule plus
    // the program. Lint consumes the whole plan (facts), so the key
    // uses no projection and the entry carries the full test mask.
    let mut key_text = String::new();
    for schedule in &schedules {
        use std::fmt::Write;
        let _ = write!(
            key_text,
            "{:#018x}|",
            lint_key(
                &config,
                &plan,
                schedule,
                program.as_ref().map(|(n, t)| (n.as_str(), t.as_str()))
            )
        );
    }
    let key = fnv1a(key_text.as_bytes());

    let compute = || {
        let facts = tve_lint::soc_facts(&config, &plan);
        let mut reports: Vec<tve_lint::LintReport> = schedules
            .iter()
            .map(|s| tve_lint::lint_schedule_report(s, &facts))
            .collect();
        if let Some((name, text)) = program {
            reports.push(tve_lint::lint_program_report(name, text, &facts));
        }
        let errors = reports
            .iter()
            .flat_map(|r| &r.diagnostics)
            .filter(|d| d.severity == tve_lint::Severity::Error)
            .count();
        let warnings = reports
            .iter()
            .flat_map(|r| &r.diagnostics)
            .filter(|d| d.severity == tve_lint::Severity::Warning)
            .count();
        Ok(CachedValue::Lint {
            report: tve_lint::reports_to_json(&reports),
            errors,
            warnings,
        })
    };
    let (value, cached) = JobCache::new(shared, job).serve(key, 0x7f, compute, |_, _| {
        "verify-cache mismatch on lint report".into()
    })?;
    let CachedValue::Lint {
        report,
        errors,
        warnings,
    } = value
    else {
        return Err(KIND_MISMATCH.into());
    };

    let mut out = format!(
        "\"kind\":\"lint\",\"errors\":{errors},\"warnings\":{warnings},\"cached\":{cached},\"report\":"
    );
    append_json_string(&mut out, &report);
    Ok(out)
}

/// Serves a certified static bounds job: a pure analysis of the
/// workload's envelopes — no farm dispatch, no simulation — rendered by
/// the same `bounds_reports_to_json` a local `lint --bounds` run uses,
/// so the served report is byte-identical to a local computation.
fn run_bounds_job(
    shared: &Shared,
    job: &JobSpec,
    schedule_indices: &[usize],
) -> Result<String, String> {
    let (config, plan) = job.workload.build();
    let schedules = selected_schedules(schedule_indices);
    let quantum: u64 = shared.quantum.parse().unwrap_or(0);
    // One cache entry per job shape: key over every schedule's bounds
    // key. The envelopes consume the whole plan, so the entry carries
    // the full test mask.
    let mut key_text = String::new();
    for schedule in &schedules {
        use std::fmt::Write;
        let _ = write!(
            key_text,
            "{:#018x}|",
            bounds_key(&config, &plan, schedule, quantum)
        );
    }
    let key = fnv1a(key_text.as_bytes());

    let compute = || {
        let envelopes = tve_lint::schedule_envelopes(&config, &plan, &schedules, quantum);
        let report = tve_lint::bounds_reports_to_json(&envelopes);
        Ok(CachedValue::Bounds { report })
    };
    let (value, cached) = JobCache::new(shared, job).serve(key, 0x7f, compute, |_, _| {
        "verify-cache mismatch on bounds report".into()
    })?;
    let CachedValue::Bounds { report } = value else {
        return Err(KIND_MISMATCH.into());
    };

    let mut out = format!(
        "\"kind\":\"bounds\",\"schedules\":{},\"quantum\":{quantum},\"cached\":{cached},\"report\":",
        schedules.len()
    );
    append_json_string(&mut out, &report);
    Ok(out)
}
