//! The `tve-serve` daemon: a Unix-domain socket server owning a warm
//! [`Farm`] and the content-addressed [`ResultCache`].
//!
//! Connections are handled on one thread each, and a submitted job runs
//! on its connection's thread and is answered on that connection. All
//! simulation fan-out inside a job goes through the shared farm, so
//! `TVE_JOBS` governs the daemon exactly as it governs the batch bins —
//! and results are byte-identical for any worker count, which is what
//! makes caching across clients sound. Every simulation is
//! cycle-accurate.
//!
//! A campaign job is the `tve-campaign` matrix walk
//! ([`run_campaign_shard_with`]) with the cache as its store
//! (`CacheStore`): the daemon owns keys, verify sampling and counters,
//! never the walk itself. Schedule, lint and bounds jobs go through the
//! same per-job cache view (`JobCache`).
//!
//! ## Fault tolerance
//!
//! Every distinct `submit` frame is decoded once — job, inputs and
//! result-cache key (`Decoded`), kept by frame text in the decode memo
//! (`memo.rs`). Every submission passes [`Admission`] (bounded queue,
//! priority quotas, cost-cap shedding — see `admission.rs`), runs its
//! inputs under a per-job [`CancelToken`] with an optional deadline
//! watcher, and fans out through the *supervised* farm
//! ([`Farm::run_map_supervised`](tve_sched::Farm::run_map_supervised)):
//! a panicked worker attempt is retried on a fresh worker within a
//! retry budget, a permanent failure comes back as a typed error, and
//! the job's deadline cancels the whole map — never a hang, never a
//! hole in the batch.
//! SIGTERM and the `drain` command start one graceful drain, whose only
//! state is the admission drain flag: running jobs finish, the cache
//! snapshot is persisted atomically, new submissions are refused with a
//! typed `draining` error. The `--chaos`
//! spec (`chaos.rs`) injects worker, frame, and snapshot faults at
//! deterministic occurrence counts so all of the above is provable.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use tve_campaign::{
    run_campaign_shard_with, CampaignConfig, CampaignError, CampaignReport, CampaignStore,
    CellOutcome, CellResult, DiagnosisCheck, ShardSpec,
};
use tve_core::Schedule;
use tve_obs::{
    append_json_string, fnv1a, json_string, parse_json, IoPolicy, JsonValue, OpsCounters,
    WriteFault,
};
use tve_sched::{ChaosFault, ChaosHook, Farm, SupervisePolicy};
use tve_sim::{panic_message, silence_cancelled_panics, with_cancel_token, CancelToken, Cancelled};
use tve_soc::{paper_schedules, run_scenario, ScenarioMetrics, SocConfig, SocTestPlan};

use crate::admission::{Admission, AdmissionConfig};
use crate::cache::{CachedValue, ResultCache};
use crate::chaos::{ChaosSite, ChaosSpec};
use crate::client::splitmix64;
use crate::error::ServeError;
use crate::invalidate::edit_impact;
use crate::key::{
    bounds_key, cell_key, diagnosis_key, lint_key, report_key, schedule_tests, test_mask,
};
use crate::memo::DecodeMemo;
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
    /// disables it, and schedule and campaign jobs are priced only when
    /// it is finite); see `admission.rs`.
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

struct Shared {
    options: ServeOptions,
    cache: ResultCache,
    farm: Farm,
    shutdown: AtomicBool,
    started: Instant,
    requests: AtomicU64,
    admission: Admission,
    ops: OpsCounters,
    chaos: ChaosSpec,
    /// Successful `submit` decodes by frame text (`memo.rs`).
    memo: DecodeMemo<Decoded>,
    /// Recent panic payloads from connection threads (bounded),
    /// surfaced through the `stats` response.
    panics: Mutex<Vec<String>>,
}

/// Per-job execution context: the cancellation token every kernel built
/// on this job's threads (and every supervised farm worker) observes,
/// plus the effective deadline.
struct JobCtx {
    token: Arc<CancelToken>,
    deadline: Option<Duration>,
}

impl Shared {
    fn record_panic(&self, message: &str) {
        self.ops.incr("jobs.panicked");
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
            .with_retry_budget(self.options.retries)
            .with_external(Arc::clone(&ctx.token))
            .with_counters(self.ops.clone());
        if let Some(hook) = self.chaos_hook() {
            policy = policy.with_chaos(hook);
        }
        policy
    }

    /// Starts the graceful drain (the `drain` command or SIGTERM):
    /// admission refuses queued and new work, running jobs finish, and
    /// the accept loop exits once admission is idle.
    fn start_drain(&self) {
        if self.admission.drain() {
            self.ops.incr("drain.requested");
            if !self.options.quiet {
                println!("tve-serve: draining — finishing running jobs, refusing new submissions");
            }
        }
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
            fraction: job.verify.or(shared.options.verify).unwrap_or(0.0),
            sampled: HashMap::new(),
            verified: 0,
            failures: Vec::new(),
        }
    }

    /// The cached value of `key`, narrowed by `pick` to the kind stored
    /// there; `None` for a miss or a sampled hit, which the caller
    /// computes and [`put`](JobCache::put)s. A value of another kind is
    /// an error.
    fn get<T>(
        &mut self,
        key: u64,
        pick: impl FnOnce(CachedValue) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(value) = self.cache.lookup(key) else {
            return Ok(None);
        };
        if verify_sampled(key, self.fraction) {
            self.sampled.insert(key, value);
            return Ok(None);
        }
        pick(value).map(Some).ok_or_else(|| KIND_MISMATCH.into())
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
    /// `compute`d and put with `mask`, narrowed by `pick`. A sampled hit
    /// that does not reproduce fails with `mismatch(cached, fresh)`.
    /// Returns the value and whether `key` was a hit.
    fn serve<T>(
        &mut self,
        key: u64,
        mask: u8,
        pick: impl Fn(CachedValue) -> Option<T>,
        compute: impl FnOnce() -> Result<CachedValue, String>,
        mismatch: impl FnOnce(&CachedValue, &CachedValue) -> String,
    ) -> Result<(T, bool), String> {
        if let Some(hit) = self.get(key, &pick)? {
            return Ok((hit, true));
        }
        let fresh = compute()?;
        let hit = self.put(key, mask, fresh.clone(), |cached| mismatch(cached, &fresh));
        match self.failures.pop() {
            Some(failure) => Err(failure),
            None => Ok((pick(fresh).ok_or(KIND_MISMATCH)?, hit)),
        }
    }
}

/// Narrows a cache value to scenario metrics (schedule jobs and campaign
/// goldens share these entries).
fn as_metrics(value: CachedValue) -> Option<ScenarioMetrics> {
    match value {
        CachedValue::Metrics(metrics) => Some(*metrics),
        _ => None,
    }
}

/// The campaign walk's store over the daemon cache: goldens, cells and
/// diagnoses under their content keys, verify sampling through
/// [`JobCache`], and counts of what the job simulated.
struct CacheStore<'a> {
    cache: JobCache<'a>,
    campaign: &'a CampaignConfig,
    cells_simulated: usize,
    goldens_simulated: usize,
    diagnoses_simulated: usize,
}

impl CacheStore<'_> {
    fn cell_key(&self, schedule: &Schedule, fault_id: &str) -> u64 {
        let c = self.campaign;
        cell_key(&c.soc, &c.plan, schedule, fault_id)
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
        let key = self.cell_key(schedule, "golden");
        self.cache
            .get(key, as_metrics)
            .map_err(CampaignError::Store)
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
        let key = self.cell_key(schedule, fault_id);
        let pick = |value| match value {
            CachedValue::Cell(outcome) => Some(outcome),
            _ => None,
        };
        self.cache.get(key, pick).map_err(CampaignError::Store)
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
        let key = self.diagnosis_key(fault_id);
        let pick = |value| match value {
            CachedValue::Diagnosis(check) => Some(*check),
            _ => None,
        };
        self.cache.get(key, pick).map_err(CampaignError::Store)
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

/// Watches one job's deadline on a helper thread; cancels the job token
/// when it fires. Drop (job finished) hangs up the channel, which stops
/// the watcher promptly.
struct DeadlineWatch {
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl DeadlineWatch {
    fn spawn(token: Arc<CancelToken>, limit: Duration) -> DeadlineWatch {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("tve-serve-deadline".into())
            .spawn(move || {
                if stopped.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                    token.cancel();
                }
            })
            .expect("spawn deadline watcher");
        DeadlineWatch {
            stop: Some(stop),
            thread: Some(thread),
        }
    }
}

impl Drop for DeadlineWatch {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Deterministic per-key sampling: whether a hit on `key` gets
/// re-executed at `fraction`.
fn verify_sampled(key: u64, fraction: f64) -> bool {
    fraction >= 1.0 || (fraction > 0.0 && (splitmix64(key) as f64 / u64::MAX as f64) < fraction)
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
                panic_message(payload.as_ref())
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
    let socket = shared.options.socket.clone();
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
        options: options.clone(),
        cache,
        farm,
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
        memo: DecodeMemo::new(),
        panics: Mutex::new(Vec::new()),
    });
    if !options.quiet {
        println!(
            "tve-serve: listening on {} ({} farm workers, verify {:?})",
            options.socket.display(),
            shared.farm.workers(),
            options.verify
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
        if shared.options.watch_signals && crate::signal::drain_requested() {
            shared.start_drain();
        }
        if shared.admission.draining() && shared.admission.idle() {
            // Give in-flight response writes a beat to flush before the
            // socket goes away.
            std::thread::sleep(Duration::from_millis(50));
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let timeout = Duration::from_millis(shared.options.read_timeout_ms.max(1));
                let _ = stream.set_read_timeout(Some(timeout));
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
                                panic_message(payload.as_ref())
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
    let _ = std::fs::remove_file(&shared.options.socket);
    if let Some(path) = &shared.options.cache_file {
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
                if !shared.options.quiet {
                    println!(
                        "tve-serve: persisted {written} cached results to {}",
                        path.display()
                    );
                }
            }
            Err(e) => {
                shared.ops.incr("snapshot.failed");
                eprintln!(
                    "tve-serve: cache snapshot failed ({e}); previous snapshot at {} kept",
                    path.display()
                );
            }
        }
    }
    if !shared.options.quiet {
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

/// One decoded `submit`: the job and its inputs. It depends on the frame
/// text alone, so the decode memo keeps it for the next identical frame.
struct Decoded {
    job: JobSpec,
    inputs: Inputs,
}

/// One job's inputs, built once per decode: admission prices them when
/// a cost cap is set, and execution runs them.
enum Inputs {
    /// Schedule, lint and bounds jobs: the workload, its schedules and
    /// the job's result-cache key — the golden cell key of a schedule
    /// job, the [`report_key`] of a lint or bounds job.
    Plan(SocConfig, SocTestPlan, Vec<Schedule>, u64),
    /// Campaign jobs: [`JobSpec::campaign_config`]. The walk keys each
    /// cell itself.
    Campaign(CampaignConfig),
}

impl Inputs {
    fn build(job: &JobSpec) -> Inputs {
        if let Some(campaign) = job.campaign_config() {
            return Inputs::Campaign(campaign);
        }
        let (config, plan) = job.workload.build();
        let schedules = job.schedules();
        let key = match &job.kind {
            JobKind::Lint { program, .. } => {
                let program = program.as_ref().map(|(n, t)| (n.as_str(), t.as_str()));
                let key = |s| lint_key(&config, &plan, s, program);
                report_key(schedules.iter().map(key))
            }
            JobKind::Bounds { .. } => {
                report_key(schedules.iter().map(|s| bounds_key(&config, &plan, s)))
            }
            _ => cell_key(&config, &plan, &schedules[0], "golden"),
        };
        Inputs::Plan(config, plan, schedules, key)
    }

    /// Static cost estimate for admission control: the summed upper
    /// bound of the job's certified bounds envelopes, in simulated ns —
    /// no simulation, just the `tve-lint` interval analysis. Campaigns
    /// scale by their cell count (population × one golden pass). Lint
    /// and bounds jobs are not priced.
    fn cost(&self, job: &JobSpec) -> Option<f64> {
        let (config, plan, schedules, passes) = match (self, &job.kind) {
            (Inputs::Plan(config, plan, schedules, _), JobKind::Schedule { .. }) => {
                (config, plan, schedules, 1.0)
            }
            (Inputs::Campaign(c), _) => {
                let passes = c.population.len() as f64 + 1.0;
                (&c.soc, &c.plan, &c.schedules, passes)
            }
            _ => return None,
        };
        let envelopes = tve_lint::schedule_envelopes(config, plan, schedules, 0);
        Some(envelopes.iter().map(|e| e.total.hi as f64).sum::<f64>() * passes)
    }
}

/// Decodes a `submit` request: the job, the `wait` check and the job's
/// inputs. Only a decode that succeeds is memoized.
fn decode_submit(request: &JsonValue) -> Result<Decoded, ServeError> {
    let job = request
        .field("job")
        .and_then(JobSpec::from_json)
        .map_err(ServeError::protocol)?;
    // Clients may still send `"wait": true`: it names the one lifecycle
    // there is, an answer on this connection.
    let wait = request
        .opt_typed("wait", JsonValue::bool_field)
        .map_err(ServeError::protocol)?;
    if wait == Some(false) {
        return Err(ServeError::protocol(
            "\"wait\": false is not supported; a submit is answered on its connection",
        ));
    }
    let inputs = Inputs::build(&job);
    Ok(Decoded { job, inputs })
}

/// Admits and runs one decoded job; the answer is its response frame.
fn submit(shared: &Arc<Shared>, decoded: &Decoded) -> Result<String, ServeError> {
    let Decoded { job, inputs } = decoded;
    let cost = if shared.options.cost_cap.is_finite() {
        inputs.cost(job)
    } else {
        None
    };
    let ticket = shared
        .admission
        .admit(job.priority(), cost)
        .map_err(|shed| {
            shared.ops.incr("admission.shed");
            if shed.draining {
                ServeError::draining(shed.reason)
            } else {
                ServeError::overloaded(shed.reason, shed.retry_after_ms)
            }
        })?;
    let result = execute_guarded(shared, job, inputs);
    drop(ticket);
    Ok(format!("{{\"ok\":true,\"result\":{}}}", result?))
}

fn dispatch(text: &str, shared: &Arc<Shared>) -> Result<String, ServeError> {
    // Only successful submit decodes are memoized, so a hit is one.
    if let Some(decoded) = shared.memo.get(text) {
        return submit(shared, &decoded);
    }
    let request =
        parse_json(text).map_err(|e| ServeError::protocol(format!("bad request: {e}")))?;
    let cmd = request.str_field("cmd").map_err(ServeError::protocol)?;
    match cmd {
        "ping" => Ok(format!(
            "{{\"ok\":true,\"pid\":{},\"workers\":{}}}",
            std::process::id(),
            shared.farm.workers()
        )),
        "stats" => Ok(stats_response(shared)),
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Ok("{\"ok\":true}".into())
        }
        "drain" => {
            shared.start_drain();
            Ok("{\"ok\":true,\"draining\":true}".into())
        }
        "submit" => submit(shared, &shared.memo.insert(text, decode_submit(&request)?)),
        "invalidate" => {
            let workload = request
                .field("workload")
                .and_then(crate::proto::decode_workload)
                .map_err(ServeError::protocol)?;
            let edit = request
                .field("edit")
                .and_then(crate::proto::decode_overrides)
                .map_err(ServeError::protocol)?;
            let (config, plan) = workload.build();
            let facts = tve_lint::soc_facts(&config, &plan);
            let impact = edit_impact(&facts, &edit, &paper_schedules());
            let evicted = shared.cache.evict_tests(impact.touched_mask);
            let tests: Vec<String> = impact.touched_tests.iter().map(usize::to_string).collect();
            let strings = |list: &[String]| {
                let list: Vec<String> = list.iter().map(|s| json_string(s)).collect();
                list.join(",")
            };
            Ok(format!(
                "{{\"ok\":true,\"evicted\":{evicted},\"touched_tests\":[{}],\"cores\":[{}],\
                 \"affected_schedules\":[{}]}}",
                tests.join(","),
                strings(&impact.cores),
                strings(&impact.affected_schedules),
            ))
        }
        other => Err(ServeError::protocol(format!("unknown command {other:?}"))),
    }
}

fn stats_response(shared: &Shared) -> String {
    let stats = shared.cache.stats();
    let (running, queued, admitted, shed) = shared.admission.depth();
    let (decoded, reused) = shared.memo.counts();
    let panics = shared.panics.lock().expect("panic log lock");
    let mut out = format!(
        "{{\"ok\":true,\"entries\":{},\"hits\":{},\"misses\":{},\"hit_rate\":{:.6},\
         \"evicted\":{},\"verified\":{},\"verify_failures\":{},\
         \"submits_decoded\":{decoded},\"submits_reused\":{reused},\
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
        shared.admission.draining(),
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

/// Executes one job under its guard rails: a per-job [`CancelToken`]
/// installed thread-locally (every [`tve_sim::Kernel`] built while it is
/// current observes it at each scheduling boundary), a deadline watcher
/// that cancels the token, and a panic boundary that preserves payloads
/// into the panic log instead of killing the connection thread.
fn execute_guarded(
    shared: &Arc<Shared>,
    job: &JobSpec,
    inputs: &Inputs,
) -> Result<String, ServeError> {
    let deadline_ms = job.deadline_ms.or(shared.options.deadline_ms);
    let ctx = JobCtx {
        token: CancelToken::new(),
        deadline: deadline_ms.map(Duration::from_millis),
    };
    let _watch = ctx
        .deadline
        .map(|limit| DeadlineWatch::spawn(Arc::clone(&ctx.token), limit));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        with_cancel_token(&ctx.token, || execute(shared, job, inputs, &ctx))
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            if payload.is::<Cancelled>() || ctx.token.is_cancelled() {
                shared.ops.incr("jobs.deadline_cancelled");
                Err(deadline_error(&ctx))
            } else {
                let message = panic_message(payload.as_ref());
                shared.record_panic(&format!("job panicked: {message}"));
                Err(ServeError::internal(format!("job panicked: {message}")))
            }
        }
    }
}

fn execute(
    shared: &Arc<Shared>,
    job: &JobSpec,
    inputs: &Inputs,
    ctx: &JobCtx,
) -> Result<String, ServeError> {
    let started = Instant::now();
    let body = match (&job.kind, inputs) {
        (JobKind::Campaign { shard, .. }, Inputs::Campaign(campaign)) => {
            run_campaign_job(shared, job, ctx, campaign, *shard)?
        }
        (JobKind::Schedule { .. }, Inputs::Plan(config, plan, schedules, key)) => {
            run_schedule_job(shared, job, config, plan, &schedules[0], *key)?
        }
        (JobKind::Lint { program, .. }, Inputs::Plan(config, plan, schedules, key)) => {
            let program = program.as_ref().map(|(n, t)| (n.as_str(), t.as_str()));
            let fields = |value| match value {
                CachedValue::Lint {
                    report,
                    errors,
                    warnings,
                } => Some((
                    format!("\"errors\":{errors},\"warnings\":{warnings}"),
                    report,
                )),
                _ => None,
            };
            let compute = || lint_value(config, plan, schedules, program);
            run_report_job(shared, job, "lint", *key, compute, fields)?
        }
        (JobKind::Bounds { .. }, Inputs::Plan(config, plan, schedules, key)) => {
            let fields = |value| match value {
                CachedValue::Bounds { report } => Some((
                    format!("\"schedules\":{},\"quantum\":0", schedules.len()),
                    report,
                )),
                _ => None,
            };
            let compute = || {
                let envelopes = tve_lint::schedule_envelopes(config, plan, schedules, 0);
                let report = tve_lint::bounds_reports_to_json(&envelopes);
                CachedValue::Bounds { report }
            };
            run_report_job(shared, job, "bounds", *key, compute, fields)?
        }
        _ => unreachable!("inputs are built for their job's kind"),
    };
    if !shared.options.quiet {
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

/// Runs or serves one fault-free schedule under its golden cell `key`;
/// body fields only (caller wraps the braces and appends timing). Runs
/// on the connection thread, so the job token covers its kernels
/// directly.
fn run_schedule_job(
    shared: &Shared,
    job: &JobSpec,
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    key: u64,
) -> Result<String, String> {
    let mask = test_mask(&schedule_tests(schedule));
    let compute = || {
        let metrics = run_scenario(config, plan, schedule).map_err(|e| e.to_string())?;
        Ok(CachedValue::Metrics(Box::new(metrics)))
    };
    let digest = |value: &CachedValue| as_metrics(value.clone()).map_or(0, |m| m.digest());
    let mismatch = |cached: &CachedValue, fresh: &CachedValue| {
        format!(
            "verify-cache mismatch on '{}': cached {:#018x} vs fresh {:#018x}",
            schedule.name,
            digest(cached),
            digest(fresh)
        )
    };
    let (metrics, cached) =
        JobCache::new(shared, job).serve(key, mask, as_metrics, compute, mismatch)?;

    let mut out = String::from("\"kind\":\"schedule\",\"schedule\":");
    append_json_string(&mut out, &schedule.name);
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
    campaign: &CampaignConfig,
    shard: Option<ShardSpec>,
) -> Result<String, ServeError> {
    let mut store = CacheStore {
        cache: JobCache::new(shared, job),
        campaign,
        cells_simulated: 0,
        goldens_simulated: 0,
        diagnoses_simulated: 0,
    };
    let shard_report = run_campaign_shard_with(
        campaign,
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
        let _ = write!(
            out,
            "{}{{\"schedule\":{},\"core_coverage\":{:.6},\"escapes\":{}}}",
            if i > 0 { "," } else { "" },
            json_string(schedule),
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

/// Serves a static report job (lint or bounds): pure analysis of the
/// workload, no farm dispatch and no simulation. One cache entry per job
/// shape under its [`report_key`]; the report consumes the
/// whole plan, so the entry carries the full test mask. `fields` narrows
/// the cached value to the response fields between `kind` and `cached`
/// and the report text, which is byte-identical to a local computation.
fn run_report_job(
    shared: &Shared,
    job: &JobSpec,
    kind: &str,
    key: u64,
    compute: impl FnOnce() -> CachedValue,
    fields: impl Fn(CachedValue) -> Option<(String, String)>,
) -> Result<String, String> {
    let mismatch =
        |_: &CachedValue, _: &CachedValue| format!("verify-cache mismatch on {kind} report");
    let ((fields, report), cached) =
        JobCache::new(shared, job).serve(key, 0x7f, fields, || Ok(compute()), mismatch)?;
    let mut out = format!("\"kind\":\"{kind}\",{fields},\"cached\":{cached},\"report\":");
    append_json_string(&mut out, &report);
    Ok(out)
}

/// Lints `schedules` (and the program, if any) against the plan facts.
fn lint_value(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedules: &[Schedule],
    program: Option<(&str, &str)>,
) -> CachedValue {
    let facts = tve_lint::soc_facts(config, plan);
    let mut reports: Vec<tve_lint::LintReport> = schedules
        .iter()
        .map(|s| tve_lint::lint_schedule_report(s, &facts))
        .collect();
    if let Some((name, text)) = program {
        reports.push(tve_lint::lint_program_report(name, text, &facts));
    }
    let count = |severity| {
        reports
            .iter()
            .flat_map(|r| &r.diagnostics)
            .filter(|d| d.severity == severity)
            .count()
    };
    CachedValue::Lint {
        errors: count(tve_lint::Severity::Error),
        warnings: count(tve_lint::Severity::Warning),
        report: tve_lint::reports_to_json(&reports),
    }
}
