//! # nanomapd
//!
//! The NanoMap mapping-as-a-service daemon: a hand-rolled thread pool
//! serving concurrent mapping requests over line-delimited JSON
//! (`nanomapd-v1`, see [`nanomap::service`]) on TCP or a unix socket,
//! wrapped in a full robustness envelope:
//!
//! - **Admission control.** A bounded queue; requests arriving past
//!   capacity are shed with a typed, retryable rejection instead of
//!   queuing unbounded latency. Above a free-admission depth every
//!   request must carry `time_budget_ms` so queue residence stays
//!   bounded under load.
//! - **Preemption.** Long requests run in exponentially growing time
//!   slices through the flow's CancelToken + checkpoint machinery: an
//!   expired slice re-enqueues the request at the back of the queue and
//!   the next slice resumes from its `nanomap-checkpoint-v2` snapshot
//!   (the pinned candidate, its schedules and placement; the packing is
//!   recomputed and the placement re-validated), not from scratch.
//! - **Crash-safe result cache.** Results land in an atomic-rename
//!   cache keyed by netlist fingerprint + objective + seeds + defect
//!   map ([`cache::ResultCache`]); repeat submissions are served from disk
//!   byte-identically in microseconds, across daemon restarts and
//!   `kill -9`.
//! - **Request isolation.** A panicking worker converts to a typed
//!   `panic` rejection via `catch_unwind`; the daemon never dies with
//!   its request.
//! - **Graceful shutdown.** SIGTERM (or the `shutdown` op) drains
//!   in-flight and queued work under a deadline; whatever misses the
//!   deadline is shed with a `shutdown` rejection, and slice
//!   checkpoints persist for the next daemon's resume.
//!
//! - **Service telemetry.** Every request carries a trace id (client
//!   propagated or daemon assigned) echoed on each lifecycle/result
//!   line, stamped into `service` events on the `nanomap-events-v1`
//!   bus, and recorded on the ledger line of the computing run. Per-
//!   request latency splits into queue-wait / compute / cache-lookup /
//!   serialize segments aggregated in always-on histograms per result
//!   code, exported as a `nanomapd-stats-v1` document via the `stats`
//!   op and persisted crash-safe next to the ledger by a ticker.
//!
//! Every computed run is appended to the flight-recorder ledger, so
//! `nanomap runs` covers daemon traffic exactly like CLI traffic.

#![warn(missing_docs)]

pub mod cache;

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use nanomap::artifact::versions;
use nanomap::service::{
    code, render_error_result, render_lifecycle, render_ok_result, Conn, Listener, MapRequest,
    Request, LATENCY_CLASSES,
};
use nanomap::{
    append_run, atomic_write_text, checkpoint_file_name, Checkpoint, FlowError, NanoMap, RunRecord,
};
use nanomap_arch::{ArchParams, DefectMap};
use nanomap_observe::{failpoint, EventKind, EventStream, Fnv1a, HistogramHandle, JsonValue};

use cache::ResultCache;

/// Everything a daemon instance is configured with.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address: `host:port` for TCP, a path (contains `/`) for a
    /// unix socket. Port 0 picks a free port.
    pub addr: String,
    /// Worker threads mapping requests concurrently.
    pub workers: usize,
    /// Admission queue capacity; arrivals past it are shed.
    pub queue_capacity: usize,
    /// Queue depth above which `time_budget_ms` becomes mandatory.
    pub free_admission_depth: usize,
    /// Root for daemon state: `cache/` and `checkpoints/` live here.
    pub state_dir: PathBuf,
    /// Flight-recorder ledger to append computed runs to (optional).
    pub ledger_path: Option<PathBuf>,
    /// Preemption time slice; `None` runs every request to completion.
    pub preempt_slice_ms: Option<u64>,
    /// How long a request may sit idle on the wire before the
    /// connection is dropped (slow-loris guard).
    pub read_timeout_ms: u64,
    /// NDJSON file capturing `nanomap-events-v1` events (`service`
    /// lifecycle lines included) for the daemon's lifetime. `None`
    /// keeps the event bus disabled — serving stays byte-identical.
    pub events_path: Option<PathBuf>,
    /// Period of the stats ticker that persists `nanomapd-stats-v1`
    /// snapshots next to the ledger; 0 disables the ticker (the
    /// `stats` op still answers live).
    pub stats_interval_ms: u64,
    /// Fabric defect map every request maps around — the daemon serves
    /// one physical fabric, so its defects are daemon state, not
    /// request state. `None` serves a pristine fabric.
    pub defect_map_path: Option<PathBuf>,
    /// After the heuristic recovery ladder fails a request, run the
    /// complete SAT-based assignment rung (the exact rung polls the
    /// slice budget, so preemption still works inside it).
    pub exact_recovery: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 16,
            free_admission_depth: 4,
            state_dir: PathBuf::from("nanomapd-state"),
            ledger_path: None,
            preempt_slice_ms: None,
            read_timeout_ms: 10_000,
            events_path: None,
            stats_interval_ms: 2_000,
            defect_map_path: None,
            exact_recovery: false,
        }
    }
}

/// A request that passed admission, waiting for (or back in) the queue.
struct Job {
    request: MapRequest,
    conn: Conn,
    /// Preemption count: 0 on first service, +1 per expired slice.
    attempts: u32,
    /// Wall-clock budget left across slices (None = unbudgeted).
    budget_left_ms: Option<u64>,
    /// Trace id: client propagated or daemon assigned at admission.
    trace: String,
    /// When the request line arrived — anchors end-to-end latency.
    arrived: Instant,
    /// When the job last entered the queue; queue-wait accrues from
    /// here on every pop (admission, parking, preemption).
    enqueued_at: Instant,
    /// Accrued queue-wait across all enqueues, microseconds.
    queue_us: u64,
    /// Accrued compute (parse/resolve + mapping slices), microseconds.
    compute_us: u64,
    /// Accrued cache-lookup time, microseconds.
    cache_us: u64,
    /// Parked behind an identical compute once already: its one
    /// `coalesced` event is out.
    coalesced: bool,
}

/// Counters surfaced through `ping` and [`DaemonHandle::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Requests currently being mapped.
    pub inflight: u64,
    /// Requests waiting in the queue.
    pub queued: u64,
    /// Results served (cache hits included).
    pub served: u64,
    /// Requests shed by admission control or shutdown.
    pub shed: u64,
    /// Worker panics converted to typed rejections.
    pub panics: u64,
    /// Permanent non-panic rejections (invalid, budget, failed).
    pub failures: u64,
    /// Cache hits among served results.
    pub cache_hits: u64,
    /// Preemptions (expired slices re-enqueued).
    pub preemptions: u64,
}

/// Lifecycle segments of every admitted request, in export order.
const SEGMENTS: [&str; 4] = ["queue", "compute", "cache", "serialize"];

/// Always-on latency accounting: standalone log₂ histograms detached
/// from the observe registry's enable gate, so serving accounts even
/// while flow observability is off. None of this alters response bytes
/// — unobserved serving stays byte-identical.
struct ServiceLatency {
    /// End-to-end latency per [`LATENCY_CLASSES`] entry, microseconds.
    classes: [HistogramHandle; LATENCY_CLASSES.len()],
    /// Per-[`SEGMENTS`] time across all requests, microseconds.
    segments: [HistogramHandle; SEGMENTS.len()],
}

impl ServiceLatency {
    fn new() -> Self {
        Self {
            classes: std::array::from_fn(|_| HistogramHandle::standalone()),
            segments: std::array::from_fn(|_| HistogramHandle::standalone()),
        }
    }

    /// The end-to-end histogram for an accounting class. Unknown codes
    /// land in `failed` rather than losing the sample — reconciliation
    /// stays exact.
    fn class(&self, class: &str) -> &HistogramHandle {
        let i = LATENCY_CLASSES.iter().position(|&c| c == class);
        &self.classes[i.unwrap_or(LATENCY_CLASSES.len() - 1)]
    }
}

/// Sentinel in `last_snapshot_ms`: no snapshot persisted yet.
const SNAPSHOT_NEVER: u64 = u64::MAX;

struct Shared {
    config: DaemonConfig,
    queue: Mutex<VecDeque<Job>>,
    /// Wakes idle workers: a job was queued or a flag was raised.
    queue_cv: Condvar,
    /// Wakes the drain wait in [`DaemonHandle::shutdown`]: a worker
    /// finished a job (under the queue lock, after its `inflight`
    /// decrement).
    idle_cv: Condvar,
    /// SIGTERM/`shutdown` received: stop admitting, drain the queue.
    /// Raised under the queue lock ([`Shared::raise`]).
    draining: AtomicBool,
    /// Drain deadline passed: stop everything now. Raised under the
    /// queue lock ([`Shared::raise`]).
    stop_now: AtomicBool,
    inflight: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    panics: AtomicU64,
    failures: AtomicU64,
    cache_hits: AtomicU64,
    preemptions: AtomicU64,
    cache: ResultCache,
    /// Run ids currently being computed, each with the identical
    /// requests parked behind it — the thundering-herd guard.
    computing: Mutex<HashMap<String, Vec<Job>>>,
    /// Daemon start — the epoch of uptime and snapshot ages.
    start_at: Instant,
    /// Always-on latency histograms behind `stats`.
    latency: ServiceLatency,
    /// Uptime ms at the last persisted snapshot ([`SNAPSHOT_NEVER`] =
    /// none yet).
    last_snapshot_ms: AtomicU64,
    /// Monotone feed for daemon-assigned trace ids.
    trace_seq: AtomicU64,
    /// Parsed fabric defect map (see [`DaemonConfig::defect_map_path`]).
    defects: Option<DefectMap>,
}

impl Shared {
    /// Raises `flag` under the queue lock and wakes every worker. A
    /// worker reads the flags and waits under that lock, so it either
    /// sees the flag or is waiting when the wakeup comes. Returns the
    /// lock still held.
    fn raise(&self, flag: &AtomicBool) -> MutexGuard<'_, VecDeque<Job>> {
        let queue = self.queue.lock().unwrap();
        flag.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        queue
    }

    fn stats(&self) -> DaemonStats {
        DaemonStats {
            inflight: self.inflight.load(Ordering::Relaxed),
            queued: self.queue.lock().unwrap().len() as u64,
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            preemptions: self.preemptions.load(Ordering::Relaxed),
        }
    }

    /// The `nanomapd-stats-v1` document: fixed key order, every class
    /// and segment always present (zeroed histograms included), so
    /// consumers can diff snapshots structurally.
    fn stats_json(&self) -> JsonValue {
        let stats = self.stats();
        let counters = JsonValue::object()
            .with("served", stats.served)
            .with("shed", stats.shed)
            .with("panics", stats.panics)
            .with("failures", stats.failures)
            .with("cache_hits", stats.cache_hits)
            .with("preemptions", stats.preemptions);
        let gauges = JsonValue::object()
            .with("queue_depth", stats.queued)
            .with("inflight", stats.inflight)
            .with("workers", self.config.workers.max(1) as u64)
            .with("cache_entries", self.cache.len() as u64)
            .with("cache_bytes", self.cache.bytes());
        let mut latency = JsonValue::object();
        for (name, hist) in LATENCY_CLASSES.iter().zip(&self.latency.classes) {
            latency.set(name, hist_json(hist));
        }
        let mut segments = JsonValue::object();
        for (name, hist) in SEGMENTS.iter().zip(&self.latency.segments) {
            segments.set(name, hist_json(hist));
        }
        JsonValue::object()
            .with("schema", versions::STATS)
            .with("uptime_ms", self.uptime_ms())
            .with("version", versions::SERVICE)
            .with("draining", self.draining.load(Ordering::SeqCst))
            .with("counters", counters)
            .with("gauges", gauges)
            .with("latency_us", latency)
            .with("segments_us", segments)
    }

    fn uptime_ms(&self) -> u64 {
        self.start_at.elapsed().as_millis() as u64
    }

    /// Age of the last persisted snapshot, `None` before the first.
    fn snapshot_age_ms(&self) -> Option<u64> {
        let last = self.last_snapshot_ms.load(Ordering::Relaxed);
        (last != SNAPSHOT_NEVER).then(|| self.uptime_ms().saturating_sub(last))
    }
}

/// One histogram readout: counts, bounds and SLO percentiles.
fn hist_json(hist: &HistogramHandle) -> JsonValue {
    let snap = hist.snapshot();
    JsonValue::object()
        .with("count", snap.count)
        .with("sum", snap.sum)
        .with("max", snap.max)
        .with("mean", snap.mean())
        .with("p50", snap.percentile(50.0))
        .with("p90", snap.percentile(90.0))
        .with("p95", snap.percentile(95.0))
        .with("p99", snap.percentile(99.0))
}

/// Where the ticker persists snapshots: next to the ledger when one is
/// configured, inside the state dir otherwise.
fn stats_path(config: &DaemonConfig) -> PathBuf {
    config.ledger_path.as_ref().map_or_else(
        || config.state_dir.join("nanomapd-stats.json"),
        |ledger| {
            ledger.parent().map_or_else(
                || PathBuf::from("nanomapd-stats.json"),
                |dir| dir.join("nanomapd-stats.json"),
            )
        },
    )
}

/// Persists one crash-safe (atomic rename) snapshot and stamps its age.
fn persist_stats(shared: &Shared) {
    let doc = shared.stats_json().to_compact_string();
    if atomic_write_text(&stats_path(&shared.config), &doc).is_ok() {
        shared
            .last_snapshot_ms
            .store(shared.uptime_ms(), Ordering::Relaxed);
    }
}

/// Assigns a fresh 16-hex-digit trace id: FNV-1a over the process id,
/// a monotone counter and the wall clock, unique across restarts that
/// share a ledger.
fn next_trace_id(shared: &Shared) -> String {
    let seq = shared.trace_seq.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| (d.as_secs() << 30) ^ u64::from(d.subsec_nanos()));
    let h = Fnv1a::new()
        .u64(u64::from(std::process::id()))
        .u64(seq)
        .u64(nanos)
        .finish();
    format!("{h:016x}")
}

/// Publishes one `service` lifecycle event.
fn publish_service(
    trace: &str,
    request: &str,
    stage: &str,
    run_id: Option<&str>,
    code_name: Option<&str>,
    detail: Option<&str>,
    us: Option<u64>,
) {
    nanomap_observe::publish(|| EventKind::Service {
        trace_id: trace.to_string(),
        request: request.to_string(),
        stage: stage.to_string(),
        run_id: run_id.map(str::to_string),
        code: code_name.map(str::to_string),
        detail: detail.map(str::to_string),
        us,
    });
}

/// A running daemon: the listener, its workers, and control of both.
pub struct DaemonHandle {
    addr: String,
    shared: Arc<Shared>,
    /// Workers and the stats ticker.
    threads: Vec<std::thread::JoinHandle<()>>,
    /// The listener, blocked in `accept` until [`Listener::wake`].
    listener: std::thread::JoinHandle<()>,
    unix_socket: Option<PathBuf>,
    /// Live event capture when `events_path` is set; finished (and the
    /// bus disabled again) on shutdown.
    events: Option<EventStream>,
}

/// What a graceful shutdown achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Every admitted request was answered before the deadline: the
    /// drain wait ended with nothing queued or in flight, and nothing
    /// was shed.
    pub clean: bool,
    /// Requests shed with `shutdown` rejections at the deadline.
    pub shed_at_deadline: usize,
}

impl DaemonHandle {
    /// The bound address — with TCP port 0 this is the resolved port.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> DaemonStats {
        self.shared.stats()
    }

    /// True once a drain began — by [`Self::begin_drain`], SIGTERM, or
    /// a client `shutdown` op. The binary polls this to know when the
    /// protocol asked it to exit.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Begins a graceful drain (what SIGTERM triggers): admission stops
    /// (new maps get retryable `shutdown` rejections) while workers
    /// keep draining the queue.
    pub fn begin_drain(&self) {
        drop(self.shared.raise(&self.shared.draining));
    }

    /// Drains under a deadline, then stops: queued requests that miss
    /// the deadline are shed with `shutdown` rejections, in-flight
    /// slices run to their own expiry (their checkpoints persist). The
    /// listener, blocked in `accept`, is woken by one connection to the
    /// daemon's own address.
    pub fn shutdown(mut self, deadline: Duration) -> DrainOutcome {
        self.begin_drain();
        let shared = Arc::clone(&self.shared);
        // Wait for the queue and in-flight work to drain; every worker
        // that finishes a job wakes this wait.
        let busy =
            |q: &mut VecDeque<Job>| !q.is_empty() || shared.inflight.load(Ordering::SeqCst) > 0;
        let queue = shared.queue.lock().unwrap();
        let (queue, wait) = shared
            .idle_cv
            .wait_timeout_while(queue, deadline, busy)
            .unwrap();
        // The wait ends early only once nothing is queued or in flight.
        let drained = !wait.timed_out();
        drop(queue);
        // Shed whatever is still queued or parked behind an in-flight
        // compute — typed, retryable, honest.
        let mut leftover: Vec<Job> = shared.raise(&shared.stop_now).drain(..).collect();
        for parked in shared.computing.lock().unwrap().values_mut() {
            leftover.append(parked);
        }
        let shed_at_deadline = leftover.len();
        for job in leftover {
            job.shed_at_stop(&shared);
        }
        // A listener that cannot be woken stays blocked in `accept`:
        // detach it rather than wait on it forever.
        if Listener::wake(&self.addr).is_ok() {
            let _ = self.listener.join();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if shared.config.stats_interval_ms > 0 {
            // Final crash-safe snapshot so post-mortems see the last
            // counters even when the interval never elapsed.
            persist_stats(&shared);
        }
        if let Some(events) = self.events.take() {
            let _ = events.finish();
        }
        if let Some(path) = &self.unix_socket {
            let _ = std::fs::remove_file(path);
        }
        DrainOutcome {
            clean: drained && shed_at_deadline == 0,
            shed_at_deadline,
        }
    }
}

/// Binds the listener, spawns the workers, returns control.
///
/// # Errors
///
/// Describes bind/setup failures (address in use, unwritable state dir).
pub fn start(config: DaemonConfig) -> Result<DaemonHandle, String> {
    let cache = ResultCache::open(config.state_dir.join("cache"))?;
    std::fs::create_dir_all(config.state_dir.join("checkpoints"))
        .map_err(|e| format!("creating checkpoint root: {e}"))?;
    let events = match &config.events_path {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("creating event capture {}: {e}", path.display()))?;
            Some(EventStream::spawn(Box::new(file)))
        }
        None => None,
    };
    let defects = match &config.defect_map_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading defect map {}: {e}", path.display()))?;
            Some(
                DefectMap::parse(&text)
                    .map_err(|e| format!("defect map {}: {e}", path.display()))?,
            )
        }
        None => None,
    };
    let shared = Arc::new(Shared {
        config: config.clone(),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        idle_cv: Condvar::new(),
        draining: AtomicBool::new(false),
        stop_now: AtomicBool::new(false),
        inflight: AtomicU64::new(0),
        served: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        panics: AtomicU64::new(0),
        failures: AtomicU64::new(0),
        cache_hits: AtomicU64::new(0),
        preemptions: AtomicU64::new(0),
        cache,
        computing: Mutex::new(HashMap::new()),
        start_at: Instant::now(),
        latency: ServiceLatency::new(),
        last_snapshot_ms: AtomicU64::new(SNAPSHOT_NEVER),
        trace_seq: AtomicU64::new(0),
        defects,
    });
    let mut threads = Vec::new();
    for i in 0..config.workers.max(1) {
        threads.push(spawn(format!("nanomapd-worker-{i}"), &shared, worker_loop)?);
    }
    if config.stats_interval_ms > 0 {
        threads.push(spawn("nanomapd-ticker".into(), &shared, ticker_loop)?);
    }
    let listener = Listener::bind(&config.addr)?;
    let addr = listener.addr();
    let unix_socket = (!matches!(listener, Listener::Tcp(_))).then(|| PathBuf::from(&addr));
    let listener = spawn("nanomapd-listener".into(), &shared, move |s| {
        listen(&listener, s)
    })?;
    Ok(DaemonHandle {
        addr,
        shared,
        threads,
        listener,
        unix_socket,
        events,
    })
}

/// Spawns the daemon thread `name`, running `body` on the shared state.
fn spawn(
    name: String,
    shared: &Arc<Shared>,
    body: impl FnOnce(&Arc<Shared>) + Send + 'static,
) -> Result<std::thread::JoinHandle<()>, String> {
    let shared = Arc::clone(shared);
    let failed = |e| format!("spawning {name}: {e}");
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || body(&shared))
        .map_err(failed)
}

/// The lightweight sampling ticker: persists a `nanomapd-stats-v1`
/// snapshot every `stats_interval_ms`. Between ticks it waits on
/// `queue_cv`, which [`Shared::raise`] notifies under the queue lock
/// when it sets `stop_now`, so shutdown joins it at once.
fn ticker_loop(shared: &Arc<Shared>) {
    let interval = Duration::from_millis(shared.config.stats_interval_ms.max(1));
    loop {
        let queue = shared.queue.lock().unwrap();
        let running = |_: &mut VecDeque<Job>| !shared.stop_now.load(Ordering::SeqCst);
        let (queue, _) = shared
            .queue_cv
            .wait_timeout_while(queue, interval, running)
            .unwrap();
        drop(queue);
        if shared.stop_now.load(Ordering::SeqCst) {
            return;
        }
        persist_stats(shared);
    }
}

// ---------------------------------------------------------------------
// Listener + per-connection admission.
// ---------------------------------------------------------------------

/// The listener thread: blocks in `accept` until a client connects, and
/// exits on the first accept that sees `stop_now` (the shutdown wake).
fn listen(listener: &Listener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.stop_now.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            // Connection threads are detached: each is bounded by the
            // read timeout, so they cannot accumulate past the arrival rate.
            Ok(conn) => {
                let _ = spawn("nanomapd-conn".into(), shared, |s| {
                    handle_connection(conn, s)
                });
            }
            // A persistent failure (out of descriptors) must not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(mut conn: Conn, shared: &Arc<Shared>) {
    let arrived = Instant::now();
    let timeout = Duration::from_millis(shared.config.read_timeout_ms.max(1));
    let _ = conn.set_read_timeout(Some(timeout));
    let Ok(reader) = conn.try_clone() else {
        return;
    };
    let mut line = String::new();
    // Slow-loris guard: a client that trickles bytes (or none) gets one
    // read-timeout window for its whole request line, then the
    // connection is dropped without tying up anything but this thread.
    // This path bumps the shed counter (and records under the `shed`
    // latency class) while answering with an `invalid` wire code — the
    // client never sent a valid request to reject more precisely.
    let unparsed = if BufReader::new(reader).read_line(&mut line).is_err() || line.trim().is_empty()
    {
        Err((code::SHED, "request line not received in time".to_string()))
    } else {
        Request::parse(line.trim_end()).map_err(|detail| (code::INVALID, detail))
    };
    let request = match unparsed {
        Ok(r) => r,
        Err((class, detail)) => {
            let outcome = Outcome {
                request: "-",
                trace: &next_trace_id(shared),
                arrived,
                segments: None,
                class,
                reply: Reply::error(code::INVALID, &detail, None),
            };
            return finish(shared, conn, outcome);
        }
    };
    match request {
        Request::Ping => {
            let stats = shared.stats();
            let mut pong = JsonValue::object()
                .with("schema", nanomap::SERVICE_SCHEMA)
                .with("event", "pong")
                .with("inflight", stats.inflight)
                .with("queued", stats.queued)
                .with("served", stats.served)
                .with("uptime_ms", shared.uptime_ms())
                .with("version", versions::SERVICE)
                .with("draining", shared.draining.load(Ordering::SeqCst));
            if let Some(age) = shared.snapshot_age_ms() {
                pong.set("snapshot_age_ms", age);
            }
            let _ = send_line(&mut conn, &pong.to_compact_string());
        }
        Request::Stats => {
            let line = JsonValue::object()
                .with("schema", nanomap::SERVICE_SCHEMA)
                .with("event", "stats")
                .with("stats", shared.stats_json())
                .to_compact_string();
            let _ = send_line(&mut conn, &line);
        }
        Request::Shutdown => {
            drop(shared.raise(&shared.draining));
            let _ = send_line(&mut conn, &render_lifecycle("draining", "-", None, None));
        }
        Request::Map(map) => admit(map, arrived, conn, shared),
    }
}

/// Admission control: shed when draining, over capacity, or unbudgeted
/// past the free-admission line; otherwise enqueue with a `queued` echo.
fn admit(request: MapRequest, arrived: Instant, mut conn: Conn, shared: &Arc<Shared>) {
    let trace = request
        .trace_id
        .clone()
        .unwrap_or_else(|| next_trace_id(shared));
    let mut queue = shared.queue.lock().unwrap();
    let depth = queue.len();
    let shed = if shared.draining.load(Ordering::SeqCst) {
        let detail = "daemon is draining for shutdown".to_string();
        Some((code::SHUTDOWN, detail, 1_000))
    } else if depth >= shared.config.queue_capacity {
        let detail = format!("queue full (depth {depth})");
        Some((code::SHED, detail, retry_hint_ms(depth)))
    } else if depth >= shared.config.free_admission_depth && request.time_budget_ms.is_none() {
        let detail = format!("queue depth {depth} requires time_budget_ms");
        Some((code::SHED, detail, retry_hint_ms(depth)))
    } else {
        None
    };
    if let Some((class, detail, retry_after_ms)) = shed {
        drop(queue);
        let outcome = Outcome {
            request: &request.id,
            trace: &trace,
            arrived,
            segments: None,
            class,
            reply: Reply::error(class, &detail, Some(retry_after_ms)),
        };
        return finish(shared, conn, outcome);
    }
    // The queued echo goes out before the connection is handed to the
    // job, while this thread still owns it; best-effort (a vanished
    // client costs nothing but the eventual failed result write).
    let _ = send_line(
        &mut conn,
        &render_lifecycle("queued", &request.id, Some(depth as u64), Some(&trace)),
    );
    publish_service(&trace, &request.id, "queued", None, None, None, None);
    let budget = request.time_budget_ms;
    queue.push_back(Job {
        request,
        conn,
        attempts: 0,
        budget_left_ms: budget,
        trace,
        arrived,
        enqueued_at: Instant::now(),
        queue_us: 0,
        compute_us: 0,
        cache_us: 0,
        coalesced: false,
    });
    drop(queue);
    // `notify_all`: the ticker waits on `queue_cv` too, and a lone
    // notification could wake it instead of an idle worker.
    shared.queue_cv.notify_all();
}

/// Retry hint that grows with the depth that caused the shed.
fn retry_hint_ms(depth: usize) -> u64 {
    100 + 50 * depth as u64
}

// ---------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    let raised = |flag: &AtomicBool| flag.load(Ordering::SeqCst);
    let idle = |queue: &mut VecDeque<Job>| {
        queue.is_empty() && !raised(&shared.draining) && !raised(&shared.stop_now)
    };
    loop {
        let queue = shared.queue.lock().unwrap();
        let mut queue = shared.queue_cv.wait_while(queue, idle).unwrap();
        // Stopped, or draining with the queue empty: this worker is done.
        if raised(&shared.stop_now) {
            return;
        }
        let Some(mut job) = queue.pop_front() else {
            return;
        };
        // Inflight goes up while the queue lock is held, so "queue empty
        // && inflight == 0" can never observe a job in the gap between
        // pop and serve.
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        drop(queue);
        // Queue-wait accrues per residence: admission, parking behind
        // an identical compute and preemption re-enqueues all count.
        job.queue_us += job.enqueued_at.elapsed().as_micros() as u64;
        serve(job, shared);
        let _queue = shared.queue.lock().unwrap();
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.idle_cv.notify_all();
    }
}

/// Serves one admitted job: cache lookup, slice-bounded mapping,
/// preemption re-enqueue, typed rejections. Never panics the worker —
/// the flow runs under `catch_unwind`.
fn serve(mut job: Job, shared: &Arc<Shared>) {
    let id = job.request.id.clone();
    let trace = job.trace.clone();
    // Announced only once the job actually progresses (cache hit or
    // compute-slot claim): a parked duplicate must stay silent or the
    // client would count a resume with no matching preemption.
    let first_line = if job.attempts == 0 {
        "started"
    } else {
        "resumed"
    };

    // Resolve the design and objective; failures are client errors.
    let resolve_start = Instant::now();
    let objective = match job.request.to_objective() {
        Ok(o) => o,
        Err(detail) => return job.finish(shared, Reply::error(code::INVALID, &detail, None)),
    };
    // The one flow this request maps with; its run id covers the
    // fabric, so a restart on another defect map never replays results
    // computed for this one. Designs expand to the fabric's LUT size.
    let mut flow = NanoMap::new(ArchParams::paper_unbounded());
    let net = match job.request.source.load(flow.arch.lut_inputs) {
        Ok(net) => net,
        Err(detail) => {
            job.compute_us += resolve_start.elapsed().as_micros() as u64;
            return job.finish(shared, Reply::error(code::INVALID, &detail, None));
        }
    };
    if let Some(map) = &shared.defects {
        flow = flow.with_defects(map.clone());
    }
    if shared.config.exact_recovery {
        flow = flow.with_exact_recovery();
    }
    let run_id = flow.run_id(&net, objective);
    job.compute_us += resolve_start.elapsed().as_micros() as u64;

    // Cache: identical request (fingerprint + objective + seeds +
    // fabric) → byte-identical replay, no mapping run.
    let cache_start = Instant::now();
    let cached = shared.cache.load(&run_id);
    job.cache_us += cache_start.elapsed().as_micros() as u64;
    if let Some(report) = cached {
        publish_service(&trace, &id, "cache-hit", Some(&run_id), None, None, None);
        let _ = send_line(
            &mut job.conn,
            &render_lifecycle(first_line, &id, None, Some(&trace)),
        );
        shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        return job.finish(
            shared,
            Reply::Ok {
                run_id: &run_id,
                cache: "hit",
                report: &report,
            },
        );
    }

    // Thundering-herd guard: a second identical request arriving while
    // the first is still computing parks behind it, off every worker,
    // and is then served from the cache, byte-identical, instead of
    // burning a worker on a duplicate mapping.
    let Some((_slot, mut job)) = ComputeSlot::claim(shared, &run_id, job) else {
        return;
    };
    publish_service(&trace, &id, first_line, Some(&run_id), None, None, None);
    let _ = send_line(
        &mut job.conn,
        &render_lifecycle(first_line, &id, None, Some(&trace)),
    );

    // Slice sizing: exponential growth per preemption guarantees
    // forward progress even when early slices expire inside one phase.
    let slice_ms = shared
        .config
        .preempt_slice_ms
        .map(|s| s.saturating_mul(1 << job.attempts.min(10)));
    let effective_ms = match (slice_ms, job.budget_left_ms) {
        (Some(s), Some(b)) => Some(s.min(b)),
        (Some(s), None) => Some(s),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    };
    let ckpt_dir = shared.config.state_dir.join("checkpoints").join(&run_id);
    flow = flow.with_checkpoint_dir(&ckpt_dir);
    if let Some(ms) = effective_ms {
        flow = flow.with_budget_ms(ms);
    }
    let ckpt_path = ckpt_dir.join(checkpoint_file_name(net.name()));
    // Resume from a prior slice's snapshot when one loads cleanly; a
    // torn checkpoint (killed daemon) silently falls back to fresh —
    // the next slice rewrites it atomically.
    let resume_from = (job.attempts > 0)
        .then(|| Checkpoint::load(&ckpt_path).ok())
        .flatten();
    let slice_start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if failpoint::should_fail("daemon.worker.panic") {
            panic!("failpoint daemon.worker.panic fired");
        }
        match &resume_from {
            Some(ckpt) => match flow.map_resume(&net, objective, ckpt) {
                // A checkpoint the validator refuses (stale run id
                // collision, architecture drift) is discarded, not fatal.
                Err(FlowError::Checkpoint(_)) => flow.map(&net, objective),
                other => other,
            },
            None => flow.map(&net, objective),
        }
    }));
    let elapsed_ms = slice_start.elapsed().as_millis() as u64;
    job.compute_us += slice_start.elapsed().as_micros() as u64;
    match outcome {
        Err(_) => job.finish(
            shared,
            Reply::error(
                code::PANIC,
                "worker panicked mapping this request; daemon unaffected",
                None,
            ),
        ),
        Ok(Ok(report)) => {
            let degraded = report.degraded;
            let record = shared.config.ledger_path.as_ref().map(|_| {
                let mut record = RunRecord::for_run(&report, &flow, objective, run_id.clone(), 0);
                record.trace_id = Some(trace.clone());
                record
            });
            let report_text = report.to_json().to_compact_string();
            if !degraded {
                let cache_start = Instant::now();
                shared
                    .cache
                    .store(&run_id, net.name(), &objective.key(), &report_text);
                job.cache_us += cache_start.elapsed().as_micros() as u64;
            }
            if let (Some(ledger), Some(record)) = (&shared.config.ledger_path, record) {
                if let Err(e) = append_run(ledger, &record) {
                    eprintln!("nanomapd: ledger append for {run_id} failed: {e}");
                }
            }
            let reply = Reply::Ok {
                run_id: &run_id,
                cache: "miss",
                report: &report_text,
            };
            job.finish(shared, reply);
        }
        Ok(Err(FlowError::BudgetExhausted { .. })) => {
            // Spend the slice against the request budget; preempt while
            // budget remains, reject with the typed budget code once
            // it is gone.
            let budget_left = job
                .budget_left_ms
                .map(|b| b.saturating_sub(elapsed_ms.max(1)));
            if budget_left == Some(0) {
                let detail = "time budget exhausted before a complete mapping";
                return job.finish(shared, Reply::error(code::BUDGET, detail, None));
            }
            job.budget_left_ms = budget_left;
            job.attempts += 1;
            shared.preemptions.fetch_add(1, Ordering::Relaxed);
            publish_service(
                &trace,
                &id,
                "preempted",
                Some(&run_id),
                None,
                None,
                Some(elapsed_ms.saturating_mul(1_000)),
            );
            let _ = send_line(
                &mut job.conn,
                &render_lifecycle("preempted", &id, None, Some(&trace)),
            );
            if shared.draining.load(Ordering::SeqCst) || shared.stop_now.load(Ordering::SeqCst) {
                // Shutting down: the checkpoint persists for the next
                // daemon; the client gets a retryable rejection.
                let detail = "preempted by shutdown; resume checkpoint persisted";
                return job.finish(shared, Reply::error(code::SHUTDOWN, detail, Some(1_000)));
            }
            job.enqueued_at = Instant::now();
            shared.queue.lock().unwrap().push_back(job);
            shared.queue_cv.notify_all();
        }
        Ok(Err(err)) => job.finish(shared, Reply::error(code::FAILED, &err.to_string(), None)),
    }
}

/// Ownership of "this worker computes run X": claimed before a mapping
/// run, released on every exit path by `Drop` (including panics caught
/// by the worker's `catch_unwind`). Release re-queues the requests
/// parked behind it. It drops inside [`serve`], before the worker's
/// `inflight` decrement, so "queue empty && inflight == 0" still means
/// drained.
struct ComputeSlot<'a> {
    shared: &'a Shared,
    run_id: String,
}

impl<'a> ComputeSlot<'a> {
    /// Claims `run_id` for `job`, or parks `job` behind the request
    /// already computing it (`None`). A parked job publishes one
    /// `coalesced` event, and its wait accrues as queue-wait.
    fn claim(shared: &'a Shared, run_id: &str, mut job: Job) -> Option<(Self, Job)> {
        let mut computing = shared.computing.lock().unwrap();
        if let Some(parked) = computing.get_mut(run_id) {
            if !job.coalesced {
                job.coalesced = true;
                let (trace, id) = (&job.trace, &job.request.id);
                publish_service(trace, id, "coalesced", Some(run_id), None, None, None);
            }
            job.enqueued_at = Instant::now();
            parked.push(job);
            return None;
        }
        computing.insert(run_id.to_string(), Vec::new());
        let run_id = run_id.to_string();
        Some((Self { shared, run_id }, job))
    }
}

impl Drop for ComputeSlot<'_> {
    /// Appends the parked jobs to the back of the queue, behind a
    /// preempted owner that already re-queued itself; once the daemon
    /// stops they are shed like the deadline's leftovers.
    fn drop(&mut self) {
        let shared = self.shared;
        let parked = shared.computing.lock().unwrap().remove(&self.run_id);
        let parked = parked.unwrap_or_default();
        if parked.is_empty() {
            return;
        }
        let mut queue = shared.queue.lock().unwrap();
        if !shared.stop_now.load(Ordering::SeqCst) {
            queue.extend(parked);
            shared.queue_cv.notify_all();
            return;
        }
        drop(queue);
        for job in parked {
            job.shed_at_stop(shared);
        }
    }
}

/// The final line a request gets.
enum Reply<'a> {
    /// A mapping result: `cache` is `hit` or `miss`, `report` the
    /// report JSON spliced in verbatim.
    Ok {
        run_id: &'a str,
        cache: &'static str,
        report: &'a str,
    },
    /// A typed rejection.
    Error {
        code: &'a str,
        detail: &'a str,
        retry_after_ms: Option<u64>,
    },
}

impl<'a> Reply<'a> {
    fn error(code: &'a str, detail: &'a str, retry_after_ms: Option<u64>) -> Self {
        Self::Error {
            code,
            detail,
            retry_after_ms,
        }
    }

    /// The result code: `ok` or the rejection code.
    fn code(&self) -> &'a str {
        match self {
            Self::Ok { .. } => "ok",
            Self::Error { code, .. } => code,
        }
    }
}

/// How a request ended, for [`finish`].
struct Outcome<'a> {
    /// Client request id (`-` when the request line never parsed).
    request: &'a str,
    trace: &'a str,
    arrived: Instant,
    /// Queue, compute and cache segments in µs, once the request was
    /// admitted as a job.
    segments: Option<[u64; 3]>,
    /// Accounting class (`ok` or a rejection code): picks the counter
    /// and the latency histogram. It is the reply's code, except for a
    /// slow-loris drop, which counts as `shed` but answers `invalid`.
    class: &'a str,
    reply: Reply<'a>,
}

/// Records a request's terminal outcome; every final reply goes
/// through here. The class counter is bumped before the reply is
/// written, so a client holding its reply is already counted. Latency
/// (the segments too, for a job) is recorded after the write, so it
/// includes serialize time. Last comes the `service` event: `shed` for
/// a request shed before it became a job, `completed` otherwise.
fn finish(shared: &Shared, mut conn: Conn, outcome: Outcome<'_>) {
    let Outcome { request, trace, .. } = outcome;
    let counter = match outcome.class {
        "ok" => &shared.served,
        code::SHED | code::SHUTDOWN => &shared.shed,
        code::PANIC => &shared.panics,
        _ => &shared.failures,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    let serialize_start = Instant::now();
    let (line, run_id, detail) = match outcome.reply {
        Reply::Ok {
            run_id,
            cache,
            report,
        } => (
            render_ok_result(request, run_id, cache, trace, report),
            Some(run_id),
            (cache == "hit").then_some("cache hit"),
        ),
        Reply::Error {
            code,
            detail,
            retry_after_ms,
        } => (
            render_error_result(request, code, detail, retry_after_ms, Some(trace)),
            None,
            Some(detail),
        ),
    };
    let _ = send_line(&mut conn, &line);
    let serialize_us = serialize_start.elapsed().as_micros() as u64;
    if let Some([queue, compute, cache]) = outcome.segments {
        let segments = [queue, compute, cache, serialize_us];
        for (hist, us) in shared.latency.segments.iter().zip(segments) {
            hist.record_always(us);
        }
    }
    let us = outcome.arrived.elapsed().as_micros() as u64;
    shared.latency.class(outcome.class).record_always(us);
    let stage = match outcome.class {
        code::SHED | code::SHUTDOWN if outcome.segments.is_none() => "shed",
        _ => "completed",
    };
    let code = Some(outcome.reply.code());
    publish_service(trace, request, stage, run_id, code, detail, Some(us));
}

impl Job {
    /// Ends the job through [`finish`], accounted under its reply code.
    fn finish(self, shared: &Shared, reply: Reply<'_>) {
        let outcome = Outcome {
            request: &self.request.id,
            trace: &self.trace,
            arrived: self.arrived,
            segments: Some([self.queue_us, self.compute_us, self.cache_us]),
            class: reply.code(),
            reply,
        };
        finish(shared, self.conn, outcome);
    }

    /// Sheds a job the stop left unserved with a retryable `shutdown`
    /// rejection. Queue-wait accrues up to the moment of the shed, so
    /// these sheds stay visible in the segment histograms.
    fn shed_at_stop(mut self, shared: &Shared) {
        self.queue_us += self.enqueued_at.elapsed().as_micros() as u64;
        let detail = "daemon stopped before this request ran";
        self.finish(shared, Reply::error(code::SHUTDOWN, detail, Some(1_000)));
    }
}

/// Writes one protocol line. The `socket.write` failpoint simulates a
/// client that vanished mid-response.
fn send_line(conn: &mut dyn Write, line: &str) -> std::io::Result<()> {
    failpoint::inject_io("socket.write")?;
    conn.write_all(line.as_bytes())?;
    conn.write_all(b"\n")?;
    conn.flush()
}

/// Exit codes the `nanomapd` binary documents and tests rely on.
pub mod exit {
    /// Clean shutdown: every admitted request was answered before the
    /// deadline.
    pub const CLEAN: u8 = 0;
    /// Drained under protest: the deadline passed with requests still
    /// queued (shed) or running (answered after it).
    pub const DEGRADED: u8 = 4;
}

/// The wire protocol, re-exported so daemon users need only this crate.
pub use nanomap::service as protocol;
