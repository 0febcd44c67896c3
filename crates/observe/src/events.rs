//! Structured `nanomap-events-v1` event bus.
//!
//! A process-wide, bounded queue of typed flow events: run lifecycle,
//! phase boundaries (published by the collector as spans open and
//! close), fractional progress from the kernels' [`progress`] hook at
//! the same iteration boundaries the budget system polls, counter
//! deltas, degradations, recovery-ladder attempts and checkpoint
//! writes. Consumers either [`drain_events`] directly or attach an
//! [`EventStream`] that forwards events as NDJSON lines to any writer
//! (a file, stdout, a socket) on a background thread.
//!
//! Design constraints, in order:
//!
//! 1. **Never block the flow.** [`publish`] takes a closure, so while
//!    the bus is disabled an event costs one relaxed atomic load and is
//!    never built; enabled, it is a short mutex push. When the
//!    queue is full, low-priority events (progress, counter deltas) are
//!    dropped silently and counted; lifecycle events evict the oldest
//!    low-priority event instead so run structure survives slow
//!    consumers.
//! 2. **Monotonic order.** Sequence numbers come from one process-wide
//!    atomic, so the merged stream is globally ordered and each thread's
//!    subsequence is strictly monotonic.
//! 3. **Broken sinks degrade, never fail.** A write error on the stream
//!    (EPIPE from `--live-status - | head`, a full disk) logs one warning
//!    and the stream keeps draining to the void so the queue cannot
//!    back up.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::collector;
use crate::json::JsonValue;

/// Format tag embedded in every run-start event and NDJSON header line.
pub const EVENTS_SCHEMA: &str = "nanomap-events-v1";

/// Queue capacity; beyond this, low-priority events are dropped (counted
/// in [`dropped_events`]) rather than blocking or growing without bound.
pub const EVENT_QUEUE_CAPACITY: usize = 8192;

static EVENTS_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn queue() -> &'static Mutex<VecDeque<Event>> {
    static QUEUE: OnceLock<Mutex<VecDeque<Event>>> = OnceLock::new();
    QUEUE.get_or_init(|| Mutex::new(VecDeque::new()))
}

fn lock() -> std::sync::MutexGuard<'static, VecDeque<Event>> {
    queue()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Enables or disables the event bus. Disabled (the default), every
/// publisher is a no-op costing one relaxed atomic load, and artifacts
/// stay byte-identical to an uninstrumented run.
pub fn set_events_enabled(on: bool) {
    EVENTS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the event bus is currently accepting events.
#[inline]
pub(crate) fn events_enabled() -> bool {
    EVENTS_ENABLED.load(Ordering::Relaxed)
}

/// Number of events dropped so far because the queue was full.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Clears the queue and the drop counter (sequence numbers keep
/// climbing — they are monotonic for the life of the process). For
/// tests and multi-run drivers.
pub fn reset_events() {
    lock().clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// One typed flow event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Process-wide monotonic sequence number (1-based).
    pub seq: u64,
    /// Microseconds since the collector epoch.
    pub t_us: u64,
    /// Ordinal of the publishing thread (see [`crate::thread_ordinal`]).
    pub tid: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary of `nanomap-events-v1`.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A mapping run began.
    RunStart {
        /// Stable id derived from netlist fingerprint + objective + seeds.
        run_id: String,
        /// Circuit (netlist) name.
        circuit: String,
        /// Objective key, e.g. `min-at`.
        objective: String,
        /// Placement seed.
        place_seed: u64,
        /// Routing seed.
        route_seed: u64,
    },
    /// A span opened (phase or sub-operation).
    PhaseStart {
        /// Span name.
        phase: &'static str,
        /// Nesting depth on the publishing thread (roots are 0).
        depth: u32,
    },
    /// Fraction-complete estimate from an iteration boundary.
    PhaseProgress {
        /// Span name of the publishing phase.
        phase: &'static str,
        /// Iterations completed so far.
        completed: u64,
        /// Total iterations when known in advance.
        total: Option<u64>,
        /// Fraction complete in `[0, 1]`.
        fraction: f64,
        /// Phase-specific figure of merit (best force, cost, overuse…).
        metric: f64,
    },
    /// A span closed.
    PhaseEnd {
        /// Span name.
        phase: &'static str,
        /// Nesting depth on the publishing thread.
        depth: u32,
        /// Wall-clock duration in microseconds.
        duration_us: u64,
    },
    /// Counter deltas accumulated while a span was open (only counters
    /// prefixed with the span's name, only non-zero deltas).
    Counters {
        /// Span name the deltas are attributed to.
        phase: &'static str,
        /// `(counter name, delta)` pairs.
        deltas: Vec<(&'static str, u64)>,
    },
    /// A phase gave up early under a time budget and returned its
    /// best-so-far result.
    Degraded {
        /// Phase that degraded.
        phase: String,
        /// Human-readable reason.
        reason: String,
        /// Iterations completed before the cut.
        completed_iterations: u64,
    },
    /// The recovery ladder retried after a mapping error.
    Recovery {
        /// 1-based attempt number.
        attempt: u64,
        /// Candidate index being retried.
        candidate: usize,
        /// Remedy applied, e.g. `reseed`.
        remedy: String,
        /// Phase that failed.
        phase: String,
        /// The error that triggered the retry.
        error: String,
        /// Wall-clock the attempt burned, in milliseconds.
        wall_ms: f64,
    },
    /// A crash-safe checkpoint was written.
    Checkpoint {
        /// Flow phase the checkpoint captures.
        phase: String,
        /// Path the checkpoint landed at.
        path: String,
    },
    /// A daemon request-lifecycle transition (`nanomapd` tracing): one
    /// event per admission/queue/slice/cache/response stage, all stamped
    /// with the request-scoped trace id so a single request's timeline —
    /// preemption slices and coalesced followers included — can be
    /// reconstructed from the stream.
    Service {
        /// Request-scoped trace id (client-propagated or server-assigned).
        trace_id: String,
        /// Client request id echoed from the wire.
        request: String,
        /// Lifecycle stage: `queued`, `shed`, `started`, `resumed`,
        /// `cache-hit`, `coalesced`, `preempted` or `completed`.
        stage: String,
        /// Flight-recorder id of the serving run, once resolved.
        run_id: Option<String>,
        /// Terminal result code (`ok` or a typed rejection), on
        /// `completed`/`shed` stages.
        code: Option<String>,
        /// Human-readable detail (queue depth, rejection reason, …).
        detail: Option<String>,
        /// Stage duration — or end-to-end latency on `completed` —
        /// in microseconds.
        us: Option<u64>,
    },
    /// The run finished (successfully or not).
    RunEnd {
        /// Same id the run-start carried.
        run_id: String,
        /// `ok`, `degraded`, `budget-exhausted`, `recovery-exhausted`
        /// or `error`.
        status: String,
        /// Process exit code the CLI maps this outcome to.
        exit_code: i32,
        /// Per-phase wall-clock totals in milliseconds, mirroring
        /// `phase_times` in the metrics artifact.
        phase_ms: Vec<(String, f64)>,
        /// End-to-end wall-clock in milliseconds.
        total_ms: f64,
    },
}

impl EventKind {
    /// Stable kind discriminant used as the `"kind"` JSON field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RunStart { .. } => "run-start",
            EventKind::PhaseStart { .. } => "phase-start",
            EventKind::PhaseProgress { .. } => "phase-progress",
            EventKind::PhaseEnd { .. } => "phase-end",
            EventKind::Counters { .. } => "counters",
            EventKind::Degraded { .. } => "degraded",
            EventKind::Recovery { .. } => "recovery-attempt",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::Service { .. } => "service",
            EventKind::RunEnd { .. } => "run-end",
        }
    }

    /// Low-priority events may be dropped under backpressure; lifecycle
    /// events evict a low-priority one instead.
    fn low_priority(&self) -> bool {
        matches!(
            self,
            EventKind::PhaseProgress { .. } | EventKind::Counters { .. }
        )
    }
}

impl Event {
    /// Serializes the event as one flat JSON object (the NDJSON line
    /// format of `nanomap-events-v1`).
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object()
            .with("seq", self.seq)
            .with("t_us", self.t_us)
            .with("tid", self.tid)
            .with("kind", self.kind.name());
        match &self.kind {
            EventKind::RunStart {
                run_id,
                circuit,
                objective,
                place_seed,
                route_seed,
            } => {
                obj.set("schema", EVENTS_SCHEMA);
                obj.set("run_id", run_id.as_str());
                obj.set("circuit", circuit.as_str());
                obj.set("objective", objective.as_str());
                obj.set("place_seed", *place_seed);
                obj.set("route_seed", *route_seed);
            }
            EventKind::PhaseStart { phase, depth } => {
                obj.set("phase", *phase);
                obj.set("depth", *depth);
            }
            EventKind::PhaseProgress {
                phase,
                completed,
                total,
                fraction,
                metric,
            } => {
                obj.set("phase", *phase);
                obj.set("completed", *completed);
                if let Some(total) = total {
                    obj.set("total", *total);
                }
                obj.set("fraction", *fraction);
                obj.set("metric", *metric);
            }
            EventKind::PhaseEnd {
                phase,
                depth,
                duration_us,
            } => {
                obj.set("phase", *phase);
                obj.set("depth", *depth);
                obj.set("duration_us", *duration_us);
            }
            EventKind::Counters { phase, deltas } => {
                obj.set("phase", *phase);
                let mut map = JsonValue::object();
                for (name, delta) in deltas {
                    map.set(name, *delta);
                }
                obj.set("deltas", map);
            }
            EventKind::Degraded {
                phase,
                reason,
                completed_iterations,
            } => {
                obj.set("phase", phase.as_str());
                obj.set("reason", reason.as_str());
                obj.set("completed_iterations", *completed_iterations);
            }
            EventKind::Recovery {
                attempt,
                candidate,
                remedy,
                phase,
                error,
                wall_ms,
            } => {
                obj.set("attempt", *attempt);
                obj.set("candidate", *candidate);
                obj.set("remedy", remedy.as_str());
                obj.set("phase", phase.as_str());
                obj.set("error", error.as_str());
                obj.set("wall_ms", *wall_ms);
            }
            EventKind::Checkpoint { phase, path } => {
                obj.set("phase", phase.as_str());
                obj.set("path", path.as_str());
            }
            EventKind::Service {
                trace_id,
                request,
                stage,
                run_id,
                code,
                detail,
                us,
            } => {
                obj.set("trace_id", trace_id.as_str());
                obj.set("request", request.as_str());
                obj.set("stage", stage.as_str());
                if let Some(run_id) = run_id {
                    obj.set("run_id", run_id.as_str());
                }
                if let Some(code) = code {
                    obj.set("code", code.as_str());
                }
                if let Some(detail) = detail {
                    obj.set("detail", detail.as_str());
                }
                if let Some(us) = us {
                    obj.set("us", *us);
                }
            }
            EventKind::RunEnd {
                run_id,
                status,
                exit_code,
                phase_ms,
                total_ms,
            } => {
                obj.set("run_id", run_id.as_str());
                obj.set("status", status.as_str());
                obj.set("exit_code", i64::from(*exit_code));
                let mut phases = JsonValue::object();
                for (name, ms) in phase_ms {
                    phases.set(name, *ms);
                }
                obj.set("phase_ms", phases);
                obj.set("total_ms", *total_ms);
            }
        }
        obj
    }
}

/// Publishes the event `kind` builds, stamped with the sequence number,
/// timestamp and thread ordinal. While the bus is disabled `kind` is
/// never called, so callers need no guard of their own.
pub fn publish(kind: impl FnOnce() -> EventKind) {
    if !events_enabled() {
        return;
    }
    let kind = kind();
    let event = Event {
        seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        t_us: collector::since_epoch_us(Instant::now()),
        tid: collector::thread_ordinal(),
        kind,
    };
    let mut q = lock();
    if q.len() >= EVENT_QUEUE_CAPACITY {
        if event.kind.low_priority() {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Lifecycle events matter for stream structure: make room by
        // evicting the oldest droppable event; if the queue is all
        // lifecycle (pathological), drop the incoming one.
        if let Some(pos) = q.iter().position(|e| e.kind.low_priority()) {
            q.remove(pos);
            DROPPED.fetch_add(1, Ordering::Relaxed);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    q.push_back(event);
}

/// How far a kernel's iterations reach, as [`progress`] reports it.
#[derive(Debug, Clone, Copy)]
pub enum Extent {
    /// The iteration count is known; the fraction is derived from it.
    Total(u64),
    /// The kernel's own estimate of the fraction complete.
    Fraction(f64),
}

/// The progress hook of an iterative kernel, called once per iteration
/// boundary with the iteration index `x` and the figure of merit `y`.
/// `series` names the kernel's convergence series (`fds.best_force`);
/// while the collector is on, `(x, y)` is appended to it. A bare phase
/// name (`pack`) records no series. While the bus is on, a
/// `phase-progress` event goes out for the phase (the series name up to
/// its first `.`) with `completed = x + 1` and `metric = y`. Disabled,
/// the hook costs two relaxed atomic loads.
pub fn progress(series: &'static str, x: u64, y: f64, extent: Extent) {
    if collector::enabled() && series.contains('.') {
        collector::series(series).record(x, y);
    }
    publish(|| {
        let completed = x + 1;
        let (total, fraction) = match extent {
            Extent::Total(0) => (Some(0), 1.0),
            Extent::Total(t) => (Some(t), completed as f64 / t as f64),
            Extent::Fraction(f) => (None, f),
        };
        EventKind::PhaseProgress {
            phase: series.split_once('.').map_or(series, |(phase, _)| phase),
            completed,
            total,
            fraction: fraction.clamp(0.0, 1.0),
            metric: y,
        }
    });
}

/// Drains every queued event, oldest first.
pub fn drain_events() -> Vec<Event> {
    lock().drain(..).collect()
}

/// Statistics returned by [`EventStream::finish`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// NDJSON lines successfully written.
    pub written: u64,
    /// Events dropped by the bounded queue while the stream was live.
    pub dropped: u64,
    /// Whether the sink failed (EPIPE, full disk…) and later events
    /// were discarded.
    pub sink_broken: bool,
}

/// Background NDJSON forwarder: drains the event bus every few
/// milliseconds and writes one compact-JSON line per event to the
/// supplied sink. Never blocks publishers; a broken sink degrades to a
/// single stderr warning.
pub struct EventStream {
    stop: std::sync::Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<StreamStats>>,
}

impl EventStream {
    /// Spawns the forwarder thread. Also enables the event bus.
    pub fn spawn(mut sink: Box<dyn Write + Send>) -> Self {
        set_events_enabled(true);
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop_flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("nanomap-events".into())
            .spawn(move || {
                let mut stats = StreamStats::default();
                loop {
                    let stopping = stop_flag.load(Ordering::Relaxed);
                    let batch = drain_events();
                    if !batch.is_empty() && !stats.sink_broken {
                        let mut buf = String::new();
                        for event in &batch {
                            buf.push_str(&event.to_json().to_compact_string());
                            buf.push('\n');
                        }
                        let outcome = sink.write_all(buf.as_bytes()).and_then(|()| sink.flush());
                        match outcome {
                            Ok(()) => stats.written += batch.len() as u64,
                            Err(e) => {
                                stats.sink_broken = true;
                                eprintln!(
                                    "warning: live-status sink closed ({e}); \
                                     continuing without streaming"
                                );
                            }
                        }
                    }
                    if stopping {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                stats.dropped = dropped_events();
                stats
            })
            .inspect_err(|e| {
                eprintln!("warning: event stream thread failed to start ({e}); continuing without streaming");
                set_events_enabled(false);
            })
            .ok();
        Self { stop, handle }
    }

    /// Flushes remaining events, stops the forwarder and returns its
    /// statistics. Also disables the event bus.
    pub fn finish(mut self) -> StreamStats {
        self.shutdown()
    }

    fn shutdown(&mut self) -> StreamStats {
        let Some(handle) = self.handle.take() else {
            return StreamStats::default();
        };
        self.stop.store(true, Ordering::Relaxed);
        let stats = handle.join().unwrap_or_default();
        set_events_enabled(false);
        stats
    }
}

impl Drop for EventStream {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for EventStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStream")
            .field("running", &self.handle.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bus is process-global; tests that enable it must not overlap.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_bus_drops_everything_for_free() {
        let _guard = serial();
        reset_events();
        set_events_enabled(false);
        publish(|| EventKind::PhaseStart {
            phase: "noop",
            depth: 0,
        });
        progress("noop", 0, 0.0, Extent::Total(2));
        assert!(drain_events().is_empty());
        assert_eq!(dropped_events(), 0);
    }

    #[test]
    fn progress_derives_and_clamps_fraction() {
        let _guard = serial();
        reset_events();
        set_events_enabled(true);
        progress("p", 4, 1.5, Extent::Total(10));
        progress("p", 29, 0.0, Extent::Total(10)); // over-complete clamps
        progress("p", 0, 0.0, Extent::Fraction(7.0)); // explicit estimate clamps
        set_events_enabled(false);
        let events = drain_events();
        let fractions: Vec<f64> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::PhaseProgress {
                    phase: "p",
                    fraction,
                    ..
                } => Some(*fraction),
                _ => None,
            })
            .collect();
        assert_eq!(fractions, vec![0.5, 1.0, 1.0]);
    }

    #[test]
    fn backpressure_drops_low_priority_and_keeps_lifecycle() {
        let _guard = serial();
        reset_events();
        set_events_enabled(true);
        for i in 0..EVENT_QUEUE_CAPACITY + 10 {
            progress("flood", i as u64, 0.0, Extent::Fraction(0.5));
        }
        // Other tests' spans may also publish while the bus is up, so
        // bound rather than pin the counts.
        assert!(dropped_events() >= 10);
        // A lifecycle event still gets in by evicting a progress event.
        publish(|| EventKind::PhaseEnd {
            phase: "flood",
            depth: 0,
            duration_us: 1,
        });
        set_events_enabled(false);
        let events = drain_events();
        assert!(events.len() <= EVENT_QUEUE_CAPACITY);
        assert!(events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::PhaseEnd { phase: "flood", .. })));
        reset_events();
        assert_eq!(dropped_events(), 0);
    }

    #[test]
    fn concurrent_publishers_stay_monotonic_per_thread_and_nest() {
        let _guard = serial();
        reset_events();
        set_events_enabled(true);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..50 {
                        publish(|| EventKind::PhaseStart {
                            phase: "evt-outer",
                            depth: 0,
                        });
                        publish(|| EventKind::PhaseStart {
                            phase: "evt-inner",
                            depth: 1,
                        });
                        progress("evt-inner", 0, 0.0, Extent::Total(2));
                        publish(|| EventKind::PhaseEnd {
                            phase: "evt-inner",
                            depth: 1,
                            duration_us: 1,
                        });
                        publish(|| EventKind::PhaseEnd {
                            phase: "evt-outer",
                            depth: 0,
                            duration_us: 2,
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        set_events_enabled(false);
        // Other tests may publish onto the shared bus; keep only this
        // test's events (all use an `evt-` phase prefix).
        let events: Vec<Event> = drain_events()
            .into_iter()
            .filter(|e| {
                matches!(
                    &e.kind,
                    EventKind::PhaseStart { phase, .. }
                    | EventKind::PhaseEnd { phase, .. }
                    | EventKind::PhaseProgress { phase, .. }
                        if phase.starts_with("evt-")
                )
            })
            .collect();
        assert_eq!(events.len(), 4 * 50 * 5);
        // Per-thread: sequence numbers strictly increase and
        // phase-start/phase-end nest, even after the global merge.
        let mut last_seq: std::collections::BTreeMap<u32, u64> = Default::default();
        let mut stacks: std::collections::BTreeMap<u32, Vec<&'static str>> = Default::default();
        for e in &events {
            if let Some(&prev) = last_seq.get(&e.tid) {
                assert!(e.seq > prev, "tid {} went {} -> {}", e.tid, prev, e.seq);
            }
            last_seq.insert(e.tid, e.seq);
            match &e.kind {
                EventKind::PhaseStart { phase, .. } => {
                    stacks.entry(e.tid).or_default().push(phase);
                }
                EventKind::PhaseEnd { phase, .. } => {
                    assert_eq!(stacks.entry(e.tid).or_default().pop(), Some(*phase));
                }
                _ => {}
            }
        }
        assert!(stacks.values().all(Vec::is_empty));
        assert_eq!(last_seq.len(), 4, "expected one lane per thread");
    }

    /// A sink that fails every write, standing in for EPIPE.
    struct BrokenSink;
    impl Write for BrokenSink {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[derive(Clone, Default)]
    struct SharedSink(std::sync::Arc<Mutex<Vec<u8>>>);
    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_forwards_ndjson_lines() {
        let _guard = serial();
        reset_events();
        let sink = SharedSink::default();
        let stream = EventStream::spawn(Box::new(sink.clone()));
        publish(|| EventKind::PhaseStart {
            phase: "streamed",
            depth: 0,
        });
        publish(|| EventKind::PhaseEnd {
            phase: "streamed",
            depth: 0,
            duration_us: 3,
        });
        let stats = stream.finish();
        assert!(stats.written >= 2);
        assert!(!stats.sink_broken);
        assert!(!events_enabled(), "finish() must disable the bus");
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        // Foreign tests may also stream lines; count only ours.
        let streamed = text
            .lines()
            .map(|line| crate::json::parse(line).unwrap())
            .filter(|v| v.get("phase").and_then(JsonValue::as_str) == Some("streamed"))
            .count();
        assert_eq!(streamed, 2);
    }

    #[test]
    fn broken_sink_degrades_without_failing() {
        let _guard = serial();
        reset_events();
        let stream = EventStream::spawn(Box::new(BrokenSink));
        publish(|| EventKind::PhaseStart {
            phase: "doomed",
            depth: 0,
        });
        publish(|| EventKind::PhaseEnd {
            phase: "doomed",
            depth: 0,
            duration_us: 1,
        });
        let stats = stream.finish();
        assert!(stats.sink_broken);
        assert_eq!(stats.written, 0);
    }
}
