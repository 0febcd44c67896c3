//! Chaos suite: the daemon under deliberate abuse.
//!
//! Every scenario the robustness envelope advertises is exercised here:
//! `kill -9` mid-flight, torn cache entries, suppressed cache writes,
//! slow-loris clients, admission floods, worker panics, preemption with
//! checkpoint resume, and graceful drain. Tests that arm process-global
//! failpoints (or depend on their absence) serialize on one mutex.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use nanomap::service::{code, MapRequest, Response};
use nanomap::{submit_with_retry, RetryPolicy, Submission};
use nanomap_daemon::{start, DaemonConfig, DaemonHandle};
use nanomap_observe::failpoint;
use nanomap_observe::{json, FailMode, JsonValue};

/// Serializes the whole suite: failpoints are process-global, so one
/// test's armed fault must never leak into another's daemon.
fn suite_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    failpoint::disarm_all();
    guard
}

fn design_path() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../designs/accumulator.vhd")
        .to_string_lossy()
        .into_owned()
}

/// A 32-stage adder chain (~1 s to map, vs sub-millisecond for the
/// accumulator): slow enough for time slices and budgets to expire
/// mid-flow, which the preemption and budget tests depend on.
fn heavy_design_path() -> String {
    static PATH: OnceLock<String> = OnceLock::new();
    PATH.get_or_init(|| {
        let stages = 32;
        let mut text = String::from(
            "entity chain is\n  port ( x : in std_logic_vector(31 downto 0);\n         \
             k : in std_logic_vector(31 downto 0);\n         \
             y : out std_logic_vector(31 downto 0) );\nend chain;\n\
             architecture rtl of chain is\n",
        );
        for i in 0..stages {
            text.push_str(&format!(
                "  signal s{i} : std_logic_vector(31 downto 0);\n  signal c{i} : std_logic;\n"
            ));
        }
        text.push_str("begin\n");
        let mut prev = "x".to_string();
        for i in 0..stages {
            text.push_str(&format!(
                "  u{i}: add generic map (width => 32) port map \
                 (a => {prev}, b => k, cin => '0', sum => s{i}, cout => c{i});\n"
            ));
            prev = format!("s{i}");
        }
        text.push_str(&format!("  y <= {prev};\nend rtl;\n"));
        let path = std::env::temp_dir().join(format!("nanomapd-chain-{}.vhd", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    })
    .clone()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nanomapd-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn daemon(tag: &str, tweak: impl FnOnce(&mut DaemonConfig)) -> (DaemonHandle, PathBuf) {
    let dir = temp_dir(tag);
    let mut config = DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: dir.join("state"),
        ledger_path: Some(dir.join("ledger.jsonl")),
        ..DaemonConfig::default()
    };
    tweak(&mut config);
    (start(config).unwrap(), dir)
}

fn request(id: &str) -> MapRequest {
    MapRequest::for_path(id, design_path())
}

fn submit(addr: &str, req: &MapRequest) -> Submission {
    submit_with_retry(addr, req, &RetryPolicy::default()).unwrap()
}

/// QoR fields that must survive recomputation and resume; wall-clock
/// phase times legitimately differ between runs and are excluded.
fn qor_fingerprint(report_text: &str) -> Vec<(String, String)> {
    let value = json::parse(report_text).unwrap();
    [
        "num_les",
        "num_luts",
        "delay_ns",
        "area_um2",
        "folding_level",
        "circuit",
    ]
    .iter()
    .filter_map(|key| {
        value
            .get(key)
            .map(|v| ((*key).to_string(), v.to_compact_string()))
    })
    .collect()
}

fn assert_ledger_intact(path: &Path, min_lines: usize) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(
        lines.len() >= min_lines,
        "ledger has {} lines, expected at least {min_lines}",
        lines.len()
    );
    for (i, line) in lines.iter().enumerate() {
        let value = json::parse(line).unwrap_or_else(|e| panic!("ledger line {i} torn: {e}"));
        assert!(
            value.get("run_id").and_then(JsonValue::as_str).is_some(),
            "ledger line {i} lacks run_id"
        );
    }
}

// ---------------------------------------------------------------------
// Core serving + cache semantics (in-process daemon).
// ---------------------------------------------------------------------

#[test]
fn repeat_submission_is_a_byte_identical_cache_hit() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("cachehit", |_| {});
    let first = submit(handle.addr(), &request("r1"));
    assert!(first.result.ok, "first submit failed: {:?}", first.result);
    assert_eq!(first.result.cache.as_deref(), Some("miss"));
    let second = submit(handle.addr(), &request("r2"));
    assert!(second.result.ok);
    assert_eq!(second.result.cache.as_deref(), Some("hit"));
    assert_eq!(
        first.result.report_text, second.result.report_text,
        "cache hit must be byte-identical to the serve that populated it"
    );
    assert_eq!(first.result.run_id, second.result.run_id);
    let stats = handle.stats();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.cache_hits, 1);
    // Only the computed run lands in the ledger; hits are replays.
    assert_ledger_intact(&dir.join("ledger.jsonl"), 1);
    assert_eq!(
        std::fs::read_to_string(dir.join("ledger.jsonl"))
            .unwrap()
            .lines()
            .count(),
        1
    );
    let outcome = handle.shutdown(Duration::from_secs(10));
    assert!(outcome.clean);
    let _ = std::fs::remove_dir_all(dir);
}

/// The cache key covers the fabric: a daemon restarted on the same
/// state dir with another defect map must recompute, never replay the
/// report mapped for the first fabric.
#[test]
fn restart_on_another_defect_map_is_a_cache_miss() {
    let _guard = suite_lock();
    let dir = temp_dir("fabric");
    let serve_on = |seed: u64| {
        let map_path = dir.join(format!("fabric-{seed}.defects"));
        std::fs::write(&map_path, format!("rate 0.3\nseed {seed}\n")).unwrap();
        let (handle, _) = daemon(&format!("fabric-d{seed}"), |c| {
            c.state_dir = dir.join("state");
            c.ledger_path = None;
            c.defect_map_path = Some(map_path);
        });
        let served = submit(handle.addr(), &request(&format!("fabric-{seed}")));
        assert!(handle.shutdown(Duration::from_secs(10)).clean);
        served.result
    };
    let first = serve_on(1);
    assert!(first.ok, "fabric 1 failed: {first:?}");
    assert_eq!(first.cache.as_deref(), Some("miss"));
    let replay = serve_on(1);
    assert_eq!(replay.cache.as_deref(), Some("hit"));
    let other = serve_on(2);
    assert_eq!(other.cache.as_deref(), Some("miss"), "{other:?}");
    assert_ne!(other.run_id, first.run_id);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn concurrent_identical_requests_coalesce_into_one_compute() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("coalesce", |c| c.workers = 3);
    let addr = handle.addr().to_string();
    let threads: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                submit(
                    &addr,
                    &MapRequest::for_path(format!("dup-{i}"), heavy_design_path()),
                )
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for sub in &results {
        assert!(sub.result.ok, "coalesced request failed: {:?}", sub.result);
        assert_eq!(sub.result.report_text, results[0].result.report_text);
    }
    // The herd guard means exactly one mapping ran: one ledger line,
    // and the other two were cache hits.
    assert_ledger_intact(&dir.join("ledger.jsonl"), 1);
    assert_eq!(
        std::fs::read_to_string(dir.join("ledger.jsonl"))
            .unwrap()
            .lines()
            .count(),
        1,
        "duplicates must not burn workers on duplicate mappings"
    );
    assert_eq!(handle.stats().cache_hits, 2);
    handle.shutdown(Duration::from_secs(30));
    let _ = std::fs::remove_dir_all(dir);
}

/// The duplicate parks behind the compute it waits for instead of
/// cycling through the queue: one `coalesced` event per waiting
/// request, not one per retry.
#[test]
fn coalesced_duplicate_waits_once() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("waitonce", |c| {
        c.workers = 2;
        c.events_path = Some(c.state_dir.parent().unwrap().join("events.ndjson"));
    });
    let traces = ["0000000000000a01", "0000000000000a02"];
    let threads: Vec<_> = traces
        .iter()
        .map(|&trace| {
            let addr = handle.addr().to_string();
            std::thread::spawn(move || {
                let mut req = MapRequest::for_path(format!("dup-{trace}"), heavy_design_path());
                req.trace_id = Some(trace.into());
                submit(&addr, &req)
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for sub in &results {
        assert!(sub.result.ok, "coalesced request failed: {:?}", sub.result);
        assert_eq!(sub.result.report_text, results[0].result.report_text);
    }
    let ledger = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
    assert_eq!(ledger.lines().count(), 1, "one mapping ran");
    assert_eq!(handle.stats().cache_hits, 1);
    handle.shutdown(Duration::from_secs(30));

    let text = std::fs::read_to_string(dir.join("events.ndjson")).unwrap();
    let coalesced = traces
        .iter()
        .flat_map(|trace| nanomap::runs::trace_timeline(&text, trace))
        .filter(|e| e.stage == "coalesced")
        .count();
    assert_eq!(coalesced, 1, "the waiting request publishes one event");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn torn_cache_entry_recomputes_instead_of_serving_garbage() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("torncache", |_| {});
    let first = submit(handle.addr(), &request("r1"));
    assert!(first.result.ok);
    // Tear the only cache entry in half, like a crashed writer would
    // if writes were not atomic.
    let cache_dir = dir.join("state/cache");
    let entry = std::fs::read_dir(&cache_dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let full = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &full[..full.len() / 2]).unwrap();
    let second = submit(handle.addr(), &request("r2"));
    assert!(second.result.ok);
    assert_eq!(
        second.result.cache.as_deref(),
        Some("miss"),
        "torn entry must be a miss, not a hit on garbage"
    );
    assert_eq!(
        qor_fingerprint(first.result.report_text.as_ref().unwrap()),
        qor_fingerprint(second.result.report_text.as_ref().unwrap()),
        "recomputation must reproduce the same QoR"
    );
    // The recompute rewrote the entry: third time is a hit again.
    let third = submit(handle.addr(), &request("r3"));
    assert_eq!(third.result.cache.as_deref(), Some("hit"));
    handle.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn suppressed_cache_write_degrades_to_recompute_not_failure() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("nocache", |_| {});
    failpoint::arm("cache.write", FailMode::Always);
    let first = submit(handle.addr(), &request("r1"));
    assert!(
        first.result.ok,
        "cache-write failure must not fail the request"
    );
    assert_eq!(first.result.cache.as_deref(), Some("miss"));
    assert_eq!(handle.stats().cache_hits, 0);
    assert!(
        std::fs::read_dir(dir.join("state/cache"))
            .unwrap()
            .next()
            .is_none(),
        "failpoint should have suppressed the entry"
    );
    failpoint::disarm_all();
    // With the fault gone the next serve repopulates the cache.
    let second = submit(handle.addr(), &request("r2"));
    assert_eq!(second.result.cache.as_deref(), Some("miss"));
    let third = submit(handle.addr(), &request("r3"));
    assert_eq!(third.result.cache.as_deref(), Some("hit"));
    handle.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn worker_panic_is_a_typed_result_and_the_daemon_survives() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("panic", |_| {});
    failpoint::arm("daemon.worker.panic", FailMode::Once);
    let poisoned = submit(handle.addr(), &request("r1"));
    assert!(!poisoned.result.ok);
    assert_eq!(poisoned.result.code.as_deref(), Some(code::PANIC));
    assert!(
        !poisoned.result.retryable(),
        "panic is permanent, not retryable"
    );
    failpoint::disarm_all();
    assert_eq!(handle.stats().panics, 1);
    // Same daemon, next request: business as usual.
    let healthy = submit(handle.addr(), &request("r2"));
    assert!(healthy.result.ok, "daemon must outlive a worker panic");
    handle.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn invalid_design_and_objective_are_typed_client_errors() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("invalid", |_| {});
    let mut bad_path = request("r1");
    bad_path.source = nanomap::DesignSource::Path("/nonexistent/missing.vhd".into());
    let res = submit(handle.addr(), &bad_path);
    assert!(!res.result.ok);
    assert_eq!(res.result.code.as_deref(), Some(code::INVALID));
    let mut bad_obj = request("r2");
    bad_obj.objective = "make-it-fast".into();
    let res = submit(handle.addr(), &bad_obj);
    assert_eq!(res.result.code.as_deref(), Some(code::INVALID));
    handle.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Admission control and backpressure.
// ---------------------------------------------------------------------

/// Sends one raw request line and returns every response line.
fn raw_exchange(addr: &str, line: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let reader = BufReader::new(stream);
    reader.lines().map_while(Result::ok).collect()
}

fn final_result(lines: &[String]) -> nanomap::WireResult {
    let last = lines.last().expect("no response lines");
    match Response::parse(last).unwrap() {
        Response::Result(result) => result,
        other => panic!("last line is not a result: {other:?}"),
    }
}

#[test]
fn zero_capacity_queue_sheds_everything_with_a_retryable_code() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("queuefull", |c| c.queue_capacity = 0);
    let lines = raw_exchange(handle.addr(), &request("r1").to_wire());
    let result = final_result(&lines);
    assert!(!result.ok);
    assert_eq!(result.code.as_deref(), Some(code::SHED));
    assert!(result.retryable());
    assert!(
        result.retry_after_ms.is_some(),
        "shed must carry a backoff hint"
    );
    assert!(result
        .detail
        .as_deref()
        .unwrap_or("")
        .contains("queue full"));
    assert_eq!(handle.stats().shed, 1);
    handle.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn deep_queue_requires_a_time_budget() {
    let _guard = suite_lock();
    // Depth threshold 0: every map must carry time_budget_ms.
    let (handle, dir) = daemon("budgetreq", |c| c.free_admission_depth = 0);
    let unbudgeted = raw_exchange(handle.addr(), &request("r1").to_wire());
    let rejected = final_result(&unbudgeted);
    assert_eq!(rejected.code.as_deref(), Some(code::SHED));
    assert!(rejected
        .detail
        .as_deref()
        .unwrap_or("")
        .contains("requires time_budget_ms"));
    let mut budgeted = request("r2");
    budgeted.time_budget_ms = Some(120_000);
    let accepted = submit(handle.addr(), &budgeted);
    assert!(accepted.result.ok, "budgeted request must be admitted");
    handle.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn flood_sheds_excess_load_but_serves_what_it_admits() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("flood", |c| {
        c.workers = 1;
        c.queue_capacity = 2;
        c.free_admission_depth = 0;
    });
    let addr = handle.addr().to_string();
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut req = request(&format!("flood-{i}"));
                req.time_budget_ms = Some(120_000);
                // No retries: a shed stays a shed, so the flood result
                // shows the admission decision itself.
                let lines = raw_exchange(&addr, &req.to_wire());
                final_result(&lines)
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let ok = results.iter().filter(|r| r.ok).count();
    let shed = results
        .iter()
        .filter(|r| r.code.as_deref() == Some(code::SHED))
        .count();
    assert_eq!(
        ok + shed,
        8,
        "every request ends ok or typed-shed: {results:?}"
    );
    assert!(ok >= 1, "at least the first arrival must be served");
    for rejected in results.iter().filter(|r| !r.ok) {
        assert!(rejected.retryable());
        assert!(rejected.retry_after_ms.is_some());
    }
    handle.shutdown(Duration::from_secs(30));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn slow_loris_client_is_cut_off_and_the_daemon_keeps_serving() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("loris", |c| c.read_timeout_ms = 150);
    // Half a request line, then silence.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .write_all(b"{\"schema\":\"nanomapd-v1\",\"op\"")
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut rejection = String::new();
    BufReader::new(&mut stream)
        .read_line(&mut rejection)
        .unwrap();
    let result = match Response::parse(rejection.trim()).unwrap() {
        Response::Result(result) => result,
        other => panic!("expected a result line, got {other:?}"),
    };
    assert_eq!(result.code.as_deref(), Some(code::INVALID));
    // The stalled connection cost nothing: a real client is served.
    let healthy = submit(handle.addr(), &request("r1"));
    assert!(healthy.result.ok);
    handle.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Preemption + checkpoint resume.
// ---------------------------------------------------------------------

#[test]
fn preempted_request_resumes_and_matches_the_uninterrupted_qor() {
    let _guard = suite_lock();
    // Reference: one uninterrupted run of the heavy design.
    let (reference, ref_dir) = daemon("preempt-ref", |_| {});
    let baseline = submit(
        reference.addr(),
        &MapRequest::for_path("ref", heavy_design_path()),
    );
    assert!(baseline.result.ok);
    reference.shutdown(Duration::from_secs(30));

    // Same design under a 10 ms slice: the run is carved into several
    // preempt/resume cycles through its checkpoints (slices escalate
    // exponentially, so even the longest single phase eventually fits).
    let (sliced, dir) = daemon("preempt", |c| c.preempt_slice_ms = Some(10));
    let chopped = submit(
        sliced.addr(),
        &MapRequest::for_path("sliced", heavy_design_path()),
    );
    assert!(
        chopped.result.ok,
        "sliced run must still complete: {:?}",
        chopped.result
    );
    let preemptions = chopped
        .lifecycle
        .iter()
        .filter(|e| matches!(e, Response::Preempted))
        .count();
    let resumes = chopped
        .lifecycle
        .iter()
        .filter(|e| matches!(e, Response::Resumed))
        .count();
    assert!(preemptions >= 1, "a 10 ms slice must preempt at least once");
    assert_eq!(
        preemptions, resumes,
        "every preemption is followed by a resume"
    );
    assert_eq!(sliced.stats().preemptions as usize, preemptions);
    // Resume pins the folding candidate in flight at the preemption
    // point (the flow's documented checkpoint semantics), so the QoR
    // may legitimately settle on a different candidate than the
    // uninterrupted search. The invariants are structural: same
    // circuit, same technology mapping, a complete non-degraded report.
    let base = json::parse(baseline.result.report_text.as_ref().unwrap()).unwrap();
    let resumed = json::parse(chopped.result.report_text.as_ref().unwrap()).unwrap();
    for key in ["circuit", "num_luts"] {
        assert_eq!(
            base.get(key).map(JsonValue::to_compact_string),
            resumed.get(key).map(JsonValue::to_compact_string),
            "{key} must survive preemption"
        );
    }
    assert_eq!(
        resumed
            .get("degraded")
            .map(JsonValue::to_compact_string)
            .as_deref(),
        Some("false")
    );
    // The preemption-computed result replays from cache byte for byte.
    let replay = submit(
        sliced.addr(),
        &MapRequest::for_path("replay", heavy_design_path()),
    );
    assert_eq!(replay.result.cache.as_deref(), Some("hit"));
    assert_eq!(replay.result.report_text, chopped.result.report_text);
    sliced.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(ref_dir);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn exhausted_time_budget_is_a_typed_budget_rejection() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("budget", |_| {});
    let mut req = MapRequest::for_path("r1", heavy_design_path());
    req.time_budget_ms = Some(15); // far too little for a ~1 s design
    let res = submit(handle.addr(), &req);
    assert!(!res.result.ok);
    assert_eq!(res.result.code.as_deref(), Some(code::BUDGET));
    assert!(!res.result.retryable());
    handle.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Graceful drain + the real binary under kill -9 and SIGTERM.
// ---------------------------------------------------------------------

#[test]
fn draining_daemon_rejects_new_work_with_a_retryable_shutdown_code() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("drain", |_| {});
    handle.begin_drain();
    let lines = raw_exchange(handle.addr(), &request("r1").to_wire());
    let result = final_result(&lines);
    assert_eq!(result.code.as_deref(), Some(code::SHUTDOWN));
    assert!(result.retryable());
    let outcome = handle.shutdown(Duration::from_secs(5));
    assert!(outcome.clean, "nothing admitted, nothing to shed");
    let _ = std::fs::remove_dir_all(dir);
}

/// A mapping still running when the drain deadline passes is answered,
/// but the drain is not clean: the deadline did not see it finish.
#[test]
fn deadline_passing_a_running_mapping_is_not_a_clean_drain() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("inflightdrain", |c| c.workers = 1);
    let addr = handle.addr().to_string();
    let client = std::thread::spawn(move || {
        submit(&addr, &MapRequest::for_path("heavy", heavy_design_path()))
    });
    let start = Instant::now();
    while handle.stats().inflight == 0 {
        assert!(start.elapsed() < Duration::from_secs(30), "never in flight");
        std::thread::sleep(Duration::from_millis(1));
    }
    let outcome = handle.shutdown(Duration::from_millis(1));
    assert!(!outcome.clean, "{outcome:?}");
    assert_eq!(outcome.shed_at_deadline, 0);
    let sub = client.join().unwrap();
    assert!(
        sub.result.ok,
        "the running mapping is answered: {:?}",
        sub.result
    );
    let _ = std::fs::remove_dir_all(dir);
}

struct SpawnedDaemon {
    child: Child,
    addr: String,
}

fn spawn_binary(dir: &Path, extra: &[&str]) -> SpawnedDaemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nanomapd"))
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--state-dir")
        .arg(dir.join("state"))
        .arg("--ledger")
        .arg(dir.join("ledger.jsonl"))
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // First stdout line announces the bound address.
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .rsplit(' ')
        .next()
        .expect("bound address line")
        .trim()
        .to_string();
    assert!(addr.contains(':'), "unexpected announcement {line:?}");
    SpawnedDaemon { child, addr }
}

#[test]
fn kill_minus_nine_mid_flight_loses_nothing_durable() {
    let _guard = suite_lock();
    let dir = temp_dir("kill9");
    let first = spawn_binary(&dir, &[]);
    // Populate the cache, then kill -9 while a second request is on
    // the wire.
    let warm = submit(&first.addr, &request("warm"));
    assert!(warm.result.ok);
    assert_eq!(warm.result.cache.as_deref(), Some("miss"));
    let addr = first.addr.clone();
    let inflight = std::thread::spawn(move || {
        // The heavy design misses the cache and takes ~1 s, so this
        // request is genuinely computing when the SIGKILL lands.
        let req = MapRequest::for_path("doomed", heavy_design_path());
        submit_with_retry(
            &addr,
            &req,
            &RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
        )
    });
    std::thread::sleep(Duration::from_millis(30));
    let mut child = first.child;
    child.kill().unwrap(); // SIGKILL: no drain, no atexit, nothing
    child.wait().unwrap();
    // The in-flight client sees a connection error or a served result —
    // never a torn half-response that parses as success.
    match inflight.join().unwrap() {
        Ok(sub) => assert!(sub.result.ok || sub.result.code.is_some()),
        Err(err) => assert!(!err.is_empty()),
    }
    // Durable state survived: the ledger parses line by line and the
    // restarted daemon serves the warm request from cache, byte for
    // byte what the first daemon computed.
    assert_ledger_intact(&dir.join("ledger.jsonl"), 1);
    let second = spawn_binary(&dir, &[]);
    let replay = submit(&second.addr, &request("replayed"));
    assert!(replay.result.ok);
    assert_eq!(
        replay.result.cache.as_deref(),
        Some("hit"),
        "cache must survive kill -9"
    );
    assert_eq!(replay.result.report_text, warm.result.report_text);
    let mut child = second.child;
    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_cleanly_with_exit_code_zero() {
    let _guard = suite_lock();
    let dir = temp_dir("sigterm");
    let daemon = spawn_binary(&dir, &["--drain-deadline-ms", "15000"]);
    let served = submit(&daemon.addr, &request("r1"));
    assert!(served.result.ok);
    let pid = daemon.child.id().to_string();
    let status = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(status.success());
    let mut child = daemon.child;
    let exit = child.wait().unwrap();
    assert_eq!(exit.code(), Some(0), "idle SIGTERM must be a clean drain");
    // A drained port is closed: connects now fail.
    assert!(TcpStream::connect(daemon.addr.as_str()).is_err());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn shutdown_op_over_the_wire_drains_the_binary() {
    let _guard = suite_lock();
    let dir = temp_dir("shutdownop");
    let daemon = spawn_binary(&dir, &["--drain-deadline-ms", "15000"]);
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream
        .write_all(
            format!(
                "{{\"schema\":\"{}\",\"op\":\"shutdown\"}}\n",
                nanomap::SERVICE_SCHEMA
            )
            .as_bytes(),
        )
        .unwrap();
    let mut ack = String::new();
    let _ = BufReader::new(&mut stream).read_line(&mut ack);
    assert!(ack.contains("draining"), "ack was {ack:?}");
    let mut child = daemon.child;
    let exit = child.wait().unwrap();
    assert_eq!(exit.code(), Some(0));
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Deterministic fault injection end to end.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Service telemetry: stats reconciliation, segment tiling, tracing.
// ---------------------------------------------------------------------

/// Integer leaf of a nested stats object (`counters.served`,
/// `latency_us.ok.count`, ...), by path.
fn stat_at(stats: &JsonValue, path: &[&str]) -> i64 {
    let mut node = stats;
    for key in path {
        node = node
            .get(key)
            .unwrap_or_else(|| panic!("stats missing {path:?}"));
    }
    node.as_int()
        .unwrap_or_else(|| panic!("{path:?} not an int"))
}

#[test]
fn stats_histograms_reconcile_exactly_with_lifetime_counters() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("statsrec", |c| {
        c.workers = 1;
        c.queue_capacity = 2;
        c.free_admission_depth = 0;
    });
    let addr = handle.addr().to_string();
    // A flood against one worker: some served, the rest typed-shed.
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut req = request(&format!("st-{i}"));
                req.time_budget_ms = Some(120_000);
                final_result(&raw_exchange(&addr, &req.to_wire()))
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // One typed client error lands in the failure accounting classes.
    // (Budgeted, so depth-0 admission control lets it through to the
    // objective validation that rejects it.)
    let mut bad = request("st-bad");
    bad.objective = "warp-speed".into();
    bad.time_budget_ms = Some(120_000);
    let rejected = submit(&addr, &bad);
    assert_eq!(rejected.result.code.as_deref(), Some(code::INVALID));

    let stats = nanomap::query_stats(&addr, 10_000).unwrap();
    assert_eq!(
        stats.get("schema").and_then(JsonValue::as_str),
        Some("nanomapd-stats-v1")
    );
    let class_count = |class: &str| stat_at(&stats, &["latency_us", class, "count"]);
    let counter = |name: &str| stat_at(&stats, &["counters", name]);
    // The SLO invariant: every admitted-or-refused request shows up in
    // exactly one latency class, and the classes partition the lifetime
    // counters with nothing lost and nothing double-counted.
    assert_eq!(class_count("ok"), counter("served"));
    assert_eq!(
        class_count("shed") + class_count("shutdown"),
        counter("shed")
    );
    assert_eq!(class_count("panic"), counter("panics"));
    assert_eq!(
        class_count("invalid") + class_count("budget") + class_count("failed"),
        counter("failures")
    );
    assert!(counter("served") >= 1, "the flood must serve at least one");
    assert!(counter("shed") >= 1, "a 2-deep queue must shed some of 8");
    assert_eq!(counter("failures"), 1, "exactly the bad objective");
    let total: i64 = [
        "ok", "shed", "shutdown", "invalid", "panic", "budget", "failed",
    ]
    .iter()
    .map(|c| class_count(c))
    .sum();
    assert_eq!(
        total,
        counter("served") + counter("shed") + counter("panics") + counter("failures"),
        "histograms and counters must reconcile exactly"
    );
    // Latency percentiles are well-formed: p50 <= p95 <= p99 <= max.
    let ok = |f: &str| stat_at(&stats, &["latency_us", "ok", f]);
    assert!(ok("p50") <= ok("p95") && ok("p95") <= ok("p99") && ok("p99") <= ok("max"));
    handle.shutdown(Duration::from_secs(30));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn preempted_request_segments_tile_its_end_to_end_latency() {
    let _guard = suite_lock();
    // A 10 ms slice carves the ~1 s heavy design into several
    // preempt/re-queue/resume cycles, so every segment class accrues.
    let (handle, dir) = daemon("segtile", |c| c.preempt_slice_ms = Some(10));
    let sub = submit(
        handle.addr(),
        &MapRequest::for_path("seg", heavy_design_path()),
    );
    assert!(sub.result.ok, "sliced run failed: {:?}", sub.result);
    assert!(handle.stats().preemptions >= 1, "slice must preempt");

    let stats = nanomap::query_stats(handle.addr(), 10_000).unwrap();
    assert_eq!(stat_at(&stats, &["latency_us", "ok", "count"]), 1);
    assert_eq!(
        stat_at(&stats, &["counters", "preemptions"]),
        handle.stats().preemptions as i64
    );
    let e2e = stat_at(&stats, &["latency_us", "ok", "sum"]);
    let segments: i64 = ["queue", "compute", "cache", "serialize"]
        .iter()
        .map(|s| stat_at(&stats, &["segments_us", s, "sum"]))
        .sum();
    // Queue residence (including every preemption re-queue), compute
    // slices, cache traffic and serialization are disjoint slices of
    // one request's wall clock: they can never exceed it, and the
    // untimed gaps (parse, admission checks, ledger append) are small
    // against a ~1 s compute.
    assert!(
        segments <= e2e,
        "segments {segments} us overlap: exceed e2e {e2e} us"
    );
    assert!(
        segments * 10 >= e2e * 7,
        "segments {segments} us cover under 70% of e2e {e2e} us"
    );
    assert!(
        stat_at(&stats, &["segments_us", "compute", "sum"]) > 0
            && stat_at(&stats, &["segments_us", "queue", "sum"]) > 0,
        "a preempted compute accrues both compute and re-queue time"
    );
    handle.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn one_trace_id_links_submit_service_events_and_the_ledger() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("tracelink", |c| {
        let root = c.state_dir.parent().unwrap().to_path_buf();
        c.events_path = Some(root.join("events.ndjson"));
    });
    // Client-propagated trace on a cache-missing compute.
    let mut req = request("traced");
    req.trace_id = Some("feedfacecafebeef".into());
    let sub = submit(handle.addr(), &req);
    assert!(sub.result.ok);
    assert_eq!(sub.result.cache.as_deref(), Some("miss"));
    assert_eq!(
        sub.result.trace_id.as_deref(),
        Some("feedfacecafebeef"),
        "the daemon must echo a propagated trace id"
    );
    // An untraced submit gets a server-assigned 16-hex id.
    let assigned = submit(handle.addr(), &request("untraced"));
    let assigned_id = assigned.result.trace_id.clone().expect("assigned trace");
    assert_eq!(assigned_id.len(), 16);
    assert!(assigned_id.chars().all(|c| c.is_ascii_hexdigit()));
    assert_ne!(assigned_id, "feedfacecafebeef");
    // Shutdown flushes and closes the event capture.
    handle.shutdown(Duration::from_secs(10));

    let text = std::fs::read_to_string(dir.join("events.ndjson")).unwrap();
    let timeline = nanomap::runs::trace_timeline(&text, "feedfacecafebeef");
    assert!(!timeline.is_empty(), "no service events for the trace");
    let stages: Vec<&str> = timeline.iter().map(|e| e.stage.as_str()).collect();
    assert!(stages.contains(&"queued"), "stages: {stages:?}");
    assert!(stages.contains(&"completed"), "stages: {stages:?}");
    let done = timeline.iter().find(|e| e.stage == "completed").unwrap();
    assert_eq!(done.code.as_deref(), Some("ok"));
    assert_eq!(done.request, "traced");
    // The cache-hit follower is traceable too, under its own id.
    assert!(!nanomap::runs::trace_timeline(&text, &assigned_id).is_empty());
    // And the computed run's ledger record carries the same trace.
    let ledger = nanomap::Ledger::load(&dir.join("ledger.jsonl")).unwrap();
    let record = ledger
        .find_by_trace("feedfacecafebeef")
        .expect("ledger record stamped with the trace id");
    assert_eq!(Some(record.run_id.as_str()), sub.result.run_id.as_deref());
    // It names the objective and the seeds the flow mapped with.
    let flow = nanomap::NanoMap::new(nanomap::arch::ArchParams::paper_unbounded());
    assert_eq!(
        record.objective,
        nanomap::Objective::MinAreaDelayProduct.key()
    );
    assert_eq!(record.place_seed, flow.place_options.seed);
    assert_eq!(record.route_seed, flow.route_options.seed);
    let _ = std::fs::remove_dir_all(dir);
}

fn ping_line() -> String {
    format!(
        "{{\"schema\":\"{}\",\"op\":\"ping\"}}",
        nanomap::SERVICE_SCHEMA
    )
}

/// The listener blocks in `accept`, so a request is taken the moment it
/// connects. A 10 ms accept poll makes 50 sequential pings last about
/// half a second.
#[test]
fn sequential_pings_do_not_wait_for_a_poll_tick() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("pings", |c| c.stats_interval_ms = 0);
    let ping = ping_line();
    let start = Instant::now();
    for _ in 0..50 {
        let lines = raw_exchange(handle.addr(), &ping);
        let reply = Response::parse(lines.last().unwrap()).unwrap();
        assert!(matches!(reply, Response::Pong { .. }), "{reply:?}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "50 sequential pings took {elapsed:?}"
    );
    handle.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(dir);
}

/// Shutdown wakes the listener blocked in `accept` on every kind of
/// bind, the unspecified IP included. A watchdog turns a listener that
/// is never woken into a failure instead of a hung suite.
#[test]
fn idle_daemon_shuts_down_promptly() {
    let _guard = suite_lock();
    let socket_dir = temp_dir("idle-unix");
    let socket = socket_dir.join("nanomapd.sock");
    let mut addrs = vec!["127.0.0.1:0".to_string(), "0.0.0.0:0".to_string()];
    if cfg!(unix) {
        addrs.push(socket.to_string_lossy().into_owned());
    }
    for (i, addr) in addrs.into_iter().enumerate() {
        let (handle, dir) = daemon(&format!("idle-{i}"), |c| c.addr = addr.clone());
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(handle.shutdown(Duration::from_secs(5)));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("shutdown of an idle daemon on {addr} hung"));
        assert!(outcome.clean, "{addr}: {outcome:?}");
        let _ = std::fs::remove_dir_all(dir);
    }
    assert!(!socket.exists(), "the socket file is removed at shutdown");
    let _ = std::fs::remove_dir_all(socket_dir);
}

/// A listener that cannot be woken (its socket file is gone, so the
/// wake cannot connect) is detached, not joined: shutdown still returns.
#[cfg(unix)]
#[test]
fn unwakeable_listener_is_detached_not_joined() {
    let _guard = suite_lock();
    let socket_dir = temp_dir("unwakeable");
    let socket = socket_dir.join("nanomapd.sock");
    let (handle, dir) = daemon("unwakeable-state", |c| {
        c.addr = socket.to_string_lossy().into_owned();
    });
    std::fs::remove_file(&socket).unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.shutdown(Duration::from_secs(5)));
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("shutdown waited on a listener it could not wake");
    assert!(outcome.clean, "{outcome:?}");
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(socket_dir);
}

#[test]
fn binary_rejects_bad_flags_with_a_usage_error() {
    for argv in [&["--workers", "x"][..], &["--workers", "0"], &["--bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_nanomapd"))
            .args(argv)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {}: ", argv[0])),
            "{stderr}"
        );
        assert!(stderr.contains("usage: nanomapd"), "{stderr}");
    }
}

#[test]
fn ping_reports_uptime_version_drain_state_and_snapshot_age() {
    let _guard = suite_lock();
    let (handle, dir) = daemon("health", |c| c.stats_interval_ms = 50);
    let ping = ping_line();
    // Give the ticker time to persist at least one snapshot.
    std::thread::sleep(Duration::from_millis(250));
    let lines = raw_exchange(handle.addr(), &ping);
    let parsed = Response::parse(lines.last().unwrap()).unwrap();
    let Response::Pong {
        version,
        draining,
        snapshot_age_ms,
        ..
    } = parsed
    else {
        panic!("expected a pong, got {parsed:?}");
    };
    assert_eq!(version, "nanomapd-v1");
    assert!(!draining);
    let age = snapshot_age_ms.expect("ticker should have persisted a snapshot");
    assert!(age < 10_000, "snapshot age {age} ms is stale");
    // The persisted snapshot sits next to the ledger and is valid JSON
    // with the stats schema tag.
    let persisted = std::fs::read_to_string(dir.join("nanomapd-stats.json")).unwrap();
    let doc = json::parse(&persisted).unwrap();
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("nanomapd-stats-v1")
    );
    // Draining flips the health bit while ping keeps answering.
    handle.begin_drain();
    let lines = raw_exchange(handle.addr(), &ping);
    match Response::parse(lines.last().unwrap()).unwrap() {
        Response::Pong {
            draining,
            uptime_ms,
            ..
        } => {
            assert!(draining, "drain state must be visible in pong");
            assert!(uptime_ms < 120_000);
        }
        other => panic!("expected a pong, got {other:?}"),
    }
    handle.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn env_armed_failpoints_fire_deterministically_in_the_spawned_binary() {
    let _guard = suite_lock();
    let dir = temp_dir("envfp");
    // Arm cache.write=always in the child's environment: the binary
    // computes fine but persists nothing, so a second daemon with the
    // same state dir recomputes (miss), not replays (hit).
    let mut child = Command::new(env!("CARGO_BIN_EXE_nanomapd"))
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--state-dir")
        .arg(dir.join("state"))
        .arg("--no-ledger")
        .env(nanomap_observe::FAILPOINTS_ENV, "cache.write=always")
        .env(nanomap_observe::FAILPOINT_SEED_ENV, "7")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line.rsplit(' ').next().unwrap().trim().to_string();
    let served = submit(&addr, &request("r1"));
    assert!(served.result.ok);
    assert!(
        std::fs::read_dir(dir.join("state/cache"))
            .map(|mut entries| entries.next().is_none())
            .unwrap_or(true),
        "armed cache.write failpoint must suppress persistence"
    );
    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Exact recovery (SAT rung) under daemon control.
// ---------------------------------------------------------------------

/// A daemon serving a dead fabric with `--exact-recovery`: the request
/// climbs the whole heuristic ladder, enters the exact SAT rung, and is
/// *proven* unmappable — a typed, retry-free failure naming the defect
/// class, not a hang, panic or generic exhaustion. A budgeted request
/// against the same fabric is budget-rejected cleanly instead. The
/// daemon stays healthy throughout.
#[test]
fn exact_rung_unsat_and_budget_reject_cleanly_under_the_daemon() {
    let _guard = suite_lock();
    let dir = temp_dir("exactunsat");
    // Every slot dead: heuristics fail fast, the exact rung's precheck
    // proves emptiness on the widest grid the ladder grants.
    let map_path = dir.join("fabric.defects");
    std::fs::write(&map_path, "rate 1.0\nseed 1\n").unwrap();
    let (handle, _) = daemon("exactunsat-d", |c| {
        c.state_dir = dir.join("state");
        c.ledger_path = None;
        c.defect_map_path = Some(map_path.clone());
        c.exact_recovery = true;
        // A slice bound keeps even a pathological solve preemptible.
        c.preempt_slice_ms = Some(2_000);
    });

    // Unbudgeted request: typed infeasibility, not a panic or timeout.
    let unsat = submit(handle.addr(), &request("unsat-1"));
    assert!(!unsat.result.ok, "nothing maps on a dead fabric");
    assert_eq!(unsat.result.code.as_deref(), Some(code::FAILED));
    let detail = unsat.result.detail.clone().unwrap_or_default();
    assert!(
        detail.contains("infeasible"),
        "the rejection must carry the infeasibility proof, got: {detail}"
    );
    assert!(
        detail.contains("dead slots") || detail.contains("NRAM"),
        "the proof must name the dominant defect class, got: {detail}"
    );

    // Budgeted request: the slice/budget machinery rejects with the
    // typed budget code (or proves UNSAT first if the ladder is quick);
    // either way the connection sees a clean typed terminal response.
    let mut budgeted = request("unsat-2");
    budgeted.time_budget_ms = Some(1);
    let rejected = submit(handle.addr(), &budgeted);
    assert!(!rejected.result.ok);
    let rcode = rejected.result.code.as_deref();
    assert!(
        rcode == Some(code::BUDGET) || rcode == Some(code::FAILED),
        "expected a typed budget/failed rejection, got {rcode:?}"
    );

    // The daemon survived both and still answers stats.
    let stats = handle.stats();
    assert!(stats.failures >= 1, "the UNSAT rejection is accounted");
    handle.shutdown(Duration::from_secs(30));
    let _ = std::fs::remove_dir_all(dir);
}
