//! `nanomapd` — the NanoMap mapping daemon.
//!
//! ```text
//! nanomapd --addr 127.0.0.1:7171 --state-dir results/daemon \
//!          --ledger results/runs/ledger.jsonl --workers 2
//! ```
//!
//! Serves `nanomapd-v1` line-delimited JSON (see `nanomap submit`).
//! SIGTERM or a client `shutdown` op triggers a graceful drain under
//! `--drain-deadline-ms`.
//!
//! Exit codes:
//! - `0` — clean drain: every admitted request was answered before
//!   the deadline.
//! - `1` — hard error: bad flags, bind failure, unwritable state dir.
//! - `4` — degraded drain: the deadline passed with work left. Queued
//!   requests were shed (each got a retryable `shutdown` rejection
//!   first); mappings still running were answered after it.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use nanomap::cli::{Args, Command, Error, Flag};
use nanomap::DEFAULT_LEDGER_PATH;
use nanomap_daemon::{exit, start, DaemonConfig};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag::value("--addr", "HOST:PORT|PATH", "bind address; a path binds a unix socket\n(default 127.0.0.1:0, prints the bound port)"),
    Flag::value("--workers", "N", "mapping worker threads (default 2)"),
    Flag::value("--queue-capacity", "N", "admission queue bound (default 16)"),
    Flag::value("--free-admission-depth", "N", "depth above which time_budget_ms is required\n(default 4)"),
    Flag::value("--state-dir", "DIR", "cache/ + checkpoints/ root (default nanomapd-state)"),
    Flag::value("--ledger", "PATH", "append computed runs to this flight-recorder\nledger (default results/runs/ledger.jsonl)"),
    Flag::switch("--no-ledger", "append no ledger lines"),
    Flag::value("--preempt-slice-ms", "MS", "preemption time slice (default: off)"),
    Flag::value("--events", "PATH", "capture nanomap-events-v1 NDJSON (service\nlifecycle + per-run events) to PATH"),
    Flag::value("--stats-interval-ms", "MS", "nanomapd-stats-v1 snapshot cadence next to\nthe ledger (default 2000; 0 disables)"),
    Flag::value("--read-timeout-ms", "MS", "slow-loris guard per request line (default 10000)"),
    Flag::value("--drain-deadline-ms", "MS", "graceful-drain budget on shutdown (default 30000)"),
    Flag::value("--defect-map", "PATH", "fabric defect map every request maps around"),
    Flag::switch("--exact-recovery", "run the complete SAT assignment rung after\nthe heuristic recovery ladder fails"),
];

static NANOMAPD: Command = Command {
    name: "nanomapd",
    operands: "",
    about: "exit codes: 0 clean drain, 1 hard error, 4 degraded drain (work left at deadline)",
    flags: &[FLAGS],
};

static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

/// Installs `on_term` for SIGTERM + SIGINT through the raw `signal(2)`
/// ABI — the daemon stays dependency-free.
fn install_signal_handlers() {
    #[cfg(unix)]
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
}

fn main() -> ExitCode {
    NANOMAPD.run(std::env::args().skip(1), serve)
}

fn serve(args: Args) -> Result<ExitCode, Error> {
    args.exactly::<0>()?;
    let defaults = DaemonConfig::default();
    let at_least_one = |flag: &str, default: usize| match args.num(flag)? {
        Some(0) => Err(Error::usage(flag, "must be at least 1")),
        n => Ok(n.unwrap_or(default)),
    };
    let ledger_path = (!args.has("--no-ledger"))
        .then(|| PathBuf::from(args.get("--ledger").unwrap_or(DEFAULT_LEDGER_PATH)));
    let config = DaemonConfig {
        addr: args.get("--addr").map_or(defaults.addr, str::to_string),
        workers: at_least_one("--workers", defaults.workers)?,
        queue_capacity: at_least_one("--queue-capacity", defaults.queue_capacity)?,
        free_admission_depth: args
            .num("--free-admission-depth")?
            .unwrap_or(defaults.free_admission_depth),
        state_dir: args
            .get("--state-dir")
            .map_or(defaults.state_dir, PathBuf::from),
        ledger_path,
        preempt_slice_ms: args.num("--preempt-slice-ms")?,
        read_timeout_ms: args
            .num("--read-timeout-ms")?
            .unwrap_or(defaults.read_timeout_ms),
        events_path: args.get("--events").map(PathBuf::from),
        stats_interval_ms: args
            .num("--stats-interval-ms")?
            .unwrap_or(defaults.stats_interval_ms),
        defect_map_path: args.get("--defect-map").map(PathBuf::from),
        exact_recovery: args.has("--exact-recovery"),
    };
    let drain_deadline_ms = args.num("--drain-deadline-ms")?.unwrap_or(30_000);
    install_signal_handlers();
    let handle = start(config)?;
    // The bound address goes to stdout first so wrappers (tests, the
    // daemon-smoke CI job) can read the resolved port of `:0` binds.
    println!("nanomapd listening on {}", handle.addr());
    while !TERM.load(Ordering::SeqCst) && !handle.draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("nanomapd: draining (deadline {drain_deadline_ms} ms)");
    let outcome = handle.shutdown(Duration::from_millis(drain_deadline_ms));
    if outcome.clean {
        eprintln!("nanomapd: clean drain");
        Ok(ExitCode::from(exit::CLEAN))
    } else {
        eprintln!(
            "nanomapd: degraded drain, deadline passed with work left; {} request(s) shed",
            outcome.shed_at_deadline
        );
        Ok(ExitCode::from(exit::DEGRADED))
    }
}
