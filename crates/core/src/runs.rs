//! The flight-recorder ledger and cross-run trend analysis.
//!
//! Every mapping run can crash-safely append a one-line JSON summary —
//! run id, benchmark, seeds, QoR headline numbers, per-phase wall-clock,
//! peak RSS, degradations, exit code — to `results/runs/ledger.jsonl`
//! ([`append_run`]). The `nanomap runs` subcommand aggregates that
//! history: `list`/`show` browse it, `trend` renders ASCII-sparkline
//! tables per benchmark and field, and `regress` flags outliers with a
//! rolling median + MAD detector, turning the point-in-time QoR/perf
//! gates into a continuous record.
//!
//! Appends take an advisory lock on a stable sidecar file
//! (`<ledger>.lock`) and rewrite through the atomic-write substrate, so
//! concurrent appenders serialize and a killed writer can never leave a
//! torn line behind its own append. Lines torn by *external* means (a
//! partial copy, a crashed foreign writer) are skipped — not fatal — on
//! load, and reported in [`Ledger::skipped_lines`].

use std::collections::BTreeMap;
use std::path::Path;

use nanomap_observe::{json, Fnv1a, JsonValue};

use crate::artifact::{atomic_write_text, versions};
use crate::flow::NanoMap;
use crate::objective::Objective;
use crate::report::{MappingReport, PhaseTimes};

/// Default ledger location, relative to the working directory.
pub const DEFAULT_LEDGER_PATH: &str = "results/runs/ledger.jsonl";

/// Rolling window length for the [`regress`] outlier detector.
pub const REGRESS_WINDOW: usize = 8;

/// Default MAD multiplier for [`regress`]: a value flags when it
/// exceeds `median + K · σ` with `σ = 1.4826 · MAD` of the window.
pub const REGRESS_K: f64 = 4.0;

/// Consistency factor turning a median absolute deviation into a
/// normal-equivalent standard deviation.
const MAD_SIGMA: f64 = 1.4826;

/// Stable run identifier: FNV-1a over the netlist fingerprint, the
/// objective key and both physical seeds, rendered as 16 hex digits.
/// The same netlist mapped the same way always gets the same id.
pub fn run_id(fingerprint: u64, objective_key: &str, place_seed: u64, route_seed: u64) -> String {
    let h = Fnv1a::new()
        .field(&fingerprint.to_le_bytes())
        .field(objective_key.as_bytes())
        .field(&place_seed.to_le_bytes())
        .field(&route_seed.to_le_bytes())
        .finish();
    format!("{h:016x}")
}

/// One ledger line: the flight-recorder summary of a single run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Stable id from [`run_id`].
    pub run_id: String,
    /// Circuit (benchmark) name.
    pub circuit: String,
    /// Objective key, e.g. `min-at`.
    pub objective: String,
    /// Placement seed.
    pub place_seed: u64,
    /// Routing seed.
    pub route_seed: u64,
    /// Unix timestamp (seconds) of the append; 0 when the clock was
    /// unavailable.
    pub timestamp: u64,
    /// Process exit code the run mapped to (0 ok, 4 degraded, ...).
    pub exit_code: i32,
    /// Number of accepted degradations.
    pub degradations: u64,
    /// Recovery-ladder attempts consumed.
    pub recovery_attempts: u64,
    /// Wall-clock the failed recovery attempts burned, in milliseconds.
    pub recovery_ms: f64,
    /// Peak resident set in KiB, when measured.
    pub peak_rss_kb: Option<u64>,
    /// Service trace id when the run was produced by `nanomapd` on
    /// behalf of a traced request; `None` for local CLI runs.
    pub trace_id: Option<String>,
    /// QoR headline metrics (num_les, delay_ns, ...).
    pub metrics: BTreeMap<String, f64>,
    /// Per-phase wall-clock milliseconds, mirroring `phase_times`.
    pub phase_ms: BTreeMap<String, f64>,
}

/// Human status word for a flow exit code.
pub fn status_word(exit_code: i32) -> &'static str {
    match exit_code {
        0 => "ok",
        2 => "recovery-exhausted",
        3 => "budget-exhausted",
        4 => "degraded",
        5 => "infeasible",
        _ => "error",
    }
}

/// Publishes the terminal `run-end` event of a stream. `report` is
/// `None` when the run failed before producing one (phase totals are
/// then empty and `total_ms` zero).
pub fn publish_run_end(run_id: &str, exit_code: i32, report: Option<&MappingReport>) {
    nanomap_observe::publish(|| {
        let t = report.map(|r| r.phase_times);
        nanomap_observe::EventKind::RunEnd {
            run_id: run_id.to_string(),
            status: status_word(exit_code).to_string(),
            exit_code,
            phase_ms: t
                .into_iter()
                .flat_map(PhaseTimes::by_phase)
                .map(|(phase, ms)| (phase.key.to_string(), ms))
                .collect(),
            total_ms: t.map_or(0.0, |t| t.total_ms),
        }
    });
}

impl RunRecord {
    /// Builds the ledger record of a finished mapping: `report` as
    /// produced by `flow` for `objective`, whose seeds and objective key
    /// the record carries.
    pub fn for_run(
        report: &MappingReport,
        flow: &NanoMap,
        objective: Objective,
        run_id: String,
        exit_code: i32,
    ) -> Self {
        let mut metrics = BTreeMap::new();
        let mut m = |name: &str, value: f64| {
            metrics.insert(name.to_string(), value);
        };
        m("num_les", f64::from(report.num_les));
        m("num_luts", f64::from(report.num_luts));
        m("delay_ns", report.delay_ns);
        m("area_um2", report.area_um2);
        if let Some(p) = &report.physical {
            m("num_smbs", f64::from(p.num_smbs));
            m("routed_delay_ns", p.routed_delay_ns);
            m("routed_wirelength", p.usage.total() as f64);
        }
        let phase_ms: BTreeMap<String, f64> = report
            .phase_times
            .keyed_ms()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let timestamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Self {
            run_id,
            circuit: report.circuit.clone(),
            objective: objective.key(),
            place_seed: flow.place_options.seed,
            route_seed: flow.route_options.seed,
            timestamp,
            exit_code,
            degradations: report.degradations.len() as u64,
            recovery_attempts: report.recovery.attempts.len() as u64,
            recovery_ms: report.recovery.wall_ms(),
            peak_rss_kb: report
                .memory
                .as_ref()
                .and_then(|m| m.peak_rss_kb)
                .or_else(nanomap_observe::read_rss_kb),
            trace_id: None,
            metrics,
            phase_ms,
        }
    }

    /// Human status word for the exit code.
    pub fn status(&self) -> &'static str {
        status_word(self.exit_code)
    }

    /// One compact JSON object — the ledger line format. Tagged with the
    /// events-subsystem schema so the line is self-describing.
    pub fn to_json(&self) -> JsonValue {
        let mut metrics = JsonValue::object();
        for (name, &value) in &self.metrics {
            metrics.set(name, value);
        }
        let mut phases = JsonValue::object();
        for (name, &value) in &self.phase_ms {
            phases.set(name, value);
        }
        let mut obj = JsonValue::object()
            .with("schema", versions::EVENTS)
            .with("run_id", self.run_id.as_str())
            .with("circuit", self.circuit.as_str())
            .with("objective", self.objective.as_str())
            .with("place_seed", self.place_seed)
            .with("route_seed", self.route_seed)
            .with("timestamp", self.timestamp)
            .with("exit_code", i64::from(self.exit_code))
            .with("degradations", self.degradations)
            .with("recovery_attempts", self.recovery_attempts)
            .with("recovery_ms", self.recovery_ms);
        if let Some(kb) = self.peak_rss_kb {
            obj.set("peak_rss_kb", kb);
        }
        if let Some(trace) = &self.trace_id {
            obj.set("trace_id", trace.as_str());
        }
        obj.set("metrics", metrics);
        obj.set("phase_ms", phases);
        obj
    }

    /// Parses one ledger line.
    ///
    /// # Errors
    ///
    /// Describes the first structural mismatch (malformed JSON, missing
    /// or mistyped field).
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        match value.get("schema").and_then(JsonValue::as_str) {
            Some(s) if s == versions::EVENTS => {}
            Some(other) => return Err(format!("unsupported ledger schema `{other}`")),
            None => return Err("ledger line missing `schema`".into()),
        }
        let text = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("ledger line missing string `{key}`"))
        };
        let int = |key: &str| -> Result<i64, String> {
            value
                .get(key)
                .and_then(JsonValue::as_int)
                .ok_or_else(|| format!("ledger line missing integer `{key}`"))
        };
        Ok(Self {
            run_id: text("run_id")?,
            circuit: text("circuit")?,
            objective: text("objective")?,
            place_seed: int("place_seed")? as u64,
            route_seed: int("route_seed")? as u64,
            timestamp: int("timestamp")?.max(0) as u64,
            exit_code: int("exit_code")? as i32,
            degradations: int("degradations")?.max(0) as u64,
            recovery_attempts: int("recovery_attempts")?.max(0) as u64,
            // Absent in ledgers written before the exact-recovery work.
            recovery_ms: value
                .get("recovery_ms")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            peak_rss_kb: value
                .get("peak_rss_kb")
                .and_then(JsonValue::as_int)
                .map(|v| v.max(0) as u64),
            trace_id: value
                .get("trace_id")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            metrics: crate::diff::number_map(value.get("metrics"), "metrics")?,
            phase_ms: crate::diff::number_map(value.get("phase_ms"), "phase_ms")?,
        })
    }

    /// Looks a trend/regress field up across the metric and phase maps
    /// (`peak_rss_kb` is also addressable).
    pub fn field(&self, name: &str) -> Option<f64> {
        self.metrics
            .get(name)
            .or_else(|| self.phase_ms.get(name))
            .copied()
            .or_else(|| (name == "peak_rss_kb").then(|| self.peak_rss_kb.map(|kb| kb as f64))?)
    }
}

/// How long an appender waits for the ledger lock before giving up.
/// Appends take milliseconds, so a longer hold means a wedged holder.
const LOCK_WAIT_MS: u64 = 10_000;

/// Sleep between lock acquisition attempts.
const LOCK_RETRY_SLEEP_MS: u64 = 10;

/// Crash-safely appends one record to the ledger at `path`.
///
/// Concurrent appenders serialize on an advisory lock held on a stable
/// sidecar file (`<path>.lock`), then rewrite the ledger through the
/// atomic-write substrate. A torn final line left by a foreign writer
/// is preserved as its own (skippable) line, never merged into the new
/// record.
///
/// The kernel releases the lock when its holder exits, however it dies,
/// so a held lock always has a live holder. An appender that cannot take
/// it within a fixed wait gives up with an error instead of breaking it:
/// a broken holder that resumed would rewrite the ledger without the
/// breaker's line.
///
/// # Errors
///
/// Returns a description of the first I/O failure, or of a lock still
/// held after the wait.
pub fn append_run(path: &Path, record: &RunRecord) -> Result<(), String> {
    append_run_waiting(path, record, LOCK_WAIT_MS)
}

/// [`append_run`] with the lock wait as a parameter.
fn append_run_waiting(path: &Path, record: &RunRecord, wait_ms: u64) -> Result<(), String> {
    nanomap_observe::failpoint::inject_io("ledger.append")
        .map_err(|e| format!("appending to {}: {e}", path.display()))?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }
    let lock_path = lock_path_for(path);
    let _lock_file = acquire_sidecar_lock(&lock_path, wait_ms)?;
    // Lock held until `_lock_file` drops at the end of the function.
    let mut text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&record.to_json().to_compact_string());
    text.push('\n');
    atomic_write_text(path, &text).map_err(|e| e.to_string())
}

/// The sidecar lock file guarding appends to `path`.
fn lock_path_for(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("ledger"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".lock");
    path.with_file_name(name)
}

/// Takes the sidecar flock, retrying for up to `wait_ms`. Returns the
/// open file whose drop releases the lock.
fn acquire_sidecar_lock(lock_path: &Path, wait_ms: u64) -> Result<std::fs::File, String> {
    let lock_file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(lock_path)
        .map_err(|e| format!("opening {}: {e}", lock_path.display()))?;
    let mut waited_ms: u64 = 0;
    loop {
        match lock_file.try_lock() {
            Ok(()) => return Ok(lock_file),
            Err(std::fs::TryLockError::WouldBlock) if waited_ms < wait_ms => {
                std::thread::sleep(std::time::Duration::from_millis(LOCK_RETRY_SLEEP_MS));
                waited_ms += LOCK_RETRY_SLEEP_MS;
            }
            Err(std::fs::TryLockError::WouldBlock) => {
                return Err(format!(
                    "{} is still held by another appender after {wait_ms} ms",
                    lock_path.display()
                ));
            }
            Err(std::fs::TryLockError::Error(e)) => {
                return Err(format!("locking {}: {e}", lock_path.display()));
            }
        }
    }
}

/// A loaded ledger: parsed records plus the 1-based line numbers that
/// failed to parse (torn tails, foreign garbage) and were skipped.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Records in file (append) order.
    pub records: Vec<RunRecord>,
    /// 1-based line numbers that did not parse.
    pub skipped_lines: Vec<usize>,
}

impl Ledger {
    /// Parses ledger text line by line. Malformed lines — including a
    /// final line truncated by a killed foreign writer — are skipped
    /// and reported, never fatal.
    pub fn parse(text: &str) -> Self {
        let mut ledger = Ledger::default();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match json::parse(line).and_then(|v| RunRecord::from_json(&v)) {
                Ok(record) => ledger.records.push(record),
                Err(_) => ledger.skipped_lines.push(idx + 1),
            }
        }
        ledger
    }

    /// Loads and parses the ledger at `path`.
    ///
    /// # Errors
    ///
    /// Only on I/O failure — parse problems are per-line skips.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Ok(Self::parse(&text))
    }

    /// Distinct circuit names in first-seen order.
    pub fn circuits(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for r in &self.records {
            if !seen.contains(&r.circuit.as_str()) {
                seen.push(r.circuit.as_str());
            }
        }
        seen
    }

    /// All records for one circuit, in append order.
    pub fn runs_of(&self, circuit: &str) -> Vec<&RunRecord> {
        self.records
            .iter()
            .filter(|r| r.circuit == circuit)
            .collect()
    }

    /// Finds a record by run-id prefix (latest match wins, so `show`
    /// favors the most recent run of a re-executed configuration).
    pub fn find(&self, run_id_prefix: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .rev()
            .find(|r| r.run_id.starts_with(run_id_prefix))
    }

    /// Finds the record stamped with a service trace id (latest match
    /// wins). Cache hits replay without a new ledger line, so only the
    /// original miss is addressable this way.
    pub fn find_by_trace(&self, trace_id: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .rev()
            .find(|r| r.trace_id.as_deref() == Some(trace_id))
    }
}

/// Eight-level ASCII sparkline of `values` (empty input → empty string;
/// a flat series renders mid-scale).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '?';
            }
            if max - min < 1e-12 {
                return BARS[3];
            }
            let t = (v - min) / (max - min);
            BARS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// One row of the `trend` table: a circuit's history of one field.
#[derive(Debug, Clone)]
pub struct TrendRow {
    /// Circuit name.
    pub circuit: String,
    /// Field name (metric, phase time, or `peak_rss_kb`).
    pub field: String,
    /// Values in append order.
    pub values: Vec<f64>,
}

impl TrendRow {
    /// Renders the row as one fixed-width table line with a sparkline.
    pub fn render(&self) -> String {
        let min = self.values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self
            .values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let last = self.values.last().copied().unwrap_or(f64::NAN);
        format!(
            "{:<14} {:<20} {:>4} {:>12.3} {:>12.3} {:>12.3}  {}",
            self.circuit,
            self.field,
            self.values.len(),
            min,
            max,
            last,
            sparkline(&self.values)
        )
    }
}

/// Builds trend rows for every (circuit, field) pair with at least one
/// value. Output order is deterministic: circuits in first-seen ledger
/// order, fields in the order given.
pub fn trend(ledger: &Ledger, benchmark: Option<&str>, fields: &[&str]) -> Vec<TrendRow> {
    let mut rows = Vec::new();
    for circuit in ledger.circuits() {
        if benchmark.is_some_and(|b| b != circuit) {
            continue;
        }
        for &field in fields {
            let values: Vec<f64> = ledger
                .runs_of(circuit)
                .iter()
                .filter_map(|r| r.field(field))
                .collect();
            if !values.is_empty() {
                rows.push(TrendRow {
                    circuit: circuit.to_string(),
                    field: field.to_string(),
                    values,
                });
            }
        }
    }
    rows
}

/// A run flagged by the rolling median + MAD detector.
#[derive(Debug, Clone)]
pub struct Outlier {
    /// Circuit name.
    pub circuit: String,
    /// Field that regressed.
    pub field: String,
    /// Run id of the flagged run.
    pub run_id: String,
    /// 0-based index of the run within the circuit's history.
    pub index: usize,
    /// The offending value.
    pub value: f64,
    /// Rolling median of the preceding window.
    pub median: f64,
    /// The flag threshold (`median + K · σ`).
    pub threshold: f64,
}

impl Outlier {
    /// One human-readable line describing the flag.
    pub fn render(&self) -> String {
        format!(
            "{:<14} {:<20} run {} ({}): {:.3} > {:.3} (rolling median {:.3})",
            self.circuit,
            self.field,
            self.index,
            self.run_id,
            self.value,
            self.threshold,
            self.median
        )
    }
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Flags upward outliers (all ledger fields are lower-is-better) via a
/// rolling median + MAD over the preceding `window` runs. A value flags
/// when it exceeds `median + k · σ`, where `σ = 1.4826 · MAD` floored at
/// 1% of the median magnitude — so perfectly flat deterministic series
/// (MAD = 0) tolerate float jitter but still flag a real jump. Needs at
/// least 4 prior runs per circuit.
pub fn regress(
    ledger: &Ledger,
    benchmark: Option<&str>,
    field: &str,
    window: usize,
    k: f64,
) -> Vec<Outlier> {
    const MIN_HISTORY: usize = 4;
    let window = window.max(MIN_HISTORY);
    let mut outliers = Vec::new();
    for circuit in ledger.circuits() {
        if benchmark.is_some_and(|b| b != circuit) {
            continue;
        }
        let runs = ledger.runs_of(circuit);
        let values: Vec<Option<f64>> = runs.iter().map(|r| r.field(field)).collect();
        for i in MIN_HISTORY..values.len() {
            let Some(value) = values[i] else { continue };
            let start = i.saturating_sub(window);
            let mut history: Vec<f64> = values[start..i].iter().filter_map(|v| *v).collect();
            if history.len() < MIN_HISTORY {
                continue;
            }
            history.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median = median_of(&history);
            let mut deviations: Vec<f64> = history.iter().map(|v| (v - median).abs()).collect();
            deviations.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let sigma = (MAD_SIGMA * median_of(&deviations)).max(0.01 * median.abs().max(1e-9));
            let threshold = median + k * sigma;
            if value > threshold {
                outliers.push(Outlier {
                    circuit: circuit.to_string(),
                    field: field.to_string(),
                    run_id: runs[i].run_id.clone(),
                    index: i,
                    value,
                    median,
                    threshold,
                });
            }
        }
    }
    outliers
}

/// Summary returned by a successful [`check_stream`].
#[derive(Debug, Clone, Default)]
pub struct StreamCheck {
    /// Total events in the stream.
    pub events: u64,
    /// The run id announced by run-start.
    pub run_id: String,
    /// Exit code reported by run-end.
    pub exit_code: i32,
    /// Per-phase totals from run-end.
    pub phase_ms: BTreeMap<String, f64>,
    /// Total wall-clock from run-end.
    pub total_ms: f64,
}

/// Validates a `nanomap-events-v1` NDJSON stream: every line parses,
/// sequence numbers strictly increase, the stream opens with a
/// schema-tagged run-start and terminates with run-end, per-thread
/// phase-start/phase-end events nest properly, progress fractions stay
/// in `[0, 1]`, and run-end's phase totals are consistent with its
/// total (sequential phases cannot sum past the whole run, modulo
/// timer slack).
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn check_stream(text: &str) -> Result<StreamCheck, String> {
    let mut check = StreamCheck::default();
    let mut last_seq: Option<i64> = None;
    let mut saw_run_start = false;
    let mut last_kind = String::new();
    let mut stacks: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: empty line inside the stream"));
        }
        let event = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let seq = event
            .get("seq")
            .and_then(JsonValue::as_int)
            .ok_or_else(|| format!("line {lineno}: missing `seq`"))?;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!(
                    "line {lineno}: seq {seq} not greater than previous {prev}"
                ));
            }
        }
        last_seq = Some(seq);
        let kind = event
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {lineno}: missing `kind`"))?
            .to_string();
        let tid = event.get("tid").and_then(JsonValue::as_int).unwrap_or(0);
        match kind.as_str() {
            "run-start" => {
                if saw_run_start {
                    return Err(format!("line {lineno}: duplicate run-start"));
                }
                if check.events != 0 {
                    return Err(format!("line {lineno}: run-start is not the first event"));
                }
                match event.get("schema").and_then(JsonValue::as_str) {
                    Some(s) if s == versions::EVENTS => {}
                    other => {
                        return Err(format!("line {lineno}: run-start schema {other:?}"));
                    }
                }
                check.run_id = event
                    .get("run_id")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("line {lineno}: run-start missing `run_id`"))?
                    .to_string();
                saw_run_start = true;
            }
            "phase-start" => {
                let phase = phase_of(&event, lineno)?;
                stacks.entry(tid).or_default().push(phase);
            }
            "phase-end" => {
                let phase = phase_of(&event, lineno)?;
                let top = stacks.entry(tid).or_default().pop();
                if top.as_deref() != Some(phase.as_str()) {
                    return Err(format!(
                        "line {lineno}: phase-end `{phase}` does not match open phase {top:?} on tid {tid}"
                    ));
                }
            }
            "phase-progress" => {
                if let Some(f) = event.get("fraction").and_then(JsonValue::as_f64) {
                    if !(0.0..=1.0).contains(&f) {
                        return Err(format!("line {lineno}: fraction {f} outside [0, 1]"));
                    }
                }
            }
            "run-end" => {
                check.exit_code = event
                    .get("exit_code")
                    .and_then(JsonValue::as_int)
                    .ok_or_else(|| format!("line {lineno}: run-end missing `exit_code`"))?
                    as i32;
                check.phase_ms = crate::diff::number_map(event.get("phase_ms"), "phase_ms")
                    .map_err(|e| format!("line {lineno}: {e}"))?;
                check.total_ms = event
                    .get("total_ms")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("line {lineno}: run-end missing `total_ms`"))?;
                let phase_sum: f64 = check
                    .phase_ms
                    .iter()
                    .filter(|(name, _)| *name != "total_ms" && *name != "budget_ms_remaining")
                    .map(|(_, v)| v)
                    .sum();
                if phase_sum > check.total_ms * 1.05 + 50.0 {
                    return Err(format!(
                        "line {lineno}: phase totals {phase_sum:.1} ms exceed run total {:.1} ms",
                        check.total_ms
                    ));
                }
            }
            "counters" | "degraded" | "recovery-attempt" | "checkpoint" | "service" => {}
            other => return Err(format!("line {lineno}: unknown event kind `{other}`")),
        }
        if !saw_run_start {
            return Err(format!("line {lineno}: `{kind}` before run-start"));
        }
        check.events += 1;
        last_kind = kind;
    }
    if check.events == 0 {
        return Err("empty stream".into());
    }
    if last_kind != "run-end" {
        return Err(format!(
            "stream does not terminate with run-end (last event: `{last_kind}`)"
        ));
    }
    Ok(check)
}

fn phase_of(event: &JsonValue, lineno: usize) -> Result<String, String> {
    event
        .get("phase")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("line {lineno}: missing `phase`"))
}

/// One service lifecycle event of a traced request, parsed from a
/// `nanomap-events-v1` capture written by `nanomapd --events`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the capture's epoch (the bus `t_us` stamp).
    pub t_us: u64,
    /// Lifecycle stage: `queued`, `shed`, `started`, `resumed`,
    /// `cache-hit`, `coalesced`, `preempted`, `completed`.
    pub stage: String,
    /// Client request id.
    pub request: String,
    /// Run id, once known (compute and cache stages).
    pub run_id: Option<String>,
    /// Terminal result code (`completed` and `shed` stages).
    pub code: Option<String>,
    /// Free-form stage detail.
    pub detail: Option<String>,
    /// Stage duration in microseconds, when the stage measures one.
    pub us: Option<u64>,
}

/// Extracts the timeline of one trace id from an event-capture NDJSON
/// text: every `service` event stamped with `trace_id`, in stream
/// order. Malformed lines and other event kinds are skipped, so the
/// parser works on live captures that interleave many requests.
pub fn trace_timeline(text: &str, trace_id: &str) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for line in text.lines() {
        let Ok(value) = json::parse(line) else {
            continue;
        };
        if value.get("kind").and_then(JsonValue::as_str) != Some("service")
            || value.get("trace_id").and_then(JsonValue::as_str) != Some(trace_id)
        {
            continue;
        }
        let text_of = |key: &str| {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        events.push(TraceEvent {
            t_us: value
                .get("t_us")
                .and_then(JsonValue::as_int)
                .unwrap_or(0)
                .max(0) as u64,
            stage: text_of("stage").unwrap_or_default(),
            request: text_of("request").unwrap_or_default(),
            run_id: text_of("run_id"),
            code: text_of("code"),
            detail: text_of("detail"),
            us: value
                .get("us")
                .and_then(JsonValue::as_int)
                .map(|v| v.max(0) as u64),
        });
    }
    events
}

/// Renders a trace timeline as fixed-width table lines, one per event,
/// with times relative to the first event.
pub fn render_trace_timeline(events: &[TraceEvent]) -> Vec<String> {
    let epoch = events.first().map_or(0, |e| e.t_us);
    events
        .iter()
        .map(|e| {
            let mut line = format!(
                "+{:>9.3} ms  {:<10} {}",
                (e.t_us.saturating_sub(epoch)) as f64 / 1_000.0,
                e.stage,
                e.request
            );
            if let Some(run) = &e.run_id {
                line.push_str(&format!("  run {run}"));
            }
            if let Some(code) = &e.code {
                line.push_str(&format!("  code {code}"));
            }
            if let Some(us) = e.us {
                line.push_str(&format!("  {:.3} ms", us as f64 / 1_000.0));
            }
            if let Some(detail) = &e.detail {
                line.push_str(&format!("  ({detail})"));
            }
            line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(circuit: &str, run: &str, total_ms: f64) -> RunRecord {
        RunRecord {
            run_id: run.to_string(),
            circuit: circuit.to_string(),
            objective: "min-at".to_string(),
            place_seed: 1,
            route_seed: 2,
            timestamp: 1_000,
            exit_code: 0,
            degradations: 0,
            recovery_attempts: 0,
            recovery_ms: 0.0,
            peak_rss_kb: Some(4_096),
            trace_id: Some("feedbeef00000001".to_string()),
            metrics: [("num_les".to_string(), 12.0), ("delay_ns".to_string(), 3.5)]
                .into_iter()
                .collect(),
            phase_ms: [
                ("place_ms".to_string(), total_ms * 0.6),
                ("route_ms".to_string(), total_ms * 0.4),
                ("total_ms".to_string(), total_ms),
            ]
            .into_iter()
            .collect(),
        }
    }

    /// Run ids key the ledger and the daemon's result cache: the hash
    /// must never drift, or committed ledgers stop matching new runs.
    #[test]
    fn run_id_is_pinned() {
        assert_eq!(
            run_id(0x0123_4567_89ab_cdef, "min-at", 1, 2),
            "014a5cef8bc1cc64"
        );
    }

    #[test]
    fn run_id_is_deterministic_and_input_sensitive() {
        let base = run_id(0xdead_beef, "min-at", 1, 2);
        assert_eq!(base, run_id(0xdead_beef, "min-at", 1, 2));
        assert_eq!(base.len(), 16);
        assert!(base.chars().all(|c| c.is_ascii_hexdigit()));
        // Every input perturbs the id.
        assert_ne!(base, run_id(0xdead_bee0, "min-at", 1, 2));
        assert_ne!(base, run_id(0xdead_beef, "min-delay", 1, 2));
        assert_ne!(base, run_id(0xdead_beef, "min-at", 7, 2));
        assert_ne!(base, run_id(0xdead_beef, "min-at", 1, 7));
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = record("mac16", "abc123", 120.0);
        let back = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
        // Optional RSS and trace id absent also round-trip.
        let mut bare = rec;
        bare.peak_rss_kb = None;
        bare.trace_id = None;
        assert_eq!(RunRecord::from_json(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn find_by_trace_returns_latest_stamped_record() {
        let mut a = record("mac16", "run-a", 100.0);
        a.trace_id = Some("trace-one".to_string());
        let mut b = record("mac16", "run-b", 101.0);
        b.trace_id = Some("trace-one".to_string());
        let mut c = record("mac16", "run-c", 102.0);
        c.trace_id = None;
        let ledger = Ledger {
            records: vec![a, b, c],
            skipped_lines: Vec::new(),
        };
        assert_eq!(ledger.find_by_trace("trace-one").unwrap().run_id, "run-b");
        assert!(ledger.find_by_trace("trace-two").is_none());
    }

    #[test]
    fn trace_timeline_filters_by_id_and_skips_noise() {
        let capture = concat!(
            "{\"schema\":\"nanomap-events-v1\",\"seq\":1,\"t_us\":100,\"kind\":\"service\",\"trace_id\":\"aa\",\"request\":\"r1\",\"stage\":\"queued\"}\n",
            "{\"schema\":\"nanomap-events-v1\",\"seq\":2,\"t_us\":150,\"kind\":\"counters\"}\n",
            "not json at all\n",
            "{\"schema\":\"nanomap-events-v1\",\"seq\":3,\"t_us\":200,\"kind\":\"service\",\"trace_id\":\"bb\",\"request\":\"r2\",\"stage\":\"queued\"}\n",
            "{\"schema\":\"nanomap-events-v1\",\"seq\":4,\"t_us\":900,\"kind\":\"service\",\"trace_id\":\"aa\",\"request\":\"r1\",\"stage\":\"completed\",\"run_id\":\"rid\",\"code\":\"OK\",\"us\":800}\n",
        );
        let timeline = trace_timeline(capture, "aa");
        assert_eq!(timeline.len(), 2);
        assert_eq!(timeline[0].stage, "queued");
        assert_eq!(timeline[1].stage, "completed");
        assert_eq!(timeline[1].run_id.as_deref(), Some("rid"));
        assert_eq!(timeline[1].code.as_deref(), Some("OK"));
        assert_eq!(timeline[1].us, Some(800));
        let rendered = render_trace_timeline(&timeline);
        assert_eq!(rendered.len(), 2);
        assert!(rendered[0].starts_with("+    0.000 ms"), "{}", rendered[0]);
        assert!(rendered[1].contains("completed"), "{}", rendered[1]);
        assert!(rendered[1].contains("code OK"), "{}", rendered[1]);
        assert!(trace_timeline(capture, "zz").is_empty());
    }

    #[test]
    fn from_json_rejects_foreign_schemas() {
        let line = record("mac16", "abc", 1.0)
            .to_json()
            .to_compact_string()
            .replace(versions::EVENTS, "other-v9");
        let err = RunRecord::from_json(&json::parse(&line).unwrap()).unwrap_err();
        assert!(err.contains("other-v9"), "{err}");
    }

    #[test]
    fn append_creates_appends_and_heals_torn_tails() {
        let dir = std::env::temp_dir().join(format!("nanomap-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/ledger.jsonl");
        append_run(&path, &record("mac16", "run-a", 100.0)).unwrap();
        append_run(&path, &record("mac16", "run-b", 101.0)).unwrap();
        // A foreign writer died mid-line: the tail has no newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"schema\":\"nanomap-ev");
        std::fs::write(&path, &text).unwrap();
        append_run(&path, &record("mac16", "run-c", 102.0)).unwrap();
        let ledger = Ledger::load(&path).unwrap();
        // The torn line stayed its own (skipped) line; every real record
        // survived intact around it.
        assert_eq!(ledger.skipped_lines, vec![3]);
        let ids: Vec<&str> = ledger.records.iter().map(|r| r.run_id.as_str()).collect();
        assert_eq!(ids, ["run-a", "run-b", "run-c"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appends_keep_every_line() {
        let dir = std::env::temp_dir().join(format!("nanomap-concurrent-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ledger.jsonl");
        std::thread::scope(|scope| {
            for writer in ["a", "b"] {
                let path = &path;
                scope.spawn(move || {
                    for i in 0..20 {
                        let id = format!("run-{writer}{i}");
                        append_run(path, &record("mac16", &id, 100.0)).unwrap();
                    }
                });
            }
        });
        let ledger = Ledger::load(&path).unwrap();
        assert!(
            ledger.skipped_lines.is_empty(),
            "{:?}",
            ledger.skipped_lines
        );
        let mut ids: Vec<&str> = ledger.records.iter().map(|r| r.run_id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 40, "a line was lost or duplicated");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn held_lock_fails_the_append_and_leaves_the_ledger_alone() {
        let dir = std::env::temp_dir().join(format!("nanomap-held-lock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ledger.jsonl");
        append_run(&path, &record("mac16", "run-a", 100.0)).unwrap();
        let before = std::fs::read(&path).unwrap();
        // A second open file description conflicts with the appender's
        // flock even within one process.
        let holder = std::fs::OpenOptions::new()
            .write(true)
            .open(lock_path_for(&path))
            .unwrap();
        holder.lock().unwrap();
        let err = append_run_waiting(&path, &record("mac16", "run-b", 101.0), 50).unwrap_err();
        assert!(err.contains("still held"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        drop(holder);
        append_run(&path, &record("mac16", "run-b", 101.0)).unwrap();
        assert_eq!(Ledger::load(&path).unwrap().records.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_last_line_is_skipped_not_fatal() {
        let good = record("mac16", "run-a", 100.0)
            .to_json()
            .to_compact_string();
        let torn = &good[..good.len() / 2];
        let ledger = Ledger::parse(&format!("{good}\n{torn}"));
        assert_eq!(ledger.records.len(), 1);
        assert_eq!(ledger.skipped_lines, vec![2]);
    }

    #[test]
    fn find_matches_prefixes_latest_first() {
        let ledger = Ledger::parse(&format!(
            "{}\n{}\n",
            record("mac16", "aabb0011", 100.0)
                .to_json()
                .to_compact_string(),
            record("mac16", "aabb0022", 200.0)
                .to_json()
                .to_compact_string(),
        ));
        assert_eq!(ledger.find("aabb00").unwrap().run_id, "aabb0022");
        assert_eq!(ledger.find("aabb0011").unwrap().run_id, "aabb0011");
        assert!(ledger.find("ffff").is_none());
    }

    #[test]
    fn sparkline_spans_the_range() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▄▄▄");
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(line, "▁▂▃▄▅▆▇█");
        assert_eq!(sparkline(&[1.0, f64::NAN, 2.0]), "▁?█");
    }

    #[test]
    fn trend_is_deterministic_for_a_fixed_ledger() {
        let text: String = [
            record("mac16", "a", 100.0),
            record("fir8", "b", 50.0),
            record("mac16", "c", 110.0),
        ]
        .iter()
        .map(|r| r.to_json().to_compact_string() + "\n")
        .collect();
        let ledger = Ledger::parse(&text);
        let rows = trend(&ledger, None, &["total_ms", "num_les"]);
        let rendered: Vec<String> = rows.iter().map(TrendRow::render).collect();
        assert_eq!(
            rendered,
            trend(&ledger, None, &["total_ms", "num_les"])
                .iter()
                .map(TrendRow::render)
                .collect::<Vec<_>>()
        );
        // Circuits in first-seen order, fields in the order given.
        assert_eq!(rows[0].circuit, "mac16");
        assert_eq!(rows[0].field, "total_ms");
        assert_eq!(rows[0].values, vec![100.0, 110.0]);
        assert_eq!(rows[1].field, "num_les");
        assert_eq!(rows[2].circuit, "fir8");
        // Benchmark filter narrows to one circuit.
        assert_eq!(trend(&ledger, Some("fir8"), &["total_ms"]).len(), 1);
    }

    #[test]
    fn regress_flags_an_injected_regression() {
        // Nine quiet runs around 100 ms, then a 1.6x jump.
        let quiet = [100.0, 101.0, 99.5, 100.5, 100.2, 99.8, 100.9, 99.6, 100.3];
        let quiet_text: String = quiet
            .iter()
            .enumerate()
            .map(|(i, ms)| {
                record("mac16", &format!("run-{i}"), *ms)
                    .to_json()
                    .to_compact_string()
                    + "\n"
            })
            .collect();
        // The quiet prefix alone never flags.
        let quiet_ledger = Ledger::parse(&quiet_text);
        assert!(regress(&quiet_ledger, None, "total_ms", REGRESS_WINDOW, REGRESS_K).is_empty());
        let text = quiet_text
            + &record("mac16", "run-slow", 160.0)
                .to_json()
                .to_compact_string()
            + "\n";
        let ledger = Ledger::parse(&text);
        let outliers = regress(&ledger, None, "total_ms", REGRESS_WINDOW, REGRESS_K);
        assert_eq!(outliers.len(), 1, "{outliers:?}");
        assert_eq!(outliers[0].run_id, "run-slow");
        assert_eq!(outliers[0].index, 9);
        assert!(outliers[0].value > outliers[0].threshold);
    }

    #[test]
    fn regress_tolerates_flat_deterministic_series() {
        // Bit-identical reruns (MAD = 0) must not flag on float jitter.
        let mut text = String::new();
        for i in 0..8 {
            let line = record(
                "mac16",
                &format!("run-{i}"),
                100.0 + f64::from(i % 2) * 1e-9,
            );
            text.push_str(&line.to_json().to_compact_string());
            text.push('\n');
        }
        let ledger = Ledger::parse(&text);
        assert!(regress(&ledger, None, "total_ms", REGRESS_WINDOW, REGRESS_K).is_empty());
    }

    fn stream_line(seq: u64, body: &str) -> String {
        format!("{{\"seq\":{seq},\"ts_us\":0,\"tid\":0,{body}}}\n")
    }

    fn valid_stream() -> String {
        let mut s = String::new();
        s.push_str(&stream_line(
            1,
            &format!(
                "\"kind\":\"run-start\",\"schema\":\"{}\",\"run_id\":\"abc\",\
                 \"circuit\":\"mac16\",\"objective\":\"min-at\",\
                 \"place_seed\":1,\"route_seed\":2",
                versions::EVENTS
            ),
        ));
        s.push_str(&stream_line(
            2,
            "\"kind\":\"phase-start\",\"phase\":\"flow\",\"depth\":0",
        ));
        s.push_str(&stream_line(
            3,
            "\"kind\":\"phase-progress\",\"phase\":\"flow\",\"completed\":1,\"fraction\":0.5",
        ));
        s.push_str(&stream_line(
            4,
            "\"kind\":\"phase-end\",\"phase\":\"flow\",\"depth\":0,\"duration_us\":10",
        ));
        s.push_str(&stream_line(
            5,
            "\"kind\":\"run-end\",\"run_id\":\"abc\",\"status\":\"ok\",\"exit_code\":0,\
             \"phase_ms\":{\"place_ms\":2.0,\"route_ms\":1.0},\"total_ms\":4.0",
        ));
        s
    }

    #[test]
    fn check_stream_accepts_a_well_formed_stream() {
        let check = check_stream(&valid_stream()).unwrap();
        assert_eq!(check.events, 5);
        assert_eq!(check.run_id, "abc");
        assert_eq!(check.exit_code, 0);
        assert_eq!(check.total_ms, 4.0);
        assert_eq!(check.phase_ms.len(), 2);
    }

    #[test]
    fn check_stream_rejects_broken_streams() {
        // Sequence numbers must strictly increase.
        let reordered = valid_stream().replace("{\"seq\":4,", "{\"seq\":2,");
        assert!(check_stream(&reordered).unwrap_err().contains("seq"));
        // The stream must terminate with run-end.
        let unterminated: String = valid_stream()
            .lines()
            .take(4)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(check_stream(&unterminated)
            .unwrap_err()
            .contains("terminate"));
        // run-start must come first.
        let headless: String = valid_stream()
            .lines()
            .skip(1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(check_stream(&headless)
            .unwrap_err()
            .contains("before run-start"));
        // Progress fractions stay in [0, 1].
        let wild = valid_stream().replace("\"fraction\":0.5", "\"fraction\":1.5");
        assert!(check_stream(&wild).unwrap_err().contains("fraction"));
        // Phase nesting is enforced.
        let crossed = valid_stream().replace(
            "\"kind\":\"phase-end\",\"phase\":\"flow\"",
            "\"kind\":\"phase-end\",\"phase\":\"other\"",
        );
        assert!(check_stream(&crossed).unwrap_err().contains("phase-end"));
        // Phase totals cannot dwarf the run total.
        let bloated = valid_stream().replace("\"place_ms\":2.0", "\"place_ms\":2000.0");
        assert!(check_stream(&bloated).unwrap_err().contains("exceed"));
        assert!(check_stream("").unwrap_err().contains("empty"));
    }
}
