//! The `nanomapd-v1` wire protocol and the retrying client.
//!
//! `nanomapd` (the `crates/daemon` server) speaks line-delimited JSON
//! over TCP or a unix socket: one request line in, a short stream of
//! lifecycle lines out, terminated by exactly one `result` line. This
//! module owns everything both sides must agree on — request/response
//! shapes, parsing, rendering — plus the [`submit_with_retry`] client
//! used by `nanomap submit` (jittered exponential backoff, idempotent
//! by construction because the daemon keys its cache on the netlist
//! fingerprint + objective + seeds, not on the request id).
//!
//! ## Request
//!
//! ```json
//! {"schema":"nanomapd-v1","op":"map","id":"r1",
//!  "design_path":"designs/accumulator.vhd","objective":"at",
//!  "time_budget_ms":2000}
//! ```
//!
//! Designs arrive by path (`design_path`, resolved by the server) or
//! inline (`design_text` + `format`). `op` is `map`, `ping` or `stats`.
//!
//! ## Response stream
//!
//! ```json
//! {"schema":"nanomapd-v1","event":"queued","request":"r1","depth":2}
//! {"schema":"nanomapd-v1","event":"started","request":"r1"}
//! {"schema":"nanomapd-v1","event":"result","request":"r1","status":"ok",
//!  "cache":"miss","run_id":"8d3…","report":{…}}
//! ```
//!
//! `preempted`/`resumed` lines appear when the daemon time-slices the
//! request through its checkpoint machinery. Rejections are `result`
//! lines with `"status":"error"` and a typed `code` —
//! [`code::SHED`]/[`code::SHUTDOWN`] are retryable (429-style, with a
//! `retry_after_ms` hint), everything else is permanent.
//!
//! The `report` field is always the **last** field of an `ok` result
//! line and is spliced verbatim from the daemon's cache, so a repeat
//! submission returns a byte-identical report ([`extract_report_text`]).

use std::borrow::Cow;
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

use nanomap_netlist::{blif, vhdl, LutNetwork};
use nanomap_observe::rng::XorShift64Star;
use nanomap_observe::{json, JsonValue};
use nanomap_techmap::{expand, ExpandOptions};

use crate::artifact::versions;
use crate::objective::Objective;

/// Schema tag on every request and response line.
pub const SERVICE_SCHEMA: &str = versions::SERVICE;

/// Typed rejection codes carried in `"status":"error"` result lines.
pub mod code {
    /// Admission control shed the request (queue full, or no
    /// `time_budget_ms` while the queue is deep). Retryable.
    pub const SHED: &str = "shed";
    /// The daemon is draining for shutdown. Retryable (elsewhere).
    pub const SHUTDOWN: &str = "shutdown";
    /// Malformed request, unreadable design, or netlist errors.
    pub const INVALID: &str = "invalid";
    /// The worker panicked on this request; the daemon survived.
    pub const PANIC: &str = "panic";
    /// The per-request budget expired (strict mode).
    pub const BUDGET: &str = "budget";
    /// The flow failed (no feasible folding, routing failure, …).
    pub const FAILED: &str = "failed";
}

/// Accounting classes of end-to-end latency, in export order: `ok` and
/// every typed rejection code. The daemon's `stats` document keys its
/// `latency_us` histograms by these, and `nanomap top` reads them back.
pub const LATENCY_CLASSES: [&str; 7] = [
    "ok",
    code::SHED,
    code::SHUTDOWN,
    code::INVALID,
    code::PANIC,
    code::BUDGET,
    code::FAILED,
];

/// How a design reaches the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSource {
    /// A path the *server* resolves (daemon and client share a filesystem).
    Path(String),
    /// Inline design text.
    Text {
        /// `"vhdl"` or `"blif"`.
        format: String,
        /// The design source itself.
        text: String,
    },
}

impl DesignSource {
    /// Reads and parses the design into a LUT network. The format is
    /// the path's extension or the inline `format`: `blif` as is,
    /// `vhd`/`vhdl` expanded to `lut_inputs`-input LUTs.
    ///
    /// # Errors
    ///
    /// Describes an unreadable file, an unknown format, or a parse or
    /// expansion failure, prefixed with the path (or `inline <format>`).
    pub fn load(&self, lut_inputs: u32) -> Result<LutNetwork, String> {
        let (origin, format, text) = match self {
            Self::Path(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let extension = path.rsplit_once('.').map_or("", |(_, ext)| ext);
                (path.clone(), extension, Cow::Owned(text))
            }
            Self::Text { format, text } => (
                format!("inline {format}"),
                format.as_str(),
                Cow::Borrowed(text.as_str()),
            ),
        };
        let fail = |e: &dyn std::fmt::Display| format!("{origin}: {e}");
        match format {
            "blif" => blif::parse(&text).map_err(|e| fail(&e)),
            "vhd" | "vhdl" => {
                let circuit = vhdl::parse(&text).map_err(|e| fail(&e))?;
                let options = ExpandOptions {
                    lut_inputs,
                    ..ExpandOptions::default()
                };
                expand(&circuit, options).map_err(|e| fail(&e))
            }
            _ if matches!(self, Self::Path(_)) => {
                Err(fail(&"unknown extension (use .vhd/.vhdl/.blif)"))
            }
            other => Err(format!("unknown design format {other:?}")),
        }
    }
}

/// A `map` request as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct MapRequest {
    /// Client-chosen id echoed on every response line.
    pub id: String,
    /// Where the design comes from.
    pub source: DesignSource,
    /// Objective goal: `at`, `delay` or `area`.
    pub objective: String,
    /// LE budget for `delay` (constraint) — `feasible` is not exposed.
    pub max_les: Option<u32>,
    /// Delay budget in ns for `area`.
    pub max_delay_ns: Option<f64>,
    /// Per-request wall-clock budget. Required by admission control
    /// once the queue is deeper than the daemon's free-admission line.
    pub time_budget_ms: Option<u64>,
    /// Client-propagated trace id. When absent the daemon assigns one
    /// and echoes it on every lifecycle and result line, so shed
    /// requests stay attributable across backoff retries.
    pub trace_id: Option<String>,
}

impl MapRequest {
    /// A request for a design file path with defaults everywhere else.
    pub fn for_path(id: impl Into<String>, path: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            source: DesignSource::Path(path.into()),
            objective: "at".into(),
            max_les: None,
            max_delay_ns: None,
            time_budget_ms: None,
            trace_id: None,
        }
    }

    /// Resolves the objective fields into the flow's typed objective.
    ///
    /// # Errors
    ///
    /// Describes an unknown goal string.
    pub fn to_objective(&self) -> Result<Objective, String> {
        // An absent goal on the wire means the default, `at`.
        let goal = Some(self.objective.as_str()).filter(|g| !g.is_empty());
        Objective::from_goal(goal.unwrap_or("at"), self.max_les, self.max_delay_ns)
    }

    /// Renders the request as one wire line (no trailing newline).
    pub fn to_wire(&self) -> String {
        let mut value = JsonValue::object()
            .with("schema", SERVICE_SCHEMA)
            .with("op", "map")
            .with("id", self.id.as_str());
        match &self.source {
            DesignSource::Path(p) => value = value.with("design_path", p.as_str()),
            DesignSource::Text { format, text } => {
                value = value
                    .with("format", format.as_str())
                    .with("design_text", text.as_str());
            }
        }
        value = value.with("objective", self.objective.as_str());
        if let Some(a) = self.max_les {
            value = value.with("max_les", u64::from(a));
        }
        if let Some(d) = self.max_delay_ns {
            value = value.with("max_delay_ns", d);
        }
        if let Some(b) = self.time_budget_ms {
            value = value.with("time_budget_ms", b);
        }
        if let Some(t) = &self.trace_id {
            value = value.with("trace_id", t.as_str());
        }
        value.to_compact_string()
    }
}

/// Any request line the daemon accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Map a design.
    Map(MapRequest),
    /// Liveness + health probe (uptime, version, drain state).
    Ping,
    /// Full telemetry snapshot (`nanomapd-stats-v1` document).
    Stats,
    /// Ask the daemon to begin a graceful drain (same path as SIGTERM).
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem (bad JSON, wrong schema,
    /// missing fields) — the daemon answers these with [`code::INVALID`].
    pub fn parse(line: &str) -> Result<Self, String> {
        let value = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        value.check_schema(SERVICE_SCHEMA)?;
        match value.opt("op")? {
            Some("ping") => Ok(Self::Ping),
            Some("stats") => Ok(Self::Stats),
            Some("shutdown") => Ok(Self::Shutdown),
            Some("map") => {
                let source = match (value.opt("design_path")?, value.opt("design_text")?) {
                    (Some(p), None) => DesignSource::Path(p),
                    (None, Some(text)) => DesignSource::Text {
                        format: value.opt("format")?.unwrap_or_else(|| "vhdl".into()),
                        text,
                    },
                    (Some(_), Some(_)) => {
                        return Err("design_path and design_text are mutually exclusive".into())
                    }
                    (None, None) => return Err("missing design_path or design_text".into()),
                };
                Ok(Self::Map(MapRequest {
                    id: value.opt("id")?.unwrap_or_else(|| "anon".into()),
                    source,
                    objective: value.opt("objective")?.unwrap_or_else(|| "at".into()),
                    max_les: value.opt("max_les")?,
                    max_delay_ns: value.opt("max_delay_ns")?,
                    time_budget_ms: value.opt("time_budget_ms")?,
                    trace_id: value.opt("trace_id")?,
                }))
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// One parsed response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Admitted; position in the queue.
    Queued {
        /// Queue depth at admission.
        depth: u64,
    },
    /// A worker picked the request up.
    Started,
    /// The daemon time-sliced the request out; a checkpoint holds its
    /// progress.
    Preempted,
    /// A worker resumed the request from its checkpoint.
    Resumed,
    /// The terminal line (exactly one per request).
    Result(WireResult),
    /// Answer to `ping` — a health check load balancers can act on.
    Pong {
        /// Requests currently mapping.
        inflight: u64,
        /// Requests waiting in the admission queue.
        queued: u64,
        /// Results served since startup (cache hits included).
        served: u64,
        /// Milliseconds since the daemon started.
        uptime_ms: u64,
        /// Protocol version string ([`crate::artifact::versions::SERVICE`]).
        version: String,
        /// True once a graceful drain began: alive but not admitting.
        draining: bool,
        /// Age of the last persisted stats snapshot; `None` when the
        /// ticker has not written one yet (or is disabled).
        snapshot_age_ms: Option<u64>,
    },
    /// Answer to `stats`: the inner `nanomapd-stats-v1` document.
    Stats(JsonValue),
}

/// The terminal `result` line, pre-parse of the verbatim report text.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// Echo of the request id.
    pub request: String,
    /// `true` for `"status":"ok"`.
    pub ok: bool,
    /// `hit`, `miss` or absent (errors).
    pub cache: Option<String>,
    /// Flight-recorder id of the serving run.
    pub run_id: Option<String>,
    /// Verbatim report JSON (ok results only), byte-identical across
    /// cache hits of the same request.
    pub report_text: Option<String>,
    /// Typed error code (error results only; see [`code`]).
    pub code: Option<String>,
    /// Backoff hint for retryable rejections.
    pub retry_after_ms: Option<u64>,
    /// Server-echoed trace id (assigned by the daemon when the client
    /// did not propagate one). Present on every daemon-rendered result,
    /// including sheds, so rejected work stays attributable.
    pub trace_id: Option<String>,
    /// Human-readable diagnosis.
    pub detail: Option<String>,
}

impl WireResult {
    /// True when the client should back off and retry.
    #[must_use]
    pub fn retryable(&self) -> bool {
        matches!(self.code.as_deref(), Some(code::SHED | code::SHUTDOWN))
    }
}

impl Response {
    /// Parses one response line. `result` lines keep the report text
    /// verbatim (see [`extract_report_text`]).
    ///
    /// # Errors
    ///
    /// Describes the first structural problem.
    pub fn parse(line: &str) -> Result<Self, String> {
        let value = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        value.check_schema(SERVICE_SCHEMA)?;
        match value.opt("event")? {
            Some("queued") => Ok(Self::Queued {
                depth: value.opt("depth")?.unwrap_or(0),
            }),
            Some("started") => Ok(Self::Started),
            Some("preempted") => Ok(Self::Preempted),
            Some("resumed") => Ok(Self::Resumed),
            Some("pong") => Ok(Self::Pong {
                inflight: value.opt("inflight")?.unwrap_or(0),
                queued: value.opt("queued")?.unwrap_or(0),
                served: value.opt("served")?.unwrap_or(0),
                uptime_ms: value.opt("uptime_ms")?.unwrap_or(0),
                version: value.opt("version")?.unwrap_or_default(),
                draining: value.opt("draining")?.unwrap_or(false),
                snapshot_age_ms: value.opt("snapshot_age_ms")?,
            }),
            Some("stats") => Ok(Self::Stats(value.field("stats")?.clone())),
            Some("result") => {
                let ok = value.opt("status")? == Some("ok");
                Ok(Self::Result(WireResult {
                    request: value.opt("request")?.unwrap_or_default(),
                    ok,
                    cache: value.opt("cache")?,
                    run_id: value.opt("run_id")?,
                    report_text: ok.then(|| extract_report_text(line)).flatten(),
                    code: value.opt("code")?,
                    retry_after_ms: value.opt("retry_after_ms")?,
                    trace_id: value.opt("trace_id")?,
                    detail: value.opt("detail")?,
                }))
            }
            other => Err(format!("unknown event {other:?}")),
        }
    }
}

/// Renders an `ok` result line. `report_text` must be compact JSON; it
/// is spliced in verbatim as the final field, which is what makes
/// cache-hit responses byte-identical to the original serve. The trace
/// id sits *before* the report so [`extract_report_text`] stays exact.
#[must_use]
pub fn render_ok_result(
    request: &str,
    run_id: &str,
    cache: &str,
    trace: &str,
    report_text: &str,
) -> String {
    format!(
        "{{\"schema\":\"{SERVICE_SCHEMA}\",\"event\":\"result\",\"request\":{},\"status\":\"ok\",\"cache\":\"{cache}\",\"run_id\":\"{run_id}\",\"trace_id\":\"{trace}\",\"report\":{report_text}}}",
        JsonValue::from(request).to_compact_string(),
    )
}

/// Renders an error result line with a typed code.
#[must_use]
pub fn render_error_result(
    request: &str,
    error_code: &str,
    detail: &str,
    retry_after_ms: Option<u64>,
    trace: Option<&str>,
) -> String {
    let mut value = JsonValue::object()
        .with("schema", SERVICE_SCHEMA)
        .with("event", "result")
        .with("request", request)
        .with("status", "error")
        .with("code", error_code);
    if let Some(ms) = retry_after_ms {
        value = value.with("retry_after_ms", ms);
    }
    if let Some(t) = trace {
        value = value.with("trace_id", t);
    }
    value.with("detail", detail).to_compact_string()
}

/// Renders a non-terminal lifecycle line (`queued`/`started`/…).
#[must_use]
pub fn render_lifecycle(
    event: &str,
    request: &str,
    depth: Option<u64>,
    trace: Option<&str>,
) -> String {
    let mut value = JsonValue::object()
        .with("schema", SERVICE_SCHEMA)
        .with("event", event)
        .with("request", request);
    if let Some(d) = depth {
        value = value.with("depth", d);
    }
    if let Some(t) = trace {
        value = value.with("trace_id", t);
    }
    value.to_compact_string()
}

/// Pulls the verbatim `report` object text out of an `ok` result line.
/// The server renders `report` as the final field, so the text is the
/// balanced region between `"report":` and the closing brace.
#[must_use]
pub fn extract_report_text(line: &str) -> Option<String> {
    let marker = "\"report\":";
    let start = line.find(marker)? + marker.len();
    let end = line.trim_end().len().checked_sub(1)?;
    (end > start).then(|| line[start..end].to_string())
}

// ---------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------

/// Retry policy for [`submit_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total connection/submission attempts before giving up.
    pub max_attempts: u32,
    /// First backoff; doubles per attempt (full jitter on top).
    pub base_backoff_ms: u64,
    /// Backoff ceiling.
    pub max_backoff_ms: u64,
    /// Seed for the jitter PRNG — fixed seed, reproducible schedule.
    pub seed: u64,
    /// Read timeout while waiting for response lines (0 = none).
    pub read_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_backoff_ms: 50,
            max_backoff_ms: 2_000,
            seed: 1,
            read_timeout_ms: 120_000,
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before attempt `attempt` (0-based retry count).
    fn backoff(&self, attempt: u32, rng: &mut XorShift64Star) -> Duration {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_backoff_ms);
        // Full jitter in [exp/2, exp): desynchronizes a retry stampede
        // without ever collapsing the wait to zero.
        let half = (exp / 2).max(1);
        Duration::from_millis(half + rng.below(half))
    }

    /// The one wait before retry `attempt` (0-based): the server's
    /// `retry_after_ms` hint, capped at `max_backoff_ms`, when the last
    /// attempt was a rejection carrying one; the jittered backoff
    /// otherwise (connect failures, torn connections, hintless
    /// rejections).
    fn retry_delay(&self, attempt: u32, hint: Option<u64>, rng: &mut XorShift64Star) -> Duration {
        match hint {
            Some(hint) => Duration::from_millis(hint.min(self.max_backoff_ms)),
            None => self.backoff(attempt, rng),
        }
    }
}

/// What one successful submission observed.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The terminal result (ok or a permanent rejection).
    pub result: WireResult,
    /// Lifecycle events seen before the result, in order.
    pub lifecycle: Vec<Response>,
    /// 1-based attempt number that produced the result.
    pub attempts: u32,
    /// Retryable rejections absorbed along the way (shed/shutdown),
    /// in order — each carries the server-echoed trace id so shed
    /// attempts remain attributable after the eventual success.
    pub rejections: Vec<WireResult>,
}

/// Connects, submits and waits out one `map` request with jittered
/// exponential backoff across connect failures, torn connections and
/// retryable rejections ([`code::SHED`], [`code::SHUTDOWN`]).
/// Idempotent: the daemon's cache key is derived from the design and
/// objective, so re-submission after an ambiguous failure re-serves the
/// same result rather than recomputing it.
///
/// # Errors
///
/// Describes the last failure once `policy.max_attempts` is exhausted.
/// A *permanent* rejection (invalid request, panic, flow failure) is
/// returned as `Ok` with `result.ok == false` — it carries the typed
/// code and will not change on retry.
pub fn submit_with_retry(
    addr: &str,
    request: &MapRequest,
    policy: &RetryPolicy,
) -> Result<Submission, String> {
    let mut rng = XorShift64Star::new(policy.seed);
    let mut last_failure = String::from("no attempts made");
    let mut rejections = Vec::new();
    let mut hint_ms = None;
    for attempt in 0..policy.max_attempts {
        if attempt > 0 {
            std::thread::sleep(policy.retry_delay(attempt - 1, hint_ms.take(), &mut rng));
        }
        match submit_once(addr, request, policy) {
            Ok((result, lifecycle)) => {
                if result.retryable() {
                    hint_ms = result.retry_after_ms;
                    last_failure = format!(
                        "rejected ({}): {}",
                        result.code.as_deref().unwrap_or("?"),
                        result.detail.as_deref().unwrap_or("")
                    );
                    rejections.push(result);
                    continue;
                }
                return Ok(Submission {
                    result,
                    lifecycle,
                    attempts: attempt + 1,
                    rejections,
                });
            }
            Err(e) => last_failure = e,
        }
    }
    Err(format!(
        "giving up after {} attempts: {last_failure}",
        policy.max_attempts
    ))
}

/// One connect + submit + read-to-result cycle.
fn submit_once(
    addr: &str,
    request: &MapRequest,
    policy: &RetryPolicy,
) -> Result<(WireResult, Vec<Response>), String> {
    let mut reader = send_request(addr, &request.to_wire(), policy.read_timeout_ms)?;
    let mut lifecycle = Vec::new();
    loop {
        match read_response(&mut reader, addr)? {
            Response::Result(result) => return Ok((result, lifecycle)),
            other => lifecycle.push(other),
        }
    }
}

/// Reads and parses the next response line.
fn read_response(reader: &mut BufReader<Conn>, addr: &str) -> Result<Response, String> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    if n == 0 {
        return Err(format!("{addr} closed the connection before a response"));
    }
    Response::parse(line.trim_end())
}

/// Connects, sends one request line and hands back the response side,
/// reads bounded by `timeout_ms` (0 = unbounded).
fn send_request(addr: &str, line: &str, timeout_ms: u64) -> Result<BufReader<Conn>, String> {
    let mut conn = Conn::connect(addr)?;
    if timeout_ms > 0 {
        conn.set_read_timeout(Some(Duration::from_millis(timeout_ms)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
    }
    conn.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send to {addr}: {e}"))?;
    Ok(BufReader::new(conn))
}

/// Fetches one `nanomapd-stats-v1` snapshot via the `stats` op and
/// returns the inner stats document.
///
/// # Errors
///
/// On connect/read failure or a non-stats response.
pub fn query_stats(addr: &str, timeout_ms: u64) -> Result<JsonValue, String> {
    let request = JsonValue::object()
        .with("schema", SERVICE_SCHEMA)
        .with("op", "stats")
        .to_compact_string();
    match read_response(&mut send_request(addr, &request, timeout_ms)?, addr)? {
        Response::Stats(doc) => Ok(doc),
        other => Err(format!("expected a stats response, got {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Transport: the one place an address picks TCP or a unix socket.
// ---------------------------------------------------------------------

/// A connected stream: TCP for `host:port`, a unix socket for an
/// address containing `/`. Client and daemon share it.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(std::net::TcpStream),
    /// A unix-domain stream.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

/// Dispatches one expression over both [`Conn`] arms.
macro_rules! each_transport {
    ($value:expr, $s:ident => $body:expr) => {
        match $value {
            Self::Tcp($s) => $body,
            #[cfg(unix)]
            Self::Unix($s) => $body,
        }
    };
}

/// The typed error for a unix-socket address on a platform without them.
#[cfg(not(unix))]
fn no_unix_sockets(addr: &str) -> String {
    format!("unix socket {addr} unsupported on this platform")
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Describes the connect failure.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let failed = |e| format!("connect {addr}: {e}");
        if addr.contains('/') {
            #[cfg(not(unix))]
            return Err(no_unix_sockets(addr));
            #[cfg(unix)]
            return std::os::unix::net::UnixStream::connect(addr)
                .map(Self::Unix)
                .map_err(failed);
        }
        std::net::TcpStream::connect(addr)
            .map(Self::Tcp)
            .map_err(failed)
    }

    /// Bounds every later read by `timeout` (`None` = block forever).
    ///
    /// # Errors
    ///
    /// When the socket refuses the option.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        each_transport!(self, s => s.set_read_timeout(timeout))
    }

    /// A second handle on the same stream (one side reads, one writes).
    ///
    /// # Errors
    ///
    /// When the descriptor cannot be duplicated.
    pub fn try_clone(&self) -> std::io::Result<Self> {
        Ok(match self {
            Self::Tcp(s) => Self::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Self::Unix(s) => Self::Unix(s.try_clone()?),
        })
    }
}

impl std::io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        each_transport!(self, s => s.read(buf))
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        each_transport!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        each_transport!(self, s => s.flush())
    }
}

/// A bound, blocking listener on the address [`Conn::connect`]
/// reaches. Its thread sleeps in [`Listener::accept`] until a client
/// arrives; whoever stops it sets its own stop flag first and then
/// wakes it with [`Listener::wake`].
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(std::net::TcpListener),
    /// A unix-domain listener; a stale socket file is replaced at bind.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    /// Binds `addr` (TCP port 0 picks a free port).
    ///
    /// # Errors
    ///
    /// Describes the bind failure.
    pub fn bind(addr: &str) -> Result<Self, String> {
        let failed = |e| format!("bind {addr}: {e}");
        if addr.contains('/') {
            #[cfg(not(unix))]
            return Err(no_unix_sockets(addr));
            #[cfg(unix)]
            {
                let _ = std::fs::remove_file(addr);
                return std::os::unix::net::UnixListener::bind(addr)
                    .map(Self::Unix)
                    .map_err(failed);
            }
        }
        std::net::TcpListener::bind(addr)
            .map(Self::Tcp)
            .map_err(failed)
    }

    /// The bound address: the resolved `host:port`, or the socket path.
    #[must_use]
    pub fn addr(&self) -> String {
        match self {
            Self::Tcp(l) => l.local_addr().map(|a| a.to_string()).unwrap_or_default(),
            #[cfg(unix)]
            Self::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_default(),
        }
    }

    /// Blocks until a client connects, then returns its connection.
    ///
    /// # Errors
    ///
    /// The accept failure (such as running out of descriptors).
    pub fn accept(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Self::Tcp(l) => Conn::Tcp(l.accept()?.0),
            #[cfg(unix)]
            Self::Unix(l) => Conn::Unix(l.accept()?.0),
        })
    }

    /// Wakes the thread blocked in [`Listener::accept`] on the listener
    /// bound at `bound` (its [`Listener::addr`]) with one connection of
    /// its own. An unspecified IP (`0.0.0.0`, `::`) is reached through
    /// the loopback address of the same family.
    ///
    /// # Errors
    ///
    /// Describes the connect failure; the listener then stays asleep.
    pub fn wake(bound: &str) -> Result<(), String> {
        use std::net::SocketAddr::{V4, V6};
        let target = match bound.parse() {
            Ok(V4(a)) if a.ip().is_unspecified() => format!("127.0.0.1:{}", a.port()),
            Ok(V6(a)) if a.ip().is_unspecified() => format!("[::1]:{}", a.port()),
            _ => bound.to_string(),
        };
        Conn::connect(&target).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_request_round_trips_on_the_wire() {
        let request = MapRequest {
            id: "r1".into(),
            source: DesignSource::Path("designs/accumulator.vhd".into()),
            objective: "delay".into(),
            max_les: Some(64),
            max_delay_ns: None,
            time_budget_ms: Some(2_000),
            trace_id: Some("feedface01020304".into()),
        };
        let line = request.to_wire();
        match Request::parse(&line).unwrap() {
            Request::Map(back) => assert_eq!(back, request),
            other => panic!("{other:?}"),
        }
        // Inline text variant too.
        let inline = MapRequest {
            source: DesignSource::Text {
                format: "blif".into(),
                text: ".model x\n.end\n".into(),
            },
            ..request
        };
        match Request::parse(&inline.to_wire()).unwrap() {
            Request::Map(back) => assert_eq!(back, inline),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn objectives_resolve_and_reject() {
        let mut request = MapRequest::for_path("r", "d.vhd");
        assert_eq!(
            request.to_objective().unwrap(),
            Objective::MinAreaDelayProduct
        );
        request.objective = "delay".into();
        request.max_les = Some(10);
        assert_eq!(
            request.to_objective().unwrap(),
            Objective::MinDelay { max_les: Some(10) }
        );
        request.objective = "bogus".into();
        assert!(request.to_objective().is_err());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"schema\":\"other-v1\",\"op\":\"ping\"}").is_err());
        let no_design = format!("{{\"schema\":\"{SERVICE_SCHEMA}\",\"op\":\"map\"}}");
        assert!(Request::parse(&no_design).unwrap_err().contains("design"));
        let both = format!(
            "{{\"schema\":\"{SERVICE_SCHEMA}\",\"op\":\"map\",\"design_path\":\"a\",\"design_text\":\"b\"}}"
        );
        assert!(Request::parse(&both).is_err());
    }

    #[test]
    fn ok_result_lines_carry_the_report_verbatim() {
        let report = "{\"circuit\":\"acc\",\"delay_ns\":17.02}";
        let line = render_ok_result("r1", "deadbeef00000000", "hit", "feedface01020304", report);
        match Response::parse(&line).unwrap() {
            Response::Result(result) => {
                assert!(result.ok);
                assert_eq!(result.cache.as_deref(), Some("hit"));
                assert_eq!(result.run_id.as_deref(), Some("deadbeef00000000"));
                assert_eq!(result.trace_id.as_deref(), Some("feedface01020304"));
                assert_eq!(result.report_text.as_deref(), Some(report));
                assert!(!result.retryable());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shed_results_are_retryable_with_hint() {
        let line = render_error_result(
            "r1",
            code::SHED,
            "queue full (16)",
            Some(120),
            Some("aa55aa5500000000"),
        );
        match Response::parse(&line).unwrap() {
            Response::Result(result) => {
                assert!(!result.ok);
                assert!(result.retryable());
                assert_eq!(result.retry_after_ms, Some(120));
                assert_eq!(result.code.as_deref(), Some(code::SHED));
                assert_eq!(result.trace_id.as_deref(), Some("aa55aa5500000000"));
            }
            other => panic!("{other:?}"),
        }
        let permanent = render_error_result("r1", code::PANIC, "worker panicked", None, None);
        match Response::parse(&permanent).unwrap() {
            Response::Result(result) => assert!(!result.retryable()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lifecycle_lines_round_trip() {
        assert_eq!(
            Response::parse(&render_lifecycle("queued", "r1", Some(3), Some("ab"))).unwrap(),
            Response::Queued { depth: 3 }
        );
        assert_eq!(
            Response::parse(&render_lifecycle("preempted", "r1", None, None)).unwrap(),
            Response::Preempted
        );
    }

    #[test]
    fn stats_op_and_response_round_trip() {
        assert_eq!(
            Request::parse(&format!(
                "{{\"schema\":\"{SERVICE_SCHEMA}\",\"op\":\"stats\"}}"
            ))
            .unwrap(),
            Request::Stats
        );
        let line = format!(
            "{{\"schema\":\"{SERVICE_SCHEMA}\",\"event\":\"stats\",\"stats\":{{\"schema\":\"nanomapd-stats-v1\",\"uptime_ms\":12}}}}"
        );
        match Response::parse(&line).unwrap() {
            Response::Stats(doc) => {
                assert_eq!(
                    doc.get("schema").and_then(JsonValue::as_str),
                    Some("nanomapd-stats-v1")
                );
                assert_eq!(doc.get("uptime_ms").and_then(JsonValue::as_int), Some(12));
            }
            other => panic!("{other:?}"),
        }
        let missing = format!("{{\"schema\":\"{SERVICE_SCHEMA}\",\"event\":\"stats\"}}");
        assert!(Response::parse(&missing).is_err());
    }

    #[test]
    fn pong_health_fields_round_trip() {
        let line = format!(
            "{{\"schema\":\"{SERVICE_SCHEMA}\",\"event\":\"pong\",\"inflight\":1,\"queued\":2,\"served\":3,\"uptime_ms\":4500,\"version\":\"nanomapd-v1\",\"draining\":true,\"snapshot_age_ms\":90}}"
        );
        match Response::parse(&line).unwrap() {
            Response::Pong {
                inflight,
                queued,
                served,
                uptime_ms,
                version,
                draining,
                snapshot_age_ms,
            } => {
                assert_eq!((inflight, queued, served), (1, 2, 3));
                assert_eq!(uptime_ms, 4_500);
                assert_eq!(version, "nanomapd-v1");
                assert!(draining);
                assert_eq!(snapshot_age_ms, Some(90));
            }
            other => panic!("{other:?}"),
        }
        // Legacy pongs without health fields still parse.
        let legacy = format!(
            "{{\"schema\":\"{SERVICE_SCHEMA}\",\"event\":\"pong\",\"inflight\":0,\"queued\":0,\"served\":7}}"
        );
        match Response::parse(&legacy).unwrap() {
            Response::Pong {
                served,
                draining,
                snapshot_age_ms,
                ..
            } => {
                assert_eq!(served, 7);
                assert!(!draining);
                assert_eq!(snapshot_age_ms, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn backoff_is_jittered_bounded_and_deterministic() {
        let policy = RetryPolicy::default();
        let schedule = |seed: u64| {
            let mut rng = XorShift64Star::new(seed);
            (0..6)
                .map(|a| policy.backoff(a, &mut rng).as_millis() as u64)
                .collect::<Vec<_>>()
        };
        let a = schedule(7);
        assert_eq!(a, schedule(7), "fixed seed, fixed schedule");
        for (attempt, &ms) in a.iter().enumerate() {
            let cap = policy
                .base_backoff_ms
                .saturating_mul(1 << attempt)
                .min(policy.max_backoff_ms);
            assert!(ms >= cap / 2 && ms < cap.max(2), "attempt {attempt}: {ms}");
        }
    }

    #[test]
    fn a_hinted_rejection_waits_the_hint_alone() {
        let policy = RetryPolicy::default();
        let mut rng = XorShift64Star::new(7);
        // A shed with a 100 ms hint waits exactly the hint: no jittered
        // backoff (25–50 ms on the first retry) on top of it.
        let hinted = policy.retry_delay(0, Some(100), &mut rng);
        assert_eq!(hinted, Duration::from_millis(100));
        assert_eq!(
            policy.retry_delay(0, Some(60_000), &mut rng),
            Duration::from_millis(policy.max_backoff_ms),
            "the hint is capped at the backoff ceiling"
        );
        // A connect failure carries no hint: the jittered backoff.
        let mut fresh = XorShift64Star::new(7);
        let unhinted = policy.retry_delay(0, None, &mut rng);
        assert_eq!(unhinted, policy.backoff(0, &mut fresh));
        let ms = unhinted.as_millis() as u64;
        assert!((25..50).contains(&ms), "first backoff {ms} ms");
    }

    #[test]
    fn connect_refused_is_an_error_not_a_panic() {
        // Port 1 is essentially never listening; the client must fail
        // with a description, not unwind.
        let err = submit_once(
            "127.0.0.1:1",
            &MapRequest::for_path("r", "d.vhd"),
            &RetryPolicy::default(),
        )
        .unwrap_err();
        assert!(err.contains("connect"), "{err}");
    }
}
