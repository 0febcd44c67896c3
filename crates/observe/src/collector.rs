//! The thread-safe global collector and its two sinks.
//!
//! One process-wide collector gathers finished spans and the metric
//! registries. Span open and close fan out from here: the event bus
//! gets `phase-start`, `phase-end` and `counters`, the live echo gets
//! the closing span. Reading happens through [`snapshot`], which freezes
//! everything into a [`MetricsSnapshot`] with a tree renderer (human
//! sink) and a JSON emitter (machine sink).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::events::{events_enabled, publish, EventKind};
use crate::json::JsonValue;
use crate::metrics::{Counter, Histogram, HistogramHandle, HistogramSnapshot};
use crate::series::{SeriesData, SeriesHandle, SeriesSnapshot};
use crate::span::SpanRecord;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ECHO: AtomicU8 = AtomicU8::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Counter values captured at span open, for the span's deltas.
type CounterBase = Vec<(&'static str, u64)>;

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// This thread's open spans, innermost last: each id with, when the
    /// bus was on at open, the span's counters at that moment.
    static OPEN: RefCell<Vec<(u64, Option<CounterBase>)>> = const { RefCell::new(Vec::new()) };
}

/// Stable per-process ordinal of the calling thread (0 = first thread
/// that touched the collector). Used as the Chrome-trace track id.
pub fn thread_ordinal() -> u32 {
    TID.with(|t| *t)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn since_epoch_us(at: Instant) -> u64 {
    at.saturating_duration_since(epoch())
        .as_micros()
        .min(u128::from(u64::MAX)) as u64
}

#[derive(Default)]
struct Registry {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<&'static str, Arc<AtomicU64>>,
    histograms: BTreeMap<&'static str, Arc<Histogram>>,
    series: BTreeMap<&'static str, Arc<Mutex<SeriesData>>>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    // A poisoned registry only means a panic mid-record; the data is
    // still sound for reporting.
    registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Globally enables or disables observability. Disabled (the default),
/// spans and metric updates are no-ops costing one relaxed atomic load.
pub fn set_enabled(on: bool) {
    // Pin the epoch before the first span so start offsets are small.
    let _ = epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether observability is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Live echo of closing spans to stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Echo {
    /// No live output (default).
    Off,
    /// Top-level phases only (depth ≤ 1).
    Progress,
    /// Every span.
    Trace,
}

/// Selects the live echo mode (spans print to stderr as they close).
pub fn set_echo(mode: Echo) {
    ECHO.store(
        match mode {
            Echo::Off => 0,
            Echo::Progress => 1,
            Echo::Trace => 2,
        },
        Ordering::Relaxed,
    );
}

/// Opens a span on this thread under its innermost open span and
/// publishes `phase-start`. Returns the span's id, parent and depth.
pub(crate) fn open_span(name: &'static str) -> (u64, Option<u64>, u32) {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().map(|&(id, _)| id);
        let depth = open.len() as u32;
        let base = events_enabled().then(|| {
            publish(|| EventKind::PhaseStart { phase: name, depth });
            counters_with_prefix(&format!("{name}."))
        });
        open.push((id, base));
        (id, parent, depth)
    })
}

/// Closes a span opened by [`open_span`]: publishes `phase-end` and the
/// deltas of the counters prefixed with its name, echoes it and stores
/// the record.
pub(crate) fn close_span(record: SpanRecord) {
    let base = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        // Spans close in LIFO order per thread; defend against misuse
        // (a guard outliving its parent) by searching.
        let pos = open.iter().rposition(|&(id, _)| id == record.id)?;
        let base = open[pos].1.take();
        open.truncate(pos);
        base
    });
    if let Some(base) = base.filter(|_| events_enabled()) {
        publish(|| EventKind::PhaseEnd {
            phase: record.name,
            depth: record.depth,
            duration_us: record.duration_us,
        });
        let deltas: Vec<(&'static str, u64)> = counters_with_prefix(&format!("{}.", record.name))
            .into_iter()
            .map(|(name, value)| {
                let before = base
                    .iter()
                    .find(|&&(b, _)| b == name)
                    .map_or(0, |&(_, v)| v);
                (name, value.saturating_sub(before))
            })
            .filter(|&(_, delta)| delta > 0)
            .collect();
        if !deltas.is_empty() {
            publish(|| EventKind::Counters {
                phase: record.name,
                deltas,
            });
        }
    }
    match ECHO.load(Ordering::Relaxed) {
        1 if record.depth <= 1 => echo_span(&record),
        2 => echo_span(&record),
        _ => {}
    }
    lock().spans.push(record);
}

fn echo_span(record: &SpanRecord) {
    let indent = "  ".repeat(record.depth as usize);
    let attrs = render_attrs(&record.attrs);
    eprintln!(
        "[observe] {indent}{name}{attrs} {ms:.3} ms",
        name = record.name,
        ms = record.duration_ms()
    );
}

fn render_attrs(attrs: &[(&'static str, JsonValue)]) -> String {
    if attrs.is_empty() {
        return String::new();
    }
    let body: Vec<String> = attrs
        .iter()
        .map(|(k, v)| format!("{k}={}", v.to_compact_string()))
        .collect();
    format!("({})", body.join(", "))
}

/// Resolves (registering on first use) the counter `name`.
pub fn counter(name: &'static str) -> Counter {
    Counter(Arc::clone(lock().counters.entry(name).or_default()))
}

/// Resolves (registering on first use) the histogram `name`.
pub fn histogram(name: &'static str) -> HistogramHandle {
    HistogramHandle(Arc::clone(lock().histograms.entry(name).or_default()))
}

/// Resolves (registering on first use) the time series `name`.
pub fn series(name: &'static str) -> SeriesHandle {
    SeriesHandle(Arc::clone(lock().series.entry(name).or_default()))
}

/// Convenience one-shot counter increment (registry lookup per call —
/// fine off the hot path).
pub fn incr(name: &'static str, n: u64) {
    counter(name).add(n);
}

/// Current values of every counter whose name starts with `prefix`.
/// Feeds the event bus's per-span counter-delta events.
fn counters_with_prefix(prefix: &str) -> Vec<(&'static str, u64)> {
    lock()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(&name, cell)| (name, cell.load(Ordering::Relaxed)))
        .collect()
}

/// Clears all recorded spans and metric values (registrations survive;
/// handles held by callers keep working). Intended for tests and for
/// multi-run drivers that emit one report per run.
pub fn reset() {
    let mut reg = lock();
    reg.spans.clear();
    for cell in reg.counters.values() {
        cell.store(0, Ordering::Relaxed);
    }
    for hist in reg.histograms.values() {
        for bucket in &hist.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        hist.count.store(0, Ordering::Relaxed);
        hist.sum.store(0, Ordering::Relaxed);
        hist.max.store(0, Ordering::Relaxed);
    }
    for cell in reg.series.values() {
        cell.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .reset();
    }
}

/// Everything the collector knows, frozen at one instant.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Finished spans in close order.
    pub spans: Vec<SpanRecord>,
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
    /// Time-series snapshots by name.
    pub series: BTreeMap<&'static str, SeriesSnapshot>,
}

/// Takes a consistent snapshot of spans, counters, histograms and series.
pub fn snapshot() -> MetricsSnapshot {
    let reg = lock();
    MetricsSnapshot {
        spans: reg.spans.clone(),
        counters: reg
            .counters
            .iter()
            .map(|(&name, cell)| (name, cell.load(Ordering::Relaxed)))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(&name, hist)| (name, HistogramSnapshot::from(&**hist)))
            .collect(),
        series: reg
            .series
            .iter()
            .map(|(&name, cell)| {
                (
                    name,
                    cell.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .snapshot(),
                )
            })
            .collect(),
    }
}

impl MetricsSnapshot {
    /// All span records with the given name.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot of a series, if it was ever registered.
    pub fn series(&self, name: &str) -> Option<&SeriesSnapshot> {
        self.series.get(name)
    }

    /// The machine sink: spans, counters, histograms and series as one
    /// JSON object (serde-free; see [`crate::json`]).
    pub fn to_json(&self) -> JsonValue {
        let spans: Vec<JsonValue> = self
            .spans
            .iter()
            .map(|s| {
                let mut attrs = JsonValue::object();
                for (k, v) in &s.attrs {
                    attrs.set(k, v.clone());
                }
                JsonValue::object()
                    .with("id", s.id)
                    .with("parent", s.parent)
                    .with("name", s.name)
                    .with("depth", s.depth)
                    .with("tid", s.tid)
                    .with("start_us", s.start_us)
                    .with("duration_us", s.duration_us)
                    .with("attrs", attrs)
            })
            .collect();
        let mut counters = JsonValue::object();
        for (&name, &value) in &self.counters {
            counters.set(name, value);
        }
        let mut histograms = JsonValue::object();
        for (&name, snap) in &self.histograms {
            let buckets: Vec<JsonValue> = snap
                .buckets
                .iter()
                .map(|&(bound, count)| JsonValue::object().with("le", bound).with("count", count))
                .collect();
            histograms.set(
                name,
                JsonValue::object()
                    .with("count", snap.count)
                    .with("sum", snap.sum)
                    .with("max", snap.max)
                    .with("mean", snap.mean())
                    .with("p50", snap.percentile(50.0))
                    .with("p90", snap.percentile(90.0))
                    .with("p99", snap.percentile(99.0))
                    .with("buckets", JsonValue::Array(buckets)),
            );
        }
        let mut series = JsonValue::object();
        for (&name, snap) in &self.series {
            let points: Vec<JsonValue> = snap
                .points
                .iter()
                .map(|p| JsonValue::Array(vec![JsonValue::from(p.x), JsonValue::from(p.y)]))
                .collect();
            series.set(
                name,
                JsonValue::object()
                    .with("count", snap.count)
                    .with("stride", snap.stride)
                    .with("min", snap.min_y)
                    .with("max", snap.max_y)
                    .with("last", snap.last_y())
                    .with("points", JsonValue::Array(points)),
            );
        }
        JsonValue::object()
            .with("spans", JsonValue::Array(spans))
            .with("counters", counters)
            .with("histograms", histograms)
            .with("series", series)
    }

    /// The human sink: an aggregated per-phase tree. Sibling spans with
    /// the same name fold into one line (`×N`, summed time); attributes
    /// print only for singletons.
    pub fn render_tree(&self) -> String {
        let mut children: BTreeMap<Option<u64>, Vec<&SpanRecord>> = BTreeMap::new();
        for span in &self.spans {
            children.entry(span.parent).or_default().push(span);
        }
        // Parents whose records exist; spans whose parent never closed
        // (snapshot mid-flight) render as roots.
        let known: std::collections::HashSet<u64> = self.spans.iter().map(|s| s.id).collect();
        let mut roots: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none_or(|p| !known.contains(&p)))
            .collect();
        roots.sort_by_key(|s| s.start_us);
        let mut out = String::new();
        render_level(&mut out, &roots, &children, 0);
        for (name, &value) in &self.counters {
            if value > 0 {
                out.push_str(&format!("counter {name} = {value}\n"));
            }
        }
        for (name, snap) in &self.histograms {
            if snap.count > 0 {
                out.push_str(&format!(
                    "histogram {name}: n={} mean={:.1} p50={} p90={} max={}\n",
                    snap.count,
                    snap.mean(),
                    snap.percentile(50.0),
                    snap.percentile(90.0),
                    snap.max
                ));
            }
        }
        for (name, snap) in &self.series {
            if snap.count > 0 {
                out.push_str(&format!(
                    "series {name}: n={} last={:.3} min={:.3} max={:.3} (kept {}, stride {})\n",
                    snap.count,
                    snap.last_y(),
                    snap.min_y,
                    snap.max_y,
                    snap.points.len(),
                    snap.stride
                ));
            }
        }
        out
    }
}

fn render_level(
    out: &mut String,
    spans: &[&SpanRecord],
    children: &BTreeMap<Option<u64>, Vec<&SpanRecord>>,
    depth: usize,
) {
    // Aggregate siblings by name, keeping first-seen order.
    let mut order: Vec<&'static str> = Vec::new();
    let mut groups: BTreeMap<&'static str, Vec<&SpanRecord>> = BTreeMap::new();
    for &span in spans {
        if !groups.contains_key(span.name) {
            order.push(span.name);
        }
        groups.entry(span.name).or_default().push(span);
    }
    for name in order {
        let group = &groups[name];
        let total_ms: f64 = group.iter().map(|s| s.duration_ms()).sum();
        let indent = "  ".repeat(depth);
        if group.len() == 1 {
            let attrs = render_attrs(&group[0].attrs);
            out.push_str(&format!("{indent}{name}{attrs} {total_ms:.3} ms\n"));
        } else {
            out.push_str(&format!(
                "{indent}{name} ×{} {total_ms:.3} ms\n",
                group.len()
            ));
        }
        let mut kids: Vec<&SpanRecord> = group
            .iter()
            .flat_map(|s| children.get(&Some(s.id)).into_iter().flatten().copied())
            .collect();
        kids.sort_by_key(|s| s.start_us);
        render_level(out, &kids, children, depth + 1);
    }
}
