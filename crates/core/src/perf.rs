//! Performance snapshots and the perf regression gate.
//!
//! The QoR gate ([`crate::qor`]) protects *what* the flow produces; this
//! module protects *how fast* it produces it. A [`PerfReport`] records,
//! per circuit, the median and p95 of every phase's wall-clock over N
//! repeated runs plus peak memory, and a [`PerfDocument`] bundles them
//! under the `nanomap-perf-v1` schema tag. `crates/bench`'s `perf` bin
//! generates these; the committed baseline is `BENCH_perf.json` at the
//! repo root.
//!
//! Unlike QoR, perf numbers are noisy — they measure the machine as much
//! as the code — so the gate ([`diff_perf`]) is built differently:
//!
//! * **one-sided**: only slowdowns fail; speedups are informational,
//! * **double-banded**: a regression must exceed *both* a relative
//!   threshold (default [`DEFAULT_REL_TOLERANCE`]) *and* an absolute
//!   guard band (default [`DEFAULT_ABS_GUARD_MS`]), so microsecond
//!   phases cannot fail on scheduler jitter,
//! * **median-gated**: p95 and memory metrics are reported, never gated
//!   (tail latency and RSS are tracked for trend analysis, not CI).
//!
//! A circuit present in the baseline but absent from the new document is
//! informational here (the perf-smoke CI job measures one benchmark
//! against the full-suite baseline); the QoR gate already fails if a
//! circuit disappears from the flow itself.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use nanomap_observe::{json, JsonValue, ProfileData};

use crate::artifact::atomic_write_text;
use crate::diff::{DiffEntry, DiffStatus};

/// Schema tag stamped on every perf document.
pub const PERF_SCHEMA: &str = crate::artifact::versions::PERF;

/// Default relative slowdown tolerance (100% — perf gates catch real
/// regressions, not machine noise; tighten per call site as data
/// accumulates).
pub const DEFAULT_REL_TOLERANCE: f64 = 1.0;

/// Default absolute guard band in milliseconds: deltas smaller than this
/// never fail, whatever the relative change.
pub const DEFAULT_ABS_GUARD_MS: f64 = 25.0;

/// Perf snapshot of one circuit: metric name → value. Metric names
/// follow `<phase>.median_ms` / `<phase>.p95_ms` plus `peak_rss_kb` and
/// `peak_live_bytes`; only `*.median_ms` entries gate.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Circuit name.
    pub circuit: String,
    /// Runs aggregated into this report.
    pub runs: u32,
    /// Metrics, name → value (sorted, deterministic).
    pub metrics: BTreeMap<String, f64>,
}

impl PerfReport {
    /// Aggregates repeated per-run samples into one report. `samples`
    /// maps a metric base name (e.g. `"pack_ms"`) to its per-run values;
    /// each becomes `<base>.median_ms`/`<base>.p95_ms` with the `_ms`
    /// suffix of the base stripped. Non-timing extras (e.g.
    /// `peak_rss_kb`) pass through [`Self::set`].
    pub fn from_samples(circuit: &str, runs: u32, samples: &BTreeMap<String, Vec<f64>>) -> Self {
        let mut metrics = BTreeMap::new();
        for (base, values) in samples {
            if values.is_empty() {
                continue;
            }
            let stem = base.strip_suffix("_ms").unwrap_or(base);
            metrics.insert(format!("{stem}.median_ms"), percentile(values, 0.50));
            metrics.insert(format!("{stem}.p95_ms"), percentile(values, 0.95));
        }
        Self {
            circuit: circuit.to_string(),
            runs,
            metrics,
        }
    }

    /// Sets a non-timing metric (peak RSS, live bytes, ...).
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Deterministic JSON serialization (keys sorted by `BTreeMap`).
    pub fn to_json(&self) -> JsonValue {
        let mut metrics = JsonValue::object();
        for (name, &value) in &self.metrics {
            metrics.set(name, value);
        }
        JsonValue::object()
            .with("circuit", self.circuit.as_str())
            .with("runs", self.runs)
            .with("metrics", metrics)
    }

    /// Parses one report out of its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(Self {
            circuit: value.req("circuit")?,
            runs: value.req("runs")?,
            metrics: value.req("metrics")?,
        })
    }
}

/// Writes a span profile as `<dir>/<circuit>.profile.json` (the
/// `nanomap-profile-v2` document) plus `<dir>/<circuit>.collapsed`
/// (flamegraph input), creating `dir` first. Returns the JSON's path.
///
/// # Errors
///
/// The first I/O failure, prefixed with `dir`.
pub fn write_profile_artifacts(
    dir: &Path,
    circuit: &str,
    profile: &ProfileData,
) -> Result<PathBuf, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(|e| fail(&e))?;
    let json_path = dir.join(format!("{circuit}.profile.json"));
    atomic_write_text(&json_path, &profile.to_json().to_pretty_string()).map_err(|e| fail(&e))?;
    let collapsed_path = dir.join(format!("{circuit}.collapsed"));
    atomic_write_text(&collapsed_path, &profile.collapsed()).map_err(|e| fail(&e))?;
    Ok(json_path)
}

/// Midpoint-interpolated percentile of an unsorted sample set (`q` in
/// 0..=1). Empty input yields 0.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A perf document: one report per circuit plus the schema tag.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfDocument {
    /// Per-circuit reports in insertion order.
    pub reports: Vec<PerfReport>,
}

impl PerfDocument {
    /// Bundles reports into a document.
    pub fn new(reports: Vec<PerfReport>) -> Self {
        Self { reports }
    }

    /// Looks up a circuit's report by name.
    pub fn circuit(&self, name: &str) -> Option<&PerfReport> {
        self.reports.iter().find(|r| r.circuit == name)
    }

    /// Deterministic JSON serialization with the schema tag.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object().with("schema", PERF_SCHEMA).with(
            "circuits",
            JsonValue::Array(self.reports.iter().map(PerfReport::to_json).collect()),
        )
    }

    /// Parses a document from JSON text.
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, a wrong/missing schema tag, or malformed
    /// reports.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = json::parse(text)?;
        value.check_schema(PERF_SCHEMA)?;
        let reports = value
            .req::<&[JsonValue]>("circuits")?
            .iter()
            .map(PerfReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { reports })
    }
}

/// Whether a perf metric gates (only run-time medians do; p95 and memory
/// are trend telemetry).
pub fn perf_metric_gates(metric: &str) -> bool {
    metric.ends_with(".median_ms")
}

/// Compares a new perf document against a baseline.
///
/// One-sided: a gated metric fails only when the slowdown exceeds *both*
/// `rel_tolerance` (relative to the baseline) *and* `abs_guard_ms`
/// (absolute). Everything else — speedups, p95s, memory, circuits absent
/// on either side — is informational. Reuses the QoR [`DiffEntry`] type
/// so both gates render through the same reporting path.
pub fn diff_perf(
    baseline: &PerfDocument,
    new: &PerfDocument,
    rel_tolerance: f64,
    abs_guard_ms: f64,
) -> Vec<DiffEntry> {
    let mut entries = Vec::new();
    for base in &baseline.reports {
        let Some(fresh) = new.circuit(&base.circuit) else {
            // Informational: perf-smoke measures a subset of circuits.
            entries.push(DiffEntry {
                circuit: base.circuit.clone(),
                metric: "<circuit>".into(),
                baseline: None,
                new: None,
                tolerance: None,
                status: DiffStatus::Info,
            });
            continue;
        };
        let names: std::collections::BTreeSet<&String> =
            base.metrics.keys().chain(fresh.metrics.keys()).collect();
        for name in names {
            let b = base.metrics.get(name).copied();
            let n = fresh.metrics.get(name).copied();
            let gates = perf_metric_gates(name);
            let status = match (b, n) {
                (Some(b), Some(n)) if gates => {
                    let slowdown = n - b;
                    if slowdown > rel_tolerance * b.abs() && slowdown > abs_guard_ms {
                        DiffStatus::Regression
                    } else {
                        DiffStatus::Ok
                    }
                }
                (Some(_), None) if gates => DiffStatus::MissingInNew,
                (None, Some(_), ..) => DiffStatus::MissingInBaseline,
                _ => DiffStatus::Info,
            };
            entries.push(DiffEntry {
                circuit: base.circuit.clone(),
                metric: name.clone(),
                baseline: b,
                new: n,
                tolerance: gates.then_some(rel_tolerance),
                status,
            });
        }
    }
    for fresh in &new.reports {
        if baseline.circuit(&fresh.circuit).is_none() {
            entries.push(DiffEntry {
                circuit: fresh.circuit.clone(),
                metric: "<circuit>".into(),
                baseline: None,
                new: None,
                tolerance: None,
                status: DiffStatus::MissingInBaseline,
            });
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::has_regression;

    fn report(circuit: &str, metrics: &[(&str, f64)]) -> PerfReport {
        PerfReport {
            circuit: circuit.into(),
            runs: 5,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn document_round_trips_through_json() {
        let doc = PerfDocument::new(vec![report(
            "ex1",
            &[
                ("pack.median_ms", 12.0),
                ("pack.p95_ms", 14.5),
                ("peak_rss_kb", 30_000.0),
            ],
        )]);
        let text = doc.to_json().to_pretty_string();
        let parsed = PerfDocument::parse(&text).expect("parses");
        assert_eq!(parsed, doc);
        assert_eq!(text, parsed.to_json().to_pretty_string());
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(PerfDocument::parse(r#"{"schema":"nanomap-qor-v1","circuits":[]}"#).is_err());
        assert!(PerfDocument::parse(r#"{"circuits":[]}"#).is_err());
        assert!(PerfDocument::parse("not json").is_err());
    }

    #[test]
    fn from_samples_computes_median_and_p95() {
        let samples: BTreeMap<String, Vec<f64>> =
            [("place_ms".to_string(), vec![10.0, 20.0, 30.0, 40.0, 50.0])].into();
        let r = PerfReport::from_samples("ex1", 5, &samples);
        assert_eq!(r.metrics["place.median_ms"], 30.0);
        assert!((r.metrics["place.p95_ms"] - 48.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 1.0), 5.0);
    }

    #[test]
    fn gate_is_one_sided_and_double_banded() {
        let base = PerfDocument::new(vec![report("ex1", &[("place.median_ms", 100.0)])]);
        // Big relative AND absolute slowdown: fails.
        let slow = PerfDocument::new(vec![report("ex1", &[("place.median_ms", 300.0)])]);
        assert!(has_regression(&diff_perf(&base, &slow, 0.5, 25.0)));
        // Large relative but tiny absolute delta: guarded.
        let tiny_base = PerfDocument::new(vec![report("ex1", &[("fast.median_ms", 1.0)])]);
        let tiny_slow = PerfDocument::new(vec![report("ex1", &[("fast.median_ms", 10.0)])]);
        assert!(!has_regression(&diff_perf(
            &tiny_base, &tiny_slow, 0.5, 25.0
        )));
        // Large absolute but small relative delta: tolerated.
        let wide = PerfDocument::new(vec![report("ex1", &[("place.median_ms", 130.0)])]);
        assert!(!has_regression(&diff_perf(&base, &wide, 0.5, 25.0)));
        // Speedups never fail, however large.
        let fast = PerfDocument::new(vec![report("ex1", &[("place.median_ms", 1.0)])]);
        assert!(!has_regression(&diff_perf(&base, &fast, 0.5, 25.0)));
    }

    #[test]
    fn p95_and_memory_are_informational() {
        let base = PerfDocument::new(vec![report(
            "ex1",
            &[("place.p95_ms", 10.0), ("peak_rss_kb", 10_000.0)],
        )]);
        let blown = PerfDocument::new(vec![report(
            "ex1",
            &[("place.p95_ms", 9_999.0), ("peak_rss_kb", 9e9)],
        )]);
        assert!(!has_regression(&diff_perf(&base, &blown, 0.1, 1.0)));
    }

    #[test]
    fn missing_circuit_in_new_is_informational() {
        // perf-smoke diffs one measured benchmark against the full-suite
        // baseline; absent circuits must not fail the gate.
        let base = PerfDocument::new(vec![
            report("ex1", &[("place.median_ms", 10.0)]),
            report("FIR", &[("place.median_ms", 20.0)]),
        ]);
        let partial = PerfDocument::new(vec![report("ex1", &[("place.median_ms", 10.0)])]);
        assert!(!has_regression(&diff_perf(&base, &partial, 0.5, 25.0)));
        // But a gated metric vanishing from a measured circuit still fails.
        let dropped = PerfDocument::new(vec![report("ex1", &[]), report("FIR", &[])]);
        assert!(has_regression(&diff_perf(&base, &dropped, 0.5, 25.0)));
    }
}
