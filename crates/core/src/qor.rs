//! Quality-of-results (QoR) snapshots and the regression gate.
//!
//! A [`QorReport`] freezes the numbers the paper's result tables are made
//! of — LUT count, folding level, LE usage, SMBs, critical-path delay,
//! routed wirelength, channel width — plus phase wall-clock times and the
//! peak values of every convergence series, into one flat, deterministic
//! metric map. [`QorDocument`] bundles one report per circuit with a
//! schema tag and round-trips through the observe crate's serde-free JSON
//! emitter/parser.
//!
//! [`diff_documents`] compares a freshly generated document against a
//! committed baseline with per-metric tolerances ([`tolerance_for`]):
//! structural metrics (counts, levels) must match exactly, analytic
//! floats get a tight relative band, physical-design outcomes (routed
//! delay, wirelength) a looser one, and wall-clock times are reported but
//! never gated. The `nanomap qor-diff` subcommand and CI's `qor` job are
//! thin wrappers over this module.

use std::collections::BTreeMap;

use nanomap_arch::ChannelConfig;
use nanomap_observe::{json, JsonValue, MetricsSnapshot};

pub use crate::diff::{has_regression, DiffEntry, DiffStatus};
use crate::report::MappingReport;

/// Schema tag stamped on every QoR document.
pub const QOR_SCHEMA: &str = crate::artifact::versions::QOR;

/// Encoding of "no folding" in the `folding_level` metric.
const NO_FOLDING: f64 = -1.0;

/// QoR snapshot of one circuit's mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct QorReport {
    /// Circuit name.
    pub circuit: String,
    /// Gateable metrics, name → value (sorted, deterministic).
    pub metrics: BTreeMap<String, f64>,
    /// Wall-clock milliseconds per phase — reported, never gated.
    pub phase_times: BTreeMap<String, f64>,
}

impl QorReport {
    /// Builds a QoR snapshot from a finished mapping, the channel
    /// configuration it targeted, and the observability snapshot of the
    /// run (for convergence-series peaks).
    pub fn from_mapping(
        report: &MappingReport,
        channels: &ChannelConfig,
        snapshot: &MetricsSnapshot,
    ) -> Self {
        let mut metrics = BTreeMap::new();
        let mut m = |name: &str, value: f64| {
            metrics.insert(name.to_string(), value);
        };
        m("num_luts", f64::from(report.num_luts));
        m("num_ffs", f64::from(report.num_ffs));
        m(
            "folding_level",
            report.folding_level.map_or(NO_FOLDING, f64::from),
        );
        m("stages", f64::from(report.stages));
        m("num_les", f64::from(report.num_les));
        m("delay_ns", report.delay_ns);
        m("area_um2", report.area_um2);
        m(
            "channel_width",
            f64::from(channels.direct + channels.length1 + channels.length4 + channels.global),
        );
        if let Some(p) = &report.physical {
            m("num_smbs", f64::from(p.num_smbs));
            m("critical_path_delay_ns", p.routed_delay_ns);
            m("routed_wirelength", p.usage.total() as f64);
        }
        // Budget telemetry rides along only when it happened, so
        // unbudgeted runs stay byte-identical to pre-budget baselines.
        if report.degraded {
            m("degraded", 1.0);
            m("degraded_phases", report.degradations.len() as f64);
        }
        for (&name, series) in &snapshot.series {
            if series.count > 0 {
                m(&format!("peak.{name}"), series.peak());
            }
        }
        let t = report.phase_times;
        let mut phase_times: BTreeMap<String, f64> =
            t.keyed_ms().map(|(k, v)| (k.to_string(), v)).collect();
        if let Some(remaining) = t.budget_ms_remaining {
            phase_times.insert("budget_ms_remaining".to_string(), remaining);
        }
        Self {
            circuit: report.circuit.clone(),
            metrics,
            phase_times,
        }
    }

    /// Deterministic JSON serialization (keys sorted by `BTreeMap`).
    pub fn to_json(&self) -> JsonValue {
        let mut metrics = JsonValue::object();
        for (name, &value) in &self.metrics {
            metrics.set(name, value);
        }
        let mut times = JsonValue::object();
        for (name, &value) in &self.phase_times {
            times.set(name, value);
        }
        JsonValue::object()
            .with("circuit", self.circuit.as_str())
            .with("metrics", metrics)
            .with("phase_times", times)
    }

    /// Parses one report out of its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(Self {
            circuit: value.req("circuit")?,
            metrics: value.req("metrics")?,
            phase_times: value.req("phase_times")?,
        })
    }
}

/// A QoR document: one report per circuit plus the schema tag.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QorDocument {
    /// Per-circuit reports in insertion order.
    pub reports: Vec<QorReport>,
}

impl QorDocument {
    /// Bundles reports into a document.
    pub fn new(reports: Vec<QorReport>) -> Self {
        Self { reports }
    }

    /// Looks up a circuit's report by name.
    pub fn circuit(&self, name: &str) -> Option<&QorReport> {
        self.reports.iter().find(|r| r.circuit == name)
    }

    /// Deterministic JSON serialization with the schema tag.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object().with("schema", QOR_SCHEMA).with(
            "circuits",
            JsonValue::Array(self.reports.iter().map(QorReport::to_json).collect()),
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
        value.check_schema(QOR_SCHEMA)?;
        let reports = value
            .req::<&[JsonValue]>("circuits")?
            .iter()
            .map(QorReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { reports })
    }
}

/// Relative tolerance for a metric, or `None` for report-only metrics
/// that never gate.
///
/// Structural results of the deterministic flow (counts, folding level,
/// channel width) must match exactly. Analytic model outputs get a tight
/// band for cross-platform float noise. Physical-design outcomes sit
/// downstream of `exp()`/`sqrt()` in the annealer — libm differences can
/// legitimately shift them a little — so they get a looser band, and the
/// convergence-series peaks looser still.
pub fn tolerance_for(metric: &str) -> Option<f64> {
    match metric {
        "num_luts" | "num_ffs" | "folding_level" | "stages" | "num_les" | "num_smbs"
        | "channel_width" => Some(0.0),
        "delay_ns" | "area_um2" => Some(0.01),
        "critical_path_delay_ns" => Some(0.10),
        "routed_wirelength" => Some(0.20),
        name if name.starts_with("peak.") => Some(0.30),
        _ => None,
    }
}

/// Compares a new document against a baseline, metric by metric.
///
/// Gate-relevant entries come first (per circuit, in metric order);
/// `phase_times` are appended as [`DiffStatus::Info`] entries. A circuit
/// present in the baseline but missing from the new document yields one
/// failing entry named `<circuit>` itself.
pub fn diff_documents(baseline: &QorDocument, new: &QorDocument) -> Vec<DiffEntry> {
    diff_documents_with(baseline, new, false)
}

/// Zero-tolerance variant of [`diff_documents`]: every gated metric must
/// be *exactly* equal (the per-metric tolerance bands collapse to zero).
///
/// This is the determinism gate — the flow is a pure function of its
/// inputs, so a defect-free rerun must reproduce the committed baseline
/// bit for bit. Wall-clock phase times remain informational.
pub fn diff_documents_exact(baseline: &QorDocument, new: &QorDocument) -> Vec<DiffEntry> {
    diff_documents_with(baseline, new, true)
}

fn diff_documents_with(baseline: &QorDocument, new: &QorDocument, exact: bool) -> Vec<DiffEntry> {
    let mut entries = Vec::new();
    for base in &baseline.reports {
        let Some(fresh) = new.circuit(&base.circuit) else {
            entries.push(DiffEntry {
                circuit: base.circuit.clone(),
                metric: "<circuit>".into(),
                baseline: None,
                new: None,
                tolerance: None,
                status: DiffStatus::MissingInNew,
            });
            continue;
        };
        entries.extend(diff_reports(base, fresh, exact));
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

fn diff_reports(base: &QorReport, fresh: &QorReport, exact: bool) -> Vec<DiffEntry> {
    let mut entries = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        base.metrics.keys().chain(fresh.metrics.keys()).collect();
    for name in names {
        let b = base.metrics.get(name).copied();
        let n = fresh.metrics.get(name).copied();
        let tolerance = if exact {
            tolerance_for(name).map(|_| 0.0)
        } else {
            tolerance_for(name)
        };
        let status = match (b, n, tolerance) {
            (Some(_), None, Some(_)) => DiffStatus::MissingInNew,
            (None, Some(_), _) => DiffStatus::MissingInBaseline,
            (Some(_), None, None) => DiffStatus::Info,
            (Some(b), Some(n), Some(tol)) => {
                // Symmetric band: improvements beyond tolerance also fail,
                // forcing the baseline to stay honest. Exact mode demands
                // bit-for-bit equality.
                let allowed = if exact { 0.0 } else { tol * b.abs() + 1e-9 };
                if (n - b).abs() <= allowed {
                    DiffStatus::Ok
                } else {
                    DiffStatus::Regression
                }
            }
            (Some(_), Some(_), None) => DiffStatus::Info,
            (None, None, _) => unreachable!("name came from one of the maps"),
        };
        entries.push(DiffEntry {
            circuit: base.circuit.clone(),
            metric: name.clone(),
            baseline: b,
            new: n,
            tolerance,
            status,
        });
    }
    for (name, &b) in &base.phase_times {
        entries.push(DiffEntry {
            circuit: base.circuit.clone(),
            metric: format!("time.{name}"),
            baseline: Some(b),
            new: fresh.phase_times.get(name).copied(),
            tolerance: None,
            status: DiffStatus::Info,
        });
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(circuit: &str, metrics: &[(&str, f64)]) -> QorReport {
        QorReport {
            circuit: circuit.into(),
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            phase_times: [("total_ms".to_string(), 12.5)].into_iter().collect(),
        }
    }

    #[test]
    fn document_round_trips_through_json() {
        let doc = QorDocument::new(vec![report(
            "ex1",
            &[
                ("num_les", 34.0),
                ("delay_ns", 17.02),
                ("folding_level", 1.0),
                ("peak.place.cost", 123.456),
            ],
        )]);
        let text = doc.to_json().to_pretty_string();
        let parsed = QorDocument::parse(&text).expect("parses");
        assert_eq!(parsed, doc);
        // Serialization is deterministic.
        assert_eq!(text, parsed.to_json().to_pretty_string());
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(QorDocument::parse(r#"{"schema":"v999","circuits":[]}"#).is_err());
        assert!(QorDocument::parse(r#"{"circuits":[]}"#).is_err());
        assert!(QorDocument::parse("not json").is_err());
    }

    #[test]
    fn identical_documents_pass() {
        let doc = QorDocument::new(vec![report(
            "ex1",
            &[("num_les", 34.0), ("delay_ns", 17.0)],
        )]);
        let entries = diff_documents(&doc, &doc);
        assert!(!has_regression(&entries));
        assert!(entries.iter().any(|e| e.metric == "time.total_ms"));
    }

    #[test]
    fn exact_metrics_fail_on_any_change() {
        let base = QorDocument::new(vec![report("ex1", &[("num_les", 34.0)])]);
        let new = QorDocument::new(vec![report("ex1", &[("num_les", 35.0)])]);
        let entries = diff_documents(&base, &new);
        assert!(has_regression(&entries));
        let e = entries.iter().find(|e| e.metric == "num_les").unwrap();
        assert_eq!(e.status, DiffStatus::Regression);
    }

    #[test]
    fn tolerant_metrics_absorb_small_drift_both_ways() {
        let base = QorDocument::new(vec![report("ex1", &[("routed_wirelength", 100.0)])]);
        for (value, ok) in [(110.0, true), (85.0, true), (121.0, false), (79.0, false)] {
            let new = QorDocument::new(vec![report("ex1", &[("routed_wirelength", value)])]);
            let entries = diff_documents(&base, &new);
            assert_eq!(!has_regression(&entries), ok, "value {value}");
        }
    }

    #[test]
    fn missing_circuit_or_metric_fails_missing_baseline_informs() {
        let base = QorDocument::new(vec![report("ex1", &[("num_les", 34.0)])]);
        let gone = QorDocument::new(vec![]);
        assert!(has_regression(&diff_documents(&base, &gone)));
        // Metric disappeared.
        let dropped = QorDocument::new(vec![report("ex1", &[])]);
        assert!(has_regression(&diff_documents(&base, &dropped)));
        // New metric appeared: informational only.
        let grown = QorDocument::new(vec![report("ex1", &[("num_les", 34.0), ("num_smbs", 3.0)])]);
        assert!(!has_regression(&diff_documents(&base, &grown)));
    }

    #[test]
    fn exact_mode_rejects_any_drift_in_gated_metrics() {
        let base = QorDocument::new(vec![report(
            "ex1",
            &[("routed_wirelength", 100.0), ("delay_ns", 17.02)],
        )]);
        // Drift well inside the normal tolerance band still fails exactly.
        let drifted = QorDocument::new(vec![report(
            "ex1",
            &[("routed_wirelength", 101.0), ("delay_ns", 17.02)],
        )]);
        assert!(!has_regression(&diff_documents(&base, &drifted)));
        assert!(has_regression(&diff_documents_exact(&base, &drifted)));
        // A perfect reproduction passes both modes.
        assert!(!has_regression(&diff_documents_exact(&base, &base.clone())));
        // Unknown (report-only) metrics stay informational in exact mode.
        let exotic_a = QorDocument::new(vec![report("ex1", &[("exotic_metric", 1.0)])]);
        let exotic_b = QorDocument::new(vec![report("ex1", &[("exotic_metric", 2.0)])]);
        assert!(!has_regression(&diff_documents_exact(&exotic_a, &exotic_b)));
    }

    #[test]
    fn failure_detail_reports_absolute_and_relative_delta() {
        let base = QorDocument::new(vec![report("ex1", &[("num_les", 34.0)])]);
        let new = QorDocument::new(vec![report("ex1", &[("num_les", 35.0)])]);
        let entries = diff_documents_exact(&base, &new);
        let e = entries.iter().find(|e| e.metric == "num_les").unwrap();
        assert!(e.status.fails());
        let detail = e.failure_detail();
        assert!(detail.contains("+1.000000"), "{detail}");
        assert!(detail.contains("+2.9412%"), "{detail}");
        // Missing sides are named, not silently blank.
        let gone = QorDocument::new(vec![report("ex1", &[])]);
        let entries = diff_documents(&base, &gone);
        let e = entries.iter().find(|e| e.metric == "num_les").unwrap();
        assert!(e.failure_detail().contains("no new value"));
    }

    #[test]
    fn unknown_metrics_never_gate() {
        let base = QorDocument::new(vec![report("ex1", &[("exotic_metric", 1.0)])]);
        let new = QorDocument::new(vec![report("ex1", &[("exotic_metric", 99.0)])]);
        assert!(!has_regression(&diff_documents(&base, &new)));
    }

    #[test]
    fn tolerances_cover_the_qor_metric_set() {
        for gated in [
            "num_luts",
            "folding_level",
            "num_les",
            "num_smbs",
            "channel_width",
            "delay_ns",
            "critical_path_delay_ns",
            "routed_wirelength",
            "peak.place.cost",
            "peak.route.overuse",
        ] {
            assert!(tolerance_for(gated).is_some(), "{gated} must gate");
        }
        assert!(tolerance_for("something_else").is_none());
    }
}
