//! Shared machinery for JSON numeric-diff gates.
//!
//! The QoR gate ([`crate::qor`]) and the perf gate ([`crate::perf`])
//! both compare per-circuit maps of numbers against a committed
//! baseline and render the same fixed-width table. The comparison
//! verdict types and the table renderer live here so the two gates
//! cannot drift apart; their number maps are read through
//! [`nanomap_observe::json::FromJson`].

/// Outcome of comparing one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within tolerance (or informational and present on both sides).
    Ok,
    /// Outside tolerance — fails the gate.
    Regression,
    /// Present in the baseline, absent in the new run — fails the gate.
    MissingInNew,
    /// New metric with no baseline — informational.
    MissingInBaseline,
    /// Report-only metric (no tolerance defined).
    Info,
}

impl DiffStatus {
    /// Whether this entry fails the gate.
    pub fn fails(self) -> bool {
        matches!(self, Self::Regression | Self::MissingInNew)
    }

    /// Status word for the diff table.
    pub fn label(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Regression => "REGRESSION",
            Self::MissingInNew => "MISSING",
            Self::MissingInBaseline => "new metric",
            Self::Info => "info",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Circuit the metric belongs to.
    pub circuit: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value, when present.
    pub baseline: Option<f64>,
    /// New value, when present.
    pub new: Option<f64>,
    /// Relative tolerance applied (`None` = report-only).
    pub tolerance: Option<f64>,
    /// Verdict.
    pub status: DiffStatus,
}

impl DiffEntry {
    /// Relative change `new/baseline - 1` when both sides are present and
    /// the baseline is non-zero.
    pub fn relative_change(&self) -> Option<f64> {
        match (self.baseline, self.new) {
            (Some(b), Some(n)) if b.abs() > 1e-12 => Some(n / b - 1.0),
            _ => None,
        }
    }

    /// Human-readable delta for a failure line: the absolute change and,
    /// when the baseline is non-zero, the relative change too —
    /// `"Δ +0.0300 (+0.18%)"`. Missing sides are named explicitly.
    pub fn failure_detail(&self) -> String {
        match (self.baseline, self.new) {
            (Some(b), Some(n)) => {
                let abs = n - b;
                match self.relative_change() {
                    Some(rel) => format!("Δ {abs:+.6} ({:+.4}%)", rel * 100.0),
                    None => format!("Δ {abs:+.6}"),
                }
            }
            (Some(b), None) => format!("baseline {b} has no new value"),
            (None, Some(n)) => format!("new value {n} has no baseline"),
            (None, None) => "absent on both sides".to_string(),
        }
    }
}

/// Whether any entry fails the gate.
pub fn has_regression(entries: &[DiffEntry]) -> bool {
    entries.iter().any(|e| e.status.fails())
}

/// Renders the diff table shared by `nanomap qor-diff` and
/// `nanomap perf-diff`: a header line, one row per entry passing the
/// gate-specific `show` filter, failures annotated with
/// [`DiffEntry::failure_detail`] so the CI log alone says how far out
/// of tolerance the run landed. Returns the lines and the number of
/// failing entries.
pub fn render_diff_table<F: Fn(&DiffEntry) -> bool>(
    entries: &[DiffEntry],
    show: F,
) -> (Vec<String>, usize) {
    let mut lines = vec![format!(
        "{:<14} {:<28} {:>14} {:>14} {:>9}  status",
        "circuit", "metric", "baseline", "new", "change"
    )];
    let mut failures = 0usize;
    for e in entries {
        if !show(e) {
            continue;
        }
        if e.status.fails() {
            failures += 1;
        }
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
        let change = e
            .relative_change()
            .map_or("-".to_string(), |c| format!("{:+.2}%", c * 100.0));
        let status = if e.status.fails() {
            format!("{} [{}]", e.status.label(), e.failure_detail())
        } else {
            e.status.label().to_string()
        };
        lines.push(format!(
            "{:<14} {:<28} {:>14} {:>14} {:>9}  {}",
            e.circuit,
            e.metric,
            fmt(e.baseline),
            fmt(e.new),
            change,
            status
        ));
    }
    (lines, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(status: DiffStatus, baseline: Option<f64>, new: Option<f64>) -> DiffEntry {
        DiffEntry {
            circuit: "c".into(),
            metric: "m".into(),
            baseline,
            new,
            tolerance: Some(0.01),
            status,
        }
    }

    #[test]
    fn failure_detail_spells_out_both_deltas() {
        let e = entry(DiffStatus::Regression, Some(100.0), Some(103.0));
        let detail = e.failure_detail();
        assert!(detail.contains("+3.0"), "{detail}");
        assert!(detail.contains("+3.0000%"), "{detail}");
        assert_eq!(
            entry(DiffStatus::MissingInNew, Some(2.0), None).failure_detail(),
            "baseline 2 has no new value"
        );
    }

    #[test]
    fn table_counts_failures_and_annotates_them() {
        let entries = vec![
            entry(DiffStatus::Ok, Some(1.0), Some(1.0)),
            entry(DiffStatus::Regression, Some(100.0), Some(120.0)),
        ];
        let (lines, failures) = render_diff_table(&entries, |_| true);
        assert_eq!(failures, 1);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("circuit"));
        assert!(lines[2].contains("REGRESSION [Δ +20"), "{}", lines[2]);
    }

    #[test]
    fn table_filter_hides_rows() {
        let entries = vec![entry(DiffStatus::Info, Some(1.0), Some(2.0))];
        let (lines, failures) = render_diff_table(&entries, |e| e.status.fails());
        assert_eq!((lines.len(), failures), (1, 0));
    }
}
