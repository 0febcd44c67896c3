//! Exact span-path profile: a view of the collector's span records.
//!
//! Every closed span is attributed to its *path*, the span names along
//! its parent chain (`flow;place;anneal`). A path's inclusive time is
//! the summed duration of its spans; its exclusive time subtracts the
//! durations of their direct children. Children run on the parent's
//! thread and nest inside it, so exclusive times are never negative and
//! tile each root span to the microsecond. [`MetricsSnapshot::profile`]
//! yields a [`ProfileData`] with:
//!
//! * deterministic-schema `nanomap-profile-v2` JSON ([`ProfileData::to_json`]),
//! * collapsed-stack text weighted by exclusive µs, for standard
//!   flamegraph tooling ([`ProfileData::collapsed`]),
//! * a top-K hot-path table with per-phase attribution
//!   ([`ProfileData::top_paths`]).
//!
//! The Chrome-trace export draws the same spans as slices, so the
//! profile needs no trace events of its own.

use std::collections::{BTreeMap, HashMap};

use crate::collector::MetricsSnapshot;
use crate::json::JsonValue;
use crate::span::SpanRecord;

/// Schema tag stamped on every profile artifact.
pub const PROFILE_SCHEMA: &str = "nanomap-profile-v2";

/// One span path aggregated over every span recorded at it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfilePath {
    /// Span names from root to leaf.
    pub frames: Vec<&'static str>,
    /// Spans recorded at exactly this path.
    pub spans: u64,
    /// Their summed duration, children included, in microseconds.
    pub inclusive_us: u64,
    /// Their summed duration minus their direct children's, in
    /// microseconds.
    pub exclusive_us: u64,
}

impl ProfilePath {
    /// The `a;b;c` collapsed-stack rendering of the path.
    pub fn key(&self) -> String {
        self.frames.join(";")
    }
}

/// An exact profile: every recorded span path with its inclusive and
/// exclusive time. Info-only by contract — nothing in here feeds the QoR
/// gates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileData {
    /// Aggregated paths sorted by collapsed key.
    pub paths: Vec<ProfilePath>,
}

impl MetricsSnapshot {
    /// The exact span-path profile of this snapshot's spans.
    pub fn profile(&self) -> ProfileData {
        ProfileData::from_spans(&self.spans)
    }
}

impl ProfileData {
    /// Aggregates span records by path. A span whose parent was never
    /// recorded (still open, or cleared by a reset) counts as a root.
    pub fn from_spans(spans: &[SpanRecord]) -> Self {
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for span in spans {
            if let Some(parent) = span.parent.filter(|p| by_id.contains_key(p)) {
                *child_us.entry(parent).or_default() += span.duration_us;
            }
        }
        let mut paths: BTreeMap<String, ProfilePath> = BTreeMap::new();
        for span in spans {
            let mut frames = vec![span.name];
            let mut cursor = span.parent.and_then(|p| by_id.get(&p));
            while let Some(ancestor) = cursor {
                frames.push(ancestor.name);
                cursor = ancestor.parent.and_then(|p| by_id.get(&p));
            }
            frames.reverse();
            let path = paths
                .entry(frames.join(";"))
                .or_insert_with(|| ProfilePath {
                    frames,
                    spans: 0,
                    inclusive_us: 0,
                    exclusive_us: 0,
                });
            let children = child_us.get(&span.id).copied().unwrap_or(0);
            path.spans += 1;
            path.inclusive_us += span.duration_us;
            path.exclusive_us += span.duration_us.saturating_sub(children);
        }
        Self {
            paths: paths.into_values().collect(),
        }
    }

    /// The path with collapsed key `key`, if any span was recorded there.
    pub fn path(&self, key: &str) -> Option<&ProfilePath> {
        self.paths.iter().find(|p| p.key() == key)
    }

    /// Inclusive microseconds at `key` (0 when absent).
    pub fn inclusive_us(&self, key: &str) -> u64 {
        self.path(key).map_or(0, |p| p.inclusive_us)
    }

    /// Summed inclusive time of the root paths — the profiled wall-clock,
    /// which the exclusive times tile exactly.
    pub fn total_us(&self) -> u64 {
        self.paths
            .iter()
            .filter(|p| p.frames.len() == 1)
            .map(|p| p.inclusive_us)
            .sum()
    }

    /// Collapsed-stack text (`frames;joined;by;semicolons µs` per line,
    /// sorted, weighted by exclusive microseconds) — the input format of
    /// standard flamegraph tooling.
    pub fn collapsed(&self) -> String {
        self.paths
            .iter()
            .filter(|p| p.exclusive_us > 0)
            .map(|p| format!("{} {}\n", p.key(), p.exclusive_us))
            .collect()
    }

    /// The `nanomap-profile-v2` JSON artifact. Key order is
    /// deterministic; values are wall-clock and info-only by contract.
    pub fn to_json(&self) -> JsonValue {
        let paths: Vec<JsonValue> = self
            .paths
            .iter()
            .map(|p| {
                JsonValue::object()
                    .with("path", p.key())
                    .with("depth", p.frames.len())
                    .with("spans", p.spans)
                    .with("exclusive_us", p.exclusive_us)
                    .with("inclusive_us", p.inclusive_us)
            })
            .collect();
        JsonValue::object()
            .with("schema", PROFILE_SCHEMA)
            .with("total_us", self.total_us())
            .with("paths", JsonValue::Array(paths))
    }

    /// The top `k` paths by exclusive time, each with its share of its
    /// enclosing phase's inclusive time. The "phase" of a path is its
    /// depth-2 prefix (`flow;<phase>`), or the path itself when
    /// shallower.
    pub fn top_paths(&self, k: usize) -> Vec<HotPath> {
        let mut hot: Vec<&ProfilePath> = self.paths.iter().filter(|p| p.exclusive_us > 0).collect();
        hot.sort_by(|a, b| {
            b.exclusive_us
                .cmp(&a.exclusive_us)
                .then(a.key().cmp(&b.key()))
        });
        hot.iter()
            .take(k)
            .map(|p| {
                let phase = p.frames[..p.frames.len().min(2)].join(";");
                let phase_us = self.inclusive_us(&phase);
                HotPath {
                    key: p.key(),
                    spans: p.spans,
                    exclusive_us: p.exclusive_us,
                    inclusive_us: p.inclusive_us,
                    phase_fraction: if phase_us > 0 {
                        p.exclusive_us as f64 / phase_us as f64
                    } else {
                        0.0
                    },
                    phase,
                }
            })
            .collect()
    }

    /// Renders the top-K table for humans (the `nanomap profile`
    /// subcommand's output).
    pub fn render_top(&self, k: usize) -> String {
        let spans: u64 = self.paths.iter().map(|p| p.spans).sum();
        let mut out = format!(
            "profile: {spans} spans on {} paths, {:.3} ms exact\n",
            self.paths.len(),
            self.total_us() as f64 / 1e3,
        );
        if spans == 0 {
            out.push_str("no spans recorded: the collector was disabled during the run\n");
            return out;
        }
        out.push_str(&format!(
            "{:<4} {:>10} {:>10} {:>8} {:>6}  {}\n",
            "rank", "excl ms", "incl ms", "% phase", "spans", "span path"
        ));
        for (rank, hot) in self.top_paths(k).iter().enumerate() {
            out.push_str(&format!(
                "{:<4} {:>10.3} {:>10.3} {:>7.1}% {:>6}  {}\n",
                rank + 1,
                hot.exclusive_us as f64 / 1e3,
                hot.inclusive_us as f64 / 1e3,
                hot.phase_fraction * 100.0,
                hot.spans,
                hot.key
            ));
        }
        out
    }
}

/// One row of [`ProfileData::top_paths`].
#[derive(Debug, Clone, PartialEq)]
pub struct HotPath {
    /// Collapsed `a;b;c` path.
    pub key: String,
    /// Spans recorded at the path.
    pub spans: u64,
    /// Exclusive microseconds.
    pub exclusive_us: u64,
    /// Inclusive microseconds.
    pub inclusive_us: u64,
    /// Collapsed key of the enclosing phase (depth-2 prefix).
    pub phase: String,
    /// `exclusive / phase inclusive` — this path's share of its phase.
    pub phase_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span record with just the fields the profile reads.
    fn span(id: u64, parent: Option<u64>, name: &'static str, duration_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            attrs: Vec::new(),
            depth: 0,
            tid: 0,
            start_us: 0,
            duration_us,
        }
    }

    /// `flow` (100 µs) holding `pack` twice (30 + 10 µs, one with a
    /// 10 µs `cluster` child) and `place` (50 µs), in close order.
    fn flow_spans() -> Vec<SpanRecord> {
        vec![
            span(3, Some(2), "cluster", 10),
            span(2, Some(1), "pack", 30),
            span(4, Some(1), "pack", 10),
            span(5, Some(1), "place", 50),
            span(1, None, "flow", 100),
        ]
    }

    #[test]
    fn inclusive_counts_telescope_over_prefixes() {
        let profile = ProfileData::from_spans(&flow_spans());
        let by_key: BTreeMap<String, &ProfilePath> =
            profile.paths.iter().map(|p| (p.key(), p)).collect();
        assert_eq!(by_key["flow"].inclusive_us, 100);
        assert_eq!(by_key["flow"].exclusive_us, 10);
        assert_eq!(by_key["flow;pack"].spans, 2);
        assert_eq!(by_key["flow;pack"].inclusive_us, 40);
        assert_eq!(by_key["flow;pack"].exclusive_us, 30);
        assert_eq!(by_key["flow;pack;cluster"].exclusive_us, 10);
        assert_eq!(by_key["flow;place"].exclusive_us, 50);
        let exclusive: u64 = profile.paths.iter().map(|p| p.exclusive_us).sum();
        assert_eq!(exclusive, profile.total_us());
        assert_eq!(profile.total_us(), 100);
    }

    #[test]
    fn spans_with_unrecorded_parents_are_roots() {
        // The parent (id 9) is still open, so the child is a root.
        let profile = ProfileData::from_spans(&[span(10, Some(9), "route", 7)]);
        assert_eq!(profile.path("route").map(|p| p.exclusive_us), Some(7));
        assert_eq!(profile.total_us(), 7);
    }

    #[test]
    fn collapsed_stacks_render_exclusive_counts_sorted() {
        let collapsed = ProfileData::from_spans(&flow_spans()).collapsed();
        assert_eq!(
            collapsed,
            "flow 10\nflow;pack 30\nflow;pack;cluster 10\nflow;place 50\n"
        );
    }

    #[test]
    fn profile_json_has_schema_and_deterministic_paths() {
        let json = ProfileData::from_spans(&flow_spans()).to_json();
        assert_eq!(
            json.get("schema").and_then(JsonValue::as_str),
            Some(PROFILE_SCHEMA)
        );
        let text = json.to_pretty_string();
        let reparsed = crate::json::parse(&text).expect("artifact parses");
        assert_eq!(text, reparsed.to_pretty_string(), "emitter round-trips");
        let paths = json.get("paths").and_then(JsonValue::as_array).unwrap();
        assert_eq!(paths.len(), 4);
    }

    #[test]
    fn top_paths_rank_by_exclusive_and_attribute_to_phase() {
        let profile = ProfileData::from_spans(&flow_spans());
        let top = profile.top_paths(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].key, "flow;place");
        assert_eq!(top[0].phase, "flow;place");
        assert!((top[0].phase_fraction - 1.0).abs() < 1e-9);
        assert_eq!(top[1].key, "flow;pack");
        assert!((top[1].phase_fraction - 0.75).abs() < 1e-9);
    }

    #[test]
    fn snapshot_profile_captures_live_span_stacks() {
        crate::set_enabled(true);
        {
            let _outer = crate::span!("prof-outer");
            let _inner = crate::span!("prof-inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = crate::snapshot();
        let recorded = |name| snap.spans_named(name)[0].duration_us;
        let (outer_us, inner_us) = (recorded("prof-outer"), recorded("prof-inner"));
        let profile = snap.profile();
        // Other tests record spans concurrently; these paths are ours.
        let outer = profile.path("prof-outer").expect("outer path");
        let inner = profile.path("prof-outer;prof-inner").expect("inner path");
        assert_eq!(outer.inclusive_us, outer_us);
        assert_eq!(inner.inclusive_us, inner_us);
        assert!(inner.inclusive_us >= 2_000);
        assert_eq!(outer.exclusive_us, outer_us - inner_us);
    }

    #[test]
    fn empty_profile_renders_without_panicking() {
        let profile = ProfileData::from_spans(&[]);
        assert_eq!(profile.total_us(), 0);
        assert_eq!(profile.collapsed(), "");
        assert!(profile.render_top(5).contains("no spans recorded"));
        assert!(profile.top_paths(5).is_empty());
        assert_eq!(profile.inclusive_us("flow"), 0);
    }
}
