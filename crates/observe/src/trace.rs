//! Chrome trace-event export.
//!
//! [`MetricsSnapshot::to_chrome_trace`] renders a snapshot in the
//! [Trace Event Format] understood by Perfetto (<https://ui.perfetto.dev>)
//! and `chrome://tracing`: every finished span becomes a complete (`X`)
//! duration event on its thread's track, and every time series becomes a
//! counter (`C`) track sampled at the wall-clock instants the points were
//! recorded. Timestamps are microseconds since the collector epoch, which
//! is exactly the unit the format expects.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! ```
//! use nanomap_observe as observe;
//! observe::set_enabled(true);
//! {
//!     let _phase = observe::span!("place");
//!     observe::series("place.cost").record(0, 42.0);
//! }
//! let trace = observe::snapshot().to_chrome_trace().to_pretty_string();
//! assert!(trace.contains("\"traceEvents\""));
//! assert!(trace.contains("\"ph\": \"C\""));
//! ```

use std::collections::BTreeSet;

use crate::collector::MetricsSnapshot;
use crate::json::JsonValue;

/// The process id stamped on every event (one flow = one process).
const PID: u32 = 1;

impl MetricsSnapshot {
    /// Renders the snapshot as a Chrome trace-event JSON document.
    ///
    /// Load the result in Perfetto or `chrome://tracing`: spans appear as
    /// nested slices on per-thread tracks, series as counter tracks.
    pub fn to_chrome_trace(&self) -> JsonValue {
        self.to_chrome_trace_with_events(Vec::new())
    }

    /// [`Self::to_chrome_trace`] with caller-supplied extra trace events
    /// appended (already in Trace Event Format — e.g. the flow's
    /// critical-path hops as flow events).
    pub fn to_chrome_trace_with_events(&self, extra: Vec<JsonValue>) -> JsonValue {
        let mut events: Vec<JsonValue> = Vec::new();
        events.push(meta_event(
            "process_name",
            None,
            JsonValue::object().with("name", "nanomap"),
        ));
        // One named track per thread that recorded spans.
        let tids: BTreeSet<u32> = self.spans.iter().map(|s| s.tid).collect();
        for &tid in &tids {
            let name = if tid == 0 {
                "main".to_string()
            } else {
                format!("worker-{tid}")
            };
            events.push(meta_event(
                "thread_name",
                Some(tid),
                JsonValue::object().with("name", name),
            ));
        }
        for span in &self.spans {
            let mut args = JsonValue::object();
            for (k, v) in &span.attrs {
                args.set(k, v.clone());
            }
            args.set("depth", span.depth);
            events.push(
                JsonValue::object()
                    .with("name", span.name)
                    .with("cat", "span")
                    .with("ph", "X")
                    .with("pid", PID)
                    .with("tid", span.tid)
                    .with("ts", span.start_us)
                    // Zero-duration slices are invisible; clamp to 1 µs.
                    .with("dur", span.duration_us.max(1))
                    .with("args", args),
            );
        }
        for (&name, snap) in &self.series {
            for point in &snap.points {
                events.push(
                    JsonValue::object()
                        .with("name", name)
                        .with("cat", "series")
                        .with("ph", "C")
                        .with("pid", PID)
                        .with("ts", point.t_us)
                        .with("args", JsonValue::object().with("value", point.y)),
                );
            }
        }
        events.extend(extra);
        JsonValue::object()
            .with("traceEvents", JsonValue::Array(events))
            .with("displayTimeUnit", "ms")
    }
}

fn meta_event(name: &str, tid: Option<u32>, args: JsonValue) -> JsonValue {
    let mut event = JsonValue::object()
        .with("name", name)
        .with("ph", "M")
        .with("pid", PID);
    if let Some(tid) = tid {
        event.set("tid", tid);
    }
    event.set("args", args);
    event
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::series::{SeriesPoint, SeriesSnapshot};
    use crate::span::SpanRecord;
    use std::collections::BTreeMap;

    type SeriesSpec = Vec<(&'static str, Vec<(u64, u64, f64)>)>;

    fn snapshot_with(spans: Vec<SpanRecord>, series: SeriesSpec) -> MetricsSnapshot {
        let series: BTreeMap<&'static str, SeriesSnapshot> = series
            .into_iter()
            .map(|(name, pts)| {
                let points: Vec<SeriesPoint> = pts
                    .iter()
                    .map(|&(x, t_us, y)| SeriesPoint { x, t_us, y })
                    .collect();
                (
                    name,
                    SeriesSnapshot {
                        count: points.len() as u64,
                        stride: 1,
                        first: points.first().copied(),
                        last: points.last().copied(),
                        min_y: points.iter().map(|p| p.y).fold(f64::INFINITY, f64::min),
                        max_y: points.iter().map(|p| p.y).fold(0.0, f64::max),
                        points,
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            spans,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            series,
        }
    }

    fn span(name: &'static str, tid: u32, start_us: u64, duration_us: u64) -> SpanRecord {
        SpanRecord {
            id: 1,
            parent: None,
            name,
            attrs: vec![("k", JsonValue::from(3u32))],
            depth: 0,
            tid,
            start_us,
            duration_us,
        }
    }

    #[test]
    fn emits_x_events_with_thread_tracks() {
        let snap = snapshot_with(
            vec![span("place", 0, 10, 500), span("route", 2, 600, 1)],
            vec![],
        );
        let doc = snap.to_chrome_trace();
        let text = doc.to_compact_string();
        let parsed = parse(&text).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        // Metadata: process + two thread names.
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 3);
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].get("ts").and_then(JsonValue::as_int), Some(10));
        assert_eq!(xs[0].get("dur").and_then(JsonValue::as_int), Some(500));
        assert_eq!(xs[0].get("tid").and_then(JsonValue::as_int), Some(0));
        assert_eq!(xs[1].get("tid").and_then(JsonValue::as_int), Some(2));
        // Zero/one-microsecond spans stay visible.
        assert_eq!(xs[1].get("dur").and_then(JsonValue::as_int), Some(1));
    }

    #[test]
    fn emits_counter_events_for_series_points() {
        let snap = snapshot_with(
            vec![],
            vec![("place.cost", vec![(0, 5, 100.0), (1, 9, 80.5)])],
        );
        let doc = snap.to_chrome_trace();
        let parsed = parse(&doc.to_pretty_string()).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        for c in &counters {
            assert_eq!(
                c.get("name").and_then(JsonValue::as_str),
                Some("place.cost")
            );
            assert!(c.get("args").and_then(|a| a.get("value")).is_some());
        }
        assert_eq!(counters[0].get("ts").and_then(JsonValue::as_int), Some(5));
    }
}
