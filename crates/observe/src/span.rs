//! Hierarchical wall-clock spans with RAII guards.
//!
//! `let _g = span!("fds", items = n);` opens a span that closes when the
//! guard drops. Nesting is tracked per thread, so concurrent flows build
//! independent subtrees under the shared collector.

use std::time::Instant;

use crate::collector::{self, enabled};
use crate::json::JsonValue;

/// One attribute on a span.
pub type SpanAttr = (&'static str, JsonValue);

/// A finished span as stored by the collector.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Collector-unique id.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name (phase or operation).
    pub name: &'static str,
    /// Attributes captured at open time.
    pub attrs: Vec<SpanAttr>,
    /// Nesting depth (roots are 0).
    pub depth: u32,
    /// Ordinal of the thread the span ran on (0 = first instrumented
    /// thread). The Chrome-trace exporter maps this to a track.
    pub tid: u32,
    /// Microseconds since the collector epoch at open.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
}

impl SpanRecord {
    /// Duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.duration_us as f64 / 1000.0
    }
}

/// RAII guard for an open span. Created by [`crate::span!`] or
/// [`SpanGuard::enter`]; records the span into the global collector on
/// drop. Inert (zero-cost beyond one atomic load) while observability is
/// disabled.
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    attrs: Vec<SpanAttr>,
    depth: u32,
    started: Instant,
    /// Phase index to restore in the allocator's attribution slot, when
    /// this span switched it.
    saved_phase: Option<usize>,
}

impl SpanGuard {
    /// Opens a span. Prefer the [`crate::span!`] macro.
    pub fn enter(name: &'static str, attrs: Vec<SpanAttr>) -> Self {
        if !enabled() {
            return Self { open: None };
        }
        let (id, parent, depth) = collector::open_span(name);
        let saved_phase = crate::alloc::phase_enter(name);
        Self {
            open: Some(OpenSpan {
                id,
                parent,
                name,
                attrs,
                depth,
                started: Instant::now(),
                saved_phase,
            }),
        }
    }

    /// Attaches an attribute after open (e.g. a result computed inside the
    /// span). No-op on inert guards.
    pub fn attr(&mut self, key: &'static str, value: impl Into<JsonValue>) {
        if let Some(open) = &mut self.open {
            open.attrs.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let duration = open.started.elapsed();
        if let Some(previous) = open.saved_phase {
            crate::alloc::phase_exit(previous);
        }
        let duration_us = duration.as_micros().min(u128::from(u64::MAX)) as u64;
        let start_us = collector::since_epoch_us(open.started);
        collector::close_span(SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            attrs: open.attrs,
            depth: open.depth,
            tid: collector::thread_ordinal(),
            start_us,
            duration_us,
        });
    }
}

/// Opens a hierarchical wall-clock span; returns a [`SpanGuard`] that
/// closes the span when dropped. Bind it: `let _span = span!(...)`.
///
/// ```
/// let _flow = nanomap_observe::span!("flow", circuit = "ex1");
/// let _phase = nanomap_observe::span!("fds");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::SpanGuard::enter(
            $name,
            ::std::vec![$((stringify!($key), $crate::JsonValue::from($value))),+],
        )
    };
}
