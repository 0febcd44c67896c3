//! Hierarchical wall-clock spans with RAII guards.
//!
//! `let _g = span!("fds", items = n);` opens a span that closes when the
//! guard drops; `span!(…).finish()` closes it and returns its duration,
//! which is how the flow times its phases. Nesting is tracked per
//! thread, so concurrent flows build independent subtrees under the
//! shared collector.

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
/// [`SpanGuard::enter`]; records the span into the global collector when
/// it drops or [finishes](SpanGuard::finish). The guard reads the clock
/// when it opens whether or not observability is enabled, so
/// [`SpanGuard::finish`] can time the bracketed work either way; while
/// observability is disabled it costs one relaxed atomic load plus the
/// two clock reads (one when dropped without finishing) and records
/// nothing.
#[derive(Debug)]
pub struct SpanGuard {
    started: Instant,
    open: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    attrs: Vec<SpanAttr>,
    depth: u32,
    /// Phase index to restore in the allocator's attribution slot, when
    /// this span switched it.
    saved_phase: Option<usize>,
}

impl SpanGuard {
    /// Opens a span. Prefer the [`crate::span!`] macro.
    pub fn enter(name: &'static str, attrs: Vec<SpanAttr>) -> Self {
        let open = enabled().then(|| {
            let (id, parent, depth) = collector::open_span(name);
            OpenSpan {
                id,
                parent,
                name,
                attrs,
                depth,
                saved_phase: crate::alloc::phase_enter(name),
            }
        });
        Self {
            started: Instant::now(),
            open,
        }
    }

    /// Attaches an attribute after open (e.g. a result computed inside the
    /// span). No-op on inert guards.
    pub fn attr(&mut self, key: &'static str, value: impl Into<JsonValue>) {
        if let Some(open) = &mut self.open {
            open.attrs.push((key, value.into()));
        }
    }

    /// Closes the span and returns its duration in whole microseconds —
    /// the very `duration_us` the collector records when it is enabled.
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    /// Reads the duration and records the span, once.
    fn close(&mut self) -> u64 {
        let duration_us = self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        if let Some(open) = self.open.take() {
            if let Some(previous) = open.saved_phase {
                crate::alloc::phase_exit(previous);
            }
            collector::close_span(SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name,
                attrs: open.attrs,
                depth: open.depth,
                tid: collector::thread_ordinal(),
                start_us: collector::since_epoch_us(self.started),
                duration_us,
            });
        }
        duration_us
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.open.is_some() {
            self.close();
        }
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
