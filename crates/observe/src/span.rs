//! Hierarchical wall-clock spans with RAII guards.
//!
//! `let _g = span!("fds", items = n);` opens a span that closes when the
//! guard drops. Nesting is tracked per thread, so concurrent flows build
//! independent subtrees under the shared collector.

use std::cell::RefCell;
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

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
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
    /// Counter values (for counters prefixed `<name>.`) captured at
    /// open, when the event bus was live — drop publishes the deltas.
    counter_base: Option<Vec<(&'static str, u64)>>,
}

impl SpanGuard {
    /// Opens a span. Prefer the [`crate::span!`] macro.
    pub fn enter(name: &'static str, attrs: Vec<SpanAttr>) -> Self {
        if !enabled() {
            return Self { open: None };
        }
        let id = collector::next_span_id();
        let (parent, depth) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            let depth = stack.len() as u32;
            stack.push(id);
            (parent, depth)
        });
        let saved_phase = crate::alloc::phase_enter(name);
        let counter_base = if crate::events::events_enabled() {
            crate::events::publish(crate::events::EventKind::PhaseStart { phase: name, depth });
            Some(collector::counters_with_prefix(&format!("{name}.")))
        } else {
            None
        };
        Self {
            open: Some(OpenSpan {
                id,
                parent,
                name,
                attrs,
                depth,
                started: Instant::now(),
                saved_phase,
                counter_base,
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
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards drop in LIFO order per thread; defend against
            // misuse (a guard outliving its parent) by searching.
            if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
                stack.truncate(pos);
            }
        });
        let duration_us = duration.as_micros().min(u128::from(u64::MAX)) as u64;
        if let Some(base) = &open.counter_base {
            if crate::events::events_enabled() {
                crate::events::publish(crate::events::EventKind::PhaseEnd {
                    phase: open.name,
                    depth: open.depth,
                    duration_us,
                });
                let now = collector::counters_with_prefix(&format!("{}.", open.name));
                let deltas: Vec<(&'static str, u64)> = now
                    .iter()
                    .map(|&(name, value)| {
                        let before = base
                            .iter()
                            .find(|&&(b, _)| b == name)
                            .map_or(0, |&(_, v)| v);
                        (name, value.saturating_sub(before))
                    })
                    .filter(|&(_, delta)| delta > 0)
                    .collect();
                if !deltas.is_empty() {
                    crate::events::publish(crate::events::EventKind::Counters {
                        phase: open.name,
                        deltas,
                    });
                }
            }
        }
        let start_us = collector::since_epoch_us(open.started);
        collector::record_span(SpanRecord {
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
