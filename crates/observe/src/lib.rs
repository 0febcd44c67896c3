//! # nanomap-observe
//!
//! Zero-dependency observability for the NanoMap flow: hierarchical
//! wall-clock [spans](span!), monotonic [counters](counter), log-scale
//! [histograms](histogram) with percentile readout, bounded time
//! [series] for convergence trajectories, a thread-safe global
//! [collector](snapshot), and four views of its
//! span records — a human-readable per-phase tree
//! ([`MetricsSnapshot::render_tree`]), a hand-rolled JSON emitter
//! ([`MetricsSnapshot::to_json`], serde-free), a Chrome trace-event
//! exporter ([`MetricsSnapshot::to_chrome_trace`], loadable in Perfetto)
//! and an exact span-path profile ([`MetricsSnapshot::profile`]).
//!
//! Everything is **off by default** and costs one relaxed atomic load per
//! instrumentation site until [`set_enabled`]`(true)` — the flow's hot
//! paths stay hot with observability compiled in. The
//! [`nanomap-events-v1` bus](events) is a second, independent switch;
//! iterative kernels feed both through one [`progress`] call per
//! iteration.
//!
//! The crate also hosts the workspace's determinism substrate:
//! [`rng::XorShift64Star`], the seeded PRNG that replaced the `rand`
//! crate so annealing and routing runs reproduce from one logged seed,
//! and [`Fnv1a`], the one hash behind fingerprints and run ids. The
//! flow's timed phases are listed once, in [`PHASES`].
//!
//! ```
//! use nanomap_observe as observe;
//!
//! observe::set_enabled(true);
//! {
//!     let _phase = observe::span!("fds", items = 12usize);
//!     observe::counter("fds.force_evals").add(144);
//!     observe::histogram("fds.round_us").record(250);
//!     observe::progress("fds.best_force", 0, 3.5, observe::Extent::Total(12));
//! }
//! let snap = observe::snapshot();
//! assert_eq!(snap.counter("fds.force_evals"), 144);
//! assert!(!snap.spans_named("fds").is_empty());
//! assert_eq!(snap.series("fds.best_force").unwrap().last_y(), 3.5);
//! let json = snap.to_json().to_pretty_string();
//! assert!(json.contains("\"fds.force_evals\""));
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod budget;
pub mod events;
pub mod failpoint;
pub mod json;
pub mod profile;
pub mod rng;

mod collector;
mod hash;
mod metrics;
mod phase;
mod series;
mod span;
mod trace;

pub use alloc::{
    memory_report, memory_tracking, read_rss_kb, reset_memory, sample_rss_kb, set_memory_tracking,
    CountingAllocator, MemoryReport,
};
pub use budget::{Anytime, CancelToken, Degradation};
pub use collector::{
    counter, enabled, histogram, incr, reset, series, set_echo, set_enabled, snapshot,
    thread_ordinal, Echo, MetricsSnapshot,
};
pub use failpoint::{FailMode, FAILPOINTS_ENV, FAILPOINT_SEED_ENV};

pub use events::{
    drain_events, dropped_events, progress, publish, reset_events, set_events_enabled, Event,
    EventKind, EventStream, Extent, StreamStats, EVENTS_SCHEMA, EVENT_QUEUE_CAPACITY,
};
pub use hash::Fnv1a;
pub use json::JsonValue;
pub use metrics::{Counter, HistogramHandle, HistogramSnapshot};
pub use phase::{Phase, PHASES};
pub use profile::{HotPath, ProfileData, ProfilePath, PROFILE_SCHEMA};
pub use series::{SeriesHandle, SeriesPoint, SeriesSnapshot, SERIES_CAPACITY};
pub use span::{SpanAttr, SpanGuard, SpanRecord};
