//! Allocation and RSS telemetry.
//!
//! [`CountingAllocator`] wraps any [`GlobalAlloc`] (in practice
//! [`std::alloc::System`]) and counts allocations, deallocations, bytes,
//! and the live-byte high-water mark — attributed to the active flow
//! phase through a process-global atomic that the span layer maintains.
//! The allocator hot path is a handful of relaxed atomic ops when
//! tracking is on and a single relaxed load when it is off; it never
//! touches thread-locals or locks (a global allocator that re-enters
//! itself through a `thread_local` initializer deadlocks or recurses).
//!
//! RSS comes from `/proc/self/status` (`VmRSS`, reported in kB) on
//! Linux, read at the end of every phase span while tracking is on and
//! once more when the flow finishes; other platforms get a portable
//! `None` fallback so every consumer stays optional-aware.
//!
//! Nothing in this module panics and nothing allocates on the counting
//! path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::json::JsonValue;
use crate::phase::PHASES;

/// Allocation attribution slots: index 0 is the catch-all for
/// allocations outside any phase span, index `i + 1` is `PHASES[i]`.
const NUM_PHASES: usize = PHASES.len() + 1;

/// Name of attribution slot `idx`.
fn phase_name(idx: usize) -> &'static str {
    idx.checked_sub(1).map_or("other", |i| PHASES[i].span)
}

/// Master switch: when off, the allocator forwards with one relaxed
/// load of overhead and reports stay `None`.
static MEM_ENABLED: AtomicBool = AtomicBool::new(false);

/// Attribution slot of the phase currently executing. Written
/// by the span layer, read by the allocator. A plain global (not a
/// thread-local) on purpose: the flow runs its phases on one thread, and
/// the allocator must not touch TLS.
static CURRENT_PHASE: AtomicUsize = AtomicUsize::new(0);

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static DEALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static DEALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static RSS_PEAK_KB: AtomicU64 = AtomicU64::new(0);

static PHASE_ALLOC_BYTES: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];
static PHASE_ALLOC_COUNT: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];

/// Enables or disables allocation tracking. Enabling resets nothing —
/// call [`reset_memory`] first for a clean window.
pub fn set_memory_tracking(on: bool) {
    MEM_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocation tracking is currently on.
pub fn memory_tracking() -> bool {
    MEM_ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every counter (for multi-run drivers, mirroring
/// [`crate::reset`]).
pub fn reset_memory() {
    ALLOC_COUNT.store(0, Ordering::Relaxed);
    DEALLOC_COUNT.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
    DEALLOC_BYTES.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(0, Ordering::Relaxed);
    RSS_PEAK_KB.store(0, Ordering::Relaxed);
    CURRENT_PHASE.store(0, Ordering::Relaxed);
    for counter in &PHASE_ALLOC_BYTES {
        counter.store(0, Ordering::Relaxed);
    }
    for counter in &PHASE_ALLOC_COUNT {
        counter.store(0, Ordering::Relaxed);
    }
}

/// Span-layer hook: marks `name` as the active phase when it is one of
/// [`PHASES`]. Returns the previous phase slot for restoration.
pub(crate) fn phase_enter(name: &str) -> Option<usize> {
    if !memory_tracking() {
        return None;
    }
    let idx = PHASES.iter().position(|p| p.span == name)? + 1;
    Some(CURRENT_PHASE.swap(idx, Ordering::Relaxed))
}

/// Span-layer hook: samples RSS as the phase ends (one read per
/// boundary: each phase's end is the next one's start) and restores the
/// phase saved by [`phase_enter`].
pub(crate) fn phase_exit(previous: usize) {
    sample_rss_kb();
    CURRENT_PHASE.store(previous, Ordering::Relaxed);
}

/// Reads the process resident-set size in kB from `/proc/self/status`
/// (`VmRSS`). Returns `None` off-Linux or when the read fails — RSS is
/// best-effort telemetry, never load-bearing. Reads into a stack buffer,
/// so a sample taken at a phase boundary adds nothing to the counted
/// allocations.
pub fn read_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        use std::io::Read as _;
        let mut file = std::fs::File::open("/proc/self/status").ok()?;
        let mut buf = [0u8; 4096];
        let mut len = 0;
        while len < buf.len() {
            match file.read(&mut buf[len..]).ok()? {
                0 => break,
                n => len += n,
            }
        }
        let rest = buf[..len]
            .split(|&b| b == b'\n')
            .find_map(|line| line.strip_prefix(b"VmRSS:"))?;
        std::str::from_utf8(rest)
            .ok()?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Samples RSS once and folds it into the peak. Returns the reading.
pub fn sample_rss_kb() -> Option<u64> {
    let kb = read_rss_kb()?;
    RSS_PEAK_KB.fetch_max(kb, Ordering::Relaxed);
    Some(kb)
}

/// Point-in-time memory counters, as captured by [`memory_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryReport {
    /// Heap allocations observed.
    pub alloc_count: u64,
    /// Heap deallocations observed.
    pub dealloc_count: u64,
    /// Total bytes allocated.
    pub alloc_bytes: u64,
    /// Total bytes freed.
    pub dealloc_bytes: u64,
    /// Bytes live right now.
    pub live_bytes: u64,
    /// Live-byte high-water mark.
    pub peak_live_bytes: u64,
    /// Peak RSS in kB, when the platform exposes it and at least one
    /// sample was taken.
    pub peak_rss_kb: Option<u64>,
    /// Per-phase `(phase, allocations, bytes)`: `other` first, then
    /// [`PHASES`] order, phases with zero activity omitted.
    pub by_phase: Vec<(&'static str, u64, u64)>,
}

impl MemoryReport {
    /// Deterministic-schema JSON rendering (sorted object keys via the
    /// underlying [`JsonValue`] object).
    pub fn to_json(&self) -> JsonValue {
        let mut phases = JsonValue::object();
        for (phase, count, bytes) in &self.by_phase {
            phases.set(
                phase,
                JsonValue::object()
                    .with("allocations", *count)
                    .with("bytes", *bytes),
            );
        }
        JsonValue::object()
            .with("alloc_count", self.alloc_count)
            .with("dealloc_count", self.dealloc_count)
            .with("alloc_bytes", self.alloc_bytes)
            .with("dealloc_bytes", self.dealloc_bytes)
            .with("live_bytes", self.live_bytes)
            .with("peak_live_bytes", self.peak_live_bytes)
            .with("peak_rss_kb", self.peak_rss_kb)
            .with("by_phase", phases)
    }
}

/// Snapshots the counters. `None` while tracking is off — the
/// `Option` is what keeps non-tracked runs byte-identical downstream.
pub fn memory_report() -> Option<MemoryReport> {
    if !memory_tracking() {
        return None;
    }
    let peak_rss = RSS_PEAK_KB.load(Ordering::Relaxed);
    let by_phase = (0..NUM_PHASES)
        .filter_map(|idx| {
            let count = PHASE_ALLOC_COUNT[idx].load(Ordering::Relaxed);
            let bytes = PHASE_ALLOC_BYTES[idx].load(Ordering::Relaxed);
            (count > 0).then_some((phase_name(idx), count, bytes))
        })
        .collect();
    Some(MemoryReport {
        alloc_count: ALLOC_COUNT.load(Ordering::Relaxed),
        dealloc_count: DEALLOC_COUNT.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        dealloc_bytes: DEALLOC_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed),
        peak_rss_kb: (peak_rss > 0).then_some(peak_rss),
        by_phase,
    })
}

#[inline]
fn on_alloc(size: usize) {
    if !memory_tracking() {
        return;
    }
    let size = size as u64;
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    let phase = CURRENT_PHASE.load(Ordering::Relaxed).min(NUM_PHASES - 1);
    PHASE_ALLOC_COUNT[phase].fetch_add(1, Ordering::Relaxed);
    PHASE_ALLOC_BYTES[phase].fetch_add(size, Ordering::Relaxed);
}

#[inline]
fn on_dealloc(size: usize) {
    if !memory_tracking() {
        return;
    }
    let size = size as u64;
    DEALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    DEALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    // Saturate: frees of memory allocated before tracking started must
    // not wrap the live counter.
    let mut live = LIVE_BYTES.load(Ordering::Relaxed);
    loop {
        let next = live.saturating_sub(size);
        match LIVE_BYTES.compare_exchange_weak(live, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => live = actual,
        }
    }
}

/// A counting wrapper around another allocator. Install it in a binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: nanomap_observe::CountingAllocator =
///     nanomap_observe::CountingAllocator::system();
/// ```
///
/// Counting is off until [`set_memory_tracking`]`(true)`; while off the
/// wrapper costs one relaxed load per allocator call.
pub struct CountingAllocator<A = System> {
    inner: A,
}

impl CountingAllocator<System> {
    /// The standard wrapper over the system allocator.
    pub const fn system() -> Self {
        Self { inner: System }
    }
}

impl<A> CountingAllocator<A> {
    /// Wraps an arbitrary inner allocator.
    pub const fn new(inner: A) -> Self {
        Self { inner }
    }
}

// SAFETY: every method forwards to the inner allocator with the same
// layout contract; the counting side effects are lock-free atomics that
// never allocate, unwind, or re-enter the allocator.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAllocator<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { self.inner.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { self.inner.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { self.inner.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { self.inner.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Memory counters are process-global; serialize the tests that
    /// toggle them.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn report_is_none_while_tracking_off() {
        let _guard = test_lock();
        set_memory_tracking(false);
        assert!(memory_report().is_none());
    }

    #[test]
    fn counters_track_a_simulated_allocation_pattern() {
        let _guard = test_lock();
        reset_memory();
        set_memory_tracking(true);
        // Exercise the counting hooks directly: the test binary does not
        // install the wrapper (only production binaries do), so feed the
        // same code paths the allocator would.
        on_alloc(1024);
        on_alloc(512);
        on_dealloc(512);
        let report = memory_report().expect("tracking on");
        set_memory_tracking(false);
        assert_eq!(report.alloc_count, 2);
        assert_eq!(report.dealloc_count, 1);
        assert_eq!(report.alloc_bytes, 1536);
        assert_eq!(report.live_bytes, 1024);
        assert_eq!(report.peak_live_bytes, 1536);
        assert_eq!(report.by_phase, vec![("other", 2, 1536)]);
    }

    #[test]
    fn phase_attribution_follows_the_span_hooks() {
        let _guard = test_lock();
        reset_memory();
        set_memory_tracking(true);
        let saved = phase_enter("place").expect("place is a known phase");
        on_alloc(4096);
        phase_exit(saved);
        on_alloc(1);
        let report = memory_report().expect("tracking on");
        set_memory_tracking(false);
        assert!(report.by_phase.contains(&("place", 1, 4096)));
        assert!(report.by_phase.contains(&("other", 1, 1)));
    }

    #[test]
    fn unknown_span_names_do_not_switch_phase() {
        let _guard = test_lock();
        reset_memory();
        set_memory_tracking(true);
        assert!(phase_enter("not-a-phase").is_none());
        set_memory_tracking(false);
    }

    #[test]
    fn dealloc_of_pretracking_memory_saturates() {
        let _guard = test_lock();
        reset_memory();
        set_memory_tracking(true);
        on_dealloc(1_000_000);
        let report = memory_report().expect("tracking on");
        set_memory_tracking(false);
        assert_eq!(report.live_bytes, 0, "live bytes must not wrap");
        assert_eq!(report.dealloc_bytes, 1_000_000);
    }

    #[test]
    fn memory_json_is_deterministic_and_schema_stable() {
        let report = MemoryReport {
            alloc_count: 2,
            dealloc_count: 1,
            alloc_bytes: 300,
            dealloc_bytes: 100,
            live_bytes: 200,
            peak_live_bytes: 300,
            peak_rss_kb: Some(2048),
            by_phase: vec![("pack", 1, 100), ("place", 1, 200)],
        };
        let text = report.to_json().to_compact_string();
        assert!(text.contains("\"peak_live_bytes\":300"));
        assert!(text.contains("\"peak_rss_kb\":2048"));
        assert!(text.contains("\"pack\""));
        // None folds to null-free omission? No — Option<u64> maps to
        // null; assert the shape stays parseable either way.
        let none_report = MemoryReport {
            peak_rss_kb: None,
            ..report.clone()
        };
        let parsed = crate::json::parse(&none_report.to_json().to_compact_string());
        assert!(parsed.is_ok());
    }

    #[test]
    fn rss_reads_are_plausible_on_linux() {
        if cfg!(target_os = "linux") {
            let kb = read_rss_kb().expect("linux exposes VmRSS");
            assert!(kb > 100, "a running test binary resides in >100 kB");
        } else {
            assert!(read_rss_kb().is_none());
        }
    }
}
