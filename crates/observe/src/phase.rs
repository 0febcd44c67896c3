//! The flow's timed phases, listed once.
//!
//! Each row names the span the flow opens for the phase and the key its
//! wall-clock entry carries in `phase_times`. Allocation attribution,
//! the report's JSON, the QoR and perf documents, the ledger and the
//! `run-end` event all iterate [`PHASES`], in this order.

/// One timed flow phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Name of the span the flow opens for the phase.
    pub span: &'static str,
    /// Key of the phase's milliseconds in `phase_times`.
    pub key: &'static str,
}

impl Phase {
    const fn new(span: &'static str, key: &'static str) -> Self {
        Self { span, key }
    }
}

/// Every timed phase, in flow order.
pub const PHASES: [Phase; 8] = [
    Phase::new("folding-select", "folding_select_ms"),
    Phase::new("fds", "fds_ms"),
    Phase::new("pack", "pack_ms"),
    Phase::new("place", "place_ms"),
    Phase::new("route", "route_ms"),
    Phase::new("bitmap", "bitmap_ms"),
    Phase::new("verify", "verify_ms"),
    Phase::new("explain", "explain_ms"),
];
