//! Routing for NATURE: PathFinder over the hierarchical interconnect,
//! post-route timing, interconnect usage statistics and configuration
//! bitmap generation (Section 4, step 15).
//!
//! Routing "is conducted in a hierarchical fashion, first using direct
//! links, then length-1 and length-4 wire segments and finally global
//! interconnects" — realized here through tier base costs inside a
//! negotiated-congestion (PathFinder) router that runs once per folding
//! cycle, since NATURE reconfigures its switches every cycle.
//!
//! Post-route timing runs the placer's longest-path pass
//! ([`nanomap_place::analyze_timing`]) with routed connection delays as
//! the hop delay. [`RoutedDesign`] keeps those delays and the arrivals,
//! and [`trace_critical_paths`] walks back through them without running
//! the pass again.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod bitmap;
mod driver;
mod error;
mod explain;
mod pathfinder;
#[cfg(test)]
mod reference;
mod timing;
mod usage;

pub use bitmap::generate_bitmap;
pub use driver::{route_design_budgeted, route_design_with_defects, RoutedDesign};
pub use error::{describe_net, RouteError, RouteErrorKind};
pub use explain::{
    trace_critical_paths, CriticalPathReport, PathHop, SegmentBreakdown, TracedPath,
};
pub use pathfinder::{route_slice, RouteOptions, RoutedNet};
pub use usage::{tally_congestion, tally_usage, CongestionGrid, InterconnectUsage, TierGrid};
