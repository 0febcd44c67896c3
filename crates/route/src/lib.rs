//! Routing for NATURE: PathFinder over the hierarchical interconnect,
//! post-route timing, interconnect usage statistics and configuration
//! bitmap generation (Section 4, step 15).
//!
//! Routing "is conducted in a hierarchical fashion, first using direct
//! links, then length-1 and length-4 wire segments and finally global
//! interconnects" — realized here through tier base costs inside a
//! negotiated-congestion (PathFinder) router that runs once per folding
//! cycle, since NATURE reconfigures its switches every cycle.

#![warn(missing_docs)]

mod bitmap;
mod driver;
mod error;
mod explain;
mod pathfinder;
mod timing;
mod usage;

pub use bitmap::generate_bitmap;
pub use driver::{route_design_budgeted, route_design_with_defects, RoutedDesign};
pub use error::{describe_net, RouteError, RouteErrorKind};
pub use explain::{
    segment_breakdowns, trace_critical_paths, CriticalPathReport, HopSource, PathHop,
    SegmentBreakdown, SegmentBreakdowns, TracedPath,
};
pub use pathfinder::{route_slice, RouteOptions, RoutedNet};
pub use timing::{
    analyze, compute_arrivals, input_edges, net_delays, EdgeSource, InputEdge, NetDelays,
    RoutedTiming,
};
pub use usage::{tally_congestion, tally_usage, CongestionGrid, InterconnectUsage, TierGrid};
