//! Temporal clustering: packing LUTs into LEs, MBs and SMBs (Section 4.3).
//!
//! Clustering in NATURE differs from the classic FPGA problem: each
//! hardware resource is *temporally shared* by logic from different
//! folding stages, so intra-stage and inter-stage data dependencies are
//! considered jointly, and the attraction between two LUTs is the maximum
//! over all the folding cycles.
//!
//! * [`TemporalDesign`] — all planes' schedules stitched into temporal
//!   [`Slice`]s;
//! * [`pack`] — constructive attraction-based SMB packing with temporal
//!   affinity, plus placement of stored bits and flip-flops;
//! * [`extract_nets`] — the per-slice inter-SMB netlist consumed by
//!   placement and routing.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod design;
mod error;
mod nets;
mod occupancy;
mod packer;

pub use design::{Slice, TemporalDesign};
pub use error::PackError;
pub use nets::{extract_nets, SliceNet, SliceNets};
pub use occupancy::{OccupancyMap, SliceOccupancy};
pub use packer::{pack, PackOptions, Packing};
