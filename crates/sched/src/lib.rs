//! Scheduling of LUTs and LUT clusters onto folding cycles.
//!
//! This crate implements the heart of NanoMap's logic-mapping step
//! (Section 4.2 of the paper): the assignment of LUT and LUT-cluster
//! computations to the folding cycles of temporal logic folding, using
//! **force-directed scheduling** (FDS) adapted from Paulin and Knight
//! \[13\]:
//!
//! * [`ItemGraph`] — LUT-cluster partitioning of each plane at a folding
//!   level, with depth-window precedence latencies;
//! * [`TimeFrames`] — ASAP/ALAP schedules and mobility (Fig. 3);
//! * [`DistributionGraphs`] — LUT computation and register storage DGs
//!   (Eqs. 5–11, Fig. 5);
//! * [`LeShape`] — the LE resource shape weighting the self and
//!   neighbour forces (Eqs. 12–14);
//! * [`schedule_fds`] — Algorithm 1;
//! * [`schedule_asap`] / [`schedule_list`] — baselines for the ablation.
//!
//! # Examples
//!
//! See [`schedule_fds`] for an end-to-end example.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod asap;
mod dg;
mod error;
mod fds;
mod force;
mod item;
mod list;
mod schedule;

pub use asap::TimeFrames;
pub use dg::{storage_ops, DistributionGraphs, StorageOp, StorageWeightMode};
pub use error::SchedError;
pub use fds::{schedule_fds, schedule_fds_budgeted, FdsOptions};
pub use force::LeShape;
pub use item::{Item, ItemEdge, ItemGraph, ItemKind};
pub use list::{schedule_asap, schedule_list};
pub use schedule::{LeUsage, Schedule};
