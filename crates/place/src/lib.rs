//! Temporal placement for NATURE (Section 4.4, steps 9–14).
//!
//! A two-step simulated-annealing placement in the style of the modified
//! VPR placer the paper describes: a fast low-precision pass, a RISA
//! routability estimate plus pre-route delay analysis, then a detailed
//! pass. Temporal logic folding introduces inter-folding-stage
//! dependencies (Fig. 6(b)): the cost function jointly sums the bounding
//! boxes of every cycle's nets, so SMBs that communicate heavily in *any*
//! cycle are drawn together.
//!
//! * [`place_with_defects`] — the two-step driver (budget-aware:
//!   [`place_with_defects_budgeted`]); a clean fabric is
//!   [`nanomap_arch::DefectMap::none`];
//! * [`adopt_assignment`] — adopts an outside placement (the exact
//!   rung's) after validating it;
//! * [`anneal`] — the VPR-style adaptive annealer, under a slot legality
//!   mask and a cancel token;
//! * [`estimate_routability`] — RISA \[17\];
//! * [`estimate_delay`] — distance-based pre-route timing.

#![warn(missing_docs)]

mod adopt;
mod anneal;
mod cost;
mod delay;
mod error;
mod place;
mod routability;

pub use adopt::{adopt_assignment, AdoptError};
pub use anneal::{anneal, AnnealSchedule};
pub use cost::{flatten_nets, net_hpwl, total_cost, CostWeights, FlatNet};
pub use delay::{estimate_delay, wire_delay_estimate, DelayEstimate};
pub use error::PlaceError;
pub use place::{place_with_defects, place_with_defects_budgeted, PlaceOptions, Placement};
pub use routability::{
    estimate_demand_grid, estimate_routability, risa_q, DemandGrid, RoutabilityReport,
    ROUTABLE_THRESHOLD,
};
