//! # NanoMap
//!
//! An integrated design optimization flow for **NATURE**, the hybrid
//! carbon-nanotube/CMOS dynamically reconfigurable architecture — a
//! from-scratch reproduction of *NanoMap: An Integrated Design
//! Optimization Flow for a Hybrid Nanotube/CMOS Dynamically
//! Reconfigurable Architecture* (Zhang, Shang, Jha — DAC 2007).
//!
//! NATURE stores multiple configurations in on-chip nanotube RAM and
//! reconfigures every clock cycle, enabling **temporal logic folding**: a
//! circuit is cut into folding stages that execute on the same LUTs in
//! successive cycles, trading a modest delay increase for an
//! order-of-magnitude logic-density gain. NanoMap automates the whole
//! journey: plane identification, folding-level selection (Eqs. 1–4),
//! force-directed scheduling (Eqs. 5–14, Algorithm 1), temporal
//! clustering, two-step placement, PathFinder routing and per-cycle
//! configuration bitmaps.
//!
//! ## Quickstart
//!
//! ```
//! use nanomap::{NanoMap, Objective};
//! use nanomap_arch::ArchParams;
//! use nanomap_netlist::rtl::{CombOp, RtlBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Describe a circuit (or parse VHDL / BLIF).
//! let mut b = RtlBuilder::new("mac");
//! let a = b.input("a", 4);
//! let x = b.input("x", 4);
//! let mul = b.comb("mul", CombOp::Mul { width: 4 });
//! b.connect(a, 0, mul, 0)?;
//! b.connect(x, 0, mul, 1)?;
//! let y = b.output("y", 8);
//! b.connect(mul, 0, y, 0)?;
//! let circuit = b.finish()?;
//!
//! // 2. Map it onto the paper's NATURE instance.
//! let flow = NanoMap::new(ArchParams::paper_unbounded());
//! let report = flow.map_rtl(&circuit, Objective::MinAreaDelayProduct)?;
//! println!("{}", report.summary());
//! assert!(report.num_les < report.num_luts);
//! # Ok(())
//! # }
//! ```
//!
//! The substrates live in sibling crates re-exported here:
//! [`nanomap_netlist`] (IRs and parsers), [`nanomap_techmap`] (FlowMap),
//! [`nanomap_arch`] (the NATURE model), [`nanomap_sched`] (FDS),
//! [`nanomap_pack`], [`nanomap_place`], [`nanomap_route`].

#![warn(missing_docs)]

pub mod artifact;
pub mod budget;
pub mod checkpoint;
pub mod cli;
pub mod diff;
mod error;
pub mod exact;
pub mod explain;
mod flow;
mod folding;
mod objective;
pub mod perf;
pub mod qor;
pub mod recovery;
mod report;
pub mod runs;
pub mod service;
mod verify;

pub use artifact::{atomic_write, atomic_write_text, ArtifactError};
pub use budget::{Anytime, CancelToken, Degradation};
pub use checkpoint::{
    checkpoint_file_name, netlist_fingerprint, Checkpoint, CheckpointError, CheckpointWriter,
    CHECKPOINT_SCHEMA,
};
pub use diff::{has_regression, render_diff_table, DiffEntry, DiffStatus};
pub use error::FlowError;
pub use exact::ExactUnsatSummary;
pub use explain::{check_artifact, ExplainReport, DEFAULT_TOP_K, EXPLAIN_SCHEMA};
pub use flow::NanoMap;
pub use folding::{
    candidate_configs, folding_level_for_stages, folding_level_per_plane, min_folding_stages,
    min_level_shared, FoldingConfig, PlaneSharing,
};
pub use objective::Objective;
pub use perf::{diff_perf, PerfDocument, PerfReport, PERF_SCHEMA};
pub use qor::{QorDocument, QorReport};
pub use recovery::{RecoveryAttempt, RecoveryLog, Remedy};
pub use report::{MappingReport, PhaseTimes, PhysicalReport, SharingMode, UsageReport};
pub use runs::{append_run, Ledger, RunRecord, DEFAULT_LEDGER_PATH};
pub use service::{
    query_stats, submit_with_retry, DesignSource, MapRequest, Request, Response, RetryPolicy,
    Submission, WireResult, SERVICE_SCHEMA,
};
pub use verify::{check_folded_execution, FoldedCheck};

pub use nanomap_arch as arch;
pub use nanomap_netlist as netlist;
pub use nanomap_pack as pack;
pub use nanomap_place as place;
pub use nanomap_route as route;
pub use nanomap_sched as sched;
pub use nanomap_techmap as techmap;
