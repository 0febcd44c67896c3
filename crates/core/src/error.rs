//! Flow-level errors.

use std::error::Error;
use std::fmt;

use nanomap_observe::Degradation;

use crate::artifact::ArtifactError;
use crate::checkpoint::CheckpointError;
use crate::recovery::RecoveryLog;

/// Errors produced by the NanoMap flow.
#[derive(Debug)]
pub enum FlowError {
    /// The input netlist is malformed.
    Netlist(nanomap_netlist::NetlistError),
    /// Technology mapping failed.
    Techmap(nanomap_techmap::TechmapError),
    /// A LUT of the network has more inputs than the fabric's LUTs.
    LutTooWide {
        /// Inputs of the widest LUT in the network.
        widest: u32,
        /// Inputs of a LUT on the fabric (`ArchParams::lut_inputs`).
        lut_inputs: u32,
    },
    /// No folding configuration satisfies the constraints.
    NoFeasibleFolding {
        /// Human-readable explanation (which constraint failed).
        reason: String,
    },
    /// Scheduling failed unexpectedly.
    Sched(nanomap_sched::SchedError),
    /// Clustering failed.
    Pack(nanomap_pack::PackError),
    /// Placement failed.
    Place(nanomap_place::PlaceError),
    /// Routing failed after all retries.
    Route(nanomap_route::RouteError),
    /// The folded execution model diverged from the reference simulation.
    VerificationFailed {
        /// Description of the first divergence.
        detail: String,
    },
    /// Physical design failed on every rung of the recovery ladder, for
    /// every feasible folding candidate. The log holds the full attempt
    /// history (remedy, phase and error of each try).
    RecoveryExhausted {
        /// Every attempt the ladder made before giving up.
        log: RecoveryLog,
    },
    /// The wall-clock budget expired before a complete mapping was
    /// produced and anytime mode was off (a degraded best-so-far mapping
    /// existed but the caller asked for strict completion — rerun with
    /// anytime enabled, or a larger budget, to accept it).
    BudgetExhausted {
        /// The ladder history up to the point the budget ran out.
        log: RecoveryLog,
        /// Which phases returned degraded best-so-far results.
        degradations: Vec<Degradation>,
    },
    /// The exact SAT-based recovery rung *proved* no defect-legal slot
    /// assignment exists on the most generous grid the ladder grants —
    /// the fabric, not the heuristics, is the limit. The summary names
    /// the defect class responsible; the log holds the heuristic
    /// attempts that preceded the proof.
    ExactAssignUnsat {
        /// Every attempt made before (and during) the exact rung.
        log: RecoveryLog,
        /// Unsatisfiable-core summary: slot census and dominant defect
        /// class.
        summary: crate::exact::ExactUnsatSummary,
    },
    /// An internal invariant was violated — a bug in the flow, not a
    /// property of the input or the fabric.
    Internal {
        /// What broke.
        detail: String,
    },
    /// Writing or loading a checkpoint failed, or a checkpoint refused
    /// to resume against the given netlist/objective/architecture.
    Checkpoint(CheckpointError),
    /// An artifact sink write failed.
    Artifact(ArtifactError),
}

impl FlowError {
    /// The recovery-ladder history, for errors that carry one.
    pub fn recovery_log(&self) -> Option<&RecoveryLog> {
        match self {
            Self::RecoveryExhausted { log }
            | Self::BudgetExhausted { log, .. }
            | Self::ExactAssignUnsat { log, .. } => Some(log),
            _ => None,
        }
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Netlist(e) => write!(f, "netlist error: {e}"),
            Self::Techmap(e) => write!(f, "technology mapping error: {e}"),
            Self::LutTooWide { widest, lut_inputs } => write!(
                f,
                "the network has a {widest}-input LUT, but the fabric's LUTs have {lut_inputs} inputs"
            ),
            Self::NoFeasibleFolding { reason } => {
                write!(f, "no feasible folding configuration: {reason}")
            }
            Self::Sched(e) => write!(f, "scheduling error: {e}"),
            Self::Pack(e) => write!(f, "clustering error: {e}"),
            Self::Place(e) => write!(f, "placement error: {e}"),
            Self::Route(e) => write!(f, "routing error: {e}"),
            Self::VerificationFailed { detail } => {
                write!(f, "folded execution diverged from reference: {detail}")
            }
            Self::RecoveryExhausted { log } => {
                write!(f, "physical design failed after {}", log.summary())?;
                if let Some(last) = log.attempts.last() {
                    write!(f, "; last failure ({}): {}", last.phase, last.error)?;
                }
                Ok(())
            }
            Self::BudgetExhausted { degradations, .. } => {
                write!(
                    f,
                    "time budget exhausted before a complete mapping (rerun with --anytime \
                     to accept the degraded result, or raise --time-budget-ms)"
                )?;
                if let Some(d) = degradations.last() {
                    write!(f, "; deepest degraded phase: {}", d.summary())?;
                }
                Ok(())
            }
            Self::ExactAssignUnsat { summary, .. } => {
                write!(f, "mapping proven infeasible on this fabric: {summary}")
            }
            Self::Internal { detail } => write!(f, "internal flow invariant violated: {detail}"),
            Self::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            Self::Artifact(e) => write!(f, "artifact error: {e}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Netlist(e) => Some(e),
            Self::Techmap(e) => Some(e),
            Self::Sched(e) => Some(e),
            Self::Pack(e) => Some(e),
            Self::Place(e) => Some(e),
            Self::Route(e) => Some(e),
            Self::Checkpoint(e) => Some(e),
            Self::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for FlowError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}
impl From<ArtifactError> for FlowError {
    fn from(e: ArtifactError) -> Self {
        Self::Artifact(e)
    }
}

impl From<nanomap_netlist::NetlistError> for FlowError {
    fn from(e: nanomap_netlist::NetlistError) -> Self {
        Self::Netlist(e)
    }
}
impl From<nanomap_techmap::TechmapError> for FlowError {
    fn from(e: nanomap_techmap::TechmapError) -> Self {
        Self::Techmap(e)
    }
}
impl From<nanomap_sched::SchedError> for FlowError {
    fn from(e: nanomap_sched::SchedError) -> Self {
        Self::Sched(e)
    }
}
impl From<nanomap_pack::PackError> for FlowError {
    fn from(e: nanomap_pack::PackError) -> Self {
        Self::Pack(e)
    }
}
impl From<nanomap_place::PlaceError> for FlowError {
    fn from(e: nanomap_place::PlaceError) -> Self {
        Self::Place(e)
    }
}
impl From<nanomap_route::RouteError> for FlowError {
    fn from(e: nanomap_route::RouteError) -> Self {
        Self::Route(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = FlowError::NoFeasibleFolding {
            reason: "area constraint of 10 LEs unreachable".into(),
        };
        assert!(e.to_string().contains("10 LEs"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowError>();
    }
}
