//! Scheduling errors.

use std::error::Error;
use std::fmt;

/// Errors produced while building schedule items or running FDS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The dependency chains do not fit in the requested number of stages.
    Infeasible {
        /// Requested stage count.
        stages: u32,
        /// Minimum stages required by the critical chain.
        required: u32,
    },
    /// A pin slice whose length is not the item count.
    PinCount {
        /// Items in the graph.
        items: usize,
        /// Pin slots given.
        pins: usize,
    },
    /// A folding level of zero was requested.
    ZeroFoldingLevel,
    /// The underlying netlist is malformed.
    Netlist(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible { stages, required } => write!(
                f,
                "schedule infeasible: {stages} folding stages requested but the critical chain needs {required}"
            ),
            Self::PinCount { items, pins } => {
                write!(f, "{pins} pin slots given for {items} schedule items")
            }
            Self::ZeroFoldingLevel => write!(f, "folding level must be at least 1"),
            Self::Netlist(msg) => write!(f, "netlist error: {msg}"),
        }
    }
}

impl Error for SchedError {}

impl From<nanomap_netlist::NetlistError> for SchedError {
    fn from(e: nanomap_netlist::NetlistError) -> Self {
        Self::Netlist(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_counts() {
        let e = SchedError::Infeasible {
            stages: 3,
            required: 5,
        };
        let text = e.to_string();
        assert!(text.contains('3') && text.contains('5'));
    }
}
