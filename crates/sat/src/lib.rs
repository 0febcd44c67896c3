//! `nanomap-sat`: a zero-dependency CDCL SAT solver and the CNF
//! encoder for defect-aware SMB slot assignment.
//!
//! This crate is the complete final rung of the NanoMap recovery
//! ladder (ROADMAP item 4b, after Hung et al., "Defect-Tolerant CMOL
//! Cell Assignment via Satisfiability", arXiv:0705.4320): when the
//! heuristic place-and-route ladder exhausts on a high-defect fabric,
//! the flow compiles the assignment instance to CNF and hands it to
//! the solver here. SAT yields a placement the normal route/timing
//! path re-validates; UNSAT yields a *typed* infeasibility with the
//! defect class that caused it, instead of a generic exhaustion error.
//!
//! The pieces:
//!
//! * [`cnf`] — literals, clauses and cardinality encodings
//!   (exactly-one, Sinz at-most-one, sequential-counter at-most-k),
//! * [`solver`] — watched-literal CDCL with VSIDS activity, first-UIP
//!   learning, Luby restarts, seeded deterministic branching, and
//!   cooperative interruption via conflict budgets and `CancelToken`,
//! * [`assign`] — the assignment problem encoder/decoder with a
//!   structural infeasibility screen.
//!
//! Everything is deterministic by construction: the same formula and
//! seed produce the same search, the same statistics and the same
//! model on every run, which is what lets `qor-diff --exact` gate the
//! exact-recovery path.

pub mod assign;
pub mod cnf;
pub mod solver;

pub use assign::{
    solve_assignment, AssignOutcome, AssignmentProblem, CapacityGroup, Encoding, Infeasibility,
};
pub use cnf::{Cnf, Lit, Var};
pub use solver::{SolveOutcome, Solver, SolverOptions, SolverStats};
