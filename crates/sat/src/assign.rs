//! CNF encoding of the defect-aware assignment problem.
//!
//! The abstract shape: `n` items (packed SMB clusters) must each take
//! exactly one slot from a per-item allowed set (the slots whose NRAM
//! configuration sets survive that cluster's folding schedule), no slot
//! may take two items, and optional capacity groups (rows/columns of
//! the grid with defect-thinned routing channels) bound how many items
//! they absorb. The encoder stays fully generic — callers translate
//! fabric defects into `allowed` sets and `groups`, and translate the
//! decoded assignment back into grid positions.
//!
//! Structural infeasibility (an item with an empty domain, or more
//! items than distinct usable slots) is detected *before* the solver
//! runs: such instances are pigeonhole-shaped, exponentially hard for
//! resolution, and their cause is better reported directly.

use std::collections::BTreeSet;

use nanomap_observe::budget::CancelToken;

use crate::cnf::{Cnf, Lit, Var};
use crate::solver::{SolveOutcome, Solver, SolverOptions, SolverStats};

/// One capacity-limited slot group (e.g. a grid row whose surviving
/// channel wires support only `cap` occupants).
#[derive(Debug, Clone)]
pub struct CapacityGroup {
    /// Human-readable label, quoted in infeasibility summaries.
    pub label: String,
    /// Member slots.
    pub slots: Vec<u32>,
    /// Maximum number of items assigned into the group.
    pub cap: usize,
}

/// The assignment instance.
#[derive(Debug, Clone, Default)]
pub struct AssignmentProblem {
    /// Number of slots (0-based ids).
    pub num_slots: u32,
    /// Per-item allowed slots, each list sorted ascending.
    pub allowed: Vec<Vec<u32>>,
    /// Capacity side constraints.
    pub groups: Vec<CapacityGroup>,
}

/// Why an instance is infeasible before (or after) search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Infeasibility {
    /// An item has no usable slot at all.
    EmptyDomain {
        /// The item with the empty domain.
        item: usize,
    },
    /// Fewer distinct usable slots than items (pigeonhole).
    TooFewSlots {
        /// Items to place.
        items: usize,
        /// Distinct usable slots across all domains.
        usable: usize,
    },
    /// Capacity groups cannot absorb all the items that are confined to
    /// them.
    GroupOverflow {
        /// The overflowing group's label.
        label: String,
        /// Items that can only land inside the group.
        confined: usize,
        /// The group's capacity.
        cap: usize,
    },
    /// The solver proved UNSAT beyond the structural checks.
    Proven,
}

impl std::fmt::Display for Infeasibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Infeasibility::EmptyDomain { item } => {
                write!(f, "item {item} has no usable slot")
            }
            Infeasibility::TooFewSlots { items, usable } => {
                write!(f, "{items} items but only {usable} usable slots")
            }
            Infeasibility::GroupOverflow {
                label,
                confined,
                cap,
            } => write!(
                f,
                "{confined} items confined to group {label} with capacity {cap}"
            ),
            Infeasibility::Proven => write!(f, "proven unsatisfiable by search"),
        }
    }
}

/// The outcome of [`solve_assignment`].
#[derive(Debug, Clone, PartialEq)]
pub enum AssignOutcome {
    /// A satisfying assignment: `slot[i]` for each item `i`.
    Assigned(Vec<u32>),
    /// No assignment exists; the payload says why.
    Infeasible(Infeasibility),
    /// Interrupted (conflict budget or cancellation) before an answer.
    Interrupted(String),
}

/// The compiled CNF plus the variable map needed to decode models.
#[derive(Debug)]
pub struct Encoding {
    /// The formula.
    pub cnf: Cnf,
    /// `vars[i]` lists `(slot, var)` pairs for item `i`, slot-ascending.
    pub vars: Vec<Vec<(u32, Var)>>,
}

impl Encoding {
    /// Reads the assignment out of a model. Panics only on models that
    /// do not satisfy the encoding's exactly-one constraints, which a
    /// sound solver never produces.
    pub fn decode(&self, model: &[bool]) -> Vec<u32> {
        self.vars
            .iter()
            .enumerate()
            .map(|(item, pairs)| {
                pairs
                    .iter()
                    .find(|(_, v)| model[v.index()])
                    .unwrap_or_else(|| panic!("item {item}: no slot variable true in model"))
                    .0
            })
            .collect()
    }
}

/// Structural feasibility screen; `Err` carries the first violated
/// condition.
pub fn precheck(problem: &AssignmentProblem) -> Result<(), Infeasibility> {
    let mut usable: BTreeSet<u32> = BTreeSet::new();
    for (item, allowed) in problem.allowed.iter().enumerate() {
        if allowed.is_empty() {
            return Err(Infeasibility::EmptyDomain { item });
        }
        usable.extend(allowed.iter().copied());
    }
    if usable.len() < problem.allowed.len() {
        return Err(Infeasibility::TooFewSlots {
            items: problem.allowed.len(),
            usable: usable.len(),
        });
    }
    for group in &problem.groups {
        let members: BTreeSet<u32> = group.slots.iter().copied().collect();
        let confined = problem
            .allowed
            .iter()
            .filter(|allowed| allowed.iter().all(|s| members.contains(s)))
            .count();
        if confined > group.cap {
            return Err(Infeasibility::GroupOverflow {
                label: group.label.clone(),
                confined,
                cap: group.cap,
            });
        }
    }
    Ok(())
}

/// Compiles the instance to CNF. Run [`precheck`] first; encoding a
/// structurally infeasible instance produces a formula the solver will
/// grind on.
pub fn encode(problem: &AssignmentProblem) -> Encoding {
    let mut cnf = Cnf::new();
    let mut vars: Vec<Vec<(u32, Var)>> = Vec::with_capacity(problem.allowed.len());
    // Variables first, in (item, slot) order, so the encoding is
    // reproducible and variable indices are meaningful in printed clauses.
    for allowed in &problem.allowed {
        vars.push(allowed.iter().map(|&s| (s, cnf.new_var())).collect());
    }
    // Exactly one slot per item.
    for pairs in &vars {
        let lits: Vec<Lit> = pairs.iter().map(|&(_, v)| v.pos()).collect();
        cnf.exactly_one(&lits);
    }
    // At most one item per slot.
    let mut by_slot: Vec<Vec<Lit>> = vec![Vec::new(); problem.num_slots as usize];
    for pairs in &vars {
        for &(s, v) in pairs {
            by_slot[s as usize].push(v.pos());
        }
    }
    for lits in &by_slot {
        cnf.at_most_one(lits);
    }
    // Capacity groups: occupancy indicators, then a sequential counter.
    for group in &problem.groups {
        let mut occ: Vec<Lit> = Vec::new();
        for &s in &group.slots {
            let users = &by_slot[s as usize];
            if users.is_empty() {
                continue;
            }
            let o = cnf.new_var();
            for &x in users {
                // x -> occ (one direction suffices for an upper bound).
                cnf.add_clause(vec![!x, o.pos()]);
            }
            occ.push(o.pos());
        }
        cnf.at_most_k(&occ, group.cap);
    }
    Encoding { cnf, vars }
}

/// End-to-end: precheck, encode, solve, decode. The token is polled
/// inside the solver at conflict and restart boundaries.
pub fn solve_assignment(
    problem: &AssignmentProblem,
    options: SolverOptions,
    token: &CancelToken,
) -> (AssignOutcome, SolverStats, u32) {
    if let Err(core) = precheck(problem) {
        return (AssignOutcome::Infeasible(core), SolverStats::default(), 0);
    }
    let encoding = encode(problem);
    let num_vars = encoding.cnf.num_vars();
    let mut solver = Solver::from_cnf(&encoding.cnf, options);
    let outcome = match solver.solve_with_token(token) {
        SolveOutcome::Sat(model) => AssignOutcome::Assigned(encoding.decode(&model)),
        SolveOutcome::Unsat => AssignOutcome::Infeasible(Infeasibility::Proven),
        SolveOutcome::Unknown(reason) => AssignOutcome::Interrupted(reason),
    };
    (outcome, solver.stats(), num_vars)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(problem: &AssignmentProblem, assignment: &[u32]) {
        assert_eq!(assignment.len(), problem.allowed.len());
        let mut used = BTreeSet::new();
        for (i, &s) in assignment.iter().enumerate() {
            assert!(problem.allowed[i].contains(&s), "item {i} on slot {s}");
            assert!(used.insert(s), "slot {s} double-booked");
        }
        for group in &problem.groups {
            let members: BTreeSet<u32> = group.slots.iter().copied().collect();
            let inside = assignment.iter().filter(|s| members.contains(s)).count();
            assert!(inside <= group.cap, "group {} overflows", group.label);
        }
    }

    fn solve(problem: &AssignmentProblem) -> AssignOutcome {
        let (out, _, _) =
            solve_assignment(problem, SolverOptions::default(), &CancelToken::unlimited());
        out
    }

    #[test]
    fn trivial_bijection() {
        let problem = AssignmentProblem {
            num_slots: 3,
            allowed: vec![vec![0, 1, 2], vec![0, 1, 2], vec![0, 1, 2]],
            groups: Vec::new(),
        };
        match solve(&problem) {
            AssignOutcome::Assigned(a) => check(&problem, &a),
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn forced_chain_assignment() {
        // Item 0 only slot 0; item 1 slots {0,1}; item 2 slots {1,2}:
        // the only model is 0->0, 1->1, 2->2.
        let problem = AssignmentProblem {
            num_slots: 3,
            allowed: vec![vec![0], vec![0, 1], vec![1, 2]],
            groups: Vec::new(),
        };
        match solve(&problem) {
            AssignOutcome::Assigned(a) => {
                check(&problem, &a);
                assert_eq!(a, vec![0, 1, 2]);
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn empty_domain_is_structural() {
        let problem = AssignmentProblem {
            num_slots: 2,
            allowed: vec![vec![0, 1], vec![]],
            groups: Vec::new(),
        };
        assert_eq!(
            solve(&problem),
            AssignOutcome::Infeasible(Infeasibility::EmptyDomain { item: 1 })
        );
    }

    #[test]
    fn pigeonhole_is_structural_not_searched() {
        let problem = AssignmentProblem {
            num_slots: 8,
            allowed: vec![vec![2, 3]; 3],
            groups: Vec::new(),
        };
        let (out, stats, _) = solve_assignment(
            &problem,
            SolverOptions::default(),
            &CancelToken::unlimited(),
        );
        assert_eq!(
            out,
            AssignOutcome::Infeasible(Infeasibility::TooFewSlots {
                items: 3,
                usable: 2
            })
        );
        assert_eq!(stats.conflicts, 0, "structural cases must skip search");
    }

    #[test]
    fn hall_violation_is_proven_unsat() {
        // 3 items share the 2-slot union {0,1}; a fourth item owns
        // {2,3}, so 4 items see 4 distinct slots and the structural
        // screen passes — the solver must prove UNSAT itself.
        let problem = AssignmentProblem {
            num_slots: 4,
            allowed: vec![vec![0, 1], vec![0, 1], vec![0, 1], vec![2, 3]],
            groups: Vec::new(),
        };
        assert_eq!(
            solve(&problem),
            AssignOutcome::Infeasible(Infeasibility::Proven)
        );
    }

    #[test]
    fn capacity_groups_spread_items() {
        // 4 items, 4 slots in two rows of 2; each row absorbs at most 2
        // (trivially satisfied), then at most 1 (infeasible: 4 items).
        let problem = AssignmentProblem {
            num_slots: 4,
            allowed: vec![vec![0, 1, 2, 3]; 4],
            groups: vec![
                CapacityGroup {
                    label: "row0".into(),
                    slots: vec![0, 1],
                    cap: 2,
                },
                CapacityGroup {
                    label: "row1".into(),
                    slots: vec![2, 3],
                    cap: 2,
                },
            ],
        };
        match solve(&problem) {
            AssignOutcome::Assigned(a) => check(&problem, &a),
            other => panic!("expected assignment, got {other:?}"),
        }
        let tight = AssignmentProblem {
            groups: vec![
                CapacityGroup {
                    label: "row0".into(),
                    slots: vec![0, 1],
                    cap: 1,
                },
                CapacityGroup {
                    label: "row1".into(),
                    slots: vec![2, 3],
                    cap: 1,
                },
            ],
            ..problem
        };
        // Structural screen: 4 items all confined to... neither group
        // alone (domains span both), so the solver proves it.
        assert!(matches!(
            solve(&tight),
            AssignOutcome::Infeasible(Infeasibility::Proven | Infeasibility::GroupOverflow { .. })
        ));
    }

    #[test]
    fn confined_overflow_is_structural() {
        let problem = AssignmentProblem {
            num_slots: 4,
            allowed: vec![vec![0, 1], vec![0, 1], vec![0, 1], vec![2, 3]],
            groups: vec![CapacityGroup {
                label: "row0".into(),
                slots: vec![0, 1],
                cap: 2,
            }],
        };
        assert_eq!(
            solve(&problem),
            AssignOutcome::Infeasible(Infeasibility::GroupOverflow {
                label: "row0".into(),
                confined: 3,
                cap: 2
            })
        );
    }

    /// Every decoded model is a legal assignment, across a seeded sweep
    /// of random instances — the encoder invariant.
    #[test]
    fn random_instances_decode_legally() {
        use nanomap_observe::rng::XorShift64Star;
        for seed in 0..20u64 {
            let mut rng = XorShift64Star::new(seed * 7 + 1);
            let n = 4 + rng.below(12) as usize;
            let m = n as u32 + rng.below(8) as u32;
            let allowed: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let mut slots: Vec<u32> = (0..m).filter(|_| rng.next_f64() < 0.6).collect();
                    if slots.is_empty() {
                        slots.push(rng.below(u64::from(m)) as u32);
                    }
                    slots
                })
                .collect();
            let problem = AssignmentProblem {
                num_slots: m,
                allowed,
                groups: Vec::new(),
            };
            match solve(&problem) {
                AssignOutcome::Assigned(a) => check(&problem, &a),
                AssignOutcome::Infeasible(_) => {} // legitimately tight draws
                AssignOutcome::Interrupted(r) => panic!("unexpected interrupt: {r}"),
            }
        }
    }
}
