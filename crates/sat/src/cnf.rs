//! CNF formula types: variables, literals and the clause database that
//! feeds the solver, plus the cardinality encodings the assignment
//! encoder builds on (exactly-one, Sinz sequential at-most-one and the
//! generalized at-most-k sequential counter).

use std::fmt;

/// A propositional variable, 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The variable's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn pos(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Lit {
        Lit::new(self, false)
    }
}

/// A literal: a variable with a sign, packed as `var << 1 | sign` where
/// sign 0 is positive. The packing makes negation a single XOR and lets
/// watcher lists index directly by literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Builds a literal from a variable and a polarity.
    pub fn new(var: Var, positive: bool) -> Self {
        Lit(var.0 << 1 | u32::from(!positive))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for the positive literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The literal's packed code (watcher-list index).
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a literal from its packed code.
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }

    /// The DIMACS integer form: 1-based, negative for negated.
    pub fn to_dimacs(self) -> i64 {
        let v = i64::from(self.0 >> 1) + 1;
        if self.is_positive() {
            v
        } else {
            -v
        }
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dimacs())
    }
}

/// A CNF formula under construction: a growable variable pool and a
/// clause list. The builder offers the cardinality encodings the
/// assignment encoder needs; auxiliary variables they introduce come
/// from the same pool.
#[derive(Debug, Default, Clone)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// An empty formula.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Ensures at least `n` variables exist, including ones no clause
    /// mentions.
    pub fn reserve_vars(&mut self, n: u32) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clause list.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Adds a clause (a disjunction of literals). The empty clause makes
    /// the formula trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: impl Into<Vec<Lit>>) {
        self.clauses.push(lits.into());
    }

    /// At least one of `lits` is true.
    pub fn at_least_one(&mut self, lits: &[Lit]) {
        self.add_clause(lits.to_vec());
    }

    /// At most one of `lits` is true, via the Sinz sequential encoding:
    /// auxiliary registers `s_i` mean "some literal at index <= i is
    /// true"; a literal firing after a register is set is a conflict.
    /// Linear in `lits` (the pairwise encoding would be quadratic).
    pub fn at_most_one(&mut self, lits: &[Lit]) {
        if lits.len() <= 1 {
            return;
        }
        if lits.len() <= 4 {
            // Pairwise is smaller below the crossover point.
            for i in 0..lits.len() {
                for j in i + 1..lits.len() {
                    self.add_clause(vec![!lits[i], !lits[j]]);
                }
            }
            return;
        }
        let mut prev: Option<Var> = None;
        for (i, &lit) in lits.iter().enumerate() {
            let last = i + 1 == lits.len();
            let s = if last { None } else { Some(self.new_var()) };
            if let Some(s) = s {
                // lit -> s_i
                self.add_clause(vec![!lit, s.pos()]);
                if let Some(p) = prev {
                    // s_{i-1} -> s_i
                    self.add_clause(vec![p.neg(), s.pos()]);
                }
            }
            if let Some(p) = prev {
                // s_{i-1} -> !lit
                self.add_clause(vec![p.neg(), !lit]);
            }
            prev = s.or(prev);
        }
    }

    /// Exactly one of `lits` is true.
    pub fn exactly_one(&mut self, lits: &[Lit]) {
        self.at_least_one(lits);
        self.at_most_one(lits);
    }

    /// At most `k` of `lits` are true, via the sequential counter
    /// encoding: registers `r[i][j]` mean "at least `j+1` of the first
    /// `i+1` literals are true". O(n*k) variables and clauses.
    pub fn at_most_k(&mut self, lits: &[Lit], k: usize) {
        if lits.len() <= k {
            return;
        }
        if k == 0 {
            for &lit in lits {
                self.add_clause(vec![!lit]);
            }
            return;
        }
        if k == 1 {
            self.at_most_one(lits);
            return;
        }
        let n = lits.len();
        // r[j] for the previous prefix; row i covers lits[..=i].
        let mut prev: Vec<Var> = Vec::new();
        for (i, &lit) in lits.iter().enumerate() {
            let width = k.min(i + 1);
            let last = i + 1 == n;
            if !last {
                let mut row: Vec<Var> = (0..width).map(|_| self.new_var()).collect();
                // lit -> r[0]
                self.add_clause(vec![!lit, row[0].pos()]);
                for j in 0..prev.len().min(width) {
                    // prev[j] -> row[j]
                    self.add_clause(vec![prev[j].neg(), row[j].pos()]);
                }
                for j in 1..width {
                    if j - 1 < prev.len() {
                        // lit & prev[j-1] -> row[j]
                        self.add_clause(vec![!lit, prev[j - 1].neg(), row[j].pos()]);
                    }
                }
                if prev.len() >= k {
                    // lit & prev[k-1] -> conflict
                    self.add_clause(vec![!lit, prev[k - 1].neg()]);
                }
                row.truncate(k);
                prev = row;
            } else if prev.len() >= k {
                self.add_clause(vec![!lit, prev[k - 1].neg()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolveOutcome, Solver, SolverOptions};

    fn count_models(cnf: &Cnf, over: &[Var]) -> usize {
        // Enumerate by blocking clauses; `over` are the decision vars.
        let mut cnf = cnf.clone();
        let mut n = 0;
        loop {
            let mut solver = Solver::from_cnf(&cnf, SolverOptions::default());
            match solver.solve() {
                SolveOutcome::Sat(model) => {
                    n += 1;
                    let block: Vec<Lit> = over
                        .iter()
                        .map(|&v| if model[v.index()] { v.neg() } else { v.pos() })
                        .collect();
                    cnf.add_clause(block);
                }
                SolveOutcome::Unsat => return n,
                SolveOutcome::Unknown(reason) => panic!("budget hit: {reason}"),
            }
        }
    }

    #[test]
    fn literal_packing_round_trips() {
        let v = Var(7);
        assert_eq!(v.pos().var(), v);
        assert!(v.pos().is_positive());
        assert!(!v.neg().is_positive());
        assert_eq!(!v.pos(), v.neg());
        assert_eq!(v.pos().to_dimacs(), 8);
        assert_eq!(v.neg().to_dimacs(), -8);
        assert_eq!(Lit::from_code(v.pos().code()), v.pos());
    }

    #[test]
    fn exactly_one_has_n_models() {
        for n in [2usize, 4, 7] {
            let mut cnf = Cnf::new();
            let vars: Vec<Var> = (0..n).map(|_| cnf.new_var()).collect();
            let lits: Vec<Lit> = vars.iter().map(|v| v.pos()).collect();
            cnf.exactly_one(&lits);
            assert_eq!(count_models(&cnf, &vars), n, "n = {n}");
        }
    }

    #[test]
    fn at_most_k_counts_binomial_prefixes() {
        // Models of AMK(n, k) over the base vars = sum_{i<=k} C(n, i).
        let (n, k) = (6usize, 2usize);
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..n).map(|_| cnf.new_var()).collect();
        let lits: Vec<Lit> = vars.iter().map(|v| v.pos()).collect();
        cnf.at_most_k(&lits, k);
        // C(6,0) + C(6,1) + C(6,2) = 1 + 6 + 15 = 22.
        assert_eq!(count_models(&cnf, &vars), 22);
    }

    #[test]
    fn at_most_zero_forces_all_false() {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..3).map(|_| cnf.new_var()).collect();
        let lits: Vec<Lit> = vars.iter().map(|v| v.pos()).collect();
        cnf.at_most_k(&lits, 0);
        assert_eq!(count_models(&cnf, &vars), 1);
    }
}
