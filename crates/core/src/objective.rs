//! Optimization objectives and constraints (Section 4.1).
//!
//! NanoMap "can be targeted at various optimization objectives and user
//! constraints": circuit delay minimization under an optional area
//! constraint, area minimization under an optional delay constraint, the
//! area-delay-product minimization of Table 1, and pure dual-constraint
//! feasibility (the Paulin row of Table 2).

/// What the flow optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize circuit delay, optionally under an LE budget.
    MinDelay {
        /// Maximum number of logic elements, if constrained.
        max_les: Option<u32>,
    },
    /// Minimize area (LE count), optionally under a delay budget.
    MinArea {
        /// Maximum circuit delay in nanoseconds, if constrained.
        max_delay_ns: Option<f64>,
    },
    /// Minimize the area-delay product (Table 1's objective).
    MinAreaDelayProduct,
    /// Find any mapping satisfying both budgets (no preference).
    Feasible {
        /// Maximum number of logic elements.
        max_les: u32,
        /// Maximum circuit delay in nanoseconds.
        max_delay_ns: f64,
    },
}

impl Objective {
    /// Resolves a user-facing goal (`at`, `delay` or `area`, as the CLI
    /// and the service protocol spell it) with the budget that goal
    /// takes; the other budget is ignored.
    ///
    /// # Errors
    ///
    /// Describes an unknown goal.
    pub fn from_goal(
        goal: &str,
        max_les: Option<u32>,
        max_delay_ns: Option<f64>,
    ) -> Result<Self, String> {
        match goal {
            "at" => Ok(Self::MinAreaDelayProduct),
            "delay" => Ok(Self::MinDelay { max_les }),
            "area" => Ok(Self::MinArea { max_delay_ns }),
            other => Err(format!("unknown objective {other:?} (use at|delay|area)")),
        }
    }

    /// Stable serialization of the objective and its budgets, used to
    /// verify that a checkpoint is resumed under the same optimization
    /// target it was written under.
    pub fn key(&self) -> String {
        match *self {
            Self::MinDelay { max_les: None } => "min-delay".into(),
            Self::MinDelay { max_les: Some(a) } => format!("min-delay;les<={a}"),
            Self::MinArea { max_delay_ns: None } => "min-area".into(),
            Self::MinArea {
                max_delay_ns: Some(d),
            } => format!("min-area;delay<={d}"),
            Self::MinAreaDelayProduct => "min-at".into(),
            Self::Feasible {
                max_les,
                max_delay_ns,
            } => format!("feasible;les<={max_les};delay<={max_delay_ns}"),
        }
    }

    /// The LE budget, when one applies.
    pub fn area_constraint(&self) -> Option<u32> {
        match *self {
            Self::MinDelay { max_les } => max_les,
            Self::Feasible { max_les, .. } => Some(max_les),
            _ => None,
        }
    }

    /// The delay budget, when one applies.
    pub fn delay_constraint(&self) -> Option<f64> {
        match *self {
            Self::MinArea { max_delay_ns } => max_delay_ns,
            Self::Feasible { max_delay_ns, .. } => Some(max_delay_ns),
            _ => None,
        }
    }

    /// `true` if a candidate with the given cost satisfies the budgets.
    pub fn admits(&self, les: u32, delay_ns: f64) -> bool {
        self.area_constraint().is_none_or(|a| les <= a)
            && self.delay_constraint().is_none_or(|d| delay_ns <= d + 1e-9)
    }

    /// Compares two feasible candidates; `true` if `(les_a, delay_a)` is
    /// preferred over `(les_b, delay_b)` under this objective.
    pub fn prefers(&self, les_a: u32, delay_a: f64, les_b: u32, delay_b: f64) -> bool {
        match self {
            Self::MinDelay { .. } => (delay_a, les_a) < (delay_b, les_b),
            Self::MinArea { .. } => (les_a, ordered(delay_a)) < (les_b, ordered(delay_b)),
            Self::MinAreaDelayProduct => f64::from(les_a) * delay_a < f64::from(les_b) * delay_b,
            Self::Feasible { .. } => {
                // Any feasible candidate is as good as another; keep the
                // first found (stable) unless strictly dominating.
                les_a <= les_b && delay_a <= delay_b && (les_a, delay_a) != (les_b, delay_b)
            }
        }
    }
}

fn ordered(x: f64) -> u64 {
    // Total-order key for non-negative finite delays.
    (x * 1e6) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinct() {
        let objectives = [
            Objective::MinDelay { max_les: None },
            Objective::MinDelay { max_les: Some(32) },
            Objective::MinArea { max_delay_ns: None },
            Objective::MinArea {
                max_delay_ns: Some(20.0),
            },
            Objective::MinAreaDelayProduct,
            Objective::Feasible {
                max_les: 210,
                max_delay_ns: 30.0,
            },
        ];
        let keys: Vec<String> = objectives.iter().map(Objective::key).collect();
        assert_eq!(keys[4], "min-at");
        assert_eq!(keys[1], "min-delay;les<=32");
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn constraints_extracted() {
        let o = Objective::MinDelay { max_les: Some(32) };
        assert_eq!(o.area_constraint(), Some(32));
        assert_eq!(o.delay_constraint(), None);
        let f = Objective::Feasible {
            max_les: 210,
            max_delay_ns: 30.0,
        };
        assert_eq!(f.area_constraint(), Some(210));
        assert_eq!(f.delay_constraint(), Some(30.0));
    }

    #[test]
    fn admits_respects_budgets() {
        let o = Objective::Feasible {
            max_les: 100,
            max_delay_ns: 20.0,
        };
        assert!(o.admits(100, 20.0));
        assert!(!o.admits(101, 20.0));
        assert!(!o.admits(100, 20.1));
        assert!(Objective::MinAreaDelayProduct.admits(10_000, 1e9));
    }

    #[test]
    fn preferences_match_objectives() {
        assert!(Objective::MinDelay { max_les: None }.prefers(100, 10.0, 10, 11.0));
        assert!(Objective::MinArea { max_delay_ns: None }.prefers(10, 50.0, 11, 1.0));
        assert!(Objective::MinAreaDelayProduct.prefers(10, 10.0, 9, 12.0));
        assert!(!Objective::MinAreaDelayProduct.prefers(9, 12.0, 10, 10.0));
    }
}
