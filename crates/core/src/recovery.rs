//! The structured recovery ladder.
//!
//! When physical design fails — placement cannot find room, or PathFinder
//! cannot untangle congestion (both far more likely on a defective
//! fabric) — the flow does not give up, and no longer just skips to the
//! next folding configuration. It climbs an explicit, bounded ladder of
//! remedies, cheapest first:
//!
//! 1. **Baseline** — the user's options exactly as configured (this rung
//!    is what a defect-free run executes, unchanged);
//! 2. **Reseed** — re-run annealing and routing with derived seeds: a
//!    different random trajectory often sidesteps a local minimum;
//! 3. **Widen grid** — give placement more spare slots (grid slack
//!    ×1.35), spreading congestion and defect clusters apart;
//! 4. **Widen channels** — add interconnect tracks (segment and global
//!    channels ×1.5), the classic FPGA answer to unroutability;
//! 5. **Next folding configuration** — fall back to the next-best
//!    candidate and restart the ladder (the paper's step 2–15 loop).
//!
//! Remedies are *cumulative*: rung 3 keeps the reseed of rung 2, rung 4
//! keeps both. Every failed attempt is recorded in a [`RecoveryLog`]
//! carried on the final `MappingReport` (or inside the terminal
//! `FlowError::RecoveryExhausted`), so a failure is always accompanied by
//! the full history of what was tried and why each attempt failed.

use nanomap_arch::ChannelConfig;
use nanomap_observe::json::ReadError;
use nanomap_observe::JsonValue;
use nanomap_place::PlaceOptions;
use nanomap_route::RouteOptions;

/// Hard cap on physical-design attempts across the whole ladder (all
/// rungs of all candidates). Keeps pathological inputs bounded.
pub const MAX_TOTAL_ATTEMPTS: u32 = 24;

/// The escalation rungs tried per folding candidate, in order.
pub const LADDER: [Remedy; 4] = [
    Remedy::Baseline,
    Remedy::Reseed,
    Remedy::WidenGrid,
    Remedy::WidenChannels,
];

/// One rung of the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Remedy {
    /// The user's options, unchanged.
    Baseline,
    /// Derived placement/routing seeds.
    Reseed,
    /// Reseed + 35 % more grid slack.
    WidenGrid,
    /// Reseed + wider grid + 50 % more segment/global tracks.
    WidenChannels,
    /// The ladder moved on to the next folding configuration.
    NextCandidate,
    /// Exact SAT-based slot assignment: the complete final rung, run
    /// only when every heuristic rung of every candidate has failed
    /// (and only when `--exact-recovery` is enabled). Placement becomes
    /// a CNF instance over the *precise* per-cluster defect view; a
    /// model is adopted as a placement and re-validated by the normal
    /// route/timing path, UNSAT becomes a typed infeasibility.
    ExactAssign,
    /// The time budget expired and the flow (in anytime mode) accepted a
    /// degraded best-so-far mapping instead of climbing further. A
    /// terminal marker, never executed as a rung: [`Remedy::apply`]
    /// treats it as the baseline.
    AcceptDegraded,
}

impl Remedy {
    /// Stable lowercase name for logs and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Baseline => "baseline",
            Self::Reseed => "reseed",
            Self::WidenGrid => "widen-grid",
            Self::WidenChannels => "widen-channels",
            Self::NextCandidate => "next-candidate",
            Self::ExactAssign => "exact-assign",
            Self::AcceptDegraded => "accept-degraded",
        }
    }

    /// Inverse of [`Remedy::as_str`], for checkpoint deserialization.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "baseline" => Some(Self::Baseline),
            "reseed" => Some(Self::Reseed),
            "widen-grid" => Some(Self::WidenGrid),
            "widen-channels" => Some(Self::WidenChannels),
            "next-candidate" => Some(Self::NextCandidate),
            "exact-assign" => Some(Self::ExactAssign),
            "accept-degraded" => Some(Self::AcceptDegraded),
            _ => None,
        }
    }

    /// The physical-design options this rung runs with, derived from the
    /// flow's configured baseline. Remedies accumulate down the ladder.
    pub fn apply(
        self,
        place: PlaceOptions,
        route: RouteOptions,
        channels: ChannelConfig,
    ) -> PhysicalOverrides {
        let mut o = PhysicalOverrides {
            place,
            route,
            channels,
        };
        if self == Remedy::Baseline || self == Remedy::AcceptDegraded {
            return o;
        }
        // Reseed (rungs 2+): decorrelate, deterministically.
        o.place.seed = place.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        o.route.seed = route.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        if self == Remedy::Reseed {
            return o;
        }
        // Widen grid (rungs 3+).
        o.place.grid_slack = place.grid_slack * 1.35;
        if self == Remedy::WidenGrid {
            return o;
        }
        // Widen channels (rung 4, and the exact-assign terminal rung,
        // which re-routes a solver placement under the most generous
        // interconnect the ladder ever grants): half again as many
        // segment tracks and global lines. Direct links are fixed
        // point-to-point wiring.
        o.channels.length1 = (channels.length1 * 3).div_ceil(2);
        o.channels.length4 = (channels.length4 * 3).div_ceil(2);
        o.channels.global = (channels.global * 3).div_ceil(2);
        o
    }
}

/// The concrete options one ladder attempt runs with.
#[derive(Debug, Clone, Copy)]
pub struct PhysicalOverrides {
    /// Placement options (possibly reseeded / slackened).
    pub place: PlaceOptions,
    /// Routing options (possibly reseeded).
    pub route: RouteOptions,
    /// Channel widths (possibly widened).
    pub channels: ChannelConfig,
}

/// One failed physical-design attempt.
#[derive(Debug, Clone, Eq)]
pub struct RecoveryAttempt {
    /// Global attempt index (0-based, across all candidates).
    pub attempt: u32,
    /// Index of the folding candidate in preference order.
    pub candidate: usize,
    /// Folding level of that candidate (`None` = no folding).
    pub folding_level: Option<u32>,
    /// Folding stages of that candidate.
    pub stages: u32,
    /// The rung that was being tried.
    pub remedy: Remedy,
    /// The flow phase that failed (`place`, `route` or `exact-assign`).
    pub phase: &'static str,
    /// Display of the failure.
    pub error: String,
    /// Wall-clock time the attempt consumed, in microseconds.
    pub wall_us: u64,
}

/// Equality ignores [`RecoveryAttempt::wall_us`]: two runs of the same
/// seed take different wall-clock time but must compare as the *same*
/// recovery history, which is what the determinism tests (and
/// `qor-diff --exact`) assert.
impl PartialEq for RecoveryAttempt {
    fn eq(&self, other: &Self) -> bool {
        self.attempt == other.attempt
            && self.candidate == other.candidate
            && self.folding_level == other.folding_level
            && self.stages == other.stages
            && self.remedy == other.remedy
            && self.phase == other.phase
            && self.error == other.error
    }
}

/// The full history of the recovery ladder for one mapping run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryLog {
    /// Every failed attempt, in order.
    pub attempts: Vec<RecoveryAttempt>,
    /// Rung escalations performed (baseline attempts excluded).
    pub escalations: u32,
    /// Candidate fallbacks performed (`next-candidate` escalations).
    pub candidate_fallbacks: u32,
    /// The remedy that finally succeeded, when the mapping succeeded
    /// after at least one failure. `Baseline` with empty `attempts`
    /// means the flow succeeded first try.
    pub succeeded_with: Option<Remedy>,
}

impl RecoveryLog {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total physical-design attempts so far (failed ones; the in-flight
    /// attempt is not counted until it fails).
    pub fn total_attempts(&self) -> u32 {
        self.attempts.len() as u32
    }

    /// `true` when the mapping needed any remedy beyond the baseline.
    pub fn recovered(&self) -> bool {
        self.succeeded_with.is_some_and(|r| r != Remedy::Baseline)
            || (!self.attempts.is_empty() && self.succeeded_with.is_some())
    }

    /// Records a failed attempt and bumps the observe counters.
    pub fn record(&mut self, attempt: RecoveryAttempt) {
        nanomap_observe::incr("flow.recovery.attempts", 1);
        if attempt.remedy != Remedy::Baseline {
            self.escalations += 1;
        }
        let series = nanomap_observe::series("flow.recovery.ladder");
        series.record(
            u64::from(attempt.attempt),
            ladder_height(attempt.remedy) as f64,
        );
        nanomap_observe::publish(|| nanomap_observe::EventKind::Recovery {
            attempt: u64::from(attempt.attempt),
            candidate: attempt.candidate,
            remedy: attempt.remedy.as_str().to_string(),
            phase: attempt.phase.to_string(),
            error: attempt.error.clone(),
            wall_ms: attempt.wall_us as f64 / 1e3,
        });
        self.attempts.push(attempt);
    }

    /// Records falling back to the next folding candidate.
    pub fn record_candidate_fallback(&mut self) {
        nanomap_observe::incr("flow.recovery.escalations", 1);
        self.candidate_fallbacks += 1;
    }

    /// Total wall-clock burned by failed attempts, in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.attempts.iter().map(|a| a.wall_us).sum::<u64>() as f64 / 1e3
    }

    /// One-line human summary (`3 failed attempt(s) in 12.0 ms, 2
    /// escalation(s), ..., recovered via widen-grid`).
    pub fn summary(&self) -> String {
        let outcome = match self.succeeded_with {
            Some(r) => format!("recovered via {}", r.as_str()),
            None => "exhausted".to_string(),
        };
        format!(
            "{} failed attempt(s) in {:.1} ms, {} escalation(s), {} candidate fallback(s), {}",
            self.attempts.len(),
            self.wall_ms(),
            self.escalations,
            self.candidate_fallbacks,
            outcome
        )
    }

    /// JSON object mirroring the log.
    pub fn to_json(&self) -> JsonValue {
        let attempts: Vec<JsonValue> = self
            .attempts
            .iter()
            .map(|a| {
                JsonValue::object()
                    .with("attempt", a.attempt)
                    .with("candidate", a.candidate as u64)
                    .with("folding_level", a.folding_level)
                    .with("stages", a.stages)
                    .with("remedy", a.remedy.as_str())
                    .with("phase", a.phase)
                    .with("error", a.error.as_str())
                    .with("wall_us", a.wall_us)
            })
            .collect();
        JsonValue::object()
            .with("attempts", attempts)
            .with("escalations", self.escalations)
            .with("candidate_fallbacks", self.candidate_fallbacks)
            .with("succeeded_with", self.succeeded_with.map(Remedy::as_str))
    }

    /// Inverse of [`RecoveryLog::to_json`], for checkpoint resume.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch (missing
    /// field, unknown remedy or phase name).
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let mut attempts = Vec::new();
        for (i, a) in value.req::<&[JsonValue]>("attempts")?.iter().enumerate() {
            let what = format!("recovery attempt {i}");
            let attempt = |e: ReadError| format!("{what}: {e}");
            let remedy_name: &str = a.req("remedy").map_err(attempt)?;
            let remedy = Remedy::parse(remedy_name)
                .ok_or_else(|| format!("{what}: unknown remedy `{remedy_name}`"))?;
            // `phase` is a &'static str on the in-memory struct; map the
            // serialized name back onto the interned literals.
            let phase = match a.req("phase").map_err(attempt)? {
                "place" => "place",
                "route" => "route",
                "exact-assign" => "exact-assign",
                other => return Err(format!("{what}: unknown phase `{other}`")),
            };
            attempts.push(RecoveryAttempt {
                attempt: a.req("attempt").map_err(attempt)?,
                candidate: a.req("candidate").map_err(attempt)?,
                folding_level: a.opt("folding_level").map_err(attempt)?,
                stages: a.req("stages").map_err(attempt)?,
                remedy,
                phase,
                error: a.opt("error").map_err(attempt)?.unwrap_or_default(),
                // Absent in pre-timing checkpoints; 0 is an honest
                // "unknown" and is excluded from equality anyway.
                wall_us: a.opt("wall_us").map_err(attempt)?.unwrap_or_default(),
            });
        }
        let succeeded_with = match value.opt::<&str>("succeeded_with")? {
            Some(name) => Some(
                Remedy::parse(name)
                    .ok_or_else(|| format!("recovery log: unknown remedy `{name}`"))?,
            ),
            None => None,
        };
        Ok(Self {
            attempts,
            escalations: value.req("escalations")?,
            candidate_fallbacks: value.req("candidate_fallbacks")?,
            succeeded_with,
        })
    }
}

/// Ladder height of a remedy (for the telemetry series).
fn ladder_height(remedy: Remedy) -> u32 {
    match remedy {
        Remedy::Baseline => 0,
        Remedy::Reseed => 1,
        Remedy::WidenGrid => 2,
        Remedy::WidenChannels => 3,
        Remedy::NextCandidate => 4,
        Remedy::ExactAssign => 5,
        Remedy::AcceptDegraded => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_rung_changes_nothing() {
        let place = PlaceOptions::default();
        let route = RouteOptions::default();
        let channels = ChannelConfig::nature();
        let o = Remedy::Baseline.apply(place, route, channels);
        assert_eq!(o.place.seed, place.seed);
        assert_eq!(o.place.grid_slack, place.grid_slack);
        assert_eq!(o.route.seed, route.seed);
        assert_eq!(o.channels, channels);
    }

    #[test]
    fn remedies_accumulate_down_the_ladder() {
        let place = PlaceOptions::default();
        let route = RouteOptions::default();
        let channels = ChannelConfig::nature();

        let reseed = Remedy::Reseed.apply(place, route, channels);
        assert_ne!(reseed.place.seed, place.seed);
        assert_ne!(reseed.route.seed, route.seed);
        assert_eq!(reseed.place.grid_slack, place.grid_slack);
        assert_eq!(reseed.channels, channels);

        let grid = Remedy::WidenGrid.apply(place, route, channels);
        assert_eq!(grid.place.seed, reseed.place.seed);
        assert!(grid.place.grid_slack > place.grid_slack);
        assert_eq!(grid.channels, channels);

        let wide = Remedy::WidenChannels.apply(place, route, channels);
        assert_eq!(wide.place.seed, reseed.place.seed);
        assert_eq!(wide.place.grid_slack, grid.place.grid_slack);
        assert!(wide.channels.length1 > channels.length1);
        assert!(wide.channels.length4 > channels.length4);
        assert!(wide.channels.global > channels.global);
        assert_eq!(wide.channels.direct, channels.direct);
    }

    #[test]
    fn ladder_is_deterministic() {
        let a = Remedy::WidenChannels.apply(
            PlaceOptions::default(),
            RouteOptions::default(),
            ChannelConfig::nature(),
        );
        let b = Remedy::WidenChannels.apply(
            PlaceOptions::default(),
            RouteOptions::default(),
            ChannelConfig::nature(),
        );
        assert_eq!(a.place.seed, b.place.seed);
        assert_eq!(a.channels, b.channels);
    }

    #[test]
    fn log_records_and_summarizes() {
        let mut log = RecoveryLog::new();
        assert!(!log.recovered());
        log.record(RecoveryAttempt {
            attempt: 0,
            candidate: 0,
            folding_level: Some(1),
            stages: 12,
            remedy: Remedy::Baseline,
            phase: "place",
            error: "too many defects".into(),
            wall_us: 1_250,
        });
        log.record(RecoveryAttempt {
            attempt: 1,
            candidate: 0,
            folding_level: Some(1),
            stages: 12,
            remedy: Remedy::Reseed,
            phase: "route",
            error: "congestion".into(),
            wall_us: 9_000,
        });
        log.succeeded_with = Some(Remedy::WidenGrid);
        assert_eq!(log.total_attempts(), 2);
        assert_eq!(log.escalations, 1);
        assert!(log.recovered());
        let s = log.summary();
        assert!(s.contains("2 failed attempt(s)"), "{s}");
        assert!(s.contains("widen-grid"), "{s}");
        let json = log.to_json().to_compact_string();
        assert!(json.contains("\"remedy\":\"reseed\""), "{json}");
        assert!(json.contains("congestion"), "{json}");
    }

    #[test]
    fn remedy_names_are_stable() {
        for (r, name) in [
            (Remedy::Baseline, "baseline"),
            (Remedy::Reseed, "reseed"),
            (Remedy::WidenGrid, "widen-grid"),
            (Remedy::WidenChannels, "widen-channels"),
            (Remedy::NextCandidate, "next-candidate"),
            (Remedy::AcceptDegraded, "accept-degraded"),
        ] {
            assert_eq!(r.as_str(), name);
            assert_eq!(Remedy::parse(name), Some(r));
        }
        assert_eq!(Remedy::parse("warp-drive"), None);
    }

    #[test]
    fn accept_degraded_rung_changes_nothing() {
        let place = PlaceOptions::default();
        let o =
            Remedy::AcceptDegraded.apply(place, RouteOptions::default(), ChannelConfig::nature());
        assert_eq!(o.place.seed, place.seed);
        assert_eq!(o.place.grid_slack, place.grid_slack);
    }

    #[test]
    fn log_round_trips_through_json() {
        let mut log = RecoveryLog::new();
        log.record(RecoveryAttempt {
            attempt: 0,
            candidate: 1,
            folding_level: None,
            stages: 3,
            remedy: Remedy::WidenChannels,
            phase: "route",
            error: "congestion".into(),
            wall_us: 777,
        });
        log.record_candidate_fallback();
        log.succeeded_with = Some(Remedy::AcceptDegraded);
        let back = RecoveryLog::from_json(&log.to_json()).unwrap();
        assert_eq!(back, log);

        let bad = nanomap_observe::json::parse(
            r#"{"attempts":[{"attempt":0,"candidate":0,"stages":1,"remedy":"teleport","phase":"place","error":""}],"escalations":0,"candidate_fallbacks":0}"#,
        )
        .unwrap();
        assert!(RecoveryLog::from_json(&bad)
            .unwrap_err()
            .contains("teleport"));
    }
}
