//! Mapping reports.

use nanomap_arch::{PowerEstimate, WireType};
use nanomap_observe::{Degradation, JsonValue, MemoryReport, Phase, PHASES};
use nanomap_route::InterconnectUsage;

use crate::explain::ExplainReport;
use crate::folding::PlaneSharing;
use crate::recovery::RecoveryLog;

/// Everything NanoMap reports about a finished mapping (the Table 1 /
/// Table 2 columns plus physical-design detail).
#[derive(Debug, Clone)]
pub struct MappingReport {
    /// Circuit name.
    pub circuit: String,
    /// Number of planes (`#Planes` column).
    pub num_planes: u32,
    /// Maximum plane logic depth (`Max plane depth` column).
    pub depth_max: u32,
    /// Total LUTs (`#LUTs` column).
    pub num_luts: u32,
    /// Total flip-flops (`#Flip-flops` column).
    pub num_ffs: u32,
    /// Chosen folding level (`None` = no folding).
    pub folding_level: Option<u32>,
    /// Folding stages per plane.
    pub stages: u32,
    /// Plane resource sharing mode.
    pub sharing: SharingMode,
    /// NRAM configuration sets consumed.
    pub nram_sets_used: u32,
    /// Logic elements required (`#LEs` column, the paper's area proxy).
    pub num_les: u32,
    /// Analytical circuit delay in ns (`Delay` column).
    pub delay_ns: f64,
    /// Estimated silicon area in µm² (SMB-granular, NRAM overhead
    /// included — see `nanomap_arch::AreaModel`).
    pub area_um2: f64,
    /// Power estimate (logic, run-time reconfiguration, leakage).
    pub power: PowerEstimate,
    /// Physical-design results, when the flow ran place-and-route.
    pub physical: Option<PhysicalReport>,
    /// QoR attribution (critical paths, congestion, occupancy), when the
    /// flow was asked to explain its results.
    pub explain: Option<ExplainReport>,
    /// Recovery-ladder history: every failed physical-design attempt and
    /// the remedy that finally succeeded. Empty on a clean first-try run.
    pub recovery: RecoveryLog,
    /// `true` when the time budget expired mid-flow and one or more
    /// phases returned a best-so-far result (anytime mode).
    pub degraded: bool,
    /// Which phases degraded and how far they got. Empty on complete
    /// runs.
    pub degradations: Vec<Degradation>,
    /// Wall-clock time spent in each flow phase. Always populated — the
    /// spans that bracket the phases time them whether or not the
    /// observability collector is enabled.
    pub phase_times: PhaseTimes,
    /// Heap/RSS telemetry, populated only when the driver turned on
    /// allocation tracking (`None` keeps untracked artifacts
    /// byte-identical to pre-telemetry baselines).
    pub memory: Option<MemoryReport>,
}

/// Wall-clock time per flow phase in whole microseconds, one slot per
/// [`PHASES`] row (zero when a phase did not run).
///
/// Every slot is the duration of the span that brackets the phase —
/// the `duration_us` the profile and the `phase-end` event carry — so
/// the report, the profile and the `run-end` event agree to the
/// microsecond. Two slots leave out a span nested in their own:
/// `folding-select` is the `folding-select` span minus the winning
/// candidate's `candidate` span (the `fds` slot; every candidate is
/// scheduled once, inside selection), and `route` is the `route` span
/// minus its `bitmap` span. `pack` is measured once per candidate:
/// every rung on it reuses the packing. On resume the schedules come
/// from the checkpoint, so `folding-select` and `fds` are zero, as is
/// `place` when the checkpoint restores the placement; `verify` and
/// `explain` are zero when they are off.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    us: [u64; PHASES.len()],
    /// End-to-end mapping time: the `flow` span.
    pub total_us: u64,
    /// Budget left when the flow finished, `None` when it ran without a
    /// time budget (keeps unbudgeted artifacts byte-identical).
    pub budget_ms_remaining: Option<f64>,
}

impl PhaseTimes {
    /// The slot of the phase whose span is named `span`; a name no
    /// [`PHASES`] row holds is a bug, and panics.
    fn slot(span: &str) -> usize {
        PHASES
            .iter()
            .position(|p| p.span == span)
            .unwrap_or_else(|| panic!("`{span}` is not a flow phase"))
    }

    /// Sets the microseconds of the phase whose span is named `span`.
    pub(crate) fn set(&mut self, span: &str, us: u64) {
        self.us[Self::slot(span)] = us;
    }

    /// Microseconds of the phase whose span is named `span`.
    ///
    /// # Panics
    ///
    /// When no [`PHASES`] row names `span`.
    pub fn us(&self, span: &str) -> u64 {
        self.us[Self::slot(span)]
    }

    /// End-to-end milliseconds.
    pub fn total_ms(&self) -> f64 {
        to_ms(self.total_us)
    }

    /// Each phase's milliseconds, in [`PHASES`] order.
    pub fn by_phase(self) -> impl Iterator<Item = (Phase, f64)> {
        PHASES.into_iter().zip(self.us.map(to_ms))
    }

    /// Each phase's `(JSON key, milliseconds)` followed by
    /// `("total_ms", total)` — the rows every phase-time sink writes.
    pub fn keyed_ms(self) -> impl Iterator<Item = (&'static str, f64)> {
        self.by_phase()
            .map(|(phase, ms)| (phase.key, ms))
            .chain([("total_ms", self.total_ms())])
    }

    /// Sum of the per-phase microseconds (everything except the total
    /// and the budget remainder).
    pub fn phase_sum_us(self) -> u64 {
        self.us.iter().sum()
    }

    /// Self-consistency check: the phases are disjoint spans inside the
    /// `flow` span, so their microseconds sum to no more than the
    /// total. One-sided on purpose — work the breakdown does not
    /// itemize (plane extraction, failed recovery attempts, report
    /// assembly) makes the sum *undershoot* the total, but a sum above
    /// it means a phase was double-counted.
    pub fn reconcile(self) -> Result<(), String> {
        let sum = self.phase_sum_us();
        if sum > self.total_us {
            return Err(format!(
                "phase_times inconsistent: per-phase sum {sum} µs exceeds total {} µs",
                self.total_us
            ));
        }
        Ok(())
    }

    /// JSON object with one entry per phase. `budget_ms_remaining` is
    /// emitted only for budgeted runs, so unbudgeted artifacts stay
    /// byte-identical to pre-budget baselines.
    pub fn to_json(self) -> JsonValue {
        let mut times = JsonValue::object();
        for (key, ms) in self.keyed_ms() {
            times.set(key, ms);
        }
        match self.budget_ms_remaining {
            Some(remaining) => times.with("budget_ms_remaining", remaining),
            None => times,
        }
    }
}

/// Whole microseconds as milliseconds.
fn to_ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Serializable mirror of [`PlaneSharing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// Planes time-share LEs.
    Shared,
    /// Each plane owns its LEs.
    PerPlane,
}

impl SharingMode {
    /// Stable lowercase name for serialization.
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Shared => "shared",
            Self::PerPlane => "per-plane",
        }
    }
}

impl From<PlaneSharing> for SharingMode {
    fn from(s: PlaneSharing) -> Self {
        match s {
            PlaneSharing::Shared => Self::Shared,
            PlaneSharing::PerPlane => Self::PerPlane,
        }
    }
}

/// Results of clustering, placement and routing.
#[derive(Debug, Clone)]
pub struct PhysicalReport {
    /// SMBs used after temporal clustering.
    pub num_smbs: u32,
    /// Grid dimensions (width, height).
    pub grid: (u16, u16),
    /// Final placement wirelength cost.
    pub placement_cost: f64,
    /// RISA peak channel utilization.
    pub peak_utilization: f64,
    /// Post-route circuit delay in ns.
    pub routed_delay_ns: f64,
    /// Interconnect usage counters.
    pub usage: UsageReport,
    /// Total configuration bits emitted.
    pub bitmap_bits: u64,
    /// The packed bitstream (see `nanomap_arch::pack_bitstream`), when the
    /// flow was asked to emit it.
    pub bitstream: Option<Vec<u8>>,
}

/// Serializable interconnect usage.
#[derive(Debug, Clone, Copy)]
pub struct UsageReport {
    /// Direct-link nodes used.
    pub direct: u64,
    /// Length-1 nodes used.
    pub length1: u64,
    /// Length-4 nodes used.
    pub length4: u64,
    /// Global-line nodes used.
    pub global: u64,
}

impl From<InterconnectUsage> for UsageReport {
    fn from(u: InterconnectUsage) -> Self {
        Self {
            direct: u.direct,
            length1: u.length1,
            length4: u.length4,
            global: u.global,
        }
    }
}

impl UsageReport {
    /// Total wire nodes used.
    pub fn total(&self) -> u64 {
        self.direct + self.length1 + self.length4 + self.global
    }

    /// Fraction of total wire usage carried by one tier (0.0 for an
    /// unused interconnect) — the heatmap legend's per-tier shares.
    pub fn fraction(&self, tier: WireType) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let count = match tier {
            WireType::Direct => self.direct,
            WireType::Length1 => self.length1,
            WireType::Length4 => self.length4,
            WireType::Global => self.global,
        };
        count as f64 / total as f64
    }

    /// JSON object with per-tier counts.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("direct", self.direct)
            .with("length1", self.length1)
            .with("length4", self.length4)
            .with("global", self.global)
            .with("total", self.total())
    }
}

impl PhysicalReport {
    /// JSON object mirroring the struct (the bitstream is reported by
    /// length, not content).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("num_smbs", self.num_smbs)
            .with("grid_width", self.grid.0)
            .with("grid_height", self.grid.1)
            .with("placement_cost", self.placement_cost)
            .with("peak_utilization", self.peak_utilization)
            .with("routed_delay_ns", self.routed_delay_ns)
            .with("usage", self.usage.to_json())
            .with("bitmap_bits", self.bitmap_bits)
            .with(
                "bitstream_bytes",
                self.bitstream.as_ref().map(|b| b.len() as u64),
            )
    }
}

impl MappingReport {
    /// Area-delay product with the LE count as the area proxy.
    pub fn area_delay_product(&self) -> f64 {
        f64::from(self.num_les) * self.delay_ns
    }

    /// Serializes the full report as a JSON object (serde-free, via the
    /// observe crate's emitter).
    pub fn to_json(&self) -> JsonValue {
        let json = JsonValue::object()
            .with("circuit", self.circuit.as_str())
            .with("num_planes", self.num_planes)
            .with("depth_max", self.depth_max)
            .with("num_luts", self.num_luts)
            .with("num_ffs", self.num_ffs)
            .with("folding_level", self.folding_level)
            .with("stages", self.stages)
            .with("sharing", self.sharing.as_str())
            .with("nram_sets_used", self.nram_sets_used)
            .with("num_les", self.num_les)
            .with("delay_ns", self.delay_ns)
            .with("area_delay_product", self.area_delay_product())
            .with("area_um2", self.area_um2)
            .with(
                "power_mw",
                JsonValue::object()
                    .with("logic", self.power.logic_mw)
                    .with("reconfiguration", self.power.reconfiguration_mw)
                    .with("leakage", self.power.leakage_mw)
                    .with("total", self.power.total_mw()),
            )
            .with(
                "physical",
                self.physical.as_ref().map(PhysicalReport::to_json),
            )
            .with("explain", self.explain.as_ref().map(ExplainReport::to_json))
            .with("recovery", self.recovery.to_json())
            .with("degraded", self.degraded)
            .with(
                "degradations",
                self.degradations
                    .iter()
                    .map(Degradation::to_json)
                    .collect::<Vec<_>>(),
            )
            .with("phase_times", self.phase_times.to_json());
        // Memory telemetry is emitted only when tracking ran, so
        // untracked artifacts stay byte-identical (same contract as
        // `budget_ms_remaining`).
        match &self.memory {
            Some(memory) => json.with("memory", memory.to_json()),
            None => json,
        }
    }

    /// A one-line summary in the style of a Table 1 row.
    pub fn summary(&self) -> String {
        format!(
            "{}: planes={} depth={} luts={} ffs={} level={} les={} delay={:.2}ns",
            self.circuit,
            self.num_planes,
            self.depth_max,
            self.num_luts,
            self.num_ffs,
            self.folding_level
                .map_or("none".to_string(), |p| p.to_string()),
            self.num_les,
            self.delay_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> MappingReport {
        MappingReport {
            circuit: "ex1".into(),
            num_planes: 1,
            depth_max: 24,
            num_luts: 644,
            num_ffs: 50,
            folding_level: Some(1),
            stages: 24,
            sharing: SharingMode::Shared,
            nram_sets_used: 24,
            num_les: 34,
            delay_ns: 17.02,
            area_um2: 50_000.0,
            power: PowerEstimate {
                logic_mw: 0.2,
                reconfiguration_mw: 1.0,
                leakage_mw: 0.03,
            },
            physical: None,
            explain: None,
            recovery: RecoveryLog::default(),
            degraded: false,
            degradations: Vec::new(),
            phase_times: PhaseTimes::default(),
            memory: None,
        }
    }

    #[test]
    fn memory_is_emitted_only_when_tracked() {
        let untracked = report().to_json().to_compact_string();
        assert!(!untracked.contains("\"memory\""), "{untracked}");
        let mut tracked = report();
        tracked.memory = Some(MemoryReport {
            alloc_count: 10,
            dealloc_count: 5,
            alloc_bytes: 2048,
            dealloc_bytes: 1024,
            live_bytes: 1024,
            peak_live_bytes: 2048,
            peak_rss_kb: Some(4096),
            by_phase: vec![("pack", 10, 2048)],
        });
        let text = tracked.to_json().to_compact_string();
        assert!(text.contains("\"memory\""), "{text}");
        assert!(text.contains("\"peak_live_bytes\":2048"), "{text}");
    }

    /// Phase times with the given microseconds per phase, in
    /// [`PHASES`] order, and total.
    fn phase_times(us: [u64; PHASES.len()], total_us: u64) -> PhaseTimes {
        let mut times = PhaseTimes {
            total_us,
            ..PhaseTimes::default()
        };
        for (phase, us) in PHASES.iter().zip(us) {
            times.set(phase.span, us);
        }
        times
    }

    #[test]
    fn phase_sum_at_most_the_total_reconciles() {
        let times = phase_times(
            [10_000, 5_000, 20_000, 30_000, 25_000, 2_000, 3_000, 0],
            100_000,
        );
        assert_eq!(times.phase_sum_us(), 95_000);
        assert_eq!(times.us("place"), 30_000);
        // Each slot lands on its own row of the phase table.
        let keyed: Vec<(&str, f64)> = times.keyed_ms().collect();
        assert_eq!(
            keyed,
            [
                ("folding_select_ms", 10.0),
                ("fds_ms", 5.0),
                ("pack_ms", 20.0),
                ("place_ms", 30.0),
                ("route_ms", 25.0),
                ("bitmap_ms", 2.0),
                ("verify_ms", 3.0),
                ("explain_ms", 0.0),
                ("total_ms", 100.0),
            ]
        );
        assert!(times.reconcile().is_ok());
        // Undershoot is always fine (unitemized inter-phase work), and
        // a sum equal to the total is the exact bound.
        assert!(phase_times([0, 0, 0, 40_000, 0, 0, 0, 0], 100_000)
            .reconcile()
            .is_ok());
        assert!(phase_times([1, 0, 0, 0, 0, 0, 0, 0], 1).reconcile().is_ok());
    }

    #[test]
    fn phase_sum_overshoot_fails_reconcile() {
        let double_counted = phase_times([0, 0, 0, 80_000, 80_000, 0, 0, 0], 100_000);
        let err = double_counted
            .reconcile()
            .expect_err("160 ms of phases in a 100 ms flow");
        assert!(err.contains("exceeds"), "{err}");
        // One microsecond over is over: there is no slack.
        assert!(phase_times([0, 0, 0, 0, 0, 0, 0, 101], 100)
            .reconcile()
            .is_err());
    }

    #[test]
    #[should_panic(expected = "not a flow phase")]
    fn an_unknown_phase_name_is_a_bug() {
        PhaseTimes::default().us("flow");
    }

    #[test]
    fn budget_remaining_is_emitted_only_when_budgeted() {
        let unbudgeted = PhaseTimes::default().to_json().to_compact_string();
        assert!(!unbudgeted.contains("budget_ms_remaining"), "{unbudgeted}");
        let budgeted = PhaseTimes {
            budget_ms_remaining: Some(12.5),
            ..PhaseTimes::default()
        }
        .to_json()
        .to_compact_string();
        assert!(
            budgeted.contains("\"budget_ms_remaining\":12.5"),
            "{budgeted}"
        );
    }

    #[test]
    fn at_product() {
        let r = report();
        assert!((r.area_delay_product() - 34.0 * 17.02).abs() < 1e-9);
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let s = report().summary();
        assert!(s.contains("ex1"));
        assert!(s.contains("les=34"));
        assert!(s.contains("level=1"));
    }

    #[test]
    fn usage_total() {
        let u = UsageReport {
            direct: 1,
            length1: 2,
            length4: 3,
            global: 4,
        };
        assert_eq!(u.total(), 10);
    }

    #[test]
    fn usage_fractions_sum_to_one() {
        let u = UsageReport {
            direct: 1,
            length1: 2,
            length4: 3,
            global: 4,
        };
        let sum: f64 = WireType::ALL.iter().map(|&w| u.fraction(w)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((u.fraction(WireType::Global) - 0.4).abs() < 1e-12);
        let empty = UsageReport {
            direct: 0,
            length1: 0,
            length4: 0,
            global: 0,
        };
        assert_eq!(empty.fraction(WireType::Direct), 0.0);
    }
}
