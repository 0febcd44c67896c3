//! Crash-safe checkpoint/resume for the mapping flow.
//!
//! With a checkpoint directory configured, the flow serializes a
//! deterministic `nanomap-checkpoint-v2` snapshot of the decisions that
//! are costly to recompute: after FDS, the attempt's pinned candidate,
//! ladder rung and per-plane schedules; after placement, also one slot
//! per SMB. Snapshots are written through
//! [`crate::artifact::atomic_write`], so a crash — even a SIGKILL mid
//! write — leaves either the previous complete checkpoint or the new
//! one, never a torn file.
//!
//! `nanomap --resume PATH` reloads the snapshot, verifies that the
//! netlist (by FNV-1a fingerprint), objective and architecture match,
//! and restarts the flow from the last completed phase. Everything else
//! is re-derived: restored schedules skip FDS, the packing is recomputed
//! from them (clustering is a pure function of the schedules, the
//! architecture and the pack options), and a restored placement is
//! admitted only through [`nanomap_place::adopt_assignment`] — the same
//! validator SAT models pass — against this run's packing and defect
//! map. Because every phase is seeded deterministically, a resumed run
//! reproduces the uninterrupted run's `MappingReport` exactly, and a
//! placement that does not fit this run is a typed error.
//!
//! A checkpoint pins one folding candidate and one recovery-ladder rung;
//! resume restarts the ladder at that rung and climbs from there. It
//! does not re-enumerate earlier candidates (their rejection is already
//! recorded in the embedded recovery log).

// Checkpoints sit on the CLI's resume path: malformed or stale files
// must surface as typed errors, never panics.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::path::{Path, PathBuf};

use nanomap_arch::{ArchParams, Grid, SmbPos};
use nanomap_netlist::{LutNetwork, SignalRef};
use nanomap_observe::json::{self, ReadError};
use nanomap_observe::{Fnv1a, JsonValue};
use nanomap_sched::{ItemGraph, Schedule};

use crate::artifact::atomic_write_text;
use crate::folding::{FoldingConfig, PlaneSharing};
use crate::recovery::{RecoveryLog, Remedy};

/// Schema tag stamped on every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = crate::artifact::versions::CHECKPOINT;

/// Errors from checkpoint save, load and validation.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// Description of the I/O failure.
        detail: String,
    },
    /// The file is not a structurally valid checkpoint.
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// The checkpoint does not match the run it is being resumed into
    /// (different netlist, objective or architecture).
    Mismatch {
        /// The field that disagreed.
        what: &'static str,
        /// Value the current run expects.
        expected: String,
        /// Value stored in the checkpoint.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, detail } => write!(f, "{}: {detail}", path.display()),
            Self::Malformed { detail } => write!(f, "malformed checkpoint: {detail}"),
            Self::Mismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "checkpoint was written for a different {what} \
                 (expected {expected}, found {found})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<ReadError> for CheckpointError {
    fn from(e: ReadError) -> Self {
        Self::Malformed {
            detail: e.to_string(),
        }
    }
}

/// FNV-1a 64-bit fingerprint of a LUT network's full structure: inputs,
/// every LUT's truth table and connections, every flip-flop's data input
/// and bank, and the primary outputs. Any structural edit changes the
/// fingerprint, which is how resume refuses a checkpoint written for a
/// different netlist.
pub fn netlist_fingerprint(net: &LutNetwork) -> u64 {
    let mut h = Fnv1a::new();
    h.field(net.name().as_bytes())
        .u64(net.num_inputs() as u64)
        .u64(net.num_luts() as u64)
        .u64(net.num_ffs() as u64);
    for (_, lut) in net.luts() {
        h.u64(u64::from(lut.truth.num_inputs()))
            .u64(lut.truth.bits());
        for &input in &lut.inputs {
            hash_signal(&mut h, input);
        }
    }
    for (_, ff) in net.ffs() {
        hash_signal(&mut h, ff.d);
        match ff.bank {
            Some(bank) => h.byte(1).u64(u64::from(bank)),
            None => h.byte(0),
        };
    }
    for (name, signal) in net.outputs() {
        h.field(name.as_bytes());
        hash_signal(&mut h, *signal);
    }
    h.finish()
}

/// Mixes one signal reference (a kind tag, then its index or value).
fn hash_signal(h: &mut Fnv1a, s: SignalRef) {
    match s {
        SignalRef::Input(i) => h.byte(0).u64(i.index() as u64),
        SignalRef::Lut(i) => h.byte(1).u64(i.index() as u64),
        SignalRef::Ff(i) => h.byte(2).u64(i.index() as u64),
        SignalRef::Const(b) => h.byte(3).byte(u8::from(b)),
    };
}

/// One plane's frozen FDS schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSnapshot {
    /// Stage count.
    pub stages: u32,
    /// Stage of every scheduled item, in item order.
    pub stage_of: Vec<u32>,
}

impl ScheduleSnapshot {
    /// Freezes a schedule.
    pub fn capture(schedule: &Schedule) -> Self {
        Self {
            stages: schedule.stages,
            stage_of: schedule.stage_of.clone(),
        }
    }

    /// Rebuilds the schedule.
    pub fn restore(&self) -> Schedule {
        Schedule::new(self.stage_of.clone(), self.stages)
    }
}

/// Frozen placement: the grid and one slot per SMB. Resume admits it
/// through [`nanomap_place::adopt_assignment`], which re-checks every
/// slot against the resumed run's packing and defect map and recomputes
/// cost, routability and delay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaceSnapshot {
    /// Grid width.
    pub width: u16,
    /// Grid height.
    pub height: u16,
    /// Row-major slot index of every SMB, indexed by SMB id.
    pub slots: Vec<u32>,
}

impl PlaceSnapshot {
    /// Freezes a placement's grid and positions.
    pub fn capture(grid: Grid, pos_of: &[SmbPos]) -> Self {
        Self {
            width: grid.width,
            height: grid.height,
            slots: pos_of.iter().map(|&p| grid.index(p) as u32).collect(),
        }
    }

    /// The snapshot's grid.
    ///
    /// # Errors
    ///
    /// Rejects an empty grid; slot ranges are the adopter's to check.
    pub fn grid(&self) -> Result<Grid, CheckpointError> {
        if self.width == 0 || self.height == 0 {
            return Err(CheckpointError::Malformed {
                detail: format!("placement grid {}x{} is empty", self.width, self.height),
            });
        }
        Ok(Grid::new(self.width, self.height))
    }
}

/// A complete flow checkpoint: identity (netlist hash, objective,
/// architecture), the pinned candidate and ladder rung, its schedules,
/// the placement once placed, and the recovery history.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Circuit name (for the file name and human eyes; identity is the
    /// hash).
    pub circuit: String,
    /// [`netlist_fingerprint`] of the mapped network.
    pub netlist_hash: u64,
    /// [`crate::Objective::key`] of the run's objective.
    pub objective: String,
    /// Architecture scalars that shape the mapping.
    pub lut_inputs: u32,
    /// LUTs per LE.
    pub luts_per_le: u32,
    /// Flip-flops per LE.
    pub ffs_per_le: u32,
    /// NRAM configuration sets.
    pub num_reconf: u32,
    /// Preference-order rank of the pinned folding candidate.
    pub candidate_rank: usize,
    /// Folding level of that candidate (`None` = no folding).
    pub level: Option<u32>,
    /// Folding stages of that candidate.
    pub stages: u32,
    /// Plane sharing mode of that candidate.
    pub sharing: PlaneSharing,
    /// The recovery-ladder rung the attempt runs with.
    pub remedy: Remedy,
    /// Per-plane FDS schedules of the candidate.
    pub schedules: Vec<ScheduleSnapshot>,
    /// Ladder history up to the checkpoint.
    pub recovery: RecoveryLog,
    /// The attempt's placement, once placed.
    pub placement: Option<PlaceSnapshot>,
}

/// Hex form of a 64-bit value (JSON integers are `i64`; hashes overflow
/// them).
fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex64(s: &str, what: &str) -> Result<u64, CheckpointError> {
    u64::from_str_radix(s, 16).map_err(|e| CheckpointError::Malformed {
        detail: format!("`{what}` is not a 64-bit hex value: {e}"),
    })
}

impl Checkpoint {
    /// Deterministic JSON form.
    pub fn to_json(&self) -> JsonValue {
        let schedules: Vec<JsonValue> = self
            .schedules
            .iter()
            .map(|s| {
                JsonValue::object().with("stages", s.stages).with(
                    "stage_of",
                    s.stage_of
                        .iter()
                        .map(|&v| JsonValue::from(v))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let placement = self.placement.as_ref().map(|p| {
            JsonValue::object()
                .with("width", p.width)
                .with("height", p.height)
                .with(
                    "slots",
                    p.slots
                        .iter()
                        .map(|&v| JsonValue::from(v))
                        .collect::<Vec<_>>(),
                )
        });
        JsonValue::object()
            .with("schema", CHECKPOINT_SCHEMA)
            .with("circuit", self.circuit.as_str())
            .with("netlist_hash", hex64(self.netlist_hash))
            .with("objective", self.objective.as_str())
            .with(
                "arch",
                JsonValue::object()
                    .with("lut_inputs", self.lut_inputs)
                    .with("luts_per_le", self.luts_per_le)
                    .with("ffs_per_le", self.ffs_per_le)
                    .with("num_reconf", self.num_reconf),
            )
            .with("candidate_rank", self.candidate_rank as u64)
            .with("folding_level", self.level)
            .with("stages", self.stages)
            .with(
                "sharing",
                match self.sharing {
                    PlaneSharing::Shared => "shared",
                    PlaneSharing::PerPlane => "per-plane",
                },
            )
            .with("remedy", self.remedy.as_str())
            .with("schedules", schedules)
            .with("recovery", self.recovery.to_json())
            .with("placement", placement)
    }

    /// Parses a checkpoint from its JSON form.
    ///
    /// # Errors
    ///
    /// Rejects anything without the `nanomap-checkpoint-v2` schema tag,
    /// or with missing/ill-typed fields.
    pub fn from_json(value: &JsonValue) -> Result<Self, CheckpointError> {
        value.check_schema(CHECKPOINT_SCHEMA)?;
        let malformed = |detail: String| CheckpointError::Malformed { detail };
        let sharing = match value.req("sharing")? {
            "shared" => PlaneSharing::Shared,
            "per-plane" => PlaneSharing::PerPlane,
            other => return Err(malformed(format!("unknown sharing mode `{other}`"))),
        };
        let remedy_name = value.req("remedy")?;
        let remedy = Remedy::parse(remedy_name)
            .ok_or_else(|| malformed(format!("unknown remedy `{remedy_name}`")))?;
        let arch = value.field("arch")?;
        let mut schedules = Vec::new();
        for s in value.req::<&[JsonValue]>("schedules")? {
            let stage_of: Vec<u32> = s.req("stage_of")?;
            let stages = s.req("stages")?;
            if let Some(&bad) = stage_of.iter().find(|&&st| st >= stages) {
                return Err(malformed(format!(
                    "schedule stage {bad} is outside 0..{stages}"
                )));
            }
            schedules.push(ScheduleSnapshot { stages, stage_of });
        }
        let recovery = RecoveryLog::from_json(value.field("recovery")?)
            .map_err(|e| malformed(format!("recovery log: {e}")))?;
        let placement = match value.opt::<&JsonValue>("placement")? {
            None => None,
            Some(p) => Some(PlaceSnapshot {
                width: p.req("width")?,
                height: p.req("height")?,
                slots: p.req("slots")?,
            }),
        };
        Ok(Self {
            circuit: value.req("circuit")?,
            netlist_hash: parse_hex64(value.req("netlist_hash")?, "netlist_hash")?,
            objective: value.req("objective")?,
            lut_inputs: arch.req("lut_inputs")?,
            luts_per_le: arch.req("luts_per_le")?,
            ffs_per_le: arch.req("ffs_per_le")?,
            num_reconf: arch.req("num_reconf")?,
            candidate_rank: value.req("candidate_rank")?,
            level: value.opt("folding_level")?,
            stages: value.req("stages")?,
            sharing,
            remedy,
            schedules,
            recovery,
            placement,
        })
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// I/O failures carry the path; parse failures describe the first
    /// structural mismatch.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        nanomap_observe::failpoint::inject_io("checkpoint.load").map_err(|e| {
            CheckpointError::Io {
                path: path.to_path_buf(),
                detail: e.to_string(),
            }
        })?;
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })?;
        let value = json::parse(&text).map_err(|e| CheckpointError::Malformed {
            detail: format!("{}: {e}", path.display()),
        })?;
        Self::from_json(&value)
    }

    /// Verifies that the checkpoint belongs to this run: same netlist
    /// (by fingerprint), same objective, same architecture scalars.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Mismatch`] naming the first field that
    /// disagrees.
    pub fn validate(
        &self,
        net: &LutNetwork,
        objective_key: &str,
        arch: &ArchParams,
    ) -> Result<(), CheckpointError> {
        let mismatch = |what: &'static str, expected: String, found: String| {
            Err(CheckpointError::Mismatch {
                what,
                expected,
                found,
            })
        };
        let hash = netlist_fingerprint(net);
        if self.netlist_hash != hash {
            return mismatch("netlist", hex64(hash), hex64(self.netlist_hash));
        }
        if self.objective != objective_key {
            return mismatch("objective", objective_key.into(), self.objective.clone());
        }
        for (what, expected, found) in [
            (
                "architecture (lut_inputs)",
                arch.lut_inputs,
                self.lut_inputs,
            ),
            (
                "architecture (luts_per_le)",
                arch.luts_per_le,
                self.luts_per_le,
            ),
            (
                "architecture (ffs_per_le)",
                arch.ffs_per_le,
                self.ffs_per_le,
            ),
            (
                "architecture (num_reconf)",
                arch.num_reconf,
                self.num_reconf,
            ),
        ] {
            if expected != found {
                return mismatch(what, expected.to_string(), found.to_string());
            }
        }
        Ok(())
    }

    /// The last completed phase: `"place"` once the placement is
    /// recorded, `"fds"` before.
    pub fn phase(&self) -> &'static str {
        if self.placement.is_some() {
            "place"
        } else {
            "fds"
        }
    }

    /// The folding configuration the checkpoint pins.
    pub fn folding_config(&self) -> FoldingConfig {
        FoldingConfig {
            level: self.level,
            stages: self.stages,
            sharing: self.sharing,
        }
    }

    /// Restores the per-plane schedules onto the item graphs rebuilt
    /// for the pinned folding configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] unless there is one
    /// schedule per plane, each covers its plane's items, and each has
    /// the checkpoint's stage count.
    pub fn restore_schedules(
        &self,
        graphs: &[ItemGraph],
    ) -> Result<Vec<Schedule>, CheckpointError> {
        let malformed = |detail: String| Err(CheckpointError::Malformed { detail });
        if self.schedules.len() != graphs.len() {
            return malformed(format!(
                "checkpoint has {} schedules for a {}-plane netlist",
                self.schedules.len(),
                graphs.len()
            ));
        }
        for (plane, (snapshot, graph)) in self.schedules.iter().zip(graphs).enumerate() {
            if snapshot.stage_of.len() != graph.len() {
                return malformed(format!(
                    "plane {plane}: schedule covers {} items, plane has {}",
                    snapshot.stage_of.len(),
                    graph.len()
                ));
            }
            if snapshot.stages != self.stages {
                return malformed(format!(
                    "plane {plane}: schedule has {} stages, checkpoint pins {}",
                    snapshot.stages, self.stages
                ));
            }
        }
        Ok(self
            .schedules
            .iter()
            .map(ScheduleSnapshot::restore)
            .collect())
    }
}

/// The checkpoint file name for a circuit (`<circuit>.ckpt.json`, with
/// path-hostile characters mapped to `_`).
pub fn checkpoint_file_name(circuit: &str) -> String {
    let safe: String = circuit
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}.ckpt.json")
}

/// Incremental checkpoint writer owned by one physical-design attempt:
/// the flow calls [`CheckpointWriter::write_fds`] and
/// [`CheckpointWriter::write_place`] as phases complete, each call
/// atomically replacing the single `<circuit>.ckpt.json` file with a
/// snapshot of everything decided so far.
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    checkpoint: Checkpoint,
}

impl CheckpointWriter {
    /// Creates a writer in `dir` (created if missing) for a fresh
    /// attempt description. Nothing is written until the first phase
    /// completes.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn new(dir: &Path, checkpoint: Checkpoint) -> Result<Self, CheckpointError> {
        std::fs::create_dir_all(dir).map_err(|e| CheckpointError::Io {
            path: dir.to_path_buf(),
            detail: e.to_string(),
        })?;
        let path = dir.join(checkpoint_file_name(&checkpoint.circuit));
        Ok(Self { path, checkpoint })
    }

    /// The checkpoint file this writer maintains.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn flush(&self) -> Result<(), CheckpointError> {
        nanomap_observe::failpoint::inject_io("checkpoint.write").map_err(|e| {
            CheckpointError::Io {
                path: self.path.clone(),
                detail: e.to_string(),
            }
        })?;
        atomic_write_text(&self.path, &self.checkpoint.to_json().to_pretty_string()).map_err(
            |e| CheckpointError::Io {
                path: self.path.clone(),
                detail: e.source.to_string(),
            },
        )?;
        nanomap_observe::publish(|| nanomap_observe::EventKind::Checkpoint {
            phase: self.checkpoint.phase().to_string(),
            path: self.path.display().to_string(),
        });
        Ok(())
    }

    /// Records FDS completion (schedules are already in the attempt
    /// description).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_fds(&mut self) -> Result<(), CheckpointError> {
        self.flush()
    }

    /// Records placement completion.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_place(&mut self, grid: Grid, pos_of: &[SmbPos]) -> Result<(), CheckpointError> {
        self.checkpoint.placement = Some(PlaceSnapshot::capture(grid, pos_of));
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanomap_netlist::TruthTable;

    fn tiny_net(tag: bool) -> LutNetwork {
        let mut net = LutNetwork::new("tiny");
        let ff = net.add_ff(SignalRef::Const(false), Some("t".into()));
        let inv = net.add_lut(TruthTable::inverter(), vec![SignalRef::Ff(ff)]);
        net.set_ff_input(ff, inv);
        net.add_output("q", SignalRef::Ff(ff));
        if tag {
            // A structurally different second output.
            net.add_output("q2", SignalRef::Const(true));
        }
        net
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            circuit: "fig1".into(),
            netlist_hash: 0xDEAD_BEEF_0BAD_F00D,
            objective: "min-at".into(),
            lut_inputs: 4,
            luts_per_le: 1,
            ffs_per_le: 2,
            num_reconf: 16,
            candidate_rank: 1,
            level: Some(2),
            stages: 6,
            sharing: PlaneSharing::Shared,
            remedy: Remedy::Reseed,
            schedules: vec![ScheduleSnapshot {
                stages: 6,
                stage_of: vec![0, 3, 5],
            }],
            recovery: RecoveryLog::default(),
            placement: Some(PlaceSnapshot {
                width: 2,
                height: 1,
                slots: vec![0, 1],
            }),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let ckpt = sample();
        let back = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(back, ckpt);
        // Serialization itself is deterministic.
        assert_eq!(
            ckpt.to_json().to_pretty_string(),
            back.to_json().to_pretty_string()
        );
    }

    #[test]
    fn place_snapshot_validates_bounds() {
        let good = sample().placement.unwrap();
        let grid = good.grid().unwrap();
        assert_eq!((grid.width, grid.height), (2, 1));
        let pos = [SmbPos::new(1, 0), SmbPos::new(0, 0)];
        assert_eq!(PlaceSnapshot::capture(grid, &pos).slots, vec![1, 0]);
        // Slot ranges are the adopter's to check; an empty grid is not.
        let empty = PlaceSnapshot { width: 0, ..good };
        assert!(matches!(
            empty.grid(),
            Err(CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn fingerprint_distinguishes_netlists_and_is_stable() {
        let a = netlist_fingerprint(&tiny_net(false));
        let b = netlist_fingerprint(&tiny_net(false));
        let c = netlist_fingerprint(&tiny_net(true));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn validate_rejects_wrong_netlist_objective_and_arch() {
        let net = tiny_net(false);
        let arch = ArchParams::paper();
        let mut ckpt = sample();
        ckpt.netlist_hash = netlist_fingerprint(&net);
        ckpt.lut_inputs = arch.lut_inputs;
        ckpt.luts_per_le = arch.luts_per_le;
        ckpt.ffs_per_le = arch.ffs_per_le;
        ckpt.num_reconf = arch.num_reconf;
        assert!(ckpt.validate(&net, "min-at", &arch).is_ok());
        assert!(matches!(
            ckpt.validate(&tiny_net(true), "min-at", &arch),
            Err(CheckpointError::Mismatch {
                what: "netlist",
                ..
            })
        ));
        assert!(ckpt.validate(&net, "min-delay", &arch).is_err());
        let other_arch = ArchParams {
            ffs_per_le: arch.ffs_per_le + 1,
            ..arch
        };
        assert!(ckpt.validate(&net, "min-at", &other_arch).is_err());
    }

    #[test]
    fn malformed_checkpoints_are_rejected_with_detail() {
        // `JsonValue::set` appends rather than replaces, so swap the
        // schema tag in the serialized form.
        let text = sample()
            .to_json()
            .to_compact_string()
            .replace(CHECKPOINT_SCHEMA, "nanomap-checkpoint-v9");
        let doc = nanomap_observe::json::parse(&text).expect("valid JSON");
        let e = Checkpoint::from_json(&doc).unwrap_err();
        assert!(e.to_string().contains("nanomap-checkpoint-v9"), "{e}");
    }

    #[test]
    fn writer_advances_phases_atomically() {
        let dir = std::env::temp_dir().join(format!("nanomap-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ckpt = sample();
        let placement = ckpt.placement.take().unwrap();
        let grid = placement.grid().unwrap();
        let pos: Vec<SmbPos> = placement
            .slots
            .iter()
            .map(|&s| grid.pos(s as usize))
            .collect();
        let mut writer = CheckpointWriter::new(&dir, ckpt).unwrap();
        writer.write_fds().unwrap();
        let fds = Checkpoint::load(writer.path()).unwrap();
        assert_eq!(fds.phase(), "fds");
        assert!(fds.placement.is_none());
        writer.write_place(grid, &pos).unwrap();
        let placed = Checkpoint::load(writer.path()).unwrap();
        assert_eq!(placed.phase(), "place");
        assert_eq!(placed.placement, Some(placement));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_name_is_sanitized() {
        assert_eq!(checkpoint_file_name("fig1"), "fig1.ckpt.json");
        assert_eq!(checkpoint_file_name("a/b c"), "a_b_c.ckpt.json");
    }
}
