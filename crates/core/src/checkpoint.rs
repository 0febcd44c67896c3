//! Crash-safe checkpoint/resume for the mapping flow.
//!
//! With a checkpoint directory configured, the flow serializes a
//! deterministic `nanomap-checkpoint-v1` snapshot after each completed
//! phase of the current physical-design attempt: FDS (the attempt's
//! candidate and its schedules), pack (the temporal clustering) and
//! place (the final SMB positions). Snapshots are written through
//! [`crate::artifact::atomic_write`], so a crash — even a SIGKILL mid
//! write — leaves either the previous complete checkpoint or the new
//! one, never a torn file.
//!
//! `nanomap --resume PATH` reloads the snapshot, verifies that the
//! netlist (by FNV-1a fingerprint), objective and architecture match,
//! and restarts the flow from the last completed phase: restored
//! schedules skip FDS, a restored packing skips clustering, a restored
//! placement is reconstructed bit-exactly (placement cost, routability
//! and delay are pure recomputations). Because placement and routing are
//! seeded deterministically, the resumed run reproduces the
//! uninterrupted run's `MappingReport` exactly.
//!
//! A checkpoint pins one folding candidate and one recovery-ladder rung;
//! resume restarts the ladder at that rung and climbs from there. It
//! does not re-enumerate earlier candidates (their rejection is already
//! recorded in the embedded recovery log).

// Checkpoints sit on the CLI's resume path: malformed or stale files
// must surface as typed errors, never panics.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use nanomap_arch::{ArchParams, Grid, SmbPos};
use nanomap_netlist::{FfId, LutId, LutNetwork, SignalRef};
use nanomap_observe::{json, Fnv1a, JsonValue};
use nanomap_pack::{Packing, Slice};
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

/// The last phase whose products the checkpoint holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckpointPhase {
    /// The attempt's candidate and its FDS schedules are recorded.
    Fds,
    /// Temporal clustering is done (packing snapshot present).
    Pack,
    /// Placement is done (packing + placement snapshots present).
    Place,
}

impl CheckpointPhase {
    /// Stable lowercase name for serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Fds => "fds",
            Self::Pack => "pack",
            Self::Place => "place",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        match name {
            "fds" => Some(Self::Fds),
            "pack" => Some(Self::Pack),
            "place" => Some(Self::Place),
            _ => None,
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

/// Frozen temporal clustering, with the `HashMap`s flattened into sorted
/// arrays for deterministic serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackSnapshot {
    /// SMB count.
    pub num_smbs: u32,
    /// `(lut, smb)` pairs, sorted by LUT id.
    pub lut_smb: Vec<(u32, u32)>,
    /// `(lut, le)` pairs, sorted by LUT id.
    pub lut_le: Vec<(u32, u32)>,
    /// `(producer lut, smb)` pairs for cross-cycle stored values.
    pub stored_smb: Vec<(u32, u32)>,
    /// `(ff, smb)` pairs, sorted by flip-flop id.
    pub ff_smb: Vec<(u32, u32)>,
    /// `(smb, plane, stage, count)` LUT occupancy entries.
    pub lut_occupancy: Vec<(u32, u32, u32, u32)>,
    /// `(smb, plane, stage, count)` flip-flop occupancy entries.
    pub ff_occupancy: Vec<(u32, u32, u32, u32)>,
}

impl PackSnapshot {
    /// Freezes a packing.
    pub fn capture(packing: &Packing) -> Self {
        fn id_map<K: Copy>(map: &HashMap<K, u32>, index: impl Fn(K) -> u32) -> Vec<(u32, u32)> {
            let mut v: Vec<(u32, u32)> = map.iter().map(|(&k, &s)| (index(k), s)).collect();
            v.sort_unstable();
            v
        }
        fn occ_map(map: &HashMap<(u32, Slice), u32>) -> Vec<(u32, u32, u32, u32)> {
            let mut v: Vec<(u32, u32, u32, u32)> = map
                .iter()
                .map(|(&(smb, slice), &n)| (smb, slice.plane as u32, slice.stage, n))
                .collect();
            v.sort_unstable();
            v
        }
        Self {
            num_smbs: packing.num_smbs,
            lut_smb: id_map(&packing.lut_smb, |l: LutId| l.0),
            lut_le: id_map(&packing.lut_le, |l: LutId| l.0),
            stored_smb: id_map(&packing.stored_smb, |l: LutId| l.0),
            ff_smb: id_map(&packing.ff_smb, |f: FfId| f.0),
            lut_occupancy: occ_map(&packing.lut_occupancy),
            ff_occupancy: occ_map(&packing.ff_occupancy),
        }
    }

    /// Rebuilds the packing.
    pub fn restore(&self) -> Packing {
        fn occ_map(entries: &[(u32, u32, u32, u32)]) -> HashMap<(u32, Slice), u32> {
            entries
                .iter()
                .map(|&(smb, plane, stage, n)| {
                    (
                        (
                            smb,
                            Slice {
                                plane: plane as usize,
                                stage,
                            },
                        ),
                        n,
                    )
                })
                .collect()
        }
        Packing {
            num_smbs: self.num_smbs,
            lut_smb: self.lut_smb.iter().map(|&(l, s)| (LutId(l), s)).collect(),
            lut_le: self.lut_le.iter().map(|&(l, s)| (LutId(l), s)).collect(),
            stored_smb: self
                .stored_smb
                .iter()
                .map(|&(l, s)| (LutId(l), s))
                .collect(),
            ff_smb: self.ff_smb.iter().map(|&(f, s)| (FfId(f), s)).collect(),
            lut_occupancy: occ_map(&self.lut_occupancy),
            ff_occupancy: occ_map(&self.ff_occupancy),
        }
    }
}

/// Frozen placement: the grid and every SMB's position. Cost,
/// routability and delay are recomputed on restore (they are pure
/// functions of the positions), so the snapshot stays small and exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaceSnapshot {
    /// Grid width.
    pub width: u16,
    /// Grid height.
    pub height: u16,
    /// `(x, y)` of every SMB, indexed by SMB id.
    pub pos: Vec<(u16, u16)>,
}

impl PlaceSnapshot {
    /// Freezes a placement's grid and positions.
    pub fn capture(grid: Grid, pos_of: &[SmbPos]) -> Self {
        Self {
            width: grid.width,
            height: grid.height,
            pos: pos_of.iter().map(|p| (p.x, p.y)).collect(),
        }
    }

    /// Rebuilds the grid and positions.
    ///
    /// # Errors
    ///
    /// Rejects an empty grid or out-of-grid positions.
    pub fn restore(&self) -> Result<(Grid, Vec<SmbPos>), CheckpointError> {
        if self.width == 0 || self.height == 0 {
            return Err(CheckpointError::Malformed {
                detail: format!("placement grid {}x{} is empty", self.width, self.height),
            });
        }
        for &(x, y) in &self.pos {
            if x >= self.width || y >= self.height {
                return Err(CheckpointError::Malformed {
                    detail: format!(
                        "SMB position ({x}, {y}) is outside the {}x{} grid",
                        self.width, self.height
                    ),
                });
            }
        }
        Ok((
            Grid::new(self.width, self.height),
            self.pos.iter().map(|&(x, y)| SmbPos::new(x, y)).collect(),
        ))
    }
}

/// A complete flow checkpoint: identity (netlist hash, objective,
/// architecture), the pinned candidate and ladder rung, the per-phase
/// products completed so far, and the recovery history.
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
    /// The last completed phase.
    pub phase: CheckpointPhase,
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
    /// Effective placement seed of the attempt (RNG state: annealing is
    /// a pure function of this seed and the inputs).
    pub place_seed: u64,
    /// Effective routing seed of the attempt.
    pub route_seed: u64,
    /// Per-plane FDS schedules of the candidate.
    pub schedules: Vec<ScheduleSnapshot>,
    /// Ladder history up to the checkpoint.
    pub recovery: RecoveryLog,
    /// Clustering products (phases `pack` and later).
    pub packing: Option<PackSnapshot>,
    /// Placement products (phase `place`).
    pub placement: Option<PlaceSnapshot>,
}

/// Hex form of a 64-bit value (JSON integers are `i64`; hashes and
/// derived seeds overflow them).
fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex64(s: &str, what: &str) -> Result<u64, CheckpointError> {
    u64::from_str_radix(s, 16).map_err(|e| CheckpointError::Malformed {
        detail: format!("`{what}` is not a 64-bit hex value: {e}"),
    })
}

fn pairs_to_json(pairs: &[(u32, u32)]) -> JsonValue {
    JsonValue::from(
        pairs
            .iter()
            .map(|&(a, b)| JsonValue::from(vec![JsonValue::from(a), JsonValue::from(b)]))
            .collect::<Vec<_>>(),
    )
}

fn quads_to_json(quads: &[(u32, u32, u32, u32)]) -> JsonValue {
    JsonValue::from(
        quads
            .iter()
            .map(|&(a, b, c, d)| {
                JsonValue::from(vec![
                    JsonValue::from(a),
                    JsonValue::from(b),
                    JsonValue::from(c),
                    JsonValue::from(d),
                ])
            })
            .collect::<Vec<_>>(),
    )
}

fn int_row(value: &JsonValue, arity: usize, what: &str) -> Result<Vec<u32>, CheckpointError> {
    let row = value.as_array().ok_or_else(|| CheckpointError::Malformed {
        detail: format!("`{what}` entry is not an array"),
    })?;
    if row.len() != arity {
        return Err(CheckpointError::Malformed {
            detail: format!("`{what}` entry has {} fields, expected {arity}", row.len()),
        });
    }
    row.iter()
        .map(|v| {
            v.as_int()
                .filter(|&i| i >= 0 && i <= i64::from(u32::MAX))
                .map(|i| i as u32)
                .ok_or_else(|| CheckpointError::Malformed {
                    detail: format!("`{what}` entry holds a non-u32 value"),
                })
        })
        .collect()
}

fn int_rows<T>(
    value: Option<&JsonValue>,
    what: &str,
    arity: usize,
    build: impl Fn(&[u32]) -> T,
) -> Result<Vec<T>, CheckpointError> {
    value
        .and_then(JsonValue::as_array)
        .ok_or_else(|| CheckpointError::Malformed {
            detail: format!("missing array `{what}`"),
        })?
        .iter()
        .map(|row| Ok(build(&int_row(row, arity, what)?)))
        .collect()
}

fn get_str<'a>(value: &'a JsonValue, field: &str) -> Result<&'a str, CheckpointError> {
    value
        .get(field)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| CheckpointError::Malformed {
            detail: format!("missing string `{field}`"),
        })
}

fn get_u32(value: &JsonValue, field: &str) -> Result<u32, CheckpointError> {
    value
        .get(field)
        .and_then(JsonValue::as_int)
        .filter(|&i| i >= 0 && i <= i64::from(u32::MAX))
        .map(|i| i as u32)
        .ok_or_else(|| CheckpointError::Malformed {
            detail: format!("missing u32 `{field}`"),
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
        let packing = self.packing.as_ref().map(|p| {
            JsonValue::object()
                .with("num_smbs", p.num_smbs)
                .with("lut_smb", pairs_to_json(&p.lut_smb))
                .with("lut_le", pairs_to_json(&p.lut_le))
                .with("stored_smb", pairs_to_json(&p.stored_smb))
                .with("ff_smb", pairs_to_json(&p.ff_smb))
                .with("lut_occupancy", quads_to_json(&p.lut_occupancy))
                .with("ff_occupancy", quads_to_json(&p.ff_occupancy))
        });
        let placement = self.placement.as_ref().map(|p| {
            JsonValue::object()
                .with("width", p.width)
                .with("height", p.height)
                .with(
                    "pos",
                    JsonValue::from(
                        p.pos
                            .iter()
                            .map(|&(x, y)| {
                                JsonValue::from(vec![JsonValue::from(x), JsonValue::from(y)])
                            })
                            .collect::<Vec<_>>(),
                    ),
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
            .with("phase", self.phase.as_str())
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
            .with("place_seed", hex64(self.place_seed))
            .with("route_seed", hex64(self.route_seed))
            .with("schedules", schedules)
            .with("recovery", self.recovery.to_json())
            .with("packing", packing)
            .with("placement", placement)
    }

    /// Parses a checkpoint from its JSON form.
    ///
    /// # Errors
    ///
    /// Rejects anything without the `nanomap-checkpoint-v1` schema tag,
    /// or with missing/ill-typed fields.
    pub fn from_json(value: &JsonValue) -> Result<Self, CheckpointError> {
        let schema = get_str(value, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Malformed {
                detail: format!("schema is `{schema}`, expected `{CHECKPOINT_SCHEMA}`"),
            });
        }
        let phase_name = get_str(value, "phase")?;
        let phase =
            CheckpointPhase::parse(phase_name).ok_or_else(|| CheckpointError::Malformed {
                detail: format!("unknown phase `{phase_name}`"),
            })?;
        let sharing = match get_str(value, "sharing")? {
            "shared" => PlaneSharing::Shared,
            "per-plane" => PlaneSharing::PerPlane,
            other => {
                return Err(CheckpointError::Malformed {
                    detail: format!("unknown sharing mode `{other}`"),
                })
            }
        };
        let remedy_name = get_str(value, "remedy")?;
        let remedy = Remedy::parse(remedy_name).ok_or_else(|| CheckpointError::Malformed {
            detail: format!("unknown remedy `{remedy_name}`"),
        })?;
        let arch = value
            .get("arch")
            .ok_or_else(|| CheckpointError::Malformed {
                detail: "missing object `arch`".into(),
            })?;
        let mut schedules = Vec::new();
        for s in value
            .get("schedules")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| CheckpointError::Malformed {
                detail: "missing array `schedules`".into(),
            })?
        {
            let stage_of = s
                .get("stage_of")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| CheckpointError::Malformed {
                    detail: "schedule missing array `stage_of`".into(),
                })?
                .iter()
                .map(|v| {
                    v.as_int()
                        .filter(|&i| i >= 0 && i <= i64::from(u32::MAX))
                        .map(|i| i as u32)
                        .ok_or_else(|| CheckpointError::Malformed {
                            detail: "`stage_of` holds a non-u32 value".into(),
                        })
                })
                .collect::<Result<Vec<u32>, _>>()?;
            let stages = get_u32(s, "stages")?;
            if let Some(&bad) = stage_of.iter().find(|&&st| st >= stages) {
                return Err(CheckpointError::Malformed {
                    detail: format!("schedule stage {bad} is outside 0..{stages}"),
                });
            }
            schedules.push(ScheduleSnapshot { stages, stage_of });
        }
        let recovery = value
            .get("recovery")
            .ok_or_else(|| CheckpointError::Malformed {
                detail: "missing object `recovery`".into(),
            })
            .and_then(|v| {
                RecoveryLog::from_json(v).map_err(|detail| CheckpointError::Malformed { detail })
            })?;
        let packing = match value.get("packing") {
            None | Some(JsonValue::Null) => None,
            Some(p) => Some(PackSnapshot {
                num_smbs: get_u32(p, "num_smbs")?,
                lut_smb: int_rows(p.get("lut_smb"), "lut_smb", 2, |r| (r[0], r[1]))?,
                lut_le: int_rows(p.get("lut_le"), "lut_le", 2, |r| (r[0], r[1]))?,
                stored_smb: int_rows(p.get("stored_smb"), "stored_smb", 2, |r| (r[0], r[1]))?,
                ff_smb: int_rows(p.get("ff_smb"), "ff_smb", 2, |r| (r[0], r[1]))?,
                lut_occupancy: int_rows(p.get("lut_occupancy"), "lut_occupancy", 4, |r| {
                    (r[0], r[1], r[2], r[3])
                })?,
                ff_occupancy: int_rows(p.get("ff_occupancy"), "ff_occupancy", 4, |r| {
                    (r[0], r[1], r[2], r[3])
                })?,
            }),
        };
        let placement = match value.get("placement") {
            None | Some(JsonValue::Null) => None,
            Some(p) => {
                let dim = |field: &str| -> Result<u16, CheckpointError> {
                    get_u32(p, field)?
                        .try_into()
                        .map_err(|_| CheckpointError::Malformed {
                            detail: format!("`{field}` exceeds u16"),
                        })
                };
                Some(PlaceSnapshot {
                    width: dim("width")?,
                    height: dim("height")?,
                    pos: int_rows(p.get("pos"), "pos", 2, |r| (r[0] as u16, r[1] as u16))?,
                })
            }
        };
        if phase >= CheckpointPhase::Pack && packing.is_none() {
            return Err(CheckpointError::Malformed {
                detail: format!("phase `{}` requires a packing snapshot", phase.as_str()),
            });
        }
        if phase >= CheckpointPhase::Place && placement.is_none() {
            return Err(CheckpointError::Malformed {
                detail: "phase `place` requires a placement snapshot".into(),
            });
        }
        Ok(Self {
            circuit: get_str(value, "circuit")?.to_string(),
            netlist_hash: parse_hex64(get_str(value, "netlist_hash")?, "netlist_hash")?,
            objective: get_str(value, "objective")?.to_string(),
            lut_inputs: get_u32(arch, "lut_inputs")?,
            luts_per_le: get_u32(arch, "luts_per_le")?,
            ffs_per_le: get_u32(arch, "ffs_per_le")?,
            num_reconf: get_u32(arch, "num_reconf")?,
            phase,
            candidate_rank: get_u32(value, "candidate_rank")? as usize,
            level: value
                .get("folding_level")
                .and_then(JsonValue::as_int)
                .map(|v| v as u32),
            stages: get_u32(value, "stages")?,
            sharing,
            remedy,
            place_seed: parse_hex64(get_str(value, "place_seed")?, "place_seed")?,
            route_seed: parse_hex64(get_str(value, "route_seed")?, "route_seed")?,
            schedules,
            recovery,
            packing,
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

    /// Restores the packing and placement snapshots, when present.
    ///
    /// # Errors
    ///
    /// Rejects a placement snapshot that does not describe a grid.
    pub(crate) fn restore_products(&self) -> Result<ResumeProducts, CheckpointError> {
        Ok(ResumeProducts {
            packing: self.packing.as_ref().map(PackSnapshot::restore),
            placement: self
                .placement
                .as_ref()
                .map(PlaceSnapshot::restore)
                .transpose()?,
        })
    }
}

/// Phase products restored from a checkpoint; a resumed attempt consumes
/// them instead of re-running the corresponding phases.
#[derive(Default)]
pub(crate) struct ResumeProducts {
    pub(crate) packing: Option<Packing>,
    pub(crate) placement: Option<(Grid, Vec<SmbPos>)>,
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
/// the flow calls [`CheckpointWriter::write_fds`] /
/// [`CheckpointWriter::write_pack`] / [`CheckpointWriter::write_place`]
/// as phases complete, each call atomically replacing the single
/// `<circuit>.ckpt.json` file with a snapshot of everything done so far.
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
            phase: self.checkpoint.phase.as_str().to_string(),
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
        self.checkpoint.phase = CheckpointPhase::Fds;
        self.checkpoint.packing = None;
        self.checkpoint.placement = None;
        self.flush()
    }

    /// Records clustering completion.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_pack(&mut self, packing: &Packing) -> Result<(), CheckpointError> {
        self.checkpoint.phase = CheckpointPhase::Pack;
        self.checkpoint.packing = Some(PackSnapshot::capture(packing));
        self.flush()
    }

    /// Records placement completion.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_place(&mut self, grid: Grid, pos_of: &[SmbPos]) -> Result<(), CheckpointError> {
        self.checkpoint.phase = CheckpointPhase::Place;
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
            phase: CheckpointPhase::Place,
            candidate_rank: 1,
            level: Some(2),
            stages: 6,
            sharing: PlaneSharing::Shared,
            remedy: Remedy::Reseed,
            place_seed: 0xFFFF_FFFF_FFFF_FFFF,
            route_seed: 1,
            schedules: vec![ScheduleSnapshot {
                stages: 6,
                stage_of: vec![0, 3, 5],
            }],
            recovery: RecoveryLog::default(),
            packing: Some(PackSnapshot {
                num_smbs: 2,
                lut_smb: vec![(0, 0), (1, 1)],
                lut_le: vec![(0, 3), (1, 0)],
                stored_smb: vec![(0, 1)],
                ff_smb: vec![(0, 0)],
                lut_occupancy: vec![(0, 0, 0, 2), (1, 0, 3, 1)],
                ff_occupancy: vec![(0, 0, 0, 1)],
            }),
            placement: Some(PlaceSnapshot {
                width: 2,
                height: 1,
                pos: vec![(0, 0), (1, 0)],
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
    fn pack_snapshot_round_trips_the_packing() {
        let packing = sample().packing.unwrap().restore();
        assert_eq!(PackSnapshot::capture(&packing), sample().packing.unwrap());
        assert_eq!(packing.lut_smb[&LutId(1)], 1);
        assert_eq!(packing.lut_occupancy[&(1, Slice { plane: 0, stage: 3 })], 1);
    }

    #[test]
    fn place_snapshot_validates_bounds() {
        let good = sample().placement.unwrap();
        let (grid, pos) = good.restore().unwrap();
        assert_eq!((grid.width, grid.height), (2, 1));
        assert_eq!(pos, vec![SmbPos::new(0, 0), SmbPos::new(1, 0)]);
        let bad = PlaceSnapshot {
            pos: vec![(5, 0)],
            ..good
        };
        assert!(matches!(
            bad.restore(),
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
        // A pack-phase checkpoint without a packing snapshot is invalid.
        let mut truncated = sample();
        truncated.phase = CheckpointPhase::Pack;
        truncated.packing = None;
        truncated.placement = None;
        assert!(Checkpoint::from_json(&truncated.to_json()).is_err());
    }

    #[test]
    fn writer_advances_phases_atomically() {
        let dir = std::env::temp_dir().join(format!("nanomap-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ckpt = sample();
        ckpt.phase = CheckpointPhase::Fds;
        let packing = ckpt.packing.take().unwrap().restore();
        let (grid, pos) = ckpt.placement.take().unwrap().restore().unwrap();
        let mut writer = CheckpointWriter::new(&dir, ckpt).unwrap();
        writer.write_fds().unwrap();
        let fds = Checkpoint::load(writer.path()).unwrap();
        assert_eq!(fds.phase, CheckpointPhase::Fds);
        assert!(fds.packing.is_none());
        writer.write_pack(&packing).unwrap();
        writer.write_place(grid, &pos).unwrap();
        let placed = Checkpoint::load(writer.path()).unwrap();
        assert_eq!(placed.phase, CheckpointPhase::Place);
        assert_eq!(placed.packing, Some(PackSnapshot::capture(&packing)));
        assert_eq!(placed.placement, Some(PlaceSnapshot::capture(grid, &pos)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_name_is_sanitized() {
        assert_eq!(checkpoint_file_name("fig1"), "fig1.ckpt.json");
        assert_eq!(checkpoint_file_name("a/b c"), "a_b_c.ckpt.json");
    }
}
