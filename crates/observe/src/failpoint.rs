//! Deterministic fault injection for chaos testing.
//!
//! A failpoint is a named site in production code (artifact writes,
//! checkpoint IO, cache loads, socket IO) where a test can ask for a
//! failure to be injected. The registry is **disarmed by default**: an
//! un-armed process pays exactly one relaxed atomic load per site and
//! takes no lock, so instrumented hot paths stay byte-for-byte
//! deterministic with a build that has no failpoints at all.
//!
//! Arming happens through the `NANOMAP_FAILPOINTS` environment variable
//! (read once, at first evaluation) or programmatically via [`arm`].
//! The configuration grammar is a `;`-separated list of
//! `name=mode` clauses:
//!
//! ```text
//! NANOMAP_FAILPOINTS="cache.write=once;ledger.append=nth:3;socket.read=prob:0.25"
//! ```
//!
//! Modes:
//!
//! | mode     | behavior                                                  |
//! |----------|-----------------------------------------------------------|
//! | `off`    | never fires                                               |
//! | `always` | fires on every evaluation                                 |
//! | `once`   | fires on the first evaluation only                        |
//! | `nth:N`  | fires on the N-th evaluation (1-based), once              |
//! | `prob:P` | fires with probability P, from a **seeded** PRNG          |
//!
//! `prob` draws from a per-failpoint [`XorShift64Star`]
//! seeded with `NANOMAP_FAILPOINT_SEED` (default 1) mixed with the
//! FNV-1a hash of the failpoint name, so a fixed seed reproduces the
//! exact same firing schedule on every run — chaos tests are replayable.
//!
//! Production code evaluates a site with [`should_fail`] (or the
//! convenience [`inject_io`], which returns a ready-made
//! `io::Error`):
//!
//! ```
//! use nanomap_observe::failpoint;
//!
//! fn write_entry() -> std::io::Result<()> {
//!     failpoint::inject_io("cache.write")?;
//!     // ... real write ...
//!     Ok(())
//! }
//! assert!(write_entry().is_ok()); // disarmed by default
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::hash::Fnv1a;
use crate::rng::XorShift64Star;

/// Environment variable holding the failpoint configuration string.
pub const FAILPOINTS_ENV: &str = "NANOMAP_FAILPOINTS";
/// Environment variable holding the deterministic seed for `prob:` modes.
pub const FAILPOINT_SEED_ENV: &str = "NANOMAP_FAILPOINT_SEED";

/// When a failpoint should fire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailMode {
    /// Never fires (explicitly disabled).
    Off,
    /// Fires on every evaluation.
    Always,
    /// Fires on the first evaluation only.
    Once,
    /// Fires on the N-th evaluation (1-based), exactly once.
    Nth(u64),
    /// Fires with the given probability from a seeded per-point PRNG.
    Prob(f64),
}

impl FailMode {
    /// Parses one mode clause (`off`, `always`, `once`, `nth:N`, `prob:P`).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed clause.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "off" => Ok(Self::Off),
            "always" => Ok(Self::Always),
            "once" => Ok(Self::Once),
            _ => {
                if let Some(n) = text.strip_prefix("nth:") {
                    let n: u64 = n.parse().map_err(|_| format!("bad nth count {n:?}"))?;
                    if n == 0 {
                        return Err("nth:0 is invalid (counts are 1-based)".into());
                    }
                    Ok(Self::Nth(n))
                } else if let Some(p) = text.strip_prefix("prob:") {
                    let p: f64 = p.parse().map_err(|_| format!("bad probability {p:?}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability {p} outside [0, 1]"));
                    }
                    Ok(Self::Prob(p))
                } else {
                    Err(format!("unknown failpoint mode {text:?}"))
                }
            }
        }
    }
}

/// One armed failpoint: its mode plus mutable firing state.
#[derive(Debug)]
struct FailPoint {
    mode: FailMode,
    evaluations: u64,
    fired: u64,
    rng: XorShift64Star,
}

impl FailPoint {
    fn new(name: &str, mode: FailMode, seed: u64) -> Self {
        Self {
            mode,
            evaluations: 0,
            fired: 0,
            // Mixing the name in makes two points armed with the same
            // global seed fire on independent schedules.
            rng: XorShift64Star::new(seed ^ Fnv1a::new().bytes(name.as_bytes()).finish()),
        }
    }

    fn evaluate(&mut self) -> bool {
        self.evaluations += 1;
        let fire = match self.mode {
            FailMode::Off => false,
            FailMode::Always => true,
            FailMode::Once => self.fired == 0,
            FailMode::Nth(n) => self.evaluations == n,
            FailMode::Prob(p) => self.rng.next_f64() < p,
        };
        if fire {
            self.fired += 1;
        }
        fire
    }
}

/// Fast-path flag: true iff at least one failpoint is armed. Checked
/// with a relaxed load before touching the registry mutex.
static ARMED: AtomicBool = AtomicBool::new(false);

static REGISTRY: OnceLock<Mutex<HashMap<String, FailPoint>>> = OnceLock::new();

fn registry() -> &'static Mutex<HashMap<String, FailPoint>> {
    REGISTRY.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var(FAILPOINTS_ENV) {
            let seed = std::env::var(FAILPOINT_SEED_ENV)
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(1);
            match parse_spec(&spec, seed) {
                Ok(points) => map = points,
                Err(err) => eprintln!("nanomap: ignoring malformed {FAILPOINTS_ENV}: {err}"),
            }
        }
        if !map.is_empty() {
            ARMED.store(true, Ordering::Relaxed);
        }
        Mutex::new(map)
    })
}

fn parse_spec(spec: &str, seed: u64) -> Result<HashMap<String, FailPoint>, String> {
    let mut map = HashMap::new();
    for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
        let (name, mode) = clause
            .split_once('=')
            .ok_or_else(|| format!("clause {clause:?} is not name=mode"))?;
        let (name, mode) = (name.trim(), FailMode::parse(mode.trim())?);
        map.insert(name.to_string(), FailPoint::new(name, mode, seed));
    }
    Ok(map)
}

/// Arms one failpoint programmatically (tests; production arms via env).
pub fn arm(name: &str, mode: FailMode) {
    arm_seeded(name, mode, 1);
}

/// Arms one failpoint with an explicit seed for `prob:` determinism.
pub fn arm_seeded(name: &str, mode: FailMode, seed: u64) {
    let mut map = registry().lock().unwrap();
    map.insert(name.to_string(), FailPoint::new(name, mode, seed));
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms every failpoint and restores the zero-cost fast path.
pub fn disarm_all() {
    if let Some(lock) = REGISTRY.get() {
        lock.lock().unwrap().clear();
    }
    ARMED.store(false, Ordering::Relaxed);
}

/// True iff any failpoint is currently armed (one relaxed load).
#[must_use]
pub fn armed() -> bool {
    // Force the env-var read on first call so `NANOMAP_FAILPOINTS` set
    // before spawn is honored even if no site evaluated yet.
    if ARMED.load(Ordering::Relaxed) {
        return true;
    }
    if REGISTRY.get().is_none() {
        let _ = registry();
        return ARMED.load(Ordering::Relaxed);
    }
    false
}

/// Evaluates the named failpoint; returns true when the caller should
/// inject its failure. Disarmed cost: one relaxed atomic load.
#[must_use]
pub fn should_fail(name: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        // First evaluation anywhere also initializes from the env.
        if REGISTRY.get().is_some() {
            return false;
        }
        let _ = registry();
        if !ARMED.load(Ordering::Relaxed) {
            return false;
        }
    }
    match registry().lock().unwrap().get_mut(name) {
        Some(point) => point.evaluate(),
        None => false,
    }
}

/// Evaluates the failpoint and returns a synthetic `io::Error` when it
/// fires — the common shape for IO-layer sites (`inject_io("x")?;`).
///
/// # Errors
///
/// Returns `io::ErrorKind::Other` tagged with the failpoint name when
/// the armed site fires.
pub fn inject_io(name: &str) -> std::io::Result<()> {
    if should_fail(name) {
        return Err(std::io::Error::other(format!(
            "failpoint {name} injected failure"
        )));
    }
    Ok(())
}

/// How often a failpoint evaluated and fired (`None` if never armed).
#[must_use]
pub fn stats(name: &str) -> Option<(u64, u64)> {
    let lock = REGISTRY.get()?;
    let map = lock.lock().unwrap();
    map.get(name).map(|p| (p.evaluations, p.fired))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so each test uses unique names
    // and the suite never calls `disarm_all` concurrently with others.

    /// A fixed `NANOMAP_FAILPOINT_SEED` must keep reproducing the same
    /// firing schedule, so the name-into-seed mix is pinned.
    #[test]
    fn seed_mix_is_pinned() {
        let point = FailPoint::new("route.pathfinder", FailMode::Always, 0);
        assert_eq!(point.rng, XorShift64Star::new(0xc998_5ef3_e8f3_d46b));
        let point = FailPoint::new("route.pathfinder", FailMode::Always, 5);
        assert_eq!(point.rng, XorShift64Star::new(0xc998_5ef3_e8f3_d46b ^ 5));
    }

    #[test]
    fn disarmed_points_never_fire() {
        assert!(!should_fail("test.never-armed"));
        assert!(inject_io("test.never-armed-io").is_ok());
    }

    #[test]
    fn once_fires_exactly_once() {
        arm("test.once", FailMode::Once);
        assert!(should_fail("test.once"));
        assert!(!should_fail("test.once"));
        assert!(!should_fail("test.once"));
        assert_eq!(stats("test.once"), Some((3, 1)));
    }

    #[test]
    fn nth_fires_on_the_nth_evaluation() {
        arm("test.nth", FailMode::Nth(3));
        assert!(!should_fail("test.nth"));
        assert!(!should_fail("test.nth"));
        assert!(should_fail("test.nth"));
        assert!(!should_fail("test.nth"));
    }

    #[test]
    fn prob_schedule_is_deterministic_per_seed() {
        let schedule = |seed| {
            arm_seeded("test.prob", FailMode::Prob(0.5), seed);
            (0..64)
                .map(|_| should_fail("test.prob"))
                .collect::<Vec<_>>()
        };
        let a = schedule(42);
        let b = schedule(42);
        let c = schedule(43);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.iter().any(|&f| f) && !a.iter().all(|&f| f));
    }

    #[test]
    fn spec_grammar_parses_and_rejects() {
        let map = parse_spec("a=once; b = nth:2 ;c=prob:0.25", 7).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(map["b"].mode, FailMode::Nth(2));
        assert!(parse_spec("a", 7).is_err());
        assert!(parse_spec("a=nth:0", 7).is_err());
        assert!(parse_spec("a=prob:1.5", 7).is_err());
        assert!(parse_spec("a=sometimes", 7).is_err());
    }

    #[test]
    fn inject_io_error_names_the_point() {
        arm("test.io", FailMode::Always);
        let err = inject_io("test.io").unwrap_err();
        assert!(err.to_string().contains("test.io"));
    }
}
