//! One seeded harness over every artifact reader: the checkpoint, the
//! recovery log inside it, the ledger record, the `nanomapd-v1` request
//! and response lines, and the QoR and perf documents.
//!
//! Round trip: seeded random values go through their encoder, compact
//! text, `json::parse` and their reader, and must come back bit for bit
//! (the re-encoded text is identical). Mutation: every integer field of
//! every encoded artifact is replaced by a value just outside its type's
//! range, by `1.5` and by a string; each must be a typed error (a skipped
//! line for the ledger loader), never a panic and never a wrapped value.

use std::collections::BTreeMap;

use nanomap::checkpoint::{PlaceSnapshot, ScheduleSnapshot};
use nanomap::service::{render_error_result, render_lifecycle, render_ok_result};
use nanomap::{
    Checkpoint, DesignSource, Ledger, MapRequest, PerfDocument, PerfReport, PlaneSharing,
    QorDocument, QorReport, RecoveryAttempt, RecoveryLog, Remedy, Request, Response, RunRecord,
    SERVICE_SCHEMA,
};
use nanomap_observe::rng::XorShift64Star;
use nanomap_observe::{json, JsonValue};

/// Seeded cases per reader.
const CASES: u64 = 48;

const REMEDIES: [Remedy; 7] = [
    Remedy::Baseline,
    Remedy::Reseed,
    Remedy::WidenGrid,
    Remedy::WidenChannels,
    Remedy::NextCandidate,
    Remedy::ExactAssign,
    Remedy::AcceptDegraded,
];

// ---------------------------------------------------------------------
// Seeded values.
// ---------------------------------------------------------------------

struct Gen(XorShift64Star);

impl Gen {
    fn new(seed: u64) -> Self {
        Self(XorShift64Star::new(seed))
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.0.below(bound)
    }

    fn coin(&mut self) -> bool {
        self.0.next_bool()
    }

    fn u16(&mut self) -> u16 {
        self.0.next_u64() as u16
    }

    fn u32(&mut self) -> u32 {
        match self.below(4) {
            0 => u32::MAX,
            1 => self.below(16) as u32,
            _ => self.0.next_u64() as u32,
        }
    }

    fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => u64::MAX,
            1 => self.below(1_000),
            _ => self.0.next_u64(),
        }
    }

    fn i32(&mut self) -> i32 {
        match self.below(4) {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => self.0.next_u64() as i32,
        }
    }

    /// Any finite float but `-0.0` (see `negative_zero_reads_back_as_zero`),
    /// integral values and subnormals included.
    fn f64(&mut self) -> f64 {
        match self.below(6) {
            0 => 0.0,
            1 => self.below(1 << 20) as f64,
            2 => f64::MIN_POSITIVE / 3.0,
            _ => loop {
                let f = f64::from_bits(self.0.next_u64());
                if f.is_finite() && f.to_bits() != (-0.0f64).to_bits() {
                    break f;
                }
            },
        }
    }

    fn text(&mut self) -> String {
        const PIECES: [&str; 8] = ["a", "ex1", "\"", "\\", "\n", "\u{1}", "é", "☕"];
        (0..self.below(6))
            .map(|_| PIECES[self.0.index(PIECES.len())])
            .collect()
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.coin().then(|| f(self))
    }

    fn numbers(&mut self) -> BTreeMap<String, f64> {
        (0..self.below(5))
            .map(|i| (format!("m{i}.{}", self.text()), self.f64()))
            .collect()
    }

    fn recovery(&mut self) -> RecoveryLog {
        let attempts = (0..self.below(3))
            .map(|_| RecoveryAttempt {
                attempt: self.u32(),
                candidate: self.u64() as usize,
                folding_level: self.opt(Gen::u32),
                stages: self.u32(),
                remedy: REMEDIES[self.0.index(REMEDIES.len())],
                phase: ["place", "route", "exact-assign"][self.0.index(3)],
                error: self.text(),
                wall_us: self.u64(),
            })
            .collect();
        RecoveryLog {
            attempts,
            escalations: self.u32(),
            candidate_fallbacks: self.u32(),
            succeeded_with: self.opt(|g| REMEDIES[g.0.index(REMEDIES.len())]),
        }
    }

    fn checkpoint(&mut self) -> Checkpoint {
        let schedules = (0..self.below(3))
            .map(|_| {
                let stages = self.u32().max(1);
                let stage_of = (0..self.below(5))
                    .map(|_| self.below(u64::from(stages)) as u32)
                    .collect();
                ScheduleSnapshot { stages, stage_of }
            })
            .collect();
        Checkpoint {
            circuit: self.text(),
            netlist_hash: self.0.next_u64(),
            objective: self.text(),
            lut_inputs: self.u32(),
            luts_per_le: self.u32(),
            ffs_per_le: self.u32(),
            num_reconf: self.u32(),
            candidate_rank: self.u64() as usize,
            level: self.opt(Gen::u32),
            stages: self.u32(),
            sharing: if self.coin() {
                PlaneSharing::Shared
            } else {
                PlaneSharing::PerPlane
            },
            remedy: REMEDIES[self.0.index(REMEDIES.len())],
            schedules,
            recovery: self.recovery(),
            placement: self.opt(|g| PlaceSnapshot {
                width: g.u16(),
                height: g.u16(),
                slots: (0..g.below(5)).map(|_| g.u32()).collect(),
            }),
        }
    }

    fn run_record(&mut self) -> RunRecord {
        RunRecord {
            run_id: self.text(),
            circuit: self.text(),
            objective: self.text(),
            place_seed: self.u64(),
            route_seed: self.u64(),
            timestamp: self.u64(),
            exit_code: self.i32(),
            degradations: self.u64(),
            recovery_attempts: self.u64(),
            recovery_ms: self.f64(),
            peak_rss_kb: self.opt(Gen::u64),
            trace_id: self.opt(Gen::text),
            metrics: self.numbers(),
            phase_ms: self.numbers(),
        }
    }

    fn map_request(&mut self) -> MapRequest {
        MapRequest {
            id: self.text(),
            source: if self.coin() {
                DesignSource::Path(self.text())
            } else {
                DesignSource::Text {
                    format: self.text(),
                    text: self.text(),
                }
            },
            objective: self.text(),
            max_les: self.opt(Gen::u32),
            max_delay_ns: self.opt(Gen::f64),
            time_budget_ms: self.opt(Gen::u64),
            trace_id: self.opt(Gen::text),
        }
    }

    /// One response line as the daemon renders it.
    fn response_line(&mut self) -> String {
        match self.below(4) {
            0 => render_lifecycle(
                "queued",
                &self.text(),
                Some(self.u64()),
                self.opt(Gen::text).as_deref(),
            ),
            1 => render_error_result(
                &self.text(),
                &self.text(),
                &self.text(),
                self.opt(Gen::u64),
                self.opt(Gen::text).as_deref(),
            ),
            2 => render_ok_result(
                &self.text(),
                "00ff",
                "hit",
                "t1",
                &JsonValue::object()
                    .with("les", self.u64())
                    .to_compact_string(),
            ),
            _ => {
                let mut pong = JsonValue::object()
                    .with("schema", SERVICE_SCHEMA)
                    .with("event", "pong")
                    .with("inflight", self.u64())
                    .with("queued", self.u64())
                    .with("served", self.u64())
                    .with("uptime_ms", self.u64())
                    .with("version", self.text())
                    .with("draining", self.coin());
                if let Some(age) = self.opt(Gen::u64) {
                    pong.set("snapshot_age_ms", age);
                }
                pong.to_compact_string()
            }
        }
    }
}

// ---------------------------------------------------------------------
// Integer-field mutation.
// ---------------------------------------------------------------------

/// The integer type a field is read as.
#[derive(Clone, Copy)]
enum Int {
    U16,
    U32,
    U64,
    I32,
}

impl Int {
    /// Values just outside the type's range, then the mistyped ones.
    fn bad_values(self) -> Vec<JsonValue> {
        let out_of_range = match self {
            Int::U16 => vec![JsonValue::Int(-1), JsonValue::Int(1 << 16)],
            Int::U32 => vec![JsonValue::Int(-1), JsonValue::Int(1 << 32)],
            Int::U64 => vec![JsonValue::Int(-1), JsonValue::Int(1 << 64)],
            Int::I32 => vec![
                JsonValue::Int(i128::from(i32::MIN) - 1),
                JsonValue::Int(i128::from(i32::MAX) + 1),
            ],
        };
        let mistyped = [JsonValue::Float(1.5), JsonValue::from("7")];
        out_of_range.into_iter().chain(mistyped).collect()
    }
}

/// Every integer field of `doc` whose path matches one of `fields`
/// (`*` matches any array index), with the type it is read as.
fn integer_fields(doc: &JsonValue, fields: &[(&str, Int)]) -> Vec<(Vec<String>, Int)> {
    fn walk(
        value: &JsonValue,
        path: &mut Vec<String>,
        fields: &[(&str, Int)],
        out: &mut Vec<(Vec<String>, Int)>,
    ) {
        match value {
            JsonValue::Object(entries) => {
                for (key, child) in entries {
                    path.push(key.clone());
                    walk(child, path, fields, out);
                    path.pop();
                }
            }
            JsonValue::Array(items) => {
                for (i, child) in items.iter().enumerate() {
                    path.push(i.to_string());
                    walk(child, path, fields, out);
                    path.pop();
                }
            }
            JsonValue::Int(_) => {
                let pattern: Vec<&str> = path
                    .iter()
                    .map(|s| if s.parse::<usize>().is_ok() { "*" } else { s })
                    .collect();
                let pattern = pattern.join(".");
                if let Some(&(_, int)) = fields.iter().find(|(f, _)| *f == pattern) {
                    out.push((path.clone(), int));
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(doc, &mut Vec::new(), fields, &mut out);
    out
}

fn set_at(doc: &mut JsonValue, path: &[String], new: JsonValue) {
    let Some((head, rest)) = path.split_first() else {
        *doc = new;
        return;
    };
    let child = match doc {
        JsonValue::Object(entries) => &mut entries.iter_mut().find(|(k, _)| k == head).unwrap().1,
        JsonValue::Array(items) => &mut items[head.parse::<usize>().unwrap()],
        other => panic!("no field {head} in {other:?}"),
    };
    set_at(child, rest, new);
}

/// Mutates every listed integer field of `doc` to every bad value and
/// hands each mutated compact text to `rejects`, which must return true.
/// Returns how many mutations were checked.
fn mutate_integers(
    doc: &JsonValue,
    fields: &[(&str, Int)],
    rejects: impl Fn(&str) -> bool,
) -> usize {
    let mut checked = 0;
    for (path, int) in integer_fields(doc, fields) {
        for bad in int.bad_values() {
            let mut mutated = doc.clone();
            set_at(&mut mutated, &path, bad.clone());
            let text = mutated.to_compact_string();
            assert!(
                rejects(&text),
                "`{}` = {} was accepted: {text}",
                path.join("."),
                bad.to_compact_string()
            );
            checked += 1;
        }
    }
    checked
}

fn reparse(value: &JsonValue) -> JsonValue {
    json::parse(&value.to_compact_string()).expect("the encoder emits valid JSON")
}

// ---------------------------------------------------------------------
// The readers.
// ---------------------------------------------------------------------

const RECOVERY_FIELDS: [(&str, Int); 7] = [
    ("attempts.*.attempt", Int::U32),
    ("attempts.*.candidate", Int::U64),
    ("attempts.*.folding_level", Int::U32),
    ("attempts.*.stages", Int::U32),
    ("attempts.*.wall_us", Int::U64),
    ("escalations", Int::U32),
    ("candidate_fallbacks", Int::U32),
];

#[test]
fn recovery_log_round_trips_and_rejects_bad_integers() {
    let mut gen = Gen::new(1);
    let mut mutations = 0;
    for _ in 0..CASES {
        let log = gen.recovery();
        let encoded = log.to_json();
        let back = RecoveryLog::from_json(&reparse(&encoded)).expect("decodes");
        assert_eq!(back, log);
        assert_eq!(
            back.to_json().to_compact_string(),
            encoded.to_compact_string()
        );
        mutations += mutate_integers(&encoded, &RECOVERY_FIELDS, |text| {
            RecoveryLog::from_json(&json::parse(text).unwrap()).is_err()
        });
    }
    assert!(mutations > 100, "only {mutations} mutations");
}

#[test]
fn checkpoint_round_trips_and_rejects_bad_integers() {
    let mut fields = vec![
        ("arch.lut_inputs", Int::U32),
        ("arch.luts_per_le", Int::U32),
        ("arch.ffs_per_le", Int::U32),
        ("arch.num_reconf", Int::U32),
        ("candidate_rank", Int::U64),
        ("folding_level", Int::U32),
        ("stages", Int::U32),
        ("schedules.*.stages", Int::U32),
        ("schedules.*.stage_of.*", Int::U32),
        ("placement.width", Int::U16),
        ("placement.height", Int::U16),
        ("placement.slots.*", Int::U32),
    ];
    let nested: Vec<(String, Int)> = RECOVERY_FIELDS
        .iter()
        .map(|&(f, int)| (format!("recovery.{f}"), int))
        .collect();
    fields.extend(nested.iter().map(|(f, int)| (f.as_str(), *int)));
    let mut gen = Gen::new(2);
    let mut mutations = 0;
    for _ in 0..CASES {
        let checkpoint = gen.checkpoint();
        let encoded = checkpoint.to_json();
        let back = Checkpoint::from_json(&reparse(&encoded)).expect("decodes");
        assert_eq!(back, checkpoint);
        assert_eq!(
            back.to_json().to_compact_string(),
            encoded.to_compact_string()
        );
        mutations += mutate_integers(&encoded, &fields, |text| {
            matches!(
                Checkpoint::from_json(&json::parse(text).unwrap()),
                Err(nanomap::CheckpointError::Malformed { .. })
            )
        });
    }
    assert!(mutations > 500, "only {mutations} mutations");
}

#[test]
fn ledger_record_round_trips_and_bad_integers_are_skipped_lines() {
    let fields = [
        ("place_seed", Int::U64),
        ("route_seed", Int::U64),
        ("timestamp", Int::U64),
        ("exit_code", Int::I32),
        ("degradations", Int::U64),
        ("recovery_attempts", Int::U64),
        ("peak_rss_kb", Int::U64),
    ];
    let mut gen = Gen::new(3);
    let mut mutations = 0;
    for _ in 0..CASES {
        let record = gen.run_record();
        let line = record.to_json().to_compact_string();
        let ledger = Ledger::parse(&line);
        assert!(ledger.skipped_lines.is_empty(), "{line}");
        assert_eq!(ledger.records, vec![record.clone()]);
        assert_eq!(ledger.records[0].to_json().to_compact_string(), line);
        mutations += mutate_integers(&record.to_json(), &fields, |text| {
            let ledger = Ledger::parse(text);
            ledger.records.is_empty() && ledger.skipped_lines == vec![1]
        });
    }
    assert!(mutations > 200, "only {mutations} mutations");
}

#[test]
fn map_request_round_trips_and_rejects_bad_integers() {
    let fields = [("max_les", Int::U32), ("time_budget_ms", Int::U64)];
    let mut gen = Gen::new(4);
    let mut mutations = 0;
    for _ in 0..CASES {
        let request = gen.map_request();
        let wire = request.to_wire();
        let Ok(Request::Map(back)) = Request::parse(&wire) else {
            panic!("{wire} does not parse back");
        };
        assert_eq!(back.to_wire(), wire);
        assert_eq!(back, request);
        let doc = json::parse(&wire).unwrap();
        mutations += mutate_integers(&doc, &fields, |text| Request::parse(text).is_err());
    }
    assert!(mutations > 40, "only {mutations} mutations");
}

#[test]
fn response_lines_round_trip_and_reject_bad_integers() {
    let fields = [
        ("depth", Int::U64),
        ("retry_after_ms", Int::U64),
        ("inflight", Int::U64),
        ("queued", Int::U64),
        ("served", Int::U64),
        ("uptime_ms", Int::U64),
        ("snapshot_age_ms", Int::U64),
    ];
    let mut gen = Gen::new(5);
    let mut mutations = 0;
    for _ in 0..CASES {
        let line = gen.response_line();
        let doc = json::parse(&line).unwrap();
        let parsed = Response::parse(&line).expect("parses");
        // Every field the line carries comes back as written.
        let read = |key: &str| doc.opt::<u64>(key).expect("an unsigned integer");
        match parsed {
            Response::Queued { depth } => assert_eq!(Some(depth), read("depth")),
            Response::Pong {
                inflight,
                queued,
                served,
                uptime_ms,
                version,
                draining,
                snapshot_age_ms,
            } => {
                assert_eq!(Some(inflight), read("inflight"));
                assert_eq!(Some(queued), read("queued"));
                assert_eq!(Some(served), read("served"));
                assert_eq!(Some(uptime_ms), read("uptime_ms"));
                assert_eq!(snapshot_age_ms, read("snapshot_age_ms"));
                assert_eq!(Some(version.as_str()), doc.get("version").unwrap().as_str());
                assert_eq!(Some(draining), doc.get("draining").unwrap().as_bool());
            }
            Response::Result(result) => {
                assert_eq!(result.retry_after_ms, read("retry_after_ms"));
                assert_eq!(
                    Some(result.request.as_str()),
                    doc.get("request").unwrap().as_str()
                );
                assert_eq!(
                    result.trace_id.as_deref(),
                    doc.get("trace_id").and_then(JsonValue::as_str)
                );
                if result.ok {
                    let report = doc.get("report").unwrap().to_compact_string();
                    assert_eq!(result.report_text.as_deref(), Some(report.as_str()));
                } else {
                    assert_eq!(result.code.as_deref(), doc.get("code").unwrap().as_str());
                    assert_eq!(
                        result.detail.as_deref(),
                        doc.get("detail").unwrap().as_str()
                    );
                }
            }
            other => panic!("unexpected {other:?} from {line}"),
        }
        mutations += mutate_integers(&doc, &fields, |text| Response::parse(text).is_err());
    }
    assert!(mutations > 100, "only {mutations} mutations");
}

#[test]
fn qor_and_perf_documents_round_trip_and_reject_bad_fields() {
    let mut gen = Gen::new(6);
    let mut mutations = 0;
    for _ in 0..CASES {
        let qor = QorDocument::new(
            (0..gen.below(3))
                .map(|_| QorReport {
                    circuit: gen.text(),
                    metrics: gen.numbers(),
                    phase_times: gen.numbers(),
                })
                .collect(),
        );
        let text = qor.to_json().to_compact_string();
        let back = QorDocument::parse(&text).expect("decodes");
        assert_eq!(back.to_json().to_compact_string(), text);
        let perf = PerfDocument::new(
            (0..gen.below(3))
                .map(|_| PerfReport {
                    circuit: gen.text(),
                    runs: gen.u32(),
                    metrics: gen.numbers(),
                })
                .collect(),
        );
        let text = perf.to_json().to_compact_string();
        let back = PerfDocument::parse(&text).expect("decodes");
        assert_eq!(back.to_json().to_compact_string(), text);
        assert_eq!(back, perf);
        mutations += mutate_integers(&perf.to_json(), &[("circuits.*.runs", Int::U32)], |text| {
            PerfDocument::parse(text).is_err()
        });
    }
    assert!(mutations > 20, "only {mutations} mutations");
    // A metric that is not a number is an error naming it.
    let bad = r#"{"schema":"nanomap-qor-v1","circuits":[{"circuit":"c","metrics":{"les":"7"},"phase_times":{}}]}"#;
    let err = QorDocument::parse(bad).unwrap_err();
    assert!(err.contains("metrics.les"), "{err}");
}

/// The pinned cases of the issue this harness came with: each one a
/// wrapped or defaulted value before the shared reader.
#[test]
fn formerly_wrapped_integers_are_typed_errors() {
    for line in [
        r#"{"schema":"nanomapd-v1","op":"map","design_path":"d.vhd","max_les":4294967297}"#,
        r#"{"schema":"nanomapd-v1","op":"map","design_path":"d.vhd","max_les":-1}"#,
        r#"{"schema":"nanomapd-v1","op":"map","design_path":"d.vhd","time_budget_ms":-5}"#,
    ] {
        let err = Request::parse(line).unwrap_err();
        assert!(err.starts_with("field `"), "{err}");
    }
    let mut gen = Gen::new(7);
    let mut checkpoint = gen.checkpoint().to_json();
    set_at(
        &mut checkpoint,
        &["folding_level".into()],
        JsonValue::Int(-1),
    );
    let err = Checkpoint::from_json(&checkpoint).unwrap_err().to_string();
    assert!(err.contains("folding_level"), "{err}");
    let mut log = gen.recovery();
    log.attempts
        .push(log.attempts.first().cloned().unwrap_or(RecoveryAttempt {
            attempt: 1,
            candidate: 0,
            folding_level: None,
            stages: 2,
            remedy: Remedy::Reseed,
            phase: "place",
            error: String::new(),
            wall_us: 0,
        }));
    let mut encoded = log.to_json();
    let last = log.attempts.len() - 1;
    set_at(
        &mut encoded,
        &["attempts".into(), last.to_string(), "stages".into()],
        JsonValue::Int(-1),
    );
    let err = RecoveryLog::from_json(&encoded).unwrap_err();
    assert!(err.contains("stages"), "{err}");
}

/// A seed at or above 2^63 is written as the integer it is and read
/// back exactly, so the ledger keeps the run.
#[test]
fn huge_u64_seeds_round_trip_through_the_ledger() {
    let mut record = Gen::new(8).run_record();
    record.place_seed = u64::MAX;
    record.route_seed = 1 << 63;
    let line = record.to_json().to_compact_string();
    assert!(
        line.contains(&format!("\"place_seed\":{}", u64::MAX)),
        "{line}"
    );
    let ledger = Ledger::parse(&line);
    assert!(ledger.skipped_lines.is_empty());
    assert_eq!(ledger.records, vec![record]);
}

/// The emitter writes `-0.0` as `-0`, which the parser reads as the
/// integer 0 (pinned in `json_adversarial`): the sign of a zero metric
/// does not survive a round trip, and no other float loses a bit.
#[test]
fn negative_zero_reads_back_as_zero() {
    let report = QorReport {
        circuit: "c".into(),
        metrics: BTreeMap::from([("m".to_string(), -0.0)]),
        phase_times: BTreeMap::new(),
    };
    let text = QorDocument::new(vec![report]).to_json().to_compact_string();
    assert!(text.contains(r#""m":-0"#), "{text}");
    let back = QorDocument::parse(&text).unwrap();
    assert_eq!(back.reports[0].metrics["m"].to_bits(), 0.0f64.to_bits());
}
