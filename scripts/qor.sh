#!/usr/bin/env bash
# QoR regression gate: regenerate quality-of-results snapshots for the
# paper benchmarks (full physical flow) and the accumulator CLI design,
# then diff them against the committed baselines in results/qor/.
#
#   scripts/qor.sh            run the gate (non-zero exit on regression)
#   scripts/qor.sh --rebase   regenerate and commit-ready the baselines
#
# Fresh snapshots land at the repo root (BENCH_qor.json, ACCUM_qor.json,
# ACCUM_qor0.json; all gitignored) so a failing run leaves the evidence
# behind. The final leg re-runs the accumulator with an explicit
# `--defect-rate 0` and diffs with `--exact`: the defect layer must be a
# strict no-op on a clean fabric, bit for bit.
#
# The explain-smoke leg runs `nanomap explain` on two paper benchmarks,
# validates each artifact with `nanomap explain --check` (per-hop delay
# sums, the delay identity, congestion/usage reconciliation), and
# requires a second run to be byte-identical.
#
# The timeout-smoke leg maps under a 50 ms budget with --anytime: the run
# must degrade gracefully (exit 0 or 4, never a hang or panic) and still
# emit a parseable QoR artifact. The kill-and-resume leg SIGKILLs a run
# mid-flight, then resumes from the crash-safe checkpoint and requires
# the explain artifact to match the uninterrupted baseline byte for byte;
# a defective-fabric run that climbs the recovery ladder must resume to
# the same bytes too.
#
# The perf leg re-measures the paper suite (bench `perf` bin, 3 runs)
# and gates phase medians against the committed BENCH_perf.json with
# `nanomap perf-diff`. Thresholds are deliberately loose (2x relative
# AND 25 ms absolute must both be exceeded) — this catches order-of-
# magnitude regressions, not machine noise. `--rebase` also refreshes
# the committed perf baseline (the repo-root BENCH_perf.json, 5 runs).
#
# The runs-smoke leg exercises the structured event bus end to end: two
# accumulator runs stream `--live-status` NDJSON (to a file and to
# stdout) that `nanomap runs check-stream` must validate, every mapping
# appends to the flight-recorder ledger at results/runs/ledger.jsonl,
# and `nanomap runs list/trend/regress` must aggregate the history.
#
# The failpoints leg proves the fault-injection registry costs nothing
# disarmed (an explicitly-empty NANOMAP_FAILPOINTS run is bit-identical
# to the baseline) and fails typed when armed (artifact.write=always →
# exit 1, no torn artifact). The kill-and-resume leg additionally feeds
# `--resume` a torn checkpoint: strict mode must fail typed, `--anytime`
# must fall back to a fresh run matching the uninterrupted artifact.
#
# The yield-deep leg drives a hopeless high-defect fabric through the
# exact SAT recovery rung under a time budget: the run must exit 5
# (typed infeasibility proof naming the dominant defect class), never
# hang or fall back to the untyped recovery-exhausted error. A second
# pair of runs asserts `--exact-recovery` determinism: same seed, same
# fabric => byte-identical QoR artifacts under `qor-diff --exact`.
#
# The daemon leg boots `nanomapd`, proves repeat submissions replay from
# the crash-safe cache byte for byte, SIGKILLs the daemon and requires
# the restarted instance to serve the same bytes from disk, checks the
# ledger recorded exactly the computed run, and finishes with a SIGTERM
# drain that must exit 0.
#
# The stats-smoke leg (inside the daemon leg, against the restarted
# instance) submits a traced request, validates the `stats` op's
# nanomapd-stats-v1 document (schema + histogram/counter
# reconciliation), requires `nanomap top --once` to stay EPIPE-safe
# under `| head`, and reconstructs the traced request's timeline with
# `nanomap runs show --trace` from the daemon's --events capture.
set -euo pipefail
cd "$(dirname "$0")/.."

REBASE=0
if [[ "${1:-}" == "--rebase" ]]; then
  REBASE=1
fi

echo "==> build (release)"
cargo build --release -p nanomap -p nanomap-bench -p nanomap-daemon

echo "==> bench QoR: full physical flow over the Table 1 circuits"
./target/release/qor --out BENCH_qor.json --explain-dir EXPLAIN_qor

echo "==> accumulator QoR via the nanomap CLI"
./target/release/nanomap designs/accumulator.vhd --qor ACCUM_qor.json >/dev/null

if [[ $REBASE -eq 1 ]]; then
  mkdir -p results/qor
  cp BENCH_qor.json results/qor/bench.json
  cp ACCUM_qor.json results/qor/accumulator.json
  echo "==> perf baselines: 5-run sweep of the paper suite"
  ./target/release/perf --runs 5 --out BENCH_perf.json
  echo "baselines rebased -> results/qor/{bench,accumulator}.json and BENCH_perf.json"
  echo "review the diff and commit them with the change that moved the numbers"
else
  echo "==> gate: bench circuits"
  ./target/release/nanomap qor-diff results/qor/bench.json BENCH_qor.json
  echo "==> gate: accumulator"
  ./target/release/nanomap qor-diff results/qor/accumulator.json ACCUM_qor.json
  echo "==> gate: determinism (explicit --defect-rate 0 is bit-identical)"
  ./target/release/nanomap designs/accumulator.vhd --defect-rate 0 \
    --qor ACCUM_qor0.json >/dev/null
  ./target/release/nanomap qor-diff --exact results/qor/accumulator.json ACCUM_qor0.json
  echo "==> gate: explain smoke (artifact invariants on two paper benchmarks)"
  for circuit in ex1 FIR; do
    ./target/release/nanomap explain --check "EXPLAIN_qor/$circuit.explain.json"
  done
  echo "==> gate: explain determinism (second sweep is byte-identical)"
  rm -rf results/runs
  ./target/release/qor --out BENCH_qor2.json --explain-dir EXPLAIN_qor2 \
    --ledger results/runs/ledger.jsonl 2>/dev/null
  for circuit in ex1 FIR; do
    cmp "EXPLAIN_qor/$circuit.explain.json" "EXPLAIN_qor2/$circuit.explain.json"
  done
  ./target/release/nanomap explain designs/accumulator.vhd \
    --out ACCUM_explain.json >/dev/null
  ./target/release/nanomap explain --check ACCUM_explain.json
  echo "==> gate: timeout smoke (50 ms budget degrades gracefully)"
  set +e
  ./target/release/nanomap designs/accumulator.vhd --time-budget-ms 50 --anytime \
    --qor TIMEOUT_qor.json >/dev/null 2>&1
  status=$?
  set -e
  if [[ $status -ne 0 && $status -ne 4 ]]; then
    echo "timeout smoke: expected exit 0 (clean) or 4 (degraded), got $status" >&2
    exit 1
  fi
  # Atomic sinks: the artifact is complete, valid JSON or absent — a
  # self-diff parses it through the same reader the gate uses.
  ./target/release/nanomap qor-diff TIMEOUT_qor.json TIMEOUT_qor.json >/dev/null
  echo "==> gate: kill-and-resume (checkpoint reproduces the uninterrupted run)"
  rm -rf CKPT_resume
  ./target/release/nanomap designs/accumulator.vhd --checkpoint-dir CKPT_resume \
    --explain BASE_explain.json >/dev/null
  # Simulate a crash: SIGKILL a fresh run mid-flight. Atomic writes mean
  # the checkpoint left behind is a complete earlier-phase snapshot,
  # never a truncated file.
  ./target/release/nanomap designs/accumulator.vhd --checkpoint-dir CKPT_resume \
    --explain KILLED_explain.json >/dev/null 2>&1 &
  victim=$!
  kill -9 "$victim" 2>/dev/null || true
  wait "$victim" 2>/dev/null || true
  ./target/release/nanomap designs/accumulator.vhd \
    --resume CKPT_resume/accumulator.ckpt.json --explain RESUME_explain.json >/dev/null
  cmp BASE_explain.json RESUME_explain.json
  # Torn checkpoint: strict --resume must fail with a typed error (never
  # a panic), and --anytime must fall back to a fresh run that still
  # reproduces the uninterrupted artifact.
  head -c 64 CKPT_resume/accumulator.ckpt.json > CKPT_torn.json
  set +e
  ./target/release/nanomap designs/accumulator.vhd \
    --resume CKPT_torn.json >/dev/null 2>TORN_err.log
  torn_status=$?
  set -e
  if [[ $torn_status -eq 0 || $torn_status -gt 4 ]]; then
    echo "torn resume: expected a typed failure (1-4), got $torn_status" >&2
    cat TORN_err.log >&2
    exit 1
  fi
  ./target/release/nanomap designs/accumulator.vhd --resume CKPT_torn.json \
    --anytime --explain TORN_resume_explain.json >/dev/null 2>&1
  cmp BASE_explain.json TORN_resume_explain.json
  # Defective fabric: the ladder fails 12 attempts over 4 candidates, so
  # the final checkpoint pins a fallback candidate and carries a
  # recovery log; resuming it must reproduce the run byte for byte.
  rm -rf CKPT_defect
  ./target/release/nanomap designs/accumulator.vhd --defect-rate 0.3 --defect-seed 1 \
    --checkpoint-dir CKPT_defect --explain BASE_defect_explain.json >/dev/null
  ./target/release/nanomap designs/accumulator.vhd --defect-rate 0.3 --defect-seed 1 \
    --resume CKPT_defect/accumulator.ckpt.json \
    --explain RESUME_defect_explain.json >/dev/null
  cmp BASE_defect_explain.json RESUME_defect_explain.json
  echo "==> gate: perf (phase medians vs BENCH_perf.json)"
  ./target/release/perf --runs 3 --out BENCH_perf_new.json --profile-dir PERF_prof
  ./target/release/nanomap perf-diff --rel 2.0 --abs-ms 25 \
    BENCH_perf.json BENCH_perf_new.json
  echo "==> gate: runs smoke (live NDJSON stream + flight-recorder ledger)"
  # Stream to a file; the capture must parse, nest, and end in run-end.
  ./target/release/nanomap designs/accumulator.vhd \
    --live-status RUNS_events.ndjson --ledger results/runs/ledger.jsonl \
    >/dev/null
  ./target/release/nanomap runs check-stream RUNS_events.ndjson
  # Stream to stdout: `-` keeps stdout pure NDJSON (report on stderr),
  # so the live protocol composes with pipes.
  ./target/release/nanomap designs/accumulator.vhd --live-status - \
    --ledger results/runs/ledger.jsonl 2>/dev/null >RUNS_events_stdout.ndjson
  ./target/release/nanomap runs check-stream RUNS_events_stdout.ndjson
  # The ledger now holds the paper suite (appended by the explain
  # determinism sweep) plus two accumulator runs: the history tooling
  # must aggregate it.
  ./target/release/nanomap runs --ledger results/runs/ledger.jsonl list
  ./target/release/nanomap runs --ledger results/runs/ledger.jsonl trend
  ./target/release/nanomap runs --ledger results/runs/ledger.jsonl regress
  echo "==> gate: failpoints (disarmed = zero drift, armed = typed failure)"
  # The fault-injection registry must be a strict no-op when disarmed:
  # an explicitly-empty NANOMAP_FAILPOINTS run is bit-identical to the
  # committed baseline.
  NANOMAP_FAILPOINTS="" ./target/release/nanomap designs/accumulator.vhd \
    --defect-rate 0 --qor FP_disarmed_qor.json >/dev/null
  ./target/release/nanomap qor-diff --exact results/qor/accumulator.json \
    FP_disarmed_qor.json
  # Armed, the same binary fails the artifact write with a typed error —
  # exit 1, no panic, and the atomic sink leaves no torn file behind.
  set +e
  NANOMAP_FAILPOINTS="artifact.write=always" ./target/release/nanomap \
    designs/accumulator.vhd --qor FP_armed_qor.json >/dev/null 2>FP_err.log
  fp_status=$?
  set -e
  if [[ $fp_status -ne 1 ]]; then
    echo "armed failpoint: expected exit 1, got $fp_status" >&2
    cat FP_err.log >&2
    exit 1
  fi
  if [[ -e FP_armed_qor.json ]]; then
    echo "armed failpoint: torn artifact FP_armed_qor.json left behind" >&2
    exit 1
  fi
  echo "==> gate: yield-deep (exact rung proves infeasibility, typed exit 5)"
  set +e
  ./target/release/nanomap designs/accumulator.vhd --defect-rate 1.0 \
    --exact-recovery --time-budget-ms 10000 >/dev/null 2>YIELD_deep_err.log
  deep_status=$?
  set -e
  if [[ $deep_status -ne 5 ]]; then
    echo "yield-deep: expected exit 5 (proven infeasible), got $deep_status" >&2
    cat YIELD_deep_err.log >&2
    exit 1
  fi
  grep -q 'infeasibility proof' YIELD_deep_err.log
  echo "==> gate: exact-recovery determinism (same seed is byte-identical)"
  ./target/release/nanomap designs/accumulator.vhd --defect-rate 0.2 \
    --defect-seed 1 --exact-recovery --qor EXACT_a_qor.json >/dev/null
  ./target/release/nanomap designs/accumulator.vhd --defect-rate 0.2 \
    --defect-seed 1 --exact-recovery --qor EXACT_b_qor.json >/dev/null
  ./target/release/nanomap qor-diff --exact EXACT_a_qor.json EXACT_b_qor.json
  echo "==> gate: daemon (cache replay, kill -9 survival, graceful drain)"
  rm -rf DAEMON_state DAEMON_ledger.jsonl nanomapd-stats.json
  start_daemon() {
    : > DAEMON_out.log
    ./target/release/nanomapd --addr 127.0.0.1:0 --state-dir DAEMON_state \
      --ledger DAEMON_ledger.jsonl "$@" > DAEMON_out.log 2>DAEMON_err.log &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
      grep -q 'listening on' DAEMON_out.log && break
      sleep 0.1
    done
    DAEMON_ADDR=$(sed -n 's/.*listening on //p' DAEMON_out.log | head -1)
    if [[ -z "$DAEMON_ADDR" ]]; then
      echo "nanomapd did not announce an address" >&2
      cat DAEMON_err.log >&2
      exit 1
    fi
  }
  start_daemon
  ./target/release/nanomap submit designs/accumulator.vhd \
    --addr "$DAEMON_ADDR" --report DAEMON_first.json 2>/dev/null
  ./target/release/nanomap submit designs/accumulator.vhd \
    --addr "$DAEMON_ADDR" --report DAEMON_hit.json 2>/dev/null
  cmp DAEMON_first.json DAEMON_hit.json
  # kill -9: no drain, no cleanup. Durable state must survive intact.
  kill -9 "$DAEMON_PID" 2>/dev/null || true
  wait "$DAEMON_PID" 2>/dev/null || true
  start_daemon --events DAEMON_events.ndjson --stats-interval-ms 200
  ./target/release/nanomap submit designs/accumulator.vhd \
    --addr "$DAEMON_ADDR" --report DAEMON_replay.json 2>DAEMON_replay.log
  cmp DAEMON_first.json DAEMON_replay.json
  grep -q 'cache hit' DAEMON_replay.log
  # Exactly one computed run reached the ledger (hits are replays), and
  # the history tooling reads it like any CLI traffic.
  [[ $(wc -l < DAEMON_ledger.jsonl) -eq 1 ]]
  ./target/release/nanomap runs --ledger DAEMON_ledger.jsonl list >/dev/null
  echo "==> gate: stats smoke (stats op, nanomap top, trace reconstruction)"
  # A traced submit under a fresh objective: a cache miss, so the trace
  # id must reach the ledger record as well as the service events. The
  # client echoes the propagated id on stderr.
  ./target/release/nanomap submit designs/accumulator.vhd \
    --addr "$DAEMON_ADDR" --objective delay --trace-id feedfacecafebeef \
    --report DAEMON_traced.json 2>DAEMON_traced.log
  grep -q 'trace feedfacecafebeef' DAEMON_traced.log
  # `top --once` emits one nanomapd-stats-v1 line; the histogram counts
  # must reconcile exactly with the lifetime counters.
  ./target/release/nanomap top --addr "$DAEMON_ADDR" --once > DAEMON_stats.json
  python3 - <<'PYEOF'
import json
doc = json.load(open('DAEMON_stats.json'))
assert doc['schema'] == 'nanomapd-stats-v1', doc['schema']
c, lat = doc['counters'], doc['latency_us']
assert lat['ok']['count'] == c['served'], (lat, c)
assert lat['shed']['count'] + lat['shutdown']['count'] == c['shed'], (lat, c)
assert lat['panic']['count'] == c['panics'], (lat, c)
assert (lat['invalid']['count'] + lat['budget']['count']
        + lat['failed']['count']) == c['failures'], (lat, c)
assert c['served'] >= 2 and c['cache_hits'] >= 1, c
for seg in ('queue', 'compute', 'cache', 'serialize'):
    assert seg in doc['segments_us'], doc['segments_us']
for field in ('uptime_ms', 'version', 'draining', 'gauges'):
    assert field in doc, field
print('stats smoke: schema + reconciliation OK')
PYEOF
  # `top --once | head` must stay EPIPE-safe: exit 0 on a closed pipe.
  ./target/release/nanomap top --addr "$DAEMON_ADDR" --once | head -c 64 >/dev/null
  # The ticker persisted a crash-safe snapshot next to the ledger (one
  # cadence of slack for the first tick), and the events capture had
  # time to drain.
  sleep 0.5
  grep -q 'nanomapd-stats-v1' nanomapd-stats.json
  # Trace reconstruction: the --events capture and the ledger agree.
  ./target/release/nanomap runs show --trace feedfacecafebeef \
    --events DAEMON_events.ndjson --ledger DAEMON_ledger.jsonl > DAEMON_trace.log
  grep -q 'completed' DAEMON_trace.log
  grep -q 'feedfacecafebeef' DAEMON_trace.log
  # SIGTERM with nothing in flight: clean drain, exit 0.
  kill -TERM "$DAEMON_PID"
  set +e
  wait "$DAEMON_PID"
  drain_status=$?
  set -e
  if [[ $drain_status -ne 0 ]]; then
    echo "nanomapd drain: expected exit 0, got $drain_status" >&2
    cat DAEMON_err.log >&2
    exit 1
  fi
  echo "QoR gate passed."
fi
