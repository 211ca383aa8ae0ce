#!/bin/sh
# End-to-end test of `qirkit serve` / `qirkit submit`. Run by ctest with
# the build dir as $1. Exercises: daemon startup, two tenants submitting
# concurrently, histograms byte-identical to single-process `qirkit run`,
# a cross-request program-store hit visible in the metrics document,
# program_ref resubmission, the exit-code contract for structured errors,
# a clean drain-and-exit shutdown, and the admission drills (a declared
# width that binds, a rate limit that loads nothing, a queue TTL).
set -e
QIRKIT="$1/tools/qirkit"
WORK="$(mktemp -d)"
SOCK="$WORK/serve.sock"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "SERVE TEST FAILED: $1" >&2; exit 1; }

cat > "$WORK/bell.qasm" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0], q[1];
measure q -> c;
EOF

cat > "$WORK/ghz.qasm" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0], q[1];
cx q[1], q[2];
measure q -> c;
EOF

# -- startup ---------------------------------------------------------------
"$QIRKIT" serve "$SOCK" --runners 2 --jobs 2 2> "$WORK/serve.log" &
SERVE_PID=$!
for i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || fail "daemon did not create the socket"
"$QIRKIT" submit ping --socket "$SOCK" | grep -q '"type":"pong"' \
  || fail "ping"

# -- two tenants, concurrently; histograms must match `qirkit run` ---------
"$QIRKIT" run "$WORK/bell.qasm" --shots 60 --seed 7 2>/dev/null \
  > "$WORK/bell.expected"
"$QIRKIT" run "$WORK/ghz.qasm" --shots 40 --seed 3 2>/dev/null \
  > "$WORK/ghz.expected"

"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK" --tenant alice \
  --shots 60 --seed 7 2>/dev/null > "$WORK/bell.alice" &
A=$!
"$QIRKIT" submit "$WORK/ghz.qasm" --socket "$SOCK" --tenant bob \
  --shots 40 --seed 3 2>/dev/null > "$WORK/ghz.bob" &
B=$!
wait $A || fail "alice submit"
wait $B || fail "bob submit"
cmp -s "$WORK/bell.alice" "$WORK/bell.expected" \
  || fail "served bell histogram differs from qirkit run"
cmp -s "$WORK/ghz.bob" "$WORK/ghz.expected" \
  || fail "served ghz histogram differs from qirkit run"

# -- cross-request cache reuse: same program again, different tenant -------
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK" --tenant bob \
  --shots 60 --seed 7 2>/dev/null > "$WORK/bell.bob" || fail "bob resubmit"
cmp -s "$WORK/bell.bob" "$WORK/bell.expected" || fail "bob histogram differs"

METRICS="$("$QIRKIT" submit metrics --socket "$SOCK")"
echo "$METRICS" | grep -q '"hits":0,' && fail "no cross-request cache hit"
echo "$METRICS" | grep -q '"tenants":{"alice"' || fail "tenant gauges missing"
echo "$METRICS" | grep -q '"completed":3' || fail "job counter"
echo "$METRICS" | grep -q '"latency":{"job":{"count":' \
  || fail "latency percentiles missing from metrics"
echo "$METRICS" | grep -q '"p99_ns":' || fail "p99 missing from metrics"

# -- Prometheus exposition: must parse as format 0.0.4 ---------------------
# A stdlib-only validator: every non-comment line is `name{labels} value`,
# every series is preceded by a matching # TYPE, labels are well-formed.
"$QIRKIT" submit metrics --socket "$SOCK" --format prometheus \
  > "$WORK/metrics.prom" || fail "prometheus metrics verb"
python3 - "$WORK/metrics.prom" <<'PYEOF' || fail "prometheus exposition invalid"
import re
import sys

NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
SAMPLE = re.compile(rf"^({NAME})(\{{[^}}]*\}})? (-?[0-9eE+.]+|\+Inf|NaN)$")
LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')

types = {}
samples = 0
for line in open(sys.argv[1], encoding="utf-8"):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# TYPE "):
        parts = line.split(" ")
        if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"):
            sys.exit(f"bad TYPE line: {line}")
        types[parts[2]] = parts[3]
        continue
    if line.startswith("#"):
        continue
    m = SAMPLE.match(line)
    if not m:
        sys.exit(f"bad sample line: {line}")
    if m.group(2):
        for pair in m.group(2)[1:-1].split(","):
            if not LABEL.match(pair):
                sys.exit(f"bad label '{pair}' in: {line}")
    base = re.sub(r"_(bucket|sum|count)$", "", m.group(1))
    if m.group(1) not in types and base not in types:
        sys.exit(f"series without a TYPE declaration: {line}")
    samples += 1
if samples == 0:
    sys.exit("no samples in exposition body")
PYEOF
grep -q 'qirkit_serve_tenant_completed{tenant="alice"} ' "$WORK/metrics.prom" \
  || fail "per-tenant labeled series missing from prometheus body"

# -- --verbose-timing: stage breakdown on stderr, stdout untouched ---------
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK" --tenant alice \
  --shots 60 --seed 7 --verbose-timing 2> "$WORK/timing.err" \
  > "$WORK/bell.timed" || fail "verbose-timing submit"
cmp -s "$WORK/bell.timed" "$WORK/bell.expected" \
  || fail "verbose-timing changed stdout"
grep -q "stage execute" "$WORK/timing.err" \
  || fail "verbose-timing missing execute stage"
grep -q "stage queue" "$WORK/timing.err" \
  || fail "verbose-timing missing queue stage"

# -- program_ref resubmission ----------------------------------------------
REF="$("$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK" --tenant alice \
  --shots 60 --seed 7 --json | sed 's/.*"program_id":"\([0-9a-f]*\)".*/\1/')"
[ -n "$REF" ] || fail "no program_id in response"
"$QIRKIT" submit "@$REF" --socket "$SOCK" --tenant alice --shots 60 --seed 7 \
  2>/dev/null > "$WORK/bell.ref" || fail "submit by ref"
cmp -s "$WORK/bell.ref" "$WORK/bell.expected" || fail "ref histogram differs"

# -- exit-code contract over the wire --------------------------------------
echo "garbage" > "$WORK/broken.ll"
set +e
"$QIRKIT" submit "$WORK/broken.ll" --socket "$SOCK" 2> "$WORK/err1"
[ $? -eq 1 ] || fail "diagnostic error should exit 1"
grep -q "error\[parse\]" "$WORK/err1" || fail "parse error format"

"$QIRKIT" submit "@nosuchprogram" --socket "$SOCK" 2> "$WORK/err2"
[ $? -eq 2 ] || fail "unknown ref should exit 2 (usage)"

# a 1.2 KB gate nest asking for 2^41 gates is refused while it loads, on
# the connection thread, and the daemon goes on answering
{
  printf 'OPENQASM 2.0;\nqreg q[1];\ngate g0 a { h a; h a; }\n'
  k=1
  while [ "$k" -le 40 ]; do printf 'gate g%d a { g%d a; g%d a; }\n' "$k" $((k - 1)) $((k - 1)); k=$((k + 1)); done
  printf 'g40 q[0];\n'
} > "$WORK/gates40.qasm"
timeout 10 "$QIRKIT" submit "$WORK/gates40.qasm" --socket "$SOCK" 2> "$WORK/err5"
[ $? -eq 1 ] || fail "gate nest should exit 1"
grep -q "error\[semantic\]" "$WORK/err5" || fail "gate nest error format"
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK" --shots 60 --seed 7 \
  2>/dev/null > "$WORK/bell.after" || fail "submit after the gate nest"
cmp -s "$WORK/bell.after" "$WORK/bell.expected" || fail "bell after the gate nest differs"

# --program-capacity is the one store bound; the retired compile-cache
# bound is refused before a daemon starts.
timeout 10 "$QIRKIT" serve "$WORK/retired.sock" --cache-capacity 4 \
  2> "$WORK/err7"
[ $? -eq 2 ] || fail "retired capacity option should exit 2 (usage)"
grep -q "error\[usage\]" "$WORK/err7" || fail "retired option error format"

# the telemetry opt-out is gone: the daemon always counts
timeout 10 "$QIRKIT" serve "$WORK/retired2.sock" --no-telemetry 2> "$WORK/err8"
[ $? -eq 2 ] || fail "--no-telemetry should exit 2 (usage)"
grep -q "error\[usage\]" "$WORK/err8" || fail "--no-telemetry error format"

"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK" --shots 99999999 \
  2> "$WORK/err3"
[ $? -eq 1 ] || fail "quota reject should exit 1"
grep -q "error\[resource-limit\]" "$WORK/err3" || fail "quota error format"

"$QIRKIT" submit ping --socket "$WORK/absent.sock" 2> "$WORK/err4"
[ $? -eq 1 ] || fail "unreachable daemon should exit 1 (io)"
set -e

# -- clean shutdown --------------------------------------------------------
"$QIRKIT" submit shutdown --socket "$SOCK" > /dev/null || fail "shutdown verb"
for i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  fail "daemon still running after shutdown"
fi
wait "$SERVE_PID"
[ $? -eq 0 ] || fail "daemon exited nonzero"
SERVE_PID=""
[ -S "$SOCK" ] && fail "socket not unlinked on shutdown"
grep -q "shut down" "$WORK/serve.log" || fail "shutdown not logged"

# -- chaos drill: fault injection + deadline cut against a live daemon -----
# A fresh daemon with the deterministic fault injector armed: the first
# runtime-call probe of the first executed job throws a permanent injected
# fault. The daemon must answer with the structured error, stay up, and
# serve every subsequent request untouched.
SOCK2="$WORK/chaos.sock"
env QIRKIT_FAULT_INJECT="site=runtime-call,at=1,transient=0" \
  "$QIRKIT" serve "$SOCK2" --runners 1 --jobs 2 --max-shots 100000000 \
  2> "$WORK/chaos.log" &
SERVE_PID=$!
for i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  [ -S "$SOCK2" ] && break
  sleep 0.1
done
[ -S "$SOCK2" ] || fail "chaos daemon did not create the socket"

set +e
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK2" --tenant chaos \
  --shots 50 --seed 7 --engine interp --exec-mode resim 2> "$WORK/err5"
[ $? -eq 1 ] || fail "injected fault should exit 1"
set -e
grep -q "error\[injected-fault\]" "$WORK/err5" || fail "injected fault format"
kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon died on injected fault"

# A deadline-exceeded request: far more resim work than its 400 ms budget
# allows (the batch takes about 1.5 s in Release, far longer under ASan).
# The budget is large enough that the request leaves the queue before it
# expires even on a loaded machine, so the cut lands in execution. It must
# come back as error[deadline] (exit 1) with the daemon unharmed.
set +e
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK2" --tenant chaos \
  --shots 2000000 --seed 7 --exec-mode resim --deadline-ms 400 \
  2> "$WORK/err6" > /dev/null
[ $? -eq 1 ] || fail "deadline cut should exit 1"
set -e
grep -q "error\[deadline\]" "$WORK/err6" || fail "deadline error format"
kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon died on deadline cut"

# The flight recorder must have archived the deadline cut with its cause
# and the captured per-stage trace (errored requests keep their stages).
EVENTS="$("$QIRKIT" submit events --socket "$SOCK2" --tenant chaos)" \
  || fail "events verb"
echo "$EVENTS" | grep -q '"type":"events"' || fail "events response type"
echo "$EVENTS" | grep -q '"error":"deadline"' \
  || fail "deadline cut missing from events"
echo "$EVENTS" | grep -q '"cause":"deadline"' \
  || fail "deadline cause missing from events"
echo "$EVENTS" | grep -q '"stage":"execute"' \
  || fail "per-stage timings missing from events"

# After both injected failures, a clean request must still produce the
# exact single-process histogram.
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK2" --tenant chaos \
  --shots 60 --seed 7 2>/dev/null > "$WORK/bell.chaos" \
  || fail "submit after chaos"
cmp -s "$WORK/bell.chaos" "$WORK/bell.expected" \
  || fail "post-chaos histogram differs"

# -- SIGTERM graceful drain ------------------------------------------------
# A long-running job plus a queued one (single runner), then SIGTERM: the
# running job must flush to completion, the queued one must be cancelled
# with an explicit disposition, and the daemon must exit 0.
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK2" --tenant drain \
  --shots 3000000 --seed 7 --exec-mode resim 2>/dev/null \
  > "$WORK/drain.running" &
A=$!
sleep 0.3
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK2" --tenant drain2 \
  --shots 50 --seed 7 2> "$WORK/drain.queued.err" > /dev/null &
B=$!
sleep 0.3
kill -TERM "$SERVE_PID"

wait $A || fail "running job should flush to completion across the drain"
grep -q "^[01][01]: " "$WORK/drain.running" \
  || fail "flushed job should deliver its histogram"
set +e
wait $B
[ $? -eq 1 ] || fail "queued job should be drain-cancelled with exit 1"
set -e
grep -q "error\[deadline\].*draining" "$WORK/drain.queued.err" \
  || fail "drain disposition missing from queued job's error"

for i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  fail "daemon still running after SIGTERM drain"
fi
set +e
wait "$SERVE_PID"
[ $? -eq 0 ] || fail "daemon should exit 0 after a graceful drain"
set -e
SERVE_PID=""
grep -q "drain: job" "$WORK/chaos.log" \
  || fail "per-job drain disposition not logged"
grep -q "shut down" "$WORK/chaos.log" || fail "drain shutdown not logged"

# -- admission drills ------------------------------------------------------
# One runner, a 1 MiB memory budget and one admission per tenant per 100 s,
# so each drill below uses its own tenant.
SOCK3="$WORK/admission.sock"
"$QIRKIT" serve "$SOCK3" --runners 1 --jobs 2 --max-shots 100000000 \
  --memory-budget-mb 1 --rate-limit 0.01 --rate-burst 1 \
  2> "$WORK/admission.log" &
SERVE_PID=$!
for i in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  [ -S "$SOCK3" ] && break
  sleep 0.1
done
[ -S "$SOCK3" ] || fail "admission daemon did not create the socket"
metric() {
  "$QIRKIT" submit metrics --socket "$SOCK3" | python3 -c \
    "import json,sys; d=json.load(sys.stdin); print(d['$1']['$2'])"
}

# A program that declares 2 qubits but touches 17 passes the memory guard
# (a 64-byte charge); the runtime refuses the third static address.
{
  printf 'declare void @__quantum__qis__h__body(ptr)\ndefine void @main() #0 {\nentry:\n'
  printf '  call void @__quantum__qis__h__body(ptr null)\n'
  k=1
  while [ "$k" -lt 17 ]; do
    printf '  call void @__quantum__qis__h__body(ptr inttoptr (i64 %d to ptr))\n' "$k"
    k=$((k + 1))
  done
  printf '  ret void\n}\nattributes #0 = { "entry_point" "required_num_qubits"="2" }\n'
} > "$WORK/under17.ll"
set +e
"$QIRKIT" submit "$WORK/under17.ll" --socket "$SOCK3" --tenant wide --shots 5 \
  2> "$WORK/err9" > /dev/null
[ $? -eq 1 ] || fail "under-declared program should exit 1"
set -e
grep -q "error\[trap-invalid-qubit\]" "$WORK/err9" \
  || fail "under-declared program should answer trap-invalid-qubit"
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK3" --tenant after-wide \
  --shots 60 --seed 7 2>/dev/null > "$WORK/bell.admission" \
  || fail "submit after the under-declared program"
cmp -s "$WORK/bell.admission" "$WORK/bell.expected" \
  || fail "histogram after the under-declared program differs"

# Over its rate, a fresh program is refused before it is loaded.
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK3" --tenant rate \
  --shots 10 > /dev/null 2>&1 || fail "first rate-limited tenant submit"
MISSES="$(metric cache misses)"
{ cat "$WORK/ghz.qasm"; echo "// never loaded"; } > "$WORK/fresh.qasm"
set +e
"$QIRKIT" submit "$WORK/fresh.qasm" --socket "$SOCK3" --tenant rate \
  --shots 10 2> "$WORK/err10" > /dev/null
[ $? -eq 1 ] || fail "rate-limited submit should exit 1"
set -e
grep -q "error\[resource-limit\]" "$WORK/err10" || fail "rate limit error format"
[ "$(metric cache misses)" = "$MISSES" ] \
  || fail "a rate-limited submit loaded its program"

# A job whose deadline lapses behind a busy runner is a queue TTL, not a
# watchdog catch: the hog holds the one runner until it is cancelled.
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK3" --tenant hog \
  --request-id hog --shots 3000000 --seed 7 --exec-mode resim \
  > /dev/null 2>&1 &
A=$!
for i in $(seq 1 100); do
  [ "$(metric memory active_jobs)" = "1" ] && [ "$(metric queue depth)" = "0" ] && break
  sleep 0.1
done
"$QIRKIT" submit "$WORK/bell.qasm" --socket "$SOCK3" --tenant lapse \
  --shots 50 --deadline-ms 50 2> "$WORK/err11" > /dev/null &
B=$!
for i in $(seq 1 100); do
  [ "$(metric queue depth)" = "1" ] && break
  sleep 0.1
done
sleep 0.5 # ten times the lapsing job's budget, several watchdog scans
"$QIRKIT" submit cancel --socket "$SOCK3" --tenant hog --request-id hog \
  > /dev/null || fail "cancel the hog"
set +e
wait $B
[ $? -eq 1 ] || fail "a lapsed job should exit 1"
wait $A
set -e
grep -q "error\[deadline\].*expired while the job was queued" "$WORK/err11" \
  || fail "lapsed job should answer the queue TTL"
"$QIRKIT" submit events --socket "$SOCK3" --tenant lapse \
  | grep -q '"cause":"queue-ttl"' || fail "events should show queue-ttl"
[ "$(metric watchdog flagged)" = "0" ] || fail "the watchdog flagged a queued job"

"$QIRKIT" submit shutdown --socket "$SOCK3" > /dev/null || fail "admission shutdown"
set +e
wait "$SERVE_PID"
[ $? -eq 0 ] || fail "admission daemon exited nonzero"
set -e
SERVE_PID=""

echo "SERVE TESTS PASSED"
