#!/bin/sh
# End-to-end test of the qirkit CLI. Run by ctest with the build dir as $1.
set -e
QIRKIT="$1/tools/qirkit"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "CLI TEST FAILED: $1" >&2; exit 1; }

cat > "$WORK/bell.qasm" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0], q[1];
measure q -> c;
EOF

cat > "$WORK/rus.qasm3" <<'EOF'
OPENQASM 3;
qubit[3] q;
bit[3] c;
h q[0];
for int i in [0:1] {
  cx q[i], q[i+1];
}
for int i in [0:2] {
  c[i] = measure q[i];
}
EOF

# translate: QASM2 -> QIR (both addressings) -> back to QASM2
"$QIRKIT" translate "$WORK/bell.qasm" --to qir -o "$WORK/bell.ll" || fail "translate to qir"
grep -q "__quantum__qis__cnot__body" "$WORK/bell.ll" || fail "qir content"
"$QIRKIT" translate "$WORK/bell.ll" --to qasm -o "$WORK/bell2.qasm" || fail "translate back"
grep -q "cx q\[0\], q\[1\];" "$WORK/bell2.qasm" || fail "qasm round trip"

# parse + validate
"$QIRKIT" parse "$WORK/bell.ll" | grep -q "verifier: clean" || fail "parse"
"$QIRKIT" validate "$WORK/bell.ll" --profile base | grep -q "conforms" || fail "validate"

# run: correlated GHZ-style outputs only
OUT="$("$QIRKIT" run "$WORK/bell.ll" --shots 50 --seed 9)"
echo "$OUT" | grep -qE "^(00|11): " || fail "run histogram"
echo "$OUT" | grep -qE "^01: |^10: " && fail "uncorrelated output"

# both execution engines must produce the identical histogram for a seed
OUT_VM="$("$QIRKIT" run "$WORK/bell.ll" --shots 30 --seed 5 --engine vm 2>/dev/null)"
OUT_INTERP="$("$QIRKIT" run "$WORK/bell.ll" --shots 30 --seed 5 --engine interp 2>/dev/null)"
[ "$OUT_VM" = "$OUT_INTERP" ] || fail "vm and interp engines disagree"

# execution modes: the default auto routes this terminal program to the
# sampling fast path (reported on stderr); forcing resim and sample both
# keep the Bell correlations; every mode is deterministic per seed.
"$QIRKIT" run "$WORK/bell.ll" --shots 30 --seed 5 2>"$WORK/mode.err" \
  >"$WORK/mode.auto" || fail "auto exec mode run"
grep -q "exec mode: sample" "$WORK/mode.err" || fail "auto did not sample"
"$QIRKIT" run "$WORK/bell.ll" --shots 30 --seed 5 --exec-mode sample \
  2>/dev/null >"$WORK/mode.sample" || fail "sample exec mode run"
cmp -s "$WORK/mode.auto" "$WORK/mode.sample" || fail "auto and sample disagree"
"$QIRKIT" run "$WORK/bell.ll" --shots 30 --seed 5 --exec-mode resim \
  2>"$WORK/mode.err" >"$WORK/mode.resim" || fail "resim exec mode run"
grep -q "exec mode: sample" "$WORK/mode.err" && fail "resim must not sample"
grep -qE "^(00|11): " "$WORK/mode.resim" || fail "resim histogram"
rc=0; "$QIRKIT" run "$WORK/bell.ll" --exec-mode turbo >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "--exec-mode turbo must exit 2 (got $rc)"

# a 17-qubit GHZ (a 2 MiB state): the executor reserves the declared
# width, so the register grows in one buffer (no buffer moves), and the
# pooled run samples the same histogram
{
  printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[17];\ncreg c[17];\nh q[0];\n'
  i=1
  while [ "$i" -lt 17 ]; do printf 'cx q[%d], q[%d];\n' $((i - 1)) "$i"; i=$((i + 1)); done
  printf 'measure q -> c;\n'
} > "$WORK/ghz17.qasm"
"$QIRKIT" run "$WORK/ghz17.qasm" --shots 300 --seed 4 --stats=json \
  >"$WORK/ghz17.out" 2>"$WORK/ghz17.err" || fail "ghz17 run"
tail -n 1 "$WORK/ghz17.err" | python3 -c '
import json, sys
moves = json.load(sys.stdin)["sim"]["statevector"]["buffer_moves"]
assert moves == 0, moves' || fail "ghz17 moved its statevector buffer"
"$QIRKIT" run "$WORK/ghz17.qasm" --shots 300 --seed 4 --jobs 2 \
  >"$WORK/ghz17.jobs2" 2>/dev/null || fail "ghz17 run --jobs 2"
cmp -s "$WORK/ghz17.out" "$WORK/ghz17.jobs2" || fail "ghz17 --jobs 2 changed the histogram"
grep -qE "^0{17}: " "$WORK/ghz17.out" || fail "ghz17 histogram"

# unknown options (including the retired --fusion and --dispatch) are
# usage errors on run and submit; submit rejects them before connecting
for cmd in run "submit --socket $WORK/absent.sock"; do
  for bad in "--shotz 5" "--fusion off" "--dispatch switch"; do
    rc=0; "$QIRKIT" $cmd "$WORK/bell.ll" $bad >/dev/null 2>"$WORK/err" || rc=$?
    [ "$rc" -eq 2 ] || fail "$cmd $bad must exit 2 (got $rc)"
    grep -q "qirkit: error\[usage\]: .*${bad%% *}" "$WORK/err" \
      || fail "$cmd $bad diagnostic"
  done
done
# so are extra positionals and options another command owns
rc=0; "$QIRKIT" run "$WORK/bell.ll" "$WORK/bell.ll" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "extra positional must exit 2 (got $rc)"
rc=0; "$QIRKIT" compile "$WORK/bell.ll" --shots 4 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "compile --shots must exit 2 (got $rc)"

# forcing sample on a feedback-dependent program is a usage error
cat > "$WORK/feedback.ll" <<'EOF'
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %r, label %flip, label %done
flip:
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  br label %done
done:
  ret void
}
attributes #0 = { "entry_point" }
EOF
rc=0; "$QIRKIT" run "$WORK/feedback.ll" --exec-mode sample \
  >/dev/null 2>"$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || fail "sample on feedback program must exit 2 (got $rc)"
grep -q "error\[usage\]" "$WORK/err" || fail "feedback sample usage diagnostic"
"$QIRKIT" run "$WORK/feedback.ll" --shots 10 >"$WORK/branch.out" 2>"$WORK/err" \
  || fail "feedback program under auto"
grep -q "exec mode: sample" "$WORK/err" && fail "auto sampled a feedback program"
# auto runs it once per measurement-outcome path (its one h + mz: two),
# and prints what per-shot resimulation prints
grep -q "^exec mode: branch (2 outcome paths for 10 shots)$" "$WORK/err" \
  || fail "auto did not branch the feedback program"
"$QIRKIT" run "$WORK/feedback.ll" --shots 10 --exec-mode resim \
  >"$WORK/resim.out" 2>"$WORK/err" || fail "feedback program under resim"
grep -q "exec mode: branch" "$WORK/err" && fail "resim must not branch"
cmp -s "$WORK/branch.out" "$WORK/resim.out" || fail "branch and resim disagree"

# the VM has one dispatch loop: --stats=json reports its seven
# vm.dispatch.* class counts and nothing else of dispatch or compile
"$QIRKIT" run "$WORK/feedback.ll" --shots 10 --stats=json >/dev/null \
  2>"$WORK/err" || fail "feedback program with --stats=json"
tail -n 1 "$WORK/err" | python3 -c '
import json, sys
vm = json.load(sys.stdin)["vm"]
assert sorted(vm["dispatch"]) == ["arithmetic", "call_external", "call_internal",
                                  "control_flow", "data", "fused", "memory"], vm
assert vm["dispatch"]["call_external"] > 0, vm
assert "compile" not in vm, vm' || fail "vm.dispatch counts in --stats=json"

# an entry point that takes parameters is one classified error on both
# engines, in every exec mode (QIR entry points take none)
cat > "$WORK/params.ll" <<'EOF'
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main(i64 %n) #0 {
entry:
  %c = icmp eq i64 %n, 0
  br i1 %c, label %measure, label %flip
flip:
  call void @__quantum__qis__x__body(ptr null)
  br label %measure
measure:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}
attributes #0 = { "entry_point" "required_num_qubits"="1" "required_num_results"="1" }
EOF
for engine in vm interp; do
  for mode in auto resim sample; do
    rc=0; "$QIRKIT" run "$WORK/params.ll" --shots 4 --seed 1 --engine "$engine" \
      --exec-mode "$mode" >/dev/null 2>"$WORK/err" || rc=$?
    [ "$rc" -eq 1 ] || fail "entry point parameters on $engine/$mode must exit 1 (got $rc)"
    grep -q "qirkit: error\[semantic\]: .*@main takes 1 parameter(s) but was called with 0 argument(s)" \
      "$WORK/err" || fail "entry point parameters diagnostic on $engine/$mode"
  done
done

# a program no shot can run is one error for the batch, found before any
# shot runs, even when --max-failed-shots would tolerate every shot failing
cat > "$WORK/noentry.ll" <<'EOF'
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @helper() {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}
EOF
rc=0; "$QIRKIT" run "$WORK/params.ll" --shots 4 --max-failed-shots 4 \
  >/dev/null 2>"$WORK/err" || rc=$?
[ "$rc" -eq 1 ] || fail "entry point parameters under --max-failed-shots must exit 1 (got $rc)"
grep -q "^qirkit: error\[semantic\]: @main takes 1 parameter(s)" "$WORK/err" ||
  fail "entry point parameters under --max-failed-shots: one unwrapped error"
rc=0; "$QIRKIT" run "$WORK/noentry.ll" --shots 3 --max-failed-shots 3 \
  >/dev/null 2>"$WORK/err" || rc=$?
[ "$rc" -eq 1 ] || fail "a module with no entry point must exit 1 (got $rc)"
grep -q "^qirkit: error\[trap\]: module has no executable entry point" "$WORK/err" ||
  fail "a module with no entry point: one unwrapped error"

# a declaration that disagrees with its QIR signature is rejected before
# anything runs it, on every engine
cat > "$WORK/arity.ll" <<'EOF'
declare void @__quantum__qis__h__body()
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body()
  ret void
}
attributes #0 = { "entry_point" }
EOF
for engine in vm interp; do
  rc=0; "$QIRKIT" run "$WORK/arity.ll" --engine "$engine" >/dev/null 2>"$WORK/err" || rc=$?
  [ "$rc" -eq 1 ] || fail "signature mismatch on $engine must exit 1 (got $rc)"
  grep -q "qirkit: error\[verify\]: @__quantum__qis__h__body is declared void (), but its QIR signature is void (ptr)" \
    "$WORK/err" || fail "signature mismatch diagnostic"
done

# A module the verifier rejects runs as written, and a bitcast between
# different types is refused where an engine meets it instead of reading
# 0.0: the VM does not compile it, the interpreter traps, and run exits 1.
cat > "$WORK/bitcast.ll" <<'EOF'
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
define void @main() #0 {
entry:
  %x = add i64 4607182418800017408, 0
  %d = bitcast i64 %x to double
  %c = fcmp oeq double %d, 1.0
  br i1 %c, label %one, label %done
one:
  call void @__quantum__qis__x__body(ptr null)
  br label %done
done:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}
attributes #0 = { "entry_point" }
EOF
for flags in "--engine vm:trap" "--engine interp:trap" "--no-fallback:compile-fail"; do
  rc=0; "$QIRKIT" run "$WORK/bitcast.ll" --shots 10 ${flags%%:*} >"$WORK/out" 2>"$WORK/err" || rc=$?
  [ "$rc" -eq 1 ] || fail "bitcast run ${flags%%:*} must exit 1 (got $rc)"
  grep -q "^qirkit: error\\[${flags##*:}\\]: .*bitcast between different types" "$WORK/err" \
    || fail "bitcast run ${flags%%:*} diagnostic"
done

# translate refuses a static address past the 32 768-qubit width bound
# instead of narrowing 4294967297 to qubit 1
sed 's/inttoptr (i64 1 to ptr)/inttoptr (i64 4294967297 to ptr)/' "$WORK/bell.ll" > "$WORK/far.ll"
grep -q "4294967297" "$WORK/far.ll" || fail "far.ll has no far address"
rc=0; "$QIRKIT" translate "$WORK/far.ll" --to qasm >"$WORK/out" 2>"$WORK/err" || rc=$?
[ "$rc" -eq 1 ] || fail "translate of a far address must exit 1 (got $rc)"
grep -q "^qirkit: error\\[parse\\]: .*QIR import: static address 4294967297 is past the width bound" \
  "$WORK/err" || fail "far address diagnostic"

# run an OpenQASM 3 program directly
"$QIRKIT" run "$WORK/rus.qasm3" --shots 20 | grep -qE "^(000|111): " || fail "qasm3 run"

# only a first token OPENQASM makes a text OpenQASM: a QIR module whose
# comment mentions it runs as QIR, and answers what it answers without
{ echo "; translated from OPENQASM 2.0 by qirkit"; cat "$WORK/bell.ll"; } > "$WORK/commented.ll"
"$QIRKIT" run "$WORK/commented.ll" --shots 30 --seed 5 >"$WORK/commented.out" 2>/dev/null \
  || fail "commented QIR module run"
"$QIRKIT" run "$WORK/bell.ll" --shots 30 --seed 5 2>/dev/null | cmp -s - "$WORK/commented.out" \
  || fail "commented QIR module answers differently"

# OpenQASM input the reader refuses: an index past its register, a
# 1.2 KB gate nest asking for 2^41 gates, and a declaration past the
# 32 768-bit budget
printf 'OPENQASM 3;\nqubit[2] q;\nbit[1] c;\nx q[0];\nc[3] = measure q[0];\n' > "$WORK/index.qasm"
{
  printf 'OPENQASM 2.0;\nqreg q[1];\ngate g0 a { h a; h a; }\n'
  k=1
  while [ "$k" -le 40 ]; do printf 'gate g%d a { g%d a; g%d a; }\n' "$k" $((k - 1)) $((k - 1)); k=$((k + 1)); done
  printf 'g40 q[0];\n'
} > "$WORK/gates40.qasm"
printf 'OPENQASM 2.0;\nqreg q[1];\ncreg c[40000];\n' > "$WORK/wide.qasm"
for case in index.qasm:parse gates40.qasm:semantic wide.qasm:semantic; do
  rc=0; "$QIRKIT" run "$WORK/${case%%:*}" --shots 4 >/dev/null 2>"$WORK/err" || rc=$?
  [ "$rc" -eq 1 ] || fail "${case%%:*} must exit 1 (got $rc)"
  grep -q "^qirkit: error\[${case##*:}\]: " "$WORK/err" || fail "${case%%:*} diagnostic"
done

# A loop past the unroll budget stays a loop: run executes it as written,
# and compile, which needs straight-line code, rejects it with a
# classified error instead of unrolling 800 000 instructions.
{
  printf 'OPENQASM 3;\nqubit[8] q;\nbit[8] c;\nfor int i in [0:65535] {\n'
  for k in 0 1 2 3 4 5 6 7; do printf '  rz(0.001) q[%s];\n' "$k"; done
  printf '}\nfor int i in [0:7] {\n  c[i] = measure q[i];\n}\n'
} > "$WORK/longloop.qasm"
"$QIRKIT" run "$WORK/longloop.qasm" --shots 1 | grep -q "^00000000: 1$" \
  || fail "run a loop past the unroll budget"
rc=0; "$QIRKIT" compile "$WORK/longloop.qasm" >/dev/null 2>"$WORK/err" || rc=$?
[ "$rc" -eq 1 ] || fail "compile of a loop past the unroll budget must exit 1 (got $rc)"
grep -q "qirkit: error\[parse\]: " "$WORK/err" || fail "long loop compile diagnostic"

# compile with mapping + reuse + deferral
"$QIRKIT" compile "$WORK/bell.ll" --target line:4 --defer-mz -o "$WORK/compiled.ll" \
  || fail "compile"
"$QIRKIT" validate "$WORK/compiled.ll" --profile base | grep -q "conforms" \
  || fail "compiled profile"

# opt reduces a loop program
cat > "$WORK/loop.ll" <<'EOF'
declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %n, %b ]
  %c = icmp slt i64 %i, 4
  br i1 %c, label %b, label %e
b:
  %p = inttoptr i64 %i to ptr
  call void @__quantum__qis__h__body(ptr %p)
  %n = add i64 %i, 1
  br label %h
e:
  ret void
}
attributes #0 = { "entry_point" }
EOF
"$QIRKIT" opt "$WORK/loop.ll" -o "$WORK/loop.opt.ll" || fail "opt"
COUNT=$(grep -c "__quantum__qis__h__body(ptr" "$WORK/loop.opt.ll" || true)
[ "$COUNT" -eq 5 ] || fail "opt did not unroll (found $COUNT h lines, want 4 calls + 1 declare)"

# hybrid analyses
"$QIRKIT" partition "$WORK/bell.ll" | grep -q "quantum: " || fail "partition"
"$QIRKIT" feasibility "$WORK/bell.ll" --budget 100 | grep -q "feasible: yes" || fail "feasibility"

# usage text stays in sync with the documented flags: every flag/env var
# the README documents must appear when qirkit is invoked without args.
"$QIRKIT" 2>"$WORK/usage" || true
for doc in --stats QIRKIT_TRACE QIRKIT_FAULT_INJECT --shots --engine \
    --exec-mode --precision --force-f32 --target; do
  grep -q -- "$doc" "$WORK/usage" || fail "usage text does not mention $doc"
done

# numeric options reject negative values as usage errors (exit 2)
for opt in shots jobs retries max-failed-shots; do
  rc=0; "$QIRKIT" run "$WORK/bell.ll" --$opt -3 >/dev/null 2>"$WORK/err" || rc=$?
  [ "$rc" -eq 2 ] || fail "--$opt -3 must exit 2 (got $rc)"
  grep -q "qirkit: error\[usage\]: " "$WORK/err" || fail "--$opt -3 diagnostic format"
done

# --stats json: stdout stays byte-identical, stderr's last line is the
# versioned JSON report with the documented sections, and its stages
# section times each route's frontend, the classical pipeline, compile,
# analyze and execute. The same run under QIRKIT_TRACE writes one Chrome
# event name per stage name and per pass the loader ran (the passes
# section lists them), and so does QIRKIT_TRACE alone, the tracing
# default: Chrome armed, stats off.
for route in bell.ll:parse.full bell.qasm:parse.qasm2 rus.qasm3:parse.qasm3; do
  src="${route%%:*}"
  "$QIRKIT" run "$WORK/$src" --shots 40 --seed 3 >"$WORK/out.plain" \
    2>/dev/null || fail "run $src without stats"
  QIRKIT_TRACE="$WORK/trace.json" "$QIRKIT" run "$WORK/$src" --shots 40 \
    --seed 3 --stats json >"$WORK/out.stats" 2>"$WORK/stats.err" \
    || fail "run $src with stats and QIRKIT_TRACE"
  QIRKIT_TRACE="$WORK/trace-only.json" "$QIRKIT" run "$WORK/$src" --shots 40 \
    --seed 3 >"$WORK/out.traced" 2>/dev/null || fail "run $src with QIRKIT_TRACE"
  cmp -s "$WORK/out.plain" "$WORK/out.stats" && cmp -s "$WORK/out.plain" \
    "$WORK/out.traced" || fail "--stats or QIRKIT_TRACE changed $src stdout"
  tail -n 1 "$WORK/stats.err" > "$WORK/stats.json"
  python3 - "$WORK/stats.json" "$WORK/trace.json" "${route##*:}" \
    "$WORK/trace-only.json" <<'PYEOF' || fail "stats json or traces of $src"
import json, sys
stats = json.load(open(sys.argv[1]))
assert stats["schema_version"] == 2, stats["schema_version"]
stats["parse"], stats["passes"], stats["vm"]["cache"], stats["shots"]["latency_ns"]
stages = stats["stages"]
for name in (sys.argv[3], "opt.pipeline", "compile", "analyze", "execute"):
    timed = stages.get(name, {})
    assert timed.get("count", 0) > 0 and timed.get("sum_ns", 0) > 0, name
passes = {p["name"] for p in stats["passes"]}
assert "loop-unroll" in passes, sorted(passes)
for trace in (sys.argv[2], sys.argv[4]):
    events = {e["name"] for e in json.load(open(trace))["traceEvents"]}
    assert events == set(stages) | passes, (trace, sorted(events), sorted(stages))
PYEOF
done
"$QIRKIT" run "$WORK/bell.ll" --shots 5 --stats >/dev/null 2>"$WORK/stats.txt" \
  || fail "run with text stats"
grep -q "qirkit telemetry" "$WORK/stats.txt" || fail "text stats header"
rc=0; "$QIRKIT" run "$WORK/bell.ll" --stats=bogus >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "--stats=bogus must exit 2 (got $rc)"

# error paths honor the exit-code contract (0 ok, 1 diagnostics, 2 usage,
# 3 internal) and report `error[<code>]` on stderr; test_exit_codes.sh
# covers the full matrix.
rc=0; "$QIRKIT" validate "$WORK/loop.ll" --profile base >/dev/null || rc=$?
[ "$rc" -eq 1 ] || fail "nonconforming input must exit 1 (got $rc)"
rc=0; "$QIRKIT" parse "$WORK/nonexistent.ll" >/dev/null 2>"$WORK/err" || rc=$?
[ "$rc" -eq 1 ] || fail "missing file must exit 1 (got $rc)"
grep -q "qirkit: error\[io\]: " "$WORK/err" || fail "missing file diagnostic format"
rc=0; "$QIRKIT" run "$WORK/bell.ll" --shots notanumber >/dev/null 2>"$WORK/err" || rc=$?
[ "$rc" -eq 2 ] || fail "bad option value must exit 2 (got $rc)"
grep -q "qirkit: error\[usage\]: " "$WORK/err" || fail "usage diagnostic format"
rc=0; "$QIRKIT" bogus-command x y >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "unknown command must exit 2 (got $rc)"

echo "CLI TEST PASSED"
