#!/usr/bin/env sh
# Chaos smoke test: boot ipg-serve with the fault-injection harness
# armed and verify the resilience layer holds up end to end — engine
# panics surface as structured 500s and open the per-grammar breaker
# (503 + Retry-After), deadline-bounded parses and completions abort
# mid-drive with 504, a completion's panic surfaces as a 500 like a
# parse's, the injection counters show up in /metrics, and SIGTERM
# drains the process cleanly within the drain timeout. Run from the
# repository root; exits non-zero on the first failure.
set -eu

ADDR="127.0.0.1:18081"
BASE="http://$ADDR"
LOG="$(mktemp)"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

go build -o /tmp/ipg-serve-chaos ./cmd/ipg-serve
# Arm the chaos faults up front:
#   - dispatch.parse panics three times (breaker threshold is 2, so the
#     first pair of 500s opens the breaker on crash; the third is a
#     completion's, on calc, whose breaker stays closed);
#   - drive.token delays 1ms per token (a 400-token parse wants 400ms,
#     far past the 50ms deadline).
/tmp/ipg-serve-chaos -addr "$ADDR" \
  -grammar calc=testdata/CalcDet.bnf \
  -grammar crash=testdata/CalcDet.bnf \
  -parse-timeout 50ms \
  -drain-timeout 5s \
  -breaker-threshold 2 -breaker-cooldown 30s \
  -fault 'dispatch.parse=panic,n=3' \
  -fault 'drive.token=delay,d=1ms' \
  -log-level debug >"$LOG" 2>&1 &
SERVE_PID=$!

i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "FAIL: /healthz never came up" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.2
done
echo "ok: /healthz live"

# Two injected panics must surface as structured 500s, not crash the
# process.
for i in 1 2; do
  CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    "$BASE/v1/grammars/crash/parse" -d '{"input":"n + n"}')"
  [ "$CODE" = "500" ] || {
    echo "FAIL: injected panic $i returned $CODE, want 500" >&2
    cat "$LOG" >&2
    exit 1
  }
done
curl -fsS "$BASE/healthz" >/dev/null || {
  echo "FAIL: process died after recovered panics" >&2
  exit 1
}
echo "ok: injected panics recovered as 500s"

# The breaker is now open: the next parse is quarantined with 503 and
# a Retry-After hint, without touching the engine.
HDRS="$(curl -s -D - -o /dev/null -X POST \
  "$BASE/v1/grammars/crash/parse" -d '{"input":"n + n"}')"
echo "$HDRS" | head -1 | grep -q ' 503' || {
  echo "FAIL: quarantined parse not 503:" >&2
  echo "$HDRS" >&2
  exit 1
}
echo "$HDRS" | grep -qi '^retry-after:' || {
  echo "FAIL: breaker 503 carries no Retry-After" >&2
  exit 1
}
echo "ok: breaker open (503 + Retry-After)"

# The third injected panic hits a completion step, which runs through
# the same guarded dispatch as a parse: a structured 500.
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  "$BASE/v1/grammars/calc/complete" -d '{"prefix":"n +","once":true}')"
[ "$CODE" = "500" ] || {
  echo "FAIL: injected completion panic returned $CODE, want 500" >&2
  cat "$LOG" >&2
  exit 1
}
echo "ok: injected completion panic recovered as 500"

# A long parse through the still-armed per-token delay must abort on
# the 50ms deadline with 504, well before the ~3s the delays would
# take end to end.
LONG="n$(awk 'BEGIN{for(i=0;i<400;i++)printf " + n"}')"
START_S="$(date +%s)"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  "$BASE/v1/grammars/calc/parse" \
  -d "{\"input\":\"$LONG\"}")"
ELAPSED=$(( $(date +%s) - START_S ))
[ "$CODE" = "504" ] || {
  echo "FAIL: deadline parse returned $CODE, want 504" >&2
  cat "$LOG" >&2
  exit 1
}
[ "$ELAPSED" -le 2 ] || {
  echo "FAIL: deadline abort took ${ELAPSED}s — checkpoints not firing" >&2
  exit 1
}
echo "ok: deadline abort mid-drive (504 in ${ELAPSED}s)"

# A one-shot completion of the same prefix feeds it through the same
# per-token checkpoints, so the deadline aborts it with 504 too.
START_S="$(date +%s)"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  "$BASE/v1/grammars/calc/complete" \
  -d "{\"prefix\":\"$LONG\",\"once\":true}")"
ELAPSED=$(( $(date +%s) - START_S ))
[ "$CODE" = "504" ] || {
  echo "FAIL: deadline completion returned $CODE, want 504" >&2
  cat "$LOG" >&2
  exit 1
}
[ "$ELAPSED" -le 2 ] || {
  echo "FAIL: deadline completion abort took ${ELAPSED}s — checkpoints not firing" >&2
  exit 1
}
echo "ok: deadline completion abort mid-feed (504 in ${ELAPSED}s)"

# The fired faults and resilience state must be visible in /metrics.
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS" | grep -q 'ipg_fault_injections_total{site="dispatch.parse",kind="panic"} 3' || {
  echo "FAIL: /metrics does not count the 3 injected panics" >&2
  exit 1
}
echo "$METRICS" | grep -q 'ipg_parse_panics_total{grammar="crash"' || {
  echo "FAIL: /metrics has no per-grammar panic counter" >&2
  exit 1
}
echo "$METRICS" | grep -q 'ipg_breaker_state{grammar="crash",engine="[^"]*",state="open"} 1' || {
  echo "FAIL: /metrics does not show the breaker open" >&2
  exit 1
}
echo "$METRICS" | grep 'ipg_parses_canceled_total{grammar="calc"' | grep -q 'reason="deadline"' || {
  echo "FAIL: /metrics has no deadline cancellation series" >&2
  exit 1
}
echo "ok: fault + resilience metrics truthful"

# SIGTERM must drain: readiness flips, new parses are rejected, and
# the process exits cleanly within the drain timeout.
kill -TERM "$SERVE_PID"
i=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "FAIL: process still alive 10s after SIGTERM" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.2
done
wait "$SERVE_PID" 2>/dev/null || true
grep -q '"msg":"draining"\|msg=draining' "$LOG" || {
  echo "FAIL: no draining log line" >&2
  cat "$LOG" >&2
  exit 1
}
grep -q '"msg":"drain complete"\|msg="drain complete"' "$LOG" || {
  echo "FAIL: no drain-complete log line" >&2
  cat "$LOG" >&2
  exit 1
}
echo "ok: SIGTERM drained cleanly"

echo "chaos smoke passed"
