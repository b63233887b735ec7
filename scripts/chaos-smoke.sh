#!/usr/bin/env sh
# Chaos smoke test: boot ipg-serve with the fault-injection harness
# armed and verify the resilience layer holds up end to end — engine
# panics surface as structured 500s and open the per-grammar breaker
# (503 + Retry-After), deadline-bounded parses and completions abort
# mid-drive with 504, a completion's panic surfaces as a 500 like a
# parse's, a batch item's panic fails that item alone and is logged
# with its stack, the injection counters show up in /metrics, and
# SIGTERM drains the process cleanly within the drain timeout, also
# when it lands during the preload. Run from the repository root; exits
# non-zero on the first failure.
set -eu

ADDR="127.0.0.1:18081"
BASE="http://$ADDR"
LOG="$(mktemp)"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

go build -o /tmp/ipg-serve-chaos ./cmd/ipg-serve
# Arm the chaos faults up front:
#   - dispatch.parse panics four times (breaker threshold is 2, so the
#     first pair of 500s opens the breaker on crash; the third is a
#     completion's, on calc, and the fourth a batch item's, on items,
#     whose breakers stay closed);
#   - drive.token delays 1ms per token (a 400-token parse wants 400ms,
#     far past the 50ms deadline).
/tmp/ipg-serve-chaos -addr "$ADDR" \
  -grammar calc=testdata/CalcDet.bnf \
  -grammar crash=testdata/CalcDet.bnf \
  -grammar items=testdata/CalcDet.bnf \
  -parse-timeout 50ms \
  -drain-timeout 5s \
  -breaker-threshold 2 -breaker-cooldown 30s \
  -fault 'dispatch.parse=panic,n=4' \
  -fault 'drive.token=delay,d=1ms' \
  -log-level debug >"$LOG" 2>&1 &
SERVE_PID=$!

# The listener binds before the preload: wait until /readyz says every
# grammar is loaded.
i=0
until curl -fsS "$BASE/readyz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "FAIL: /readyz never turned ready" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.2
done
echo "ok: /readyz ready"

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

# The fourth injected panic hits the first item of a batch: the batch
# answers 200 with that item's error in its result, the second item is
# served, and the panic is logged with its stack, as a single parse's.
BODY="$(curl -s -w '\n%{http_code}' -X POST "$BASE/v1/grammars/items/batch" \
  -d '{"inputs":["n + n","n"],"workers":1}')"
[ "$(echo "$BODY" | tail -1)" = "200" ] || {
  echo "FAIL: batch with a panicking item returned $(echo "$BODY" | tail -1), want 200" >&2
  cat "$LOG" >&2
  exit 1
}
echo "$BODY" | head -1 | grep -q '"error":"engine: parse panicked[^"]*"},{"accepted":true' || {
  echo "FAIL: batch result does not carry the first item's panic beside the served second:" >&2
  echo "$BODY" >&2
  exit 1
}
grep 'parse panicked' "$LOG" | grep 'grammar=items' | grep -q 'stack=' || {
  echo "FAIL: the batch item's panic is not logged with its stack" >&2
  cat "$LOG" >&2
  exit 1
}
echo "ok: batch item panic recovered in its result and logged with its stack"

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
echo "$METRICS" | grep -q 'ipg_fault_injections_total{site="dispatch.parse",kind="panic"} 4' || {
  echo "FAIL: /metrics does not count the 4 injected panics" >&2
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

# A SIGTERM during the preload must drain too: the listener answers
# /healthz (and /readyz 503) before the grammars load, so the signal can
# land mid-preload. Sixty ASF.sdf grammars under -engine lalr take
# seconds to load; the process must stop the preload, log the drain and
# exit 0 whether the signal lands during the preload or after it.
PRELOAD=""
i=0
while [ "$i" -lt 60 ]; do
  i=$((i + 1))
  PRELOAD="$PRELOAD -grammar g$i=testdata/ASF.sdf"
done
# shellcheck disable=SC2086 # PRELOAD is a list of flags
/tmp/ipg-serve-chaos -addr "$ADDR" -engine lalr $PRELOAD >"$LOG" 2>&1 &
SERVE_PID=$!
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 200 ]; then
    echo "FAIL: /healthz never answered during the preload" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.05
done
kill -TERM "$SERVE_PID"
i=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "FAIL: process still alive 10s after a SIGTERM during the preload" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.2
done
STATUS=0
wait "$SERVE_PID" || STATUS=$?
[ "$STATUS" -eq 0 ] || {
  echo "FAIL: SIGTERM during the preload: exit status $STATUS, want 0" >&2
  cat "$LOG" >&2
  exit 1
}
grep -q '"msg":"draining"\|msg=draining' "$LOG" || {
  echo "FAIL: SIGTERM during the preload logged no draining line" >&2
  cat "$LOG" >&2
  exit 1
}
echo "ok: SIGTERM during the preload drained (exit 0, $(grep -c 'loaded grammar' "$LOG") of 60 grammars loaded)"

echo "chaos smoke passed"
