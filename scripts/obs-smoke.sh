#!/usr/bin/env sh
# Observability smoke test: boot ipg-serve against a real grammar,
# probe /healthz and /readyz, serve a traced parse, then verify the
# /metrics exposition declares exactly the listed families and /v1/trace
# returns the parse's lifecycle span. Run from the repository root;
# exits non-zero on the first missing piece.
set -eu

ADDR="127.0.0.1:18080"
BASE="http://$ADDR"
LOG="$(mktemp)"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$LOG"' EXIT

go build -o /tmp/ipg-serve-smoke ./cmd/ipg-serve
/tmp/ipg-serve-smoke -addr "$ADDR" \
  -grammar calc=testdata/CalcDet.bnf \
  -trace-sample 1 -trace-slow 1us \
  -log-level debug >"$LOG" 2>&1 &
SERVE_PID=$!

# Wait for liveness (the process may still be preloading).
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

# Readiness must already be true: preload completes before listening.
curl -fsS "$BASE/readyz" | grep -q '"status":"ready"' || {
  echo "FAIL: /readyz not ready after preload" >&2
  exit 1
}
echo "ok: /readyz ready"

# Serve one traced parse (sampling 1 + 1µs slow threshold guarantee the
# span is retained on both paths).
curl -fsS -X POST "$BASE/v1/grammars/calc/parse" \
  -H 'X-Request-Id: smoke-1' \
  -d '{"input":"n + n * n","trees":true}' | grep -q '"accepted":true' || {
  echo "FAIL: parse not accepted" >&2
  exit 1
}
echo "ok: parse accepted"

# Open a document session, splice a touch edit, reparse and stat it:
# the session lifecycle must work end to end and leave its mark in the
# metrics and trace surfaces checked below.
OPEN="$(curl -fsS -X POST "$BASE/v1/grammars/calc/sessions" \
  -H 'X-Request-Id: smoke-sess' \
  -d '{"input":"n + n * n"}')"
echo "$OPEN" | grep -q '"accepted":true' || {
  echo "FAIL: session open did not parse" >&2
  exit 1
}
SID="$(echo "$OPEN" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$SID" ] || {
  echo "FAIL: session open returned no id" >&2
  exit 1
}
curl -fsS -X PATCH "$BASE/v1/sessions/$SID" \
  -H 'X-Request-Id: smoke-splice' \
  -d '{"splices":[{"at":2,"remove":1,"insert":"n"}]}' | grep -q '"accepted":true' || {
  echo "FAIL: session splice+reparse not accepted" >&2
  exit 1
}
curl -fsS "$BASE/v1/sessions/$SID/stat" | grep -q '"splices":1' || {
  echo "FAIL: session stat does not count the splice" >&2
  exit 1
}
echo "ok: session open/splice/reparse/stat ($SID)"

# Register the same grammar on the eager LALR backend and apply a rule
# update (add then delete, leaving the grammar as it was): the engine
# must absorb both by in-place table repair, which the repair metric
# families and the repair trace stage below must reflect.
curl -fsS -X PUT "$BASE/v1/grammars/calclalr" \
  -d '{"engine":"lalr","source":"START ::= E\nE ::= E \"+\" T | E \"-\" T | T\nT ::= T \"*\" F | T \"/\" F | F\nF ::= \"n\" | \"(\" E \")\""}' \
  | grep -q '"engine":"lalr"' || {
  echo "FAIL: lalr grammar registration failed" >&2
  exit 1
}
curl -fsS -X POST "$BASE/v1/grammars/calclalr/rules" \
  -H 'X-Request-Id: smoke-rules' \
  -d '{"add":"F ::= \"id\""}' | grep -q '"added":1' || {
  echo "FAIL: rule add not applied" >&2
  exit 1
}
curl -fsS -X POST "$BASE/v1/grammars/calclalr/rules" \
  -H 'X-Request-Id: smoke-rules-del' \
  -d '{"delete":"F ::= \"id\""}' | grep -q '"deleted":1' || {
  echo "FAIL: rule delete not applied" >&2
  exit 1
}
echo "ok: rule update applied on lalr backend (add+delete roundtrip)"

# Open a completion cursor on a prefix, read its accept set, then feed
# tokens through to a complete sentence: the completion lifecycle must
# work end to end and show up in the metric families and trace stage
# checked below.
COMP="$(curl -fsS -X POST "$BASE/v1/grammars/calc/complete" \
  -H 'X-Request-Id: smoke-complete' \
  -d '{"prefix":"n +"}')"
echo "$COMP" | grep -q '"accepts":\["' || {
  echo "FAIL: completion open returned no accept set" >&2
  exit 1
}
CID="$(echo "$COMP" | sed -n 's/.*"cursor":"\([^"]*\)".*/\1/p')"
[ -n "$CID" ] || {
  echo "FAIL: completion open returned no cursor id" >&2
  exit 1
}
curl -fsS -X POST "$BASE/v1/grammars/calc/complete" \
  -H 'X-Request-Id: smoke-complete-feed' \
  -d "{\"cursor\":\"$CID\",\"feed\":\"n * n\",\"close\":true}" \
  | grep -q '"complete":true' || {
  echo "FAIL: completion feed did not reach a complete sentence" >&2
  exit 1
}
echo "ok: completion cursor open/accepts/feed/close ($CID)"

# The exposition must declare exactly the families listed here: one
# added or dropped without updating the list fails the smoke.
METRICS="$(curl -fsS "$BASE/metrics")"
FAMILIES="
ipg_uptime_seconds
ipg_grammars
ipg_grammars_registered_total
ipg_http_requests_total
ipg_parse_requests_total
ipg_http_rejected_total
ipg_parses_served_total
ipg_batch_sentences_total
ipg_states_expanded_total
ipg_states_invalidated_total
ipg_action_calls_total
ipg_rule_updates_total
ipg_table_states_repaired_total
ipg_table_repair_fallbacks_total
ipg_table_repair_seconds
ipg_engine_reprobes_total
ipg_admission_rejected_total
ipg_inflight_parses
ipg_table_states
ipg_parse_latency_seconds
ipg_grammar_snapshot_saves_total
ipg_grammar_restored_from_snapshot
ipg_snapshot_saves_total
ipg_snapshot_enabled
ipg_snapshot_restores_total
ipg_snapshot_rejected_total
ipg_snapshot_errors_total
ipg_trace_enabled
ipg_trace_started_total
ipg_trace_sampled_total
ipg_trace_slow_total
ipg_sessions_open
ipg_sessions_opened_total
ipg_sessions_evicted_total
ipg_sessions_closed_total
ipg_session_splices_total
ipg_session_reparses_total
ipg_session_full_reparses_total
ipg_reparse_sets_reused_total
ipg_reparse_sets_rebuilt_total
ipg_parses_canceled_total
ipg_parse_panics_total
ipg_breaker_state
ipg_breaker_trips_total
ipg_breaker_rejected_total
ipg_draining
ipg_drain_rejected_total
ipg_mem_budget_bytes
ipg_mem_usage_bytes
ipg_mem_rejected_total
ipg_shed_active
ipg_shed_total
ipg_snapshot_retries_total
ipg_fault_injections_total
ipg_completions_total
ipg_completion_latency_seconds
ipg_completion_cursors_open
ipg_completion_cursors_opened_total
ipg_completion_cursors_evicted_total
ipg_completion_cursors_closed_total
ipg_completion_queries_total
ipg_completion_feeds_total
"
SCRAPED="$(echo "$METRICS" | sed -n 's/^# TYPE \([^ ]*\) .*/\1/p' | sort -u)"
MISSING=""
for fam in $FAMILIES; do
  echo "$SCRAPED" | grep -qx "$fam" || MISSING="$MISSING $fam"
done
UNLISTED=""
for fam in $SCRAPED; do
  echo "$FAMILIES" | grep -qx "$fam" || UNLISTED="$UNLISTED $fam"
done
[ -z "$MISSING$UNLISTED" ] || {
  echo "FAIL: /metrics families missing:${MISSING:- none}; unlisted:${UNLISTED:- none}" >&2
  exit 1
}
echo "ok: /metrics declares exactly the $(echo "$SCRAPED" | wc -l | tr -d ' ') listed families"

# Per-grammar series must be labeled with grammar and engine.
echo "$METRICS" | grep -q 'ipg_parses_served_total{grammar="calc",engine="' || {
  echo "FAIL: per-grammar series not labeled" >&2
  exit 1
}
echo "ok: per-grammar labels present"

# The traced parse must be visible in /v1/trace with its request ID.
curl -fsS "$BASE/v1/trace" | grep -q '"request_id":"smoke-1"' || {
  echo "FAIL: /v1/trace has no span for the smoke parse" >&2
  exit 1
}
curl -fsS "$BASE/v1/grammars/calc/trace" | grep -q '"grammar":"calc"' || {
  echo "FAIL: per-grammar trace empty" >&2
  exit 1
}
echo "ok: trace spans retained"

# The session edit's span must break down into the splice and reuse
# stages (the PATCH above ran both under -trace-sample 1).
TRACE="$(curl -fsS "$BASE/v1/trace")"
echo "$TRACE" | grep -q '"request_id":"smoke-splice"' || {
  echo "FAIL: /v1/trace has no span for the session edit" >&2
  exit 1
}
for stage in splice reuse; do
  echo "$TRACE" | grep -q "\"$stage\":" || {
    echo "FAIL: session edit span missing stage $stage" >&2
    exit 1
  }
done
echo "ok: splice/reuse trace stages present"

# The rule updates above must have repaired states in place (never
# falling back) and left a traced span carrying the repair stage.
echo "$METRICS" | grep -q 'ipg_table_states_repaired_total{grammar="calclalr",engine="lalr"' || {
  echo "FAIL: no per-grammar repaired-states series after a rule update" >&2
  exit 1
}
echo "$METRICS" | grep 'ipg_table_states_repaired_total{grammar="calclalr"' | grep -qv ' 0$' || {
  echo "FAIL: rule update repaired zero states" >&2
  exit 1
}
echo "$TRACE" | grep -q '"request_id":"smoke-rules"' || {
  echo "FAIL: /v1/trace has no span for the rule update" >&2
  exit 1
}
echo "$TRACE" | grep -q '"repair":' || {
  echo "FAIL: rule-update span missing stage repair" >&2
  exit 1
}
echo "$TRACE" | grep -q '"repaired_states":' || {
  echo "FAIL: rule-update span carries no repaired-state count" >&2
  exit 1
}
# Both halves of the round trip must carry the work their repairs
# visited: states scanned, rules diffed and nonterminals re-analysed,
# and for the addition lookahead slots propagated (the deletion only
# drops a reduce state, so no lookahead input moves; zero counts are
# omitted from the span).
for check in "smoke-rules repair_propagated" "smoke-rules-del"; do
  set -- $check
  SPAN="$(echo "$TRACE" | sed 's/{"id":/\n&/g' | grep "\"request_id\":\"$1\"")"
  for count in repair_scanned repair_rules_diffed repair_reanalysed ${2:-}; do
    echo "$SPAN" | grep -q "\"$count\":[1-9]" || {
      echo "FAIL: rule-update span $1 carries no $count" >&2
      exit 1
    }
  done
done
echo "ok: table repair metrics + trace stage + repair work present"

# The completion requests above must have produced per-grammar
# completion series and a traced span carrying the complete stage.
echo "$METRICS" | grep -q 'ipg_completions_total{grammar="calc"' || {
  echo "FAIL: no per-grammar completion counter after a completion request" >&2
  exit 1
}
echo "$METRICS" | grep -q '^# TYPE ipg_completion_latency_seconds histogram' || {
  echo "FAIL: completion latency family is not a histogram" >&2
  exit 1
}
echo "$TRACE" | grep -q '"request_id":"smoke-complete"' || {
  echo "FAIL: /v1/trace has no span for the completion request" >&2
  exit 1
}
echo "$TRACE" | grep -q '"complete":' || {
  echo "FAIL: completion span missing stage complete" >&2
  exit 1
}
echo "ok: completion metrics + trace stage present"

# The bookkeeping must balance. Every completion request is one latency
# observation and one completion, and every lease (session or cursor)
# ever opened is open, closed or evicted.
value() { # the sample of the first series starting with $1
  echo "$METRICS" | awk -v p="$1" 'substr($0, 1, length(p)) == p { print $NF; exit }'
}
LAT="$(value 'ipg_completion_latency_seconds_count{grammar="calc",')"
DONE="$(value 'ipg_completions_total{grammar="calc",')"
[ -n "$LAT" ] && [ "$LAT" = "$DONE" ] || {
  echo "FAIL: calc completion latency count $LAT != completions $DONE" >&2
  exit 1
}
for kind in ipg_sessions ipg_completion_cursors; do
  OPEN="$(value "${kind}_open ")"
  OPENED="$(value "${kind}_opened_total ")"
  CLOSED="$(value "${kind}_closed_total ")"
  EVICTED="$(value "${kind}_evicted_total ")"
  [ "$OPENED" -gt 0 ] && [ "$OPENED" -eq $((OPEN + CLOSED + EVICTED)) ] || {
    echo "FAIL: $kind opened $OPENED != open $OPEN + closed $CLOSED + evicted $EVICTED" >&2
    exit 1
  }
done
echo "ok: completion latency count == completions ($DONE); leases opened == open + closed + evicted"

echo "observability smoke passed"
