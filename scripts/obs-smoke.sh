#!/usr/bin/env sh
# Observability smoke test: boot ipg-serve against a real grammar,
# probe /healthz and /readyz, serve a traced parse, then verify the
# /metrics exposition serves exactly the families and types of
# docs/API.md's Metrics table and /v1/trace returns the parse's
# lifecycle span. Run from the repository root; exits non-zero on the
# first missing piece.
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

# Wait for readiness: the listener binds before the preload, so
# /readyz answers 503 until every grammar is loaded.
i=0
until curl -fsS "$BASE/readyz" 2>/dev/null | grep -q '"status":"ready"'; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "FAIL: /readyz never turned ready" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.2
done
echo "ok: /readyz ready"

curl -fsS "$BASE/healthz" >/dev/null || {
  echo "FAIL: /healthz not live" >&2
  exit 1
}
echo "ok: /healthz live"

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
# The cursor's stat reports the entry version its steps ran at, the one
# /complete reports: 1 on the preloaded, never updated entry.
echo "$COMP" | grep -q '"version":1[,}]' || {
  echo "FAIL: completion open does not report entry version 1" >&2
  exit 1
}
curl -fsS "$BASE/v1/completions/$CID" | grep -q '"version":1[,}]' || {
  echo "FAIL: cursor stat does not report entry version 1" >&2
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

# A request no route serves gets the error envelope too: 405 with the
# Allow header when a route serves the path with another method, 404
# when none matches it.
RESP="$(curl -sS -i -X PATCH "$BASE/v1/grammars/calc")"
echo "$RESP" | head -n 1 | grep -q ' 405' \
  && echo "$RESP" | grep -qi '^Allow: DELETE, GET, HEAD, PUT' \
  && echo "$RESP" | grep -q '"code":"method_not_allowed"' || {
  echo "FAIL: PATCH /v1/grammars/calc did not answer the 405 envelope with Allow" >&2
  exit 1
}
RESP="$(curl -sS -i "$BASE/v1/nosuch")"
echo "$RESP" | head -n 1 | grep -q ' 404' \
  && echo "$RESP" | grep -q '"code":"not_found"' || {
  echo "FAIL: GET /v1/nosuch did not answer the 404 envelope" >&2
  exit 1
}
echo "ok: unrouted requests answer the error envelope (405 with Allow, 404)"

# The exposition must serve exactly the families of docs/API.md's
# Metrics table, each with its type. That table is the families table
# the server's exposition walks (TestMetricsDocs keeps the two equal),
# so the check covers the binary as built.
METRICS="$(curl -fsS "$BASE/metrics")"
DECLARED="$(sed -n 's/^| `\(ipg_[a-z0-9_]*\)` | \([a-z]*\) |.*/\1 \2/p' docs/API.md | sort)"
SCRAPED="$(echo "$METRICS" | sed -n 's/^# TYPE //p' | sort)"
MISSING="$(echo "$DECLARED" | grep -vxF -e "$SCRAPED" | tr '\n' ' ')"
UNLISTED="$(echo "$SCRAPED" | grep -vxF -e "$DECLARED" | tr '\n' ' ')"
[ -n "$DECLARED" ] && [ -z "$MISSING$UNLISTED" ] || {
  echo "FAIL: /metrics vs docs/API.md's Metrics table; missing: ${MISSING:-none}; not in the table: ${UNLISTED:-none}" >&2
  exit 1
}
echo "ok: /metrics serves exactly the $(echo "$SCRAPED" | wc -l | tr -d ' ') families of docs/API.md's Metrics table"

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
