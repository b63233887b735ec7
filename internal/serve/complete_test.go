package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ipg/internal/registry"
)

// envelope decodes the uniform error body, failing the test when the
// response does not carry the {"error": {code, message}} shape.
func envelope(t *testing.T, body map[string]any) map[string]any {
	t.Helper()
	detail, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("error body %v is not the uniform envelope", body)
	}
	if _, ok := detail["code"].(string); !ok {
		t.Fatalf("error envelope %v has no code", detail)
	}
	if msg, _ := detail["message"].(string); msg == "" {
		t.Fatalf("error envelope %v has no message", detail)
	}
	return detail
}

// TestErrorEnvelope pins the uniform error shape across handlers and
// status classes: every non-2xx response is
// {"error": {"code", "message", "retry_after_s"?}}.
func TestErrorEnvelope(t *testing.T) {
	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mustRegister(t, ts, "bool", boolSrc)

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantCode   string
		wantRetry  bool
	}{
		{"unknown grammar", "GET", "/v1/grammars/nope", nil,
			http.StatusNotFound, "not_found", false},
		{"bad body", "POST", "/v1/grammars/bool/parse", "{not json",
			http.StatusBadRequest, "bad_request", false},
		{"bad register", "PUT", "/v1/grammars/x", map[string]any{"source": "::= broken"},
			http.StatusUnprocessableEntity, "invalid_input", false},
		{"unknown session", "GET", "/v1/sessions/nope", nil,
			http.StatusNotFound, "not_found", false},
		{"unknown cursor", "GET", "/v1/completions/nope", nil,
			http.StatusNotFound, "not_found", false},
		{"non-viable prefix", "POST", "/v1/grammars/bool/complete",
			map[string]any{"prefix": "true true", "once": true},
			http.StatusUnprocessableEntity, "prefix_rejected", false},
		{"prefix and cursor", "POST", "/v1/grammars/bool/complete",
			map[string]any{"prefix": "true", "cursor": "c-x-1"},
			http.StatusBadRequest, "bad_request", false},
		{"neither prefix nor cursor", "POST", "/v1/grammars/bool/complete",
			map[string]any{}, http.StatusBadRequest, "bad_request", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body map[string]any
			if raw, ok := tc.body.(string); ok {
				req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				r, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp = r
				body = decodeBody(t, r)
			} else {
				resp, body = do(t, tc.method, ts.URL+tc.path, tc.body)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d %v, want %d", resp.StatusCode, body, tc.wantStatus)
			}
			detail := envelope(t, body)
			if detail["code"] != tc.wantCode {
				t.Errorf("code = %v, want %q", detail["code"], tc.wantCode)
			}
			if _, has := detail["retry_after_s"]; has != tc.wantRetry {
				t.Errorf("retry_after_s presence = %v, want %v (%v)", has, tc.wantRetry, detail)
			}
		})
	}
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return out
}

func mustRegister(t *testing.T, ts *httptest.Server, name, src string) {
	t.Helper()
	resp, body := do(t, "PUT", ts.URL+"/v1/grammars/"+name, map[string]any{"source": src})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register %s: %d %v", name, resp.StatusCode, body)
	}
}

func TestCompleteOnce(t *testing.T) {
	ts := newTestServer(t)
	mustRegister(t, ts, "bool", boolSrc)

	resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"prefix": "true", "once": true, "candidates": []string{"or", "true", "$"}})
	if resp.StatusCode != 200 {
		t.Fatalf("once: %d %v", resp.StatusCode, body)
	}
	if body["cursor"] != nil {
		t.Errorf("once retained a cursor: %v", body)
	}
	if body["pos"].(float64) != 1 || body["complete"] != true {
		t.Errorf("once body: %v", body)
	}
	accepts := body["accepts"].([]any)
	names := make(map[string]bool, len(accepts))
	for _, a := range accepts {
		names[a.(string)] = true
	}
	// "true" is a complete sentence: "and", "or" and EOF may follow.
	if !names["and"] || !names["or"] || !names["$"] || names["true"] {
		t.Errorf("accepts after \"true\" = %v", accepts)
	}
	cand := body["candidates"].(map[string]any)
	if cand["or"] != true || cand["true"] != false || cand["$"] != true {
		t.Errorf("candidates: %v", cand)
	}
	if body["bitset"].(string) == "" {
		t.Errorf("bitset missing: %v", body)
	}

	// No cursor retained.
	_, list := do(t, "GET", ts.URL+"/v1/completions", nil)
	if n := len(list["completions"].([]any)); n != 0 {
		t.Errorf("once left %d cursors open", n)
	}
}

func TestCompleteCursorLifecycle(t *testing.T) {
	ts := newTestServer(t)
	mustRegister(t, ts, "bool", boolSrc)

	// Open with a prefix; the response carries the vocabulary.
	resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"prefix": "true or"})
	if resp.StatusCode != 200 {
		t.Fatalf("open: %d %v", resp.StatusCode, body)
	}
	id, _ := body["cursor"].(string)
	if id == "" || body["pos"].(float64) != 2 {
		t.Fatalf("open body: %v", body)
	}
	if body["complete"] != false {
		t.Errorf("\"true or\" reported complete: %v", body)
	}
	vocab := body["vocab"].([]any)
	if len(vocab) == 0 {
		t.Errorf("open response has no vocab: %v", body)
	}

	// The cursor shows up in list and stat.
	_, list := do(t, "GET", ts.URL+"/v1/completions", nil)
	if n := len(list["completions"].([]any)); n != 1 {
		t.Fatalf("open cursors = %d, want 1", n)
	}
	resp, stat := do(t, "GET", ts.URL+"/v1/completions/"+id, nil)
	if resp.StatusCode != 200 || stat["id"] != id || stat["pos"].(float64) != 2 {
		t.Fatalf("stat: %d %v", resp.StatusCode, stat)
	}

	// Feed through the cursor; checkpoint 2 is the open position.
	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"cursor": id, "feed": "false and true"})
	if resp.StatusCode != 200 || body["pos"].(float64) != 5 {
		t.Fatalf("feed: %d %v", resp.StatusCode, body)
	}

	// Restore rewinds without reparsing; vocab is not resent.
	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"cursor": id, "restore": 2})
	if resp.StatusCode != 200 || body["pos"].(float64) != 2 {
		t.Fatalf("restore: %d %v", resp.StatusCode, body)
	}
	if body["vocab"] != nil {
		t.Errorf("cursor op resent vocab: %v", body)
	}

	// A rejected feed names the offending token and keeps the cursor.
	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"cursor": id, "feed": "or"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("rejected feed: %d %v", resp.StatusCode, body)
	}
	if envelope(t, body)["code"] != "prefix_rejected" {
		t.Errorf("rejected feed envelope: %v", body)
	}

	// Out-of-range restore is 416.
	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"cursor": id, "restore": 99})
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("bad restore: %d %v", resp.StatusCode, body)
	}
	if envelope(t, body)["code"] != "bad_checkpoint" {
		t.Errorf("bad restore envelope: %v", body)
	}

	// Close through the op body; the cursor is gone afterwards.
	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"cursor": id, "feed": "false", "close": true})
	if resp.StatusCode != 200 || body["closed"] != true {
		t.Fatalf("close: %d %v", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"cursor": id})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("closed cursor reuse: %d %v", resp.StatusCode, body)
	}
}

func TestCompleteCursorStaleAfterRuleUpdate(t *testing.T) {
	ts := newTestServer(t)
	mustRegister(t, ts, "bool", boolSrc)

	_, body := do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"prefix": "true"})
	id := body["cursor"].(string)

	resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/rules",
		map[string]any{"add": `B ::= "not" B`})
	if resp.StatusCode != 200 {
		t.Fatalf("rules: %d %v", resp.StatusCode, body)
	}

	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"cursor": id})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale cursor: %d %v, want 409", resp.StatusCode, body)
	}
	if envelope(t, body)["code"] != "cursor_stale" {
		t.Errorf("stale envelope: %v", body)
	}

	// Re-opening sees the new rule.
	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"prefix": "not true", "once": true})
	if resp.StatusCode != 200 || body["complete"] != true {
		t.Fatalf("reopened prefix with new rule: %d %v", resp.StatusCode, body)
	}

	// Explicit close of the stale cursor still works.
	resp, _ = do(t, "DELETE", ts.URL+"/v1/completions/"+id, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("stale close: %d", resp.StatusCode)
	}
}

// TestCompleteVersionIsEntryVersion pins that a completion and its
// cursor's stat, in GET /v1/completions/{id} and in the cursor list,
// report the entry's version, the one /v1/grammars/{name} reports: 1 on
// a fresh calculator entry and 2 after one rule update, not the
// grammar's own mutation count, which also counts the rules it was
// registered with.
func TestCompleteVersionIsEntryVersion(t *testing.T) {
	ts := newTestServer(t)
	mustRegister(t, ts, "calc", calcDetSrc)
	for want := 1; want <= 2; want++ {
		if want == 2 {
			if resp, body := do(t, "POST", ts.URL+"/v1/grammars/calc/rules", map[string]any{"add": `F ::= "m"`}); resp.StatusCode != 200 {
				t.Fatalf("rules: %d %v", resp.StatusCode, body)
			}
		}
		_, info := do(t, "GET", ts.URL+"/v1/grammars/calc", nil)
		resp, body := do(t, "POST", ts.URL+"/v1/grammars/calc/complete", map[string]any{"prefix": "n +"})
		if resp.StatusCode != 200 {
			t.Fatalf("complete: %d %v", resp.StatusCode, body)
		}
		id, _ := body["cursor"].(string)
		_, stat := do(t, "GET", ts.URL+"/v1/completions/"+id, nil)
		_, list := do(t, "GET", ts.URL+"/v1/completions", nil)
		listed, _ := list["completions"].([]any)
		if len(listed) != 1 {
			t.Fatalf("cursor list: %v", list)
		}
		for _, c := range []struct {
			where   string
			version any
		}{
			{"GET /v1/grammars/calc", info["version"]},
			{"/complete", body["version"]},
			{"GET /v1/completions/{id}", stat["version"]},
			{"GET /v1/completions", listed[0].(map[string]any)["version"]},
		} {
			if c.version != float64(want) {
				t.Errorf("%s answers version %v, want %d", c.where, c.version, want)
			}
		}
		if resp, _ := do(t, "DELETE", ts.URL+"/v1/completions/"+id, nil); resp.StatusCode != 200 {
			t.Fatalf("close: %d", resp.StatusCode)
		}
	}
}

func TestCompleteCursorLimitsAndEviction(t *testing.T) {
	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mustRegister(t, ts, "bool", boolSrc)
	s.Registry().SetCompletionLimits(registry.CompletionLimits{
		MaxCursors: 1, MaxPrefixTokens: 3, IdleTimeout: time.Minute,
	})

	_, body := do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"prefix": ""})
	id, _ := body["cursor"].(string)
	if id == "" {
		t.Fatalf("open under cap: %v", body)
	}

	// The cap answers 429 with a Retry-After hint in header and body.
	resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"prefix": ""})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over cap: %d %v, want 429", resp.StatusCode, body)
	}
	detail := envelope(t, body)
	if detail["code"] != "throttled" || detail["retry_after_s"].(float64) < 1 {
		t.Errorf("cap envelope: %v", detail)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}

	// Over-long feeds are 413 against MaxPrefixTokens.
	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"cursor": id, "feed": "true or true or true"})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over token budget: %d %v, want 413", resp.StatusCode, body)
	}
	if envelope(t, body)["code"] != "too_large" {
		t.Errorf("413 envelope: %v", body)
	}

	// Idle eviction reclaims the cursor; its id then answers 404.
	if n := s.Registry().EvictIdleCompletions(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("evicted %d cursors, want 1", n)
	}
	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"cursor": id})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted cursor: %d %v, want 404", resp.StatusCode, body)
	}
}

// TestCompleteWrongGrammar pins that a cursor is only addressable
// through the grammar that opened it.
func TestCompleteWrongGrammar(t *testing.T) {
	ts := newTestServer(t)
	mustRegister(t, ts, "bool", boolSrc)
	mustRegister(t, ts, "other", boolSrc)

	_, body := do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"prefix": "true"})
	id := body["cursor"].(string)

	resp, body := do(t, "POST", ts.URL+"/v1/grammars/other/complete",
		map[string]any{"cursor": id})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-grammar cursor: %d %v, want 404", resp.StatusCode, body)
	}
}

// TestCompleteMetricsFamilies pins the completion metric families into
// the exposition after traffic has flowed.
func TestCompleteMetricsFamilies(t *testing.T) {
	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mustRegister(t, ts, "bool", boolSrc)
	do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"prefix": "true", "once": true})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, family := range []string{
		"ipg_completions_total",
		"ipg_completion_latency_seconds",
		"ipg_completion_cursors_open",
		"ipg_completion_cursors_opened_total",
		"ipg_completion_cursors_evicted_total",
		"ipg_completion_cursors_closed_total",
		"ipg_completion_queries_total",
		"ipg_completion_feeds_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(text, `ipg_completions_total{grammar="bool"`) {
		t.Errorf("/metrics missing per-grammar completions sample")
	}
}

// TestSessionStatCanonicalAndAlias pins GET /v1/sessions/{id} as the
// stat endpoint with /stat answering identically for older clients.
func TestSessionStatCanonicalAndAlias(t *testing.T) {
	ts := newTestServer(t)
	mustRegister(t, ts, "bool", boolSrc)

	resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/sessions",
		map[string]any{"input": "true or false"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open session: %d %v", resp.StatusCode, body)
	}
	id := body["session"].(map[string]any)["id"].(string)

	resp, canonical := do(t, "GET", ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("canonical stat: %d %v", resp.StatusCode, canonical)
	}
	resp, alias := do(t, "GET", ts.URL+"/v1/sessions/"+id+"/stat", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("alias stat: %d %v", resp.StatusCode, alias)
	}
	// idle_ms ticks between the two requests; compare the rest.
	delete(canonical, "idle_ms")
	delete(alias, "idle_ms")
	if fmt.Sprint(canonical) != fmt.Sprint(alias) {
		t.Errorf("canonical and alias disagree:\n%v\n%v", canonical, alias)
	}
	if canonical["id"] != id || canonical["tokens"].(float64) != 3 {
		t.Errorf("stat body: %v", canonical)
	}
}
