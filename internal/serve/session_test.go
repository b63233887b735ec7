package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ipg/internal/registry"
)

// newSessionServer returns a test server plus its registry, with the
// booleans grammar registered on the requested engine.
func newSessionServer(t *testing.T, engineName string) (*httptest.Server, *registry.Registry) {
	t.Helper()
	srv := New(nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, body := do(t, "PUT", ts.URL+"/v1/grammars/bool",
		map[string]any{"source": boolSrc, "engine": engineName})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %v", resp.StatusCode, body)
	}
	return ts, srv.Registry()
}

func openSession(t *testing.T, ts *httptest.Server, input string) (string, map[string]any) {
	t.Helper()
	resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/sessions",
		map[string]any{"input": input})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open session: %d %v", resp.StatusCode, body)
	}
	sess := body["session"].(map[string]any)
	return sess["id"].(string), body
}

func TestSessionLifecycle(t *testing.T) {
	ts, _ := newSessionServer(t, "earley")
	id, body := openSession(t, ts, "true or false and true")
	result := body["result"].(map[string]any)
	if result["accepted"] != true {
		t.Fatalf("initial parse rejected: %v", body)
	}
	if sess := body["session"].(map[string]any); sess["engine"] != "earley" || sess["incremental"] != true {
		t.Fatalf("session meta: %v", sess)
	}

	// Replace the final token; the reparse must reuse the whole prefix.
	resp, body := do(t, "PATCH", ts.URL+"/v1/sessions/"+id, map[string]any{
		"splices": []any{map[string]any{"at": 4, "remove": 1, "insert": "false"}},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("patch: %d %v", resp.StatusCode, body)
	}
	if body["result"].(map[string]any)["accepted"] != true {
		t.Fatalf("edited doc rejected: %v", body)
	}
	if body["sets_reused"].(float64) < 4 {
		t.Errorf("tail edit reused %v sets, want the whole prefix", body["sets_reused"])
	}
	if body["tokens"].(float64) != 5 {
		t.Errorf("tokens: %v", body["tokens"])
	}

	// Buffered splices (reparse:false) return no result.
	_, body = do(t, "PATCH", ts.URL+"/v1/sessions/"+id, map[string]any{
		"splices": []any{map[string]any{"at": 0, "remove": 0, "insert": "false or"}},
		"reparse": false,
	})
	if _, ok := body["result"]; ok {
		t.Errorf("reparse:false still parsed: %v", body)
	}

	// Tree endpoint renders the forest of the full 7-token document.
	resp, body = do(t, "GET", ts.URL+"/v1/sessions/"+id+"/tree?render=1", nil)
	if resp.StatusCode != 200 || body["accepted"] != true {
		t.Fatalf("tree: %d %v", resp.StatusCode, body)
	}
	if f, _ := body["forest"].(string); !strings.Contains(f, "or") {
		t.Errorf("forest rendering: %v", body["forest"])
	}
	if body["trees"].(float64) < 2 {
		t.Errorf("ambiguous booleans should have several trees: %v", body["trees"])
	}

	// Stat reflects the accumulated work.
	_, body = do(t, "GET", ts.URL+"/v1/sessions/"+id+"/stat", nil)
	if body["splices"].(float64) != 2 || body["tokens"].(float64) != 7 {
		t.Errorf("stat: %v", body)
	}
	if body["sets_reused"].(float64) == 0 || body["reparses"].(float64) < 2 {
		t.Errorf("reuse accounting missing from stat: %v", body)
	}

	// Close; the id is then unknown everywhere.
	resp, _ = do(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("close: %d", resp.StatusCode)
	}
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/sessions/" + id + "/stat"},
		{"GET", "/v1/sessions/" + id + "/tree"},
		{"PATCH", "/v1/sessions/" + id},
		{"DELETE", "/v1/sessions/" + id},
	} {
		resp, _ := do(t, probe.method, ts.URL+probe.path, map[string]any{})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s after close: %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

func TestSessionErrors(t *testing.T) {
	ts, reg := newSessionServer(t, "earley")
	id, _ := openSession(t, ts, "true or false") // 3 tokens

	badSplices := []struct {
		name       string
		at, remove int
		insert     string
		status     int
	}{
		{"at beyond end", 4, 0, "", http.StatusRequestedRangeNotSatisfiable},
		{"remove beyond end", 0, 4, "", http.StatusRequestedRangeNotSatisfiable},
		{"window beyond end", 2, 2, "", http.StatusRequestedRangeNotSatisfiable},
		{"negative at", -1, 0, "", http.StatusRequestedRangeNotSatisfiable},
		{"negative remove", 0, -1, "", http.StatusRequestedRangeNotSatisfiable},
		{"unknown token", 0, 0, "nonsense", http.StatusUnprocessableEntity},
	}
	for _, tc := range badSplices {
		resp, body := do(t, "PATCH", ts.URL+"/v1/sessions/"+id, map[string]any{
			"splices": []any{map[string]any{"at": tc.at, "remove": tc.remove, "insert": tc.insert}},
		})
		if resp.StatusCode != tc.status {
			t.Errorf("%s: %d %v, want %d", tc.name, resp.StatusCode, body, tc.status)
		}
	}
	// Failed splices left the document intact.
	if _, body := do(t, "GET", ts.URL+"/v1/sessions/"+id+"/stat", nil); body["tokens"].(float64) != 3 {
		t.Errorf("bad splices mutated the document: %v", body["tokens"])
	}

	// Unknown session ids are 404 across the board.
	resp, _ := do(t, "PATCH", ts.URL+"/v1/sessions/nope-99", map[string]any{})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: %d", resp.StatusCode)
	}

	// Unknown grammar on open.
	resp, _ = do(t, "POST", ts.URL+"/v1/grammars/nope/sessions", map[string]any{"input": "x"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("open on unknown grammar: %d", resp.StatusCode)
	}

	// Session-count admission: cap at the one already open.
	reg.SetSessionLimits(registry.SessionLimits{MaxSessions: 1})
	resp, _ = do(t, "POST", ts.URL+"/v1/grammars/bool/sessions", map[string]any{"input": "true"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over session cap: %d, want 429", resp.StatusCode)
	}

	// Document token budget: rejected at open and on growth.
	reg.SetSessionLimits(registry.SessionLimits{MaxDocTokens: 4})
	resp, _ = do(t, "POST", ts.URL+"/v1/grammars/bool/sessions",
		map[string]any{"input": "true or false and true"})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over token budget at open: %d, want 413", resp.StatusCode)
	}
	id2, _ := openSession(t, ts, "true or false")
	resp, _ = do(t, "PATCH", ts.URL+"/v1/sessions/"+id2, map[string]any{
		"splices": []any{map[string]any{"at": 0, "remove": 0, "insert": "true or true or"}},
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over token budget on splice: %d, want 413", resp.StatusCode)
	}

	// Idle eviction turns a live id into a 404.
	reg.SetSessionLimits(registry.SessionLimits{IdleTimeout: time.Millisecond})
	if n := reg.EvictIdleSessions(time.Now().Add(time.Second)); n == 0 {
		t.Fatal("eviction pass reclaimed nothing")
	}
	resp, _ = do(t, "GET", ts.URL+"/v1/sessions/"+id+"/stat", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted session: %d, want 404", resp.StatusCode)
	}
}

// TestSessionEditRejectedAtAdmissionLeavesDocument: a PATCH the
// entry's admission gate rejects — draining (503) or rate-limited
// (429) — must not have touched the document, so a client honouring
// Retry-After does not apply its splices twice.
func TestSessionEditRejectedAtAdmissionLeavesDocument(t *testing.T) {
	for _, engineName := range []string{"earley", "lalr"} {
		t.Run(engineName, func(t *testing.T) {
			srv := New(nil)
			reg := srv.Registry()
			// A bucket that never refills within the test: once the open
			// and the parses below drain it, every request is throttled.
			reg.SetDefaultLimits(registry.Limits{RatePerSec: 1e-9, Burst: 8})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			if resp, body := do(t, "PUT", ts.URL+"/v1/grammars/bool",
				map[string]any{"source": boolSrc, "engine": engineName}); resp.StatusCode != http.StatusCreated {
				t.Fatalf("register: %d %v", resp.StatusCode, body)
			}
			id, _ := openSession(t, ts, "true or false") // 3 tokens
			sess, _ := reg.Session(id)
			edit := map[string]any{
				"splices": []any{map[string]any{"at": 0, "remove": 0, "insert": "true or"}},
			}
			unchanged := func(what string) {
				t.Helper()
				if st := sess.Stat(); st.Tokens != 3 || st.Splices != 0 {
					t.Errorf("%s PATCH changed the document: tokens=%d splices=%d, want 3 and 0",
						what, st.Tokens, st.Splices)
				}
			}

			reg.SetDraining(true)
			resp, body := do(t, "PATCH", ts.URL+"/v1/sessions/"+id, edit)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("draining PATCH: %d %v, want 503", resp.StatusCode, body)
			}
			unchanged("draining")
			reg.SetDraining(false)

			for i := 0; ; i++ {
				resp, _ := do(t, "POST", ts.URL+"/v1/grammars/bool/parse", map[string]any{"input": "true"})
				if resp.StatusCode == http.StatusTooManyRequests {
					break
				}
				if i == 8 {
					t.Fatal("rate limit never engaged")
				}
			}
			resp, body = do(t, "PATCH", ts.URL+"/v1/sessions/"+id, edit)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("rate-limited PATCH: %d %v, want 429", resp.StatusCode, body)
			}
			unchanged("rate-limited")
		})
	}
}

// TestSessionEditBatchIsAllOrNothing: a PATCH batch whose last splice
// fails — out of range (416) or over the document token budget (413) —
// leaves the document exactly as it was, earlier splices included.
func TestSessionEditBatchIsAllOrNothing(t *testing.T) {
	for _, engineName := range []string{"earley", "lalr"} {
		t.Run(engineName, func(t *testing.T) {
			ts, reg := newSessionServer(t, engineName)
			reg.SetSessionLimits(registry.SessionLimits{MaxDocTokens: 6})
			id, _ := openSession(t, ts, "true or false") // 3 tokens
			grow := map[string]any{"at": 0, "remove": 0, "insert": "true or"}
			for _, tc := range []struct {
				name   string
				last   map[string]any
				status int
			}{
				{"out of range", map[string]any{"at": 99, "remove": 0, "insert": "true"}, http.StatusRequestedRangeNotSatisfiable},
				// 3 + 2 = 5 tokens fit; another 2 would make 7 > 6.
				{"over budget", grow, http.StatusRequestEntityTooLarge},
			} {
				resp, body := do(t, "PATCH", ts.URL+"/v1/sessions/"+id, map[string]any{
					"splices": []any{grow, tc.last},
				})
				if resp.StatusCode != tc.status {
					t.Fatalf("%s: %d %v, want %d", tc.name, resp.StatusCode, body, tc.status)
				}
				sess, _ := reg.Session(id)
				if st := sess.Stat(); st.Tokens != 3 || st.Splices != 0 {
					t.Errorf("%s: batch applied partially: tokens=%d splices=%d, want 3 and 0",
						tc.name, st.Tokens, st.Splices)
				}
			}
		})
	}
}

// TestSessionStatShape pins the omit-empty wire shape: fallback
// (full-reparse) sessions must not serialize the chart-reuse fields,
// incremental ones must.
func TestSessionStatShape(t *testing.T) {
	ts, _ := newSessionServer(t, "lalr")
	id, body := openSession(t, ts, "true or false")
	if sess := body["session"].(map[string]any); sess["engine"] != "lalr" {
		t.Fatalf("expected a lalr fallback session: %v", sess)
	}
	_, stat := do(t, "GET", ts.URL+"/v1/sessions/"+id+"/stat", nil)
	for _, key := range []string{"incremental", "sets", "sets_reused", "sets_rebuilt", "last_reused", "forest_nodes"} {
		if _, ok := stat[key]; ok {
			t.Errorf("fallback stat serializes %q: %v", key, stat)
		}
	}
	for _, key := range []string{"id", "grammar", "engine", "tokens", "idle_ms", "reparses", "full_reparses"} {
		if _, ok := stat[key]; !ok {
			t.Errorf("fallback stat omits %q: %v", key, stat)
		}
	}
	// The fallback still tracks edits behind the same API.
	_, body = do(t, "PATCH", ts.URL+"/v1/sessions/"+id, map[string]any{
		"splices": []any{map[string]any{"at": 2, "remove": 1, "insert": "true"}},
	})
	if body["result"].(map[string]any)["accepted"] != true {
		t.Fatalf("fallback reparse: %v", body)
	}
	if _, ok := body["sets_reused"]; ok {
		t.Errorf("fallback patch reports chart reuse: %v", body)
	}

	// /v1/sessions lists it.
	_, body = do(t, "GET", ts.URL+"/v1/sessions", nil)
	if n := len(body["sessions"].([]any)); n != 1 {
		t.Errorf("session list: %d entries", n)
	}
}

// TestSessionMetricsFamilies: the session metric families appear in
// /metrics and move with session activity.
func TestSessionMetricsFamilies(t *testing.T) {
	ts, reg := newSessionServer(t, "earley")
	id, _ := openSession(t, ts, "true or false and true")
	do(t, "PATCH", ts.URL+"/v1/sessions/"+id, map[string]any{
		"splices": []any{map[string]any{"at": 4, "remove": 1, "insert": "false"}},
	})
	reg.SetSessionLimits(registry.SessionLimits{IdleTimeout: time.Millisecond})
	reg.EvictIdleSessions(time.Now().Add(time.Second))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"# TYPE ipg_sessions_open gauge",
		"# TYPE ipg_sessions_opened_total counter",
		"# TYPE ipg_sessions_evicted_total counter",
		"# TYPE ipg_sessions_closed_total counter",
		"# TYPE ipg_session_splices_total counter",
		"# TYPE ipg_session_reparses_total counter",
		"# TYPE ipg_session_full_reparses_total counter",
		"# TYPE ipg_reparse_sets_reused_total counter",
		"# TYPE ipg_reparse_sets_rebuilt_total counter",
		"ipg_sessions_opened_total 1",
		"ipg_sessions_evicted_total 1",
		"ipg_sessions_open 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Eviction rolled the counters into the closed totals: the splice
	// and its chart reuse survive the session.
	if !strings.Contains(text, "ipg_session_splices_total 1") {
		t.Error("splice count did not survive eviction")
	}
	if strings.Contains(text, "ipg_reparse_sets_reused_total 0\n") {
		t.Error("reuse total lost on eviction")
	}
}
