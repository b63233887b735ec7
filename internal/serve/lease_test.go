package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"ipg/internal/registry"
)

// newThrottledServer returns a test server whose grammars, registered
// after the limits are set, each get a token bucket of burst and a
// refill slow enough never to matter within a test.
func newThrottledServer(t *testing.T, burst int) (*httptest.Server, *registry.Registry) {
	t.Helper()
	srv := New(nil)
	srv.Registry().SetDefaultLimits(registry.Limits{RatePerSec: 0.001, Burst: burst})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv.Registry()
}

// lifecycle is one lease kind's lifecycle counters.
type lifecycle struct {
	open                    int
	opened, closed, evicted uint64
}

// TestLeaseOpenIsOneAdmittedRequest: opening a session or a cursor is
// one admitted request, its first reparse or accept set included. With
// a one-request bucket the open succeeds; the next open, after a rule
// update, is throttled and moves no lifecycle counter.
func TestLeaseOpenIsOneAdmittedRequest(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		body       map[string]any
		status     int
		totals     func(*registry.Registry) lifecycle
	}{
		{"session", "sessions", map[string]any{"input": "true or false"}, http.StatusCreated,
			func(r *registry.Registry) lifecycle {
				t := r.SessionTotals()
				return lifecycle{t.Open, t.Opened, t.Closed, t.Evicted}
			}},
		{"cursor", "complete", map[string]any{"prefix": "true or"}, http.StatusOK,
			func(r *registry.Registry) lifecycle {
				t := r.CompletionTotals()
				return lifecycle{t.Open, t.Opened, t.Closed, t.Evicted}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, reg := newThrottledServer(t, 1)
			mustRegister(t, ts, "bool", boolSrc)
			url := ts.URL + "/v1/grammars/bool/" + tc.path
			if resp, body := do(t, "POST", url, tc.body); resp.StatusCode != tc.status {
				t.Errorf("open with one request left: %d %v, want %d", resp.StatusCode, body, tc.status)
			}
			updateRules(t, ts.URL+"/v1/grammars/bool", map[string]any{"add": `B ::= "maybe"`})
			if resp, body := do(t, "POST", url, tc.body); resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("open with an empty bucket: %d %v, want 429", resp.StatusCode, body)
			}
			if got, want := tc.totals(reg), (lifecycle{open: 1, opened: 1}); got != want {
				t.Errorf("one open admitted, one rejected: %+v, want %+v", got, want)
			}
		})
	}
}

// TestCompletionLatencyCountsEachRequestOnce: every completion request
// shape — open, one-shot and resume, failures included — is one
// latency observation and one completion.
func TestCompletionLatencyCountsEachRequestOnce(t *testing.T) {
	srv := New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	mustRegister(t, ts, "bool", boolSrc)
	url := ts.URL + "/v1/grammars/bool/complete"
	var ids []string
	for i := 0; i < 3; i++ {
		_, body := do(t, "POST", url, map[string]any{"prefix": "true"})
		ids = append(ids, body["cursor"].(string))
	}
	for _, req := range []map[string]any{
		{"prefix": "true or", "once": true},
		{"prefix": "or", "once": true}, // rejected prefix
		{"cursor": ids[0], "feed": "or false"},
		{"cursor": ids[1], "restore": 0},
		{"cursor": ids[1], "feed": "or or"}, // rejected feed
		{"cursor": ids[2], "feed": "and true", "close": true},
	} {
		do(t, "POST", url, req)
	}
	e, _ := srv.Registry().Get("bool")
	st := e.Stats()
	if st.CompleteLatency.Count != st.Completions || st.Completions != 9 {
		t.Errorf("9 completion requests: latency count %d, completions %d",
			st.CompleteLatency.Count, st.Completions)
	}
}

// TestThrottledResumeAnswers429: a resume is admitted before its feed
// is tokenized, so a throttled resume is 429 even when its feed would
// not tokenize (422 once admitted).
func TestThrottledResumeAnswers429(t *testing.T) {
	ts, _ := newThrottledServer(t, 8)
	mustRegister(t, ts, "bool", boolSrc)
	url := ts.URL + "/v1/grammars/bool/complete"
	_, body := do(t, "POST", url, map[string]any{"prefix": "true"})
	id, _ := body["cursor"].(string)
	if id == "" {
		t.Fatalf("open: %v", body)
	}
	for i := 0; ; i++ {
		resp, _ := do(t, "POST", ts.URL+"/v1/grammars/bool/parse", map[string]any{"input": "true"})
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		if i == 8 {
			t.Fatal("rate limit never engaged")
		}
	}
	resp, body := do(t, "POST", url, map[string]any{"cursor": id, "feed": "nonsense"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("throttled resume with an unresolvable feed: %d %v, want 429", resp.StatusCode, body)
	}
}
