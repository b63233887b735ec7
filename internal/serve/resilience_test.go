// HTTP-surface tests for the fault-tolerance layer: deadline aborts,
// breaker quarantine, drain rejection, body limits, and throttling all
// map to the documented status codes and Retry-After headers, and the
// new resilience state shows up in /v1/stats and /metrics.
package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ipg/internal/faultinject"
	"ipg/internal/registry"
)

// newResilienceServer builds a server with direct access to the Server
// and its registry (newTestServer hides both behind the handler).
func newResilienceServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func registerBool(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, body := do(t, "PUT", ts.URL+"/v1/grammars/bool", map[string]any{"source": boolSrc})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %v", resp.StatusCode, body)
	}
}

// longBoolInput builds an input with enough tokens that a per-token
// delay fault dominates the parse.
func longBoolInput(tokens int) string {
	var b strings.Builder
	b.WriteString("true")
	for i := 0; i < tokens; i++ {
		b.WriteString(" or true")
	}
	return b.String()
}

func TestParseDeadlineReturns504(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newResilienceServer(t)
	registerBool(t, ts)
	s.SetParseTimeout(10 * time.Millisecond)
	defer s.SetParseTimeout(0)
	faultinject.Set(faultinject.SiteDriveToken,
		faultinject.Fault{Kind: faultinject.Delay, Delay: time.Millisecond})

	start := time.Now()
	resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/parse",
		map[string]any{"input": longBoolInput(400)})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline parse: %d %v, want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline abort took %v — checkpoints not firing", elapsed)
	}
	detail, _ := body["error"].(map[string]any)
	if msg, _ := detail["message"].(string); !strings.Contains(msg, "deadline") {
		t.Errorf("504 body %v does not name the deadline", body)
	}
	if code, _ := detail["code"].(string); code != "timeout" {
		t.Errorf("504 code = %q, want \"timeout\"", code)
	}
}

// TestCompleteGuardedLikeParse pins completion on the parse guard over
// HTTP: a one-shot query whose prefix outlasts the parse timeout
// answers 504, and an injected engine panic on the step answers 500.
func TestCompleteGuardedLikeParse(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newResilienceServer(t)
	registerBool(t, ts)
	s.SetParseTimeout(10 * time.Millisecond)
	defer s.SetParseTimeout(0)
	faultinject.Set(faultinject.SiteDriveToken,
		faultinject.Fault{Kind: faultinject.Delay, Delay: time.Millisecond})

	start := time.Now()
	resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"prefix": longBoolInput(400), "once": true})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline completion: %d %v, want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline abort took %v — checkpoints not firing", elapsed)
	}
	if code := envelope(t, body)["code"]; code != "timeout" {
		t.Errorf("504 code = %v, want \"timeout\"", code)
	}
	faultinject.Reset()

	faultinject.Set(faultinject.SiteDispatch,
		faultinject.Fault{Kind: faultinject.Panic, Times: 1})
	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"prefix": "true or", "once": true})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking completion: %d %v, want 500", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", ts.URL+"/v1/grammars/bool/complete",
		map[string]any{"prefix": "true or", "once": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("completion after the panic: %d %v, want 200", resp.StatusCode, body)
	}
}

func TestBreakerReturns503WithRetryAfter(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newResilienceServer(t)
	registerBool(t, ts)
	s.reg.SetBreakerConfig(registry.BreakerConfig{Threshold: 2, Cooldown: time.Minute})

	// Two consecutive engine panics surface as 500s and open the breaker.
	faultinject.Set(faultinject.SiteDispatch,
		faultinject.Fault{Kind: faultinject.Panic, Times: 2})
	for i := 0; i < 2; i++ {
		resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/parse",
			map[string]any{"input": "true or false"})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panic parse %d: %d %v, want 500", i, resp.StatusCode, body)
		}
	}
	resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/parse",
		map[string]any{"input": "true or false"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined parse: %d %v, want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("breaker 503 carries Retry-After %q, want positive seconds", ra)
	}
}

func TestDrainingReturns503WithRetryAfter(t *testing.T) {
	s, ts := newResilienceServer(t)
	registerBool(t, ts)
	s.reg.SetDraining(true)
	defer s.reg.SetDraining(false)

	resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/parse",
		map[string]any{"input": "true"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining parse: %d %v, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 carries no Retry-After")
	}
}

func TestBodyLimitReturns413(t *testing.T) {
	s, ts := newResilienceServer(t)
	registerBool(t, ts)
	s.SetMaxBodyBytes(256)
	defer s.SetMaxBodyBytes(0)

	resp, body := do(t, "POST", ts.URL+"/v1/grammars/bool/parse",
		map[string]any{"input": longBoolInput(500)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %v, want 413", resp.StatusCode, body)
	}
}

func TestThrottledReturns429WithRetryAfter(t *testing.T) {
	s, ts := newResilienceServer(t)
	if _, err := s.reg.Register("slow", registry.Spec{
		Source: boolSrc,
		Limits: registry.Limits{RatePerSec: 0.001},
	}); err != nil {
		t.Fatal(err)
	}
	// The bucket starts with one token: the first parse drains it, the
	// second is throttled.
	do(t, "POST", ts.URL+"/v1/grammars/slow/parse", map[string]any{"input": "true"})
	resp, body := do(t, "POST", ts.URL+"/v1/grammars/slow/parse",
		map[string]any{"input": "true"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled parse: %d %v, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
}

func TestStatsExposeResilience(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newResilienceServer(t)
	registerBool(t, ts)
	s.reg.SetBreakerConfig(registry.BreakerConfig{Threshold: 7, Cooldown: time.Second})
	s.SetParseTimeout(5 * time.Millisecond)
	defer s.SetParseTimeout(0)

	// One deadline-canceled parse so the canceled counters move.
	faultinject.Set(faultinject.SiteDriveToken,
		faultinject.Fault{Kind: faultinject.Delay, Delay: time.Millisecond})
	do(t, "POST", ts.URL+"/v1/grammars/bool/parse",
		map[string]any{"input": longBoolInput(400)})
	faultinject.Reset()

	_, body := do(t, "GET", ts.URL+"/v1/stats", nil)
	res, ok := body["resilience"].(map[string]any)
	if !ok {
		t.Fatalf("stats carry no resilience section: %v", body)
	}
	if res["breaker_threshold"].(float64) != 7 {
		t.Errorf("resilience.breaker_threshold = %v, want 7", res["breaker_threshold"])
	}
	if res["parse_timeout_ms"].(float64) != 5 {
		t.Errorf("resilience.parse_timeout_ms = %v, want 5", res["parse_timeout_ms"])
	}
	canceled, ok := body["parses_canceled_total"].(map[string]any)
	if !ok || canceled["deadline"].(float64) < 1 {
		t.Errorf("parses_canceled_total = %v, want deadline >= 1", body["parses_canceled_total"])
	}
}

func TestMetricsExposeResilienceFamilies(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newResilienceServer(t)
	registerBool(t, ts)
	// Fire one injected fault so ipg_fault_injections_total has a row.
	faultinject.Set(faultinject.SiteDispatch,
		faultinject.Fault{Kind: faultinject.Panic, Times: 1})
	do(t, "POST", ts.URL+"/v1/grammars/bool/parse", map[string]any{"input": "true"})
	_ = s

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, fam := range []string{
		"ipg_parses_canceled_total",
		"ipg_parse_panics_total",
		"ipg_breaker_state",
		"ipg_breaker_trips_total",
		"ipg_breaker_rejected_total",
		"ipg_draining",
		"ipg_drain_rejected_total",
		"ipg_mem_budget_bytes",
		"ipg_mem_usage_bytes",
		"ipg_mem_rejected_total",
		"ipg_shed_active",
		"ipg_shed_total",
		"ipg_snapshot_retries_total",
		"ipg_fault_injections_total",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("/metrics lacks family %s", fam)
		}
	}
	if !strings.Contains(text, `ipg_fault_injections_total{site="dispatch.parse",kind="panic"}`) {
		t.Error("/metrics lacks the fired fault-injection sample")
	}
}
