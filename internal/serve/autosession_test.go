package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestAutoSessionKeepsBackendAcrossUpdatesOverHTTP drives the registry
// test over the wire: a session opened on an auto grammar is edited and
// reparsed after rule updates. Each case names how the updates move a
// fresh probe's verdict — LALR(1) to lazy GLR, lazy GLR to LALR(1), or
// nowhere under churn on lazy GLR — and the grammar keeps the backend
// of its registration throughout. Every PATCH answers 200 with the
// verdict of a stateless parse, and no engine panic reaches the
// grammar's breaker.
func TestAutoSessionKeepsBackendAcrossUpdatesOverHTTP(t *testing.T) {
	const ambiguous = `E ::= E "+" E`
	churn := func(t *testing.T, url string) {
		for i := 0; i < 6; i++ {
			rule := fmt.Sprintf(`T ::= "kw%d"`, i)
			updateRules(t, url, map[string]any{"add": rule})
			updateRules(t, url, map[string]any{"delete": rule})
		}
	}
	for _, c := range []struct {
		name, src, engine string
		update            func(t *testing.T, url string)
	}{
		{"lalr to glr", calcDetSrc, "lalr", func(t *testing.T, url string) {
			updateRules(t, url, map[string]any{"add": ambiguous})
		}},
		{"glr to lalr", calcDetSrc + ambiguous + "\n", "glr", func(t *testing.T, url string) {
			updateRules(t, url, map[string]any{"delete": ambiguous})
		}},
		{"glr stays glr under churn", calcDetSrc + ambiguous + "\n", "glr", churn},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := New(nil)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			grammarURL := ts.URL + "/v1/grammars/calc"
			resp, body := do(t, "PUT", grammarURL, map[string]any{"source": c.src, "engine": "auto"})
			if resp.StatusCode != http.StatusCreated || body["engine"] != c.engine {
				t.Fatalf("register: %d %v", resp.StatusCode, body)
			}
			resp, body = do(t, "POST", grammarURL+"/sessions", map[string]any{"input": "n + n"})
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("open session: %d %v", resp.StatusCode, body)
			}
			id := body["session"].(map[string]any)["id"].(string)

			c.update(t, grammarURL)
			updateRules(t, grammarURL, map[string]any{"add": `F ::= "m"`})
			if _, body = do(t, "GET", grammarURL, nil); body["engine"] != c.engine {
				t.Fatalf("auto serves %v after the updates, want %s still", body["engine"], c.engine)
			}

			doc := []string{"n", "+", "n"}
			for _, edit := range []struct {
				at     int
				insert string
			}{{2, "m"}, {1, "m"}, {1, "+"}} {
				doc[edit.at] = edit.insert
				resp, body = do(t, "PATCH", ts.URL+"/v1/sessions/"+id, map[string]any{
					"splices": []any{map[string]any{"at": edit.at, "remove": 1, "insert": edit.insert}},
				})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("patch to %v: %d %v", doc, resp.StatusCode, body)
				}
				got := body["result"].(map[string]any)["accepted"]
				_, want := do(t, "POST", grammarURL+"/parse", map[string]any{"input": strings.Join(doc, " ")})
				if got != want["accepted"] {
					t.Fatalf("session verdict %v on %v, entry verdict %v", got, doc, want["accepted"])
				}
			}
			e, _ := srv.Registry().Get("calc")
			if st := e.Stats(); st.Panics != 0 || st.Breaker.State != "closed" || st.Breaker.ConsecutiveFailures != 0 {
				t.Fatalf("panics %d, breaker %+v", st.Panics, st.Breaker)
			}
		})
	}
}

func updateRules(t *testing.T, grammarURL string, req map[string]any) {
	t.Helper()
	if resp, body := do(t, "POST", grammarURL+"/rules", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("rules %v: %d %v", req, resp.StatusCode, body)
	}
}
