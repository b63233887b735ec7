package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ipg/internal/faultinject"
	"ipg/internal/obs"
	"ipg/internal/registry"
	"ipg/internal/snapshot"
)

// failureCase produces one failures row's error through a request to
// a fresh server with the bool grammar registered, and names a part of
// the message that shows the row's own error answered.
type failureCase struct {
	produce func(t *testing.T, s *Server) *httptest.ResponseRecorder
	message string
}

// failureCases holds a case for every failures row, by the row's err.
var failureCases = map[string]failureCase{
	"`errNoRoute`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		return doReq(t, s, "GET", "/v1/nosuch", "")
	}, "no route"},
	"`errMethodNotAllowed`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		rec := doReq(t, s, "PATCH", "/v1/grammars/bool", "")
		if allow := rec.Header().Get("Allow"); allow != "DELETE, GET, HEAD, PUT" {
			t.Errorf("Allow %q, want the methods /v1/grammars/{name} serves", allow)
		}
		return rec
	}, "method not allowed"},
	"`errBadRequest`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		return doReq(t, s, "POST", "/v1/grammars/bool/parse", "{not json")
	}, "bad request"},
	"`errTooLarge`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		s.SetMaxBatchInputs(1)
		return doReq(t, s, "POST", "/v1/grammars/bool/batch", `{"inputs":["true","false"]}`)
	}, "request too large"},
	"`registry.ErrUnknownGrammar`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		return doReq(t, s, "POST", "/v1/grammars/nope/parse", `{"input":"true"}`)
	}, registry.ErrUnknownGrammar.Error()},
	"`registry.ErrNoSession`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		return doReq(t, s, "PATCH", "/v1/sessions/nope", `{"splices":[]}`)
	}, registry.ErrNoSession.Error()},
	"`registry.ErrNoCursor`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		return doReq(t, s, "POST", "/v1/grammars/bool/complete", `{"cursor":"c-bool-9"}`)
	}, registry.ErrNoCursor.Error()},
	"`registry.ErrNoStore`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		return doReq(t, s, "POST", "/v1/grammars/bool/snapshot", "")
	}, registry.ErrNoStore.Error()},
	"`registry.ErrNotSnapshottable`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		mountStore(t, s)
		mustPut(t, s, "det", `{"source":`+strconv.Quote(calcDetSrc)+`,"engine":"lalr"}`)
		return doReq(t, s, "POST", "/v1/grammars/det/snapshot", "")
	}, registry.ErrNotSnapshottable.Error()},
	"`engine.ErrCursorStale`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		id := openCursor(t, s)
		if rec := doReq(t, s, "POST", "/v1/grammars/bool/rules", `{"add":"B ::= \"maybe\""}`); rec.Code != http.StatusOK {
			t.Fatalf("rules: %d %s", rec.Code, rec.Body)
		}
		return doReq(t, s, "POST", "/v1/grammars/bool/complete", `{"cursor":"`+id+`","feed":"or"}`)
	}, "stale"},
	"`registry.ErrDocTooLarge`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		s.reg.SetSessionLimits(registry.SessionLimits{MaxDocTokens: 2})
		return doReq(t, s, "POST", "/v1/grammars/bool/sessions", `{"input":"true or false"}`)
	}, registry.ErrDocTooLarge.Error()},
	"`registry.ErrPrefixTooLong`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		s.reg.SetCompletionLimits(registry.CompletionLimits{MaxPrefixTokens: 1})
		return doReq(t, s, "POST", "/v1/grammars/bool/complete", `{"prefix":"true or","once":true}`)
	}, registry.ErrPrefixTooLong.Error()},
	"`engine.ErrSplice`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		id := startSession(t, s, "true")
		return doReq(t, s, "PATCH", "/v1/sessions/"+id, `{"splices":[{"at":5,"remove":1,"insert":"true"}]}`)
	}, "splice"},
	"`engine.ErrBadCheckpoint`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		id := openCursor(t, s)
		return doReq(t, s, "POST", "/v1/grammars/bool/complete", `{"cursor":"`+id+`","restore":9}`)
	}, "checkpoint"},
	"`engine.ErrRejected`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		return doReq(t, s, "POST", "/v1/grammars/bool/complete", `{"prefix":"true true","once":true}`)
	}, "not acceptable"},
	"`registry.ErrRateLimited`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		register(t, s, "slow", registry.Limits{RatePerSec: 0.001})
		doReq(t, s, "POST", "/v1/grammars/slow/parse", `{"input":"true"}`) // spends the one token
		return doReq(t, s, "POST", "/v1/grammars/slow/parse", `{"input":"true"}`)
	}, registry.ErrRateLimited.Error()},
	"`registry.ErrBusy`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		e := register(t, s, "one", registry.Limits{MaxConcurrentParses: 1})
		faultinject.Set(faultinject.SiteDriveToken, faultinject.Fault{Kind: faultinject.Delay, Delay: time.Millisecond})
		done := make(chan struct{})
		go func() {
			defer close(done)
			doReq(t, s, "POST", "/v1/grammars/one/parse", `{"input":"`+longBoolInput(20)+`"}`)
		}()
		waitInflight(t, e)
		rec := doReq(t, s, "POST", "/v1/grammars/one/parse", `{"input":"true"}`)
		<-done
		return rec
	}, registry.ErrBusy.Error()},
	"`registry.ErrForestLimit`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		register(t, s, "small", registry.Limits{MaxForestNodes: 1})
		return doReq(t, s, "POST", "/v1/grammars/small/parse", `{"input":"true or false","trees":true}`)
	}, registry.ErrForestLimit.Error()},
	"`registry.ErrMemoryBudget`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		s.reg.SetMemoryBudget(1)
		s.reg.RefreshMemoryUsage()
		return doReq(t, s, "POST", "/v1/grammars/bool/parse", `{"input":"true"}`)
	}, registry.ErrMemoryBudget.Error()},
	"`registry.ErrShed`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		// A fast window sets the baseline; a window whose one request
		// is slowed far past Factor × that engages the shedder, which
		// then drops every request (DropPer 1).
		cfg := registry.ShedConfig{Factor: 3, MinSamples: 1, DropPer: 1}
		s.reg.ShedTick(cfg)
		doReq(t, s, "POST", "/v1/grammars/bool/parse", `{"input":"true"}`)
		s.reg.ShedTick(cfg)
		faultinject.Set(faultinject.SiteDriveToken, faultinject.Fault{Kind: faultinject.Delay, Delay: 2 * time.Millisecond})
		doReq(t, s, "POST", "/v1/grammars/bool/parse", `{"input":"`+longBoolInput(30)+`"}`)
		faultinject.Reset()
		if !s.reg.ShedTick(cfg) {
			t.Fatal("a slowed window did not engage the shedder")
		}
		return doReq(t, s, "POST", "/v1/grammars/bool/parse", `{"input":"true"}`)
	}, registry.ErrShed.Error()},
	"`registry.ErrSessionLimit`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		s.reg.SetSessionLimits(registry.SessionLimits{MaxSessions: 1})
		startSession(t, s, "true")
		return doReq(t, s, "POST", "/v1/grammars/bool/sessions", `{"input":"true"}`)
	}, registry.ErrSessionLimit.Error()},
	"`registry.ErrCursorLimit`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		s.reg.SetCompletionLimits(registry.CompletionLimits{MaxCursors: 1})
		openCursor(t, s)
		return doReq(t, s, "POST", "/v1/grammars/bool/complete", `{"prefix":"true"}`)
	}, registry.ErrCursorLimit.Error()},
	"`*registry.QuarantineError`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		s.reg.SetBreakerConfig(registry.BreakerConfig{Threshold: 1, Cooldown: time.Minute})
		faultinject.Set(faultinject.SiteDispatch, faultinject.Fault{Kind: faultinject.Panic, Times: 1})
		doReq(t, s, "POST", "/v1/grammars/bool/parse", `{"input":"true"}`) // opens the breaker
		return doReq(t, s, "POST", "/v1/grammars/bool/parse", `{"input":"true"}`)
	}, "quarantined"},
	"`registry.ErrDraining`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		s.reg.SetDraining(true)
		return doReq(t, s, "POST", "/v1/grammars/bool/parse", `{"input":"true"}`)
	}, registry.ErrDraining.Error()},
	"`errNotReady`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		return doReq(t, s, "GET", "/readyz", "")
	}, "preload"},
	"`*cancel.Error`, shutdown": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		// A drain's force-cancel: the request context ends while the
		// service drains, after the parse was admitted.
		e, _ := s.reg.Get("bool")
		faultinject.Set(faultinject.SiteDriveToken, faultinject.Fault{Kind: faultinject.Delay, Delay: time.Millisecond})
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		rec := make(chan *httptest.ResponseRecorder)
		go func() { rec <- doCtx(ctx, s, `{"input":"`+longBoolInput(400)+`"}`) }()
		waitInflight(t, e)
		s.reg.SetDraining(true)
		stop()
		return <-rec
	}, "shutdown"},
	"`*cancel.Error`, client gone": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		faultinject.Set(faultinject.SiteDriveToken, faultinject.Fault{Kind: faultinject.Delay, Delay: time.Millisecond})
		ctx, stop := context.WithCancel(context.Background())
		stop()
		return doCtx(ctx, s, `{"input":"`+longBoolInput(400)+`"}`)
	}, "client_gone"},
	"`*cancel.Error`, deadline or injected": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		s.SetParseTimeout(5 * time.Millisecond)
		faultinject.Set(faultinject.SiteDriveToken, faultinject.Fault{Kind: faultinject.Delay, Delay: time.Millisecond})
		return doReq(t, s, "POST", "/v1/grammars/bool/parse", `{"input":"`+longBoolInput(400)+`"}`)
	}, "deadline"},
	"`*engine.PanicError`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		faultinject.Set(faultinject.SiteDispatch, faultinject.Fault{Kind: faultinject.Panic, Times: 1})
		return doReq(t, s, "POST", "/v1/grammars/bool/parse", `{"input":"true"}`)
	}, "panicked"},
	"`errSnapshot`": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		mountStore(t, s)
		faultinject.Set(faultinject.SiteSnapshotSave, faultinject.Fault{Kind: faultinject.Error, Times: 1})
		return doReq(t, s, "POST", "/v1/grammars/bool/snapshot", "")
	}, "snapshot"},
	"any other error": {func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		return doReq(t, s, "PUT", "/v1/grammars/broken", `{"source":"::= broken"}`)
	}, ""},
}

// TestFailureRows produces every failures row's error and checks that
// the writer answers the row's status, code and Retry-After, header and
// hint alike, in the uniform envelope.
func TestFailureRows(t *testing.T) {
	for _, f := range failures {
		c, ok := failureCases[f.err]
		if !ok {
			t.Errorf("failures row %s has no case", f.err)
			continue
		}
		t.Run(f.err, func(t *testing.T) {
			defer faultinject.Reset()
			s := New(nil)
			mustPut(t, s, "bool", obsBoolSrc)
			rec := c.produce(t, s)
			if rec.Code != f.status {
				t.Fatalf("status %d %s, want %d", rec.Code, rec.Body, f.status)
			}
			var body struct{ Error errorDetail }
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("%v: %s", err, rec.Body)
			}
			if body.Error.Code != f.code || !strings.Contains(body.Error.Message, c.message) {
				t.Errorf("envelope %+v, want code %q and a message naming %q", body.Error, f.code, c.message)
			}
			header := rec.Header().Get("Retry-After")
			switch {
			case f.retry == 0 && (header != "" || body.Error.RetryAfterS != 0):
				t.Errorf("Retry-After %q, hint %d on a row without one", header, body.Error.RetryAfterS)
			case f.retry > 0 && (header != strconv.Itoa(f.retry) || body.Error.RetryAfterS != f.retry):
				t.Errorf("Retry-After %q, hint %d, want %d", header, body.Error.RetryAfterS, f.retry)
			case f.retry == retryBreaker && (body.Error.RetryAfterS < 1 || header != strconv.Itoa(body.Error.RetryAfterS)):
				t.Errorf("Retry-After %q, hint %d, want the breaker's cooldown left", header, body.Error.RetryAfterS)
			}
		})
	}
	for name := range failureCases {
		if !slices.ContainsFunc(failures, func(f failure) bool { return f.err == name }) {
			t.Errorf("case %s matches no failures row", name)
		}
	}
}

func mustPut(t *testing.T, s *Server, name, body string) {
	t.Helper()
	if rec := doReq(t, s, "PUT", "/v1/grammars/"+name, body); rec.Code != http.StatusCreated {
		t.Fatalf("register %s: %d %s", name, rec.Code, rec.Body)
	}
}

// register adds the bool grammar under name with limits.
func register(t *testing.T, s *Server, name string, limits registry.Limits) *registry.Entry {
	t.Helper()
	e, err := s.reg.Register(name, registry.Spec{Source: boolSrc, Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mountStore(t *testing.T, s *Server) {
	t.Helper()
	store, err := snapshot.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.reg.SetSnapshotStore(store)
}

// openCursor opens a completion cursor on bool at "true".
func openCursor(t *testing.T, s *Server) string {
	t.Helper()
	rec := doReq(t, s, "POST", "/v1/grammars/bool/complete", `{"prefix":"true"}`)
	var body struct{ Cursor string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Cursor == "" {
		t.Fatalf("open cursor: %d %s", rec.Code, rec.Body)
	}
	return body.Cursor
}

// startSession opens a session on bool over input.
func startSession(t *testing.T, s *Server, input string) string {
	t.Helper()
	rec := doReq(t, s, "POST", "/v1/grammars/bool/sessions", `{"input":"`+input+`"}`)
	var body SessionOpenResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Session.ID == "" {
		t.Fatalf("open session: %d %s", rec.Code, rec.Body)
	}
	return body.Session.ID
}

// doCtx posts a bool parse whose request context is ctx.
func doCtx(ctx context.Context, s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/grammars/bool/parse", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// waitInflight waits until a request is inside e.
func waitInflight(t *testing.T, e *registry.Entry) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); e.Stats().Inflight == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no request became inflight")
		}
	}
}

// errorTable renders the failures table as the markdown table of
// docs/API.md's Errors section.
func errorTable() string {
	var b strings.Builder
	b.WriteString("| status | code | Retry-After | error | meaning |\n| --- | --- | --- | --- | --- |\n")
	for _, f := range failures {
		retry := "—"
		switch {
		case f.retry == retryBreaker:
			retry = "the breaker's cooldown left"
		case f.retry > 0:
			retry = strconv.Itoa(f.retry)
		}
		fmt.Fprintf(&b, "| %d | `%s` | %s | %s | %s |\n", f.status, f.code, retry, f.err, f.meaning)
	}
	return b.String()
}

// TestErrorDocs pins docs/API.md's error table to the failures table,
// row for row in both directions, and prints the table to paste when
// they differ.
func TestErrorDocs(t *testing.T) {
	api, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(api), "\n## Errors\n")
	if !ok {
		t.Fatal("docs/API.md has no Errors section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var table strings.Builder
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			table.WriteString(line + "\n")
		}
	}
	if want := errorTable(); table.String() != want {
		t.Errorf("docs/API.md's Errors table differs from the failures table; replace it with:\n\n%s", want)
	}
}

// lockedBuffer is a log sink safe for the handler's goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// loggedServer returns a server with the bool grammar whose log is
// captured.
func loggedServer(t *testing.T) (*Server, *lockedBuffer) {
	t.Helper()
	s := New(nil)
	logs := &lockedBuffer{}
	s.SetLogger(slog.New(slog.NewTextHandler(logs, nil)))
	mustPut(t, s, "bool", obsBoolSrc)
	return s, logs
}

// TestBatchItemPanicLogged: a batch item whose engine panics fails
// alone, in its result, and its panic is logged with the stack, as a
// single parse's is.
func TestBatchItemPanicLogged(t *testing.T) {
	defer faultinject.Reset()
	s, logs := loggedServer(t)
	faultinject.Set(faultinject.SiteDispatch, faultinject.Fault{Kind: faultinject.Panic, Times: 1})
	rec := doReq(t, s, "POST", "/v1/grammars/bool/batch", `{"inputs":["true","true or false"],"workers":1}`)
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	if resp.Errors != 1 || resp.Accepted != 1 || !strings.Contains(resp.Results[0].Error, "panicked") {
		t.Errorf("batch with one panicking item: %+v", resp)
	}
	log := logs.String()
	if !strings.Contains(log, `msg="parse panicked" grammar=bool`) || !strings.Contains(log, "stack=") {
		t.Errorf("the item's panic is not logged with its stack:\n%s", log)
	}
}

// TestSlowRulesUpdateLogged: a rules update past the slow threshold is
// logged, as a slow parse is.
func TestSlowRulesUpdateLogged(t *testing.T) {
	s, logs := loggedServer(t)
	s.SetTracer(obs.NewTracer(obs.TracerConfig{SlowThreshold: time.Nanosecond}))
	if rec := doReq(t, s, "POST", "/v1/grammars/bool/rules", `{"add":"B ::= \"maybe\""}`); rec.Code != http.StatusOK {
		t.Fatalf("rules: %d %s", rec.Code, rec.Body)
	}
	if log := logs.String(); !strings.Contains(log, `msg="slow request" grammar=bool engine=glr`) {
		t.Errorf("the slow rules update is not logged:\n%s", log)
	}
}

// TestRulesFailureEnvelope: a rules update that fails halfway answers
// 422 with the error envelope beside what it already applied.
func TestRulesFailureEnvelope(t *testing.T) {
	s, _ := loggedServer(t)
	rec := doReq(t, s, "POST", "/v1/grammars/bool/rules", `{"delete":"B ::= \"false\"","add":"::= broken"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("rules: %d %s", rec.Code, rec.Body)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if code := envelope(t, body)["code"]; code != "invalid_input" {
		t.Errorf("code %v, want invalid_input", code)
	}
	if body["deleted"] != 1.0 || body["added"] != 0.0 || body["version"] != 2.0 || body["states_invalidated_total"] == nil {
		t.Errorf("partial application not reported beside the envelope: %v", body)
	}
}

// TestReadyzNamesDrain: while the service drains, /readyz answers the
// drain's envelope, not the preload's.
func TestReadyzNamesDrain(t *testing.T) {
	s := New(nil)
	s.MarkReady()
	s.reg.SetDraining(true)
	s.MarkNotReady()
	rec := doReq(t, s, "GET", "/readyz", "")
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d %s", rec.Code, rec.Body)
	}
	detail := envelope(t, body)
	if msg, _ := detail["message"].(string); detail["code"] != "unavailable" || !strings.Contains(msg, "draining") {
		t.Errorf("/readyz while draining: %v", detail)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("/readyz while draining carries no Retry-After")
	}
}

// TestThrottledLeaseOpenSettlesNothing: a session open or a completion
// refused at admission after a rule update does no table work, neither
// repair nor lazy expansion, for a request that never ran.
func TestThrottledLeaseOpenSettlesNothing(t *testing.T) {
	s := New(nil)
	s.reg.SetDefaultLimits(registry.Limits{RatePerSec: 0.001, Burst: 1})
	mustPut(t, s, "calc", `{"source":`+strconv.Quote(calcDetSrc+`E ::= E "+" E`+"\n")+`,"engine":"auto"}`)
	doReq(t, s, "POST", "/v1/grammars/calc/parse", `{"input":"n"}`) // spends the one token
	e, _ := s.reg.Get("calc")
	for i, c := range []struct{ path, body string }{
		{"complete", `{"prefix":"n +"}`},
		{"sessions", `{"input":"n + n"}`},
	} {
		rule := fmt.Sprintf(`{"add":"F ::= \"m%d\""}`, i)
		if rec := doReq(t, s, "POST", "/v1/grammars/calc/rules", rule); rec.Code != http.StatusOK {
			t.Fatalf("rules: %d %s", rec.Code, rec.Body)
		}
		all := e.Counters()
		before := all.RepairPropagated
		if rec := doReq(t, s, "POST", "/v1/grammars/calc/"+c.path, c.body); rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s: %d %s, want 429", c.path, rec.Code, rec.Body)
		}
		if after := e.Counters().RepairPropagated; after != before {
			t.Errorf("a throttled %s repaired a table: RepairPropagated %d -> %d", c.path, before, after)
		}
		if after := e.Counters(); after != all {
			t.Errorf("a throttled %s did table work: %+v -> %+v", c.path, all, after)
		}
	}
}
