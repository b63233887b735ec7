package registry

import (
	"fmt"
	"strings"
	"testing"

	"ipg/internal/engine"
)

// ambiguousRule makes calcDetSrc ambiguous: a fresh probe of the result
// selects lazy GLR.
const ambiguousRule = `E ::= E "+" E`

// autoUpdateCases drive an auto entry through rule updates while a
// session is open. Each case names how the updates move a fresh probe's
// verdict: across the LALR(1) boundary when a rule adds conflicts or its
// deletion removes them, and nowhere under heavy rule churn on lazy GLR.
// The entry keeps the backend of its registration throughout. The last
// update adds F ::= "m" in every case, so the entry accepts "n + m".
var autoUpdateCases = []struct {
	name   string
	src    string
	kind   engine.Kind
	update func(t *testing.T, e *Entry)
}{
	{"lalr to glr", calcDetSrc, engine.KindLALR, func(t *testing.T, e *Entry) {
		mustAddRules(t, e, ambiguousRule)
	}},
	{"glr to lalr", calcDetSrc + ambiguousRule + "\n", engine.KindGLR, func(t *testing.T, e *Entry) {
		if n, err := e.DeleteRulesText(ambiguousRule); err != nil || n != 1 {
			t.Fatalf("delete %s: n=%d err=%v", ambiguousRule, n, err)
		}
	}},
	{"glr stays glr under churn", calcDetSrc + ambiguousRule + "\n", engine.KindGLR, func(t *testing.T, e *Entry) {
		for i := 0; i < 6; i++ {
			rule := fmt.Sprintf(`T ::= "kw%d"`, i)
			mustAddRules(t, e, rule)
			if n, err := e.DeleteRulesText(rule); err != nil || n != 1 {
				t.Fatalf("delete %s: n=%d err=%v", rule, n, err)
			}
		}
	}},
}

func mustAddRules(t *testing.T, e *Entry, text string) {
	t.Helper()
	if n, err := e.AddRulesText(text); err != nil || n != 1 {
		t.Fatalf("add %s: n=%d err=%v", text, n, err)
	}
}

// TestAutoSessionKeepsBackendAcrossUpdates pins that rule updates keep an
// auto entry, and the session open on it, on the backend of the
// entry's registration: each reparse after the updates runs there and
// agrees with a stateless parse, without an engine panic or a breaker
// trip.
func TestAutoSessionKeepsBackendAcrossUpdates(t *testing.T) {
	for _, c := range autoUpdateCases {
		t.Run(c.name, func(t *testing.T) {
			r := New()
			e, err := r.Register("calc", Spec{Source: c.src, Engine: engine.KindAuto})
			if err != nil {
				t.Fatal(err)
			}
			if e.EngineKind() != c.kind {
				t.Fatalf("auto serves %v, want %v (%s)", e.EngineKind(), c.kind, e.Stats().EngineReason)
			}
			s, err := r.OpenSession(e, "n + n")
			if err != nil {
				t.Fatal(err)
			}
			c.update(t, e)
			mustAddRules(t, e, `F ::= "m"`)
			if e.EngineKind() != c.kind {
				t.Fatalf("auto serves %v after the updates, want %v still (%s)", e.EngineKind(), c.kind, e.Stats().EngineReason)
			}
			doc := []string{"n", "+", "n"}
			for _, edit := range []struct {
				at     int
				insert string
			}{{2, "m"}, {1, "m"}, {1, "+"}} {
				if err := s.Splice(edit.at, 1, edit.insert, nil); err != nil {
					t.Fatal(err)
				}
				doc[edit.at] = edit.insert
				res, err := s.Reparse(nil)
				if err != nil {
					t.Fatalf("reparse after the updates: %v", err)
				}
				want, err := e.ParseInput(strings.Join(doc, " "), false)
				if err != nil {
					t.Fatal(err)
				}
				if res.Accepted != want.Accepted {
					t.Fatalf("session verdict %v on %v, entry verdict %v", res.Accepted, doc, want.Accepted)
				}
			}
			if got := s.Stat().Engine; got != c.kind.String() {
				t.Errorf("session drives %s, want %s", got, c.kind)
			}
			st := e.Stats()
			if st.Panics != 0 || st.Breaker.State != "closed" || st.Breaker.ConsecutiveFailures != 0 {
				t.Fatalf("panics %d, breaker %+v", st.Panics, st.Breaker)
			}
			if tot := r.SessionTotals(); tot.Reparses < 4 {
				t.Errorf("session totals lost reparses: %+v", tot)
			}
		})
	}
}

// TestAutoSessionConcurrentUpdates runs session edits and reparses,
// stateless parses, stats reads and a writer that moves the grammar of
// an auto entry across the LALR(1) boundary and back, with rule churn
// on the conflicted side, all at once (run it under -race): every
// reparse must succeed on the LALR backend the entry registered with,
// and no engine panic may reach the breaker.
func TestAutoSessionConcurrentUpdates(t *testing.T) {
	r := New()
	e, err := r.Register("calc", Spec{Source: calcDetSrc, Engine: engine.KindAuto})
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 40
	done := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		go func() {
			s, err := r.OpenSession(e, "n + n")
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < rounds; i++ {
				insert := []string{"n", "( n )"}[i%2]
				if err := s.Splice(2, s.Stat().Tokens-2, insert, nil); err != nil {
					done <- err
					return
				}
				res, err := s.Reparse(nil)
				if err != nil || !res.Accepted {
					done <- fmt.Errorf("reparse %d: accepted=%v err=%v", i, res.Accepted, err)
					return
				}
				if got := s.Stat().Engine; got != "lalr" {
					done <- fmt.Errorf("reparse %d ran on %s, want lalr", i, got)
					return
				}
				if _, err := e.ParseInput("n * n", false); err != nil {
					done <- err
					return
				}
				_ = e.Stats()
			}
			done <- nil
		}()
	}
	go func() {
		for i := 0; i < rounds/2; i++ {
			if _, err := e.AddRulesText(ambiguousRule); err != nil {
				done <- err
				return
			}
			kw := fmt.Sprintf(`T ::= "kw%d"`, i)
			if _, err := e.AddRulesText(kw); err != nil {
				done <- err
				return
			}
			if _, err := e.DeleteRulesText(kw); err != nil {
				done <- err
				return
			}
			if _, err := e.DeleteRulesText(ambiguousRule); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < workers+1; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	if st := e.Stats(); st.Panics != 0 || st.Breaker.State != "closed" || st.Engine != engine.KindLALR {
		t.Fatalf("panics %d, breaker %+v, engine %v", st.Panics, st.Breaker, st.Engine)
	}
}
