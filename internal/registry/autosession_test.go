package registry

import (
	"fmt"
	"strings"
	"testing"

	"ipg/internal/engine"
)

// ambiguousRule makes calcDetSrc ambiguous, moving auto to lazy GLR.
const ambiguousRule = `E ::= E "+" E`

// autoSwitchCases drive an auto entry across a backend switch while a
// session is open on the backend selected before it: LALR(1) to lazy
// GLR when a rule adds conflicts, lazy GLR to LALR(1) when its deletion
// removes them, and lazy GLR to Earley under heavy rule churn. The last
// update adds F ::= "m" in every case, so the entry accepts "n + m".
var autoSwitchCases = []struct {
	name     string
	src      string
	from, to engine.Kind
	update   func(t *testing.T, e *Entry)
}{
	{"lalr to glr", calcDetSrc, engine.KindLALR, engine.KindGLR, func(t *testing.T, e *Entry) {
		mustAddRules(t, e, ambiguousRule)
	}},
	{"glr to lalr", calcDetSrc + ambiguousRule + "\n", engine.KindGLR, engine.KindLALR, func(t *testing.T, e *Entry) {
		if n, err := e.DeleteRulesText(ambiguousRule); err != nil || n != 1 {
			t.Fatalf("delete %s: n=%d err=%v", ambiguousRule, n, err)
		}
	}},
	{"glr to earley under churn", calcDetSrc + ambiguousRule + "\n", engine.KindGLR, engine.KindEarley, func(t *testing.T, e *Entry) {
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

// TestAutoSessionFollowsBackendSwitch is the regression test for
// sessions that kept driving the backend auto retired: the reparse
// after the switch must return the entry's own verdict, on the current
// backend, without an engine panic or a breaker trip.
func TestAutoSessionFollowsBackendSwitch(t *testing.T) {
	for _, c := range autoSwitchCases {
		t.Run(c.name, func(t *testing.T) {
			r := New()
			e, err := r.Register("calc", Spec{Source: c.src, Engine: engine.KindAuto})
			if err != nil {
				t.Fatal(err)
			}
			if e.EngineKind() != c.from {
				t.Fatalf("auto serves %v, want %v (%s)", e.EngineKind(), c.from, e.Stats().EngineReason)
			}
			s, err := r.OpenSession(e, "n + n")
			if err != nil {
				t.Fatal(err)
			}
			c.update(t, e)
			mustAddRules(t, e, `F ::= "m"`)
			if e.EngineKind() != c.to {
				t.Fatalf("auto serves %v after the updates, want %v (%s)", e.EngineKind(), c.to, e.Stats().EngineReason)
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
					t.Fatalf("reparse after the switch: %v", err)
				}
				want, err := e.ParseInput(strings.Join(doc, " "), false)
				if err != nil {
					t.Fatal(err)
				}
				if res.Accepted != want.Accepted {
					t.Fatalf("session verdict %v on %v, entry verdict %v", res.Accepted, doc, want.Accepted)
				}
			}
			if got := s.EngineName(); got != c.to.String() {
				t.Errorf("session drives %s, want %s", got, c.to)
			}
			st := e.Stats()
			if st.Panics != 0 || st.Breaker.State != "closed" || st.Breaker.ConsecutiveFailures != 0 {
				t.Fatalf("panics %d, breaker %+v", st.Panics, st.Breaker)
			}
			if tot := r.SessionTotals(); tot.Reparses < 4 {
				t.Errorf("session totals lost the reparses of the retired backend: %+v", tot)
			}
		})
	}
}

// TestAutoSessionConcurrentSwitches runs session edits and reparses,
// stateless parses and a writer that moves the entry between LALR(1)
// and lazy GLR all at once (run it under -race): every reparse must
// succeed on whichever backend serves at the time, and no engine panic
// may reach the breaker.
func TestAutoSessionConcurrentSwitches(t *testing.T) {
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
				if _, err := e.ParseInput("n * n", false); err != nil {
					done <- err
					return
				}
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
	if st := e.Stats(); st.Panics != 0 || st.Breaker.State != "closed" {
		t.Fatalf("panics %d, breaker %+v", st.Panics, st.Breaker)
	}
}
