package registry

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ipg/internal/engine"
)

func TestSessionOpenSpliceReparse(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc, Engine: engine.KindEarley})
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.OpenSession(e, "true or false and true")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.Reparse(nil); err != nil || !res.Accepted {
		t.Fatalf("initial reparse: %v accepted=%v", err, res.Accepted)
	}
	if err := s.Splice(4, 1, "false", nil); err != nil {
		t.Fatal(err)
	}
	res, err := s.Reparse(nil)
	if err != nil || !res.Accepted {
		t.Fatalf("edited reparse: %v accepted=%v", err, res.Accepted)
	}
	st := s.Stat()
	if !st.Incremental || st.SetsReused == 0 || st.Splices != 1 {
		t.Errorf("stat after tail edit: %+v", st)
	}
	if res, err := s.Run(context.Background(), nil, true, true, nil); err != nil || !res.TreesKnown || res.Trees < 1 {
		t.Errorf("tree: %v %+v", err, res)
	}
	// A reparse on an untouched document is definite about rejection
	// bookkeeping too: splice in garbage and check TreesKnown.
	if err := s.Splice(1, 1, "true", nil); err != nil {
		t.Fatal(err)
	}
	if res, _ := s.Reparse(nil); res.Accepted || !res.TreesKnown || res.Trees != 0 {
		t.Errorf("rejection should be definite: %+v", res)
	}
	if !r.CloseSession(s.ID()) {
		t.Error("close reported unknown id")
	}
	if _, err := s.Reparse(nil); !errors.Is(err, ErrNoSession) {
		t.Errorf("reparse after close: %v, want ErrNoSession", err)
	}
}

// TestSessionEntryRemovalClosesSessions: removing or replacing a
// grammar closes its sessions — retained charts refer to the old
// engine.
func TestSessionEntryRemovalClosesSessions(t *testing.T) {
	r := New()
	e, _ := r.Register("bool", Spec{Source: boolSrc, Engine: engine.KindEarley})
	s1, err := r.OpenSession(e, "true")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("bool", Spec{Source: boolSrc, Engine: engine.KindEarley}); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Session(s1.ID()); ok {
		t.Error("session survived entry replacement")
	}
	if _, err := s1.Reparse(nil); !errors.Is(err, ErrNoSession) {
		t.Errorf("replaced-entry session reparse: %v", err)
	}

	e2, _ := r.Get("bool")
	s2, err := r.OpenSession(e2, "false")
	if err != nil {
		t.Fatal(err)
	}
	r.Remove("bool")
	if _, ok := r.Session(s2.ID()); ok {
		t.Error("session survived entry removal")
	}
	if got := r.SessionTotals(); got.Open != 0 || got.Closed != 2 {
		t.Errorf("totals after removal: %+v", got)
	}
}

// TestSessionConcurrentStress races splices, reparses, tree builds,
// stats scrapes, metric aggregation and idle eviction against each
// other; run under -race this is the session layer's data-race gate.
func TestSessionConcurrentStress(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc, Engine: engine.KindEarley})
	if err != nil {
		t.Fatal(err)
	}
	r.SetSessionLimits(SessionLimits{MaxSessions: 64, MaxDocTokens: 256, IdleTimeout: time.Millisecond})

	const workers = 8
	const opsPerWorker = 120
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s *Session
			for op := 0; op < opsPerWorker; op++ {
				if s == nil {
					var err error
					s, err = r.OpenSession(e, "true or false and true")
					if err != nil {
						if errors.Is(err, ErrSessionLimit) {
							continue
						}
						t.Errorf("worker %d: open: %v", w, err)
						return
					}
				}
				var err error
				switch op % 5 {
				case 0:
					err = s.Splice(op%4, 1, [2]string{"true", "false"}[op%2], nil)
				case 1:
					_, err = s.Reparse(nil)
				case 2:
					_, err = s.Run(context.Background(), nil, true, true, nil)
				case 3:
					s.Stat()
				case 4:
					if op%20 == 4 {
						r.CloseSession(s.ID())
						s = nil
					}
				}
				// Eviction and entry admission can race any operation;
				// both are expected outcomes, not failures.
				if err != nil && !errors.Is(err, ErrNoSession) && !errors.Is(err, ErrBusy) && !errors.Is(err, ErrRateLimited) {
					t.Errorf("worker %d op %d: %v", w, op, err)
					return
				}
				if err != nil {
					s = nil
				}
			}
			if s != nil {
				r.CloseSession(s.ID())
			}
		}(w)
	}
	// Evictor and scraper race the workers; every scrape must see the
	// lifecycle counters conserved.
	done := make(chan struct{})
	var evictor sync.WaitGroup
	evictor.Add(1)
	go func() {
		defer evictor.Done()
		for {
			select {
			case <-done:
				return
			default:
				r.EvictIdleSessions(time.Now().Add(time.Hour))
				if tot := r.SessionTotals(); tot.Opened != uint64(tot.Open)+tot.Closed+tot.Evicted {
					t.Errorf("scrape: opened %d != open %d + closed %d + evicted %d", tot.Opened, tot.Open, tot.Closed, tot.Evicted)
					return
				}
				r.SessionStats()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(done)
	evictor.Wait()

	r.EvictIdleSessions(time.Now().Add(time.Hour))
	tot := r.SessionTotals()
	if tot.Open != 0 {
		t.Errorf("sessions leaked: %+v", tot)
	}
	if tot.Opened != tot.Closed+tot.Evicted {
		t.Errorf("opened %d != closed %d + evicted %d", tot.Opened, tot.Closed, tot.Evicted)
	}
	if tot.Reparses == 0 || tot.SetsReused == 0 {
		t.Errorf("no work recorded: %+v", tot)
	}
}

// TestSessionLimitsAreChecked pins the admission errors at the
// registry level (serve maps them to 429/413).
func TestSessionLimitsAreChecked(t *testing.T) {
	r := New()
	e, _ := r.Register("bool", Spec{Source: boolSrc, Engine: engine.KindEarley})
	r.SetSessionLimits(SessionLimits{MaxSessions: 2, MaxDocTokens: 8})

	var open []*Session
	for i := 0; i < 2; i++ {
		s, err := r.OpenSession(e, "true")
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, s)
	}
	if _, err := r.OpenSession(e, "true"); !errors.Is(err, ErrSessionLimit) {
		t.Errorf("over MaxSessions: %v", err)
	}
	// At the cap, an over-budget document is refused by the cap, before
	// it is tokenized; drop one session to probe the token budget.
	if _, err := r.OpenSession(e, "true or true or true or true or true"); !errors.Is(err, ErrSessionLimit) {
		t.Errorf("over MaxSessions and MaxDocTokens: %v, want ErrSessionLimit", err)
	}
	r.CloseSession(open[0].ID())
	if _, err := r.OpenSession(e, "true or true or true or true or true"); !errors.Is(err, ErrDocTooLarge) {
		t.Errorf("over MaxDocTokens at open: %v", err)
	}
	if err := open[1].Splice(0, 0, "true or true or true or true or", nil); !errors.Is(err, ErrDocTooLarge) {
		t.Errorf("over MaxDocTokens on splice: %v", err)
	}
	if st := open[1].Stat(); st.Tokens != 1 {
		t.Errorf("failed splice mutated the document: %+v", st)
	}
}

// TestSessionReparseAfterRuleUpdate pins that a full-reparse session
// answers for the grammar as it is now: a reparse with no edit after a
// rule update must agree with a fresh parse of the same document, on
// every backend whose sessions reparse from scratch.
func TestSessionReparseAfterRuleUpdate(t *testing.T) {
	const src = `
START ::= E
E ::= E "+" T | T
T ::= "n"
`
	for _, c := range []struct {
		kind        engine.Kind
		src, file   string
		doc, update string
	}{
		{kind: engine.KindGLR, src: src, doc: "n +", update: `E ::= E "+"`},
		{kind: engine.KindLALR, src: src, doc: "n +", update: `E ::= E "+"`},
		{kind: engine.KindAuto, src: src, doc: "n +", update: `E ::= E "+"`},
		{kind: engine.KindLL, file: "CalcLL.bnf", doc: "n n n", update: `Etail ::= "n" T Etail`},
	} {
		t.Run(c.kind.String(), func(t *testing.T) {
			r := New()
			var e *Entry
			if c.file != "" {
				e = registerTestdata(t, r, "g", c.file, c.kind)
			} else {
				var err error
				if e, err = r.Register("g", Spec{Source: c.src, Engine: c.kind}); err != nil {
					t.Fatal(err)
				}
			}
			s, err := r.OpenSession(e, c.doc)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := s.Reparse(nil); err != nil || res.Accepted {
				t.Fatalf("before the update: accepted=%v err=%v, want rejected", res.Accepted, err)
			}
			mustAddRules(t, e, c.update)
			want, err := e.ParseInput(c.doc, false)
			if err != nil || !want.Accepted {
				t.Fatalf("fresh parse after the update: accepted=%v err=%v, want accepted", want.Accepted, err)
			}
			if res, err := s.Reparse(nil); err != nil || !res.Accepted {
				t.Fatalf("session reparse after the update: accepted=%v err=%v, want accepted", res.Accepted, err)
			}
		})
	}
}
