package registry

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ipg/internal/engine"
)

// leaseKind drives one lease kind through the registry's API.
type leaseKind struct {
	name     string
	limit    func(r *Registry, max int, idle time.Duration)
	open     func(r *Registry, e *Entry) (id string, err error)
	live     func(r *Registry, id string) bool
	close    func(r *Registry, id string) bool
	evict    func(r *Registry, now time.Time) int
	closeAll func(r *Registry) int
	totals   func(r *Registry) LeaseTotals
	errFull  error
}

var leaseKinds = []leaseKind{
	{
		name: "session",
		limit: func(r *Registry, max int, idle time.Duration) {
			r.SetSessionLimits(SessionLimits{MaxSessions: max, IdleTimeout: idle})
		},
		open: func(r *Registry, e *Entry) (string, error) {
			s, err := r.OpenSession(e, "true or false")
			if err != nil {
				return "", err
			}
			return s.ID(), nil
		},
		live:     func(r *Registry, id string) bool { _, ok := r.Session(id); return ok },
		close:    (*Registry).CloseSession,
		evict:    (*Registry).EvictIdleSessions,
		closeAll: (*Registry).CloseAllSessions,
		totals:   func(r *Registry) LeaseTotals { return r.SessionTotals().LeaseTotals },
		errFull:  ErrSessionLimit,
	},
	{
		name: "cursor",
		limit: func(r *Registry, max int, idle time.Duration) {
			r.SetCompletionLimits(CompletionLimits{MaxCursors: max, IdleTimeout: idle})
		},
		open: func(r *Registry, e *Entry) (string, error) {
			cs, _, err := r.OpenCompletion(e, "true or", nil)
			if err != nil {
				return "", err
			}
			return cs.ID(), nil
		},
		live:     func(r *Registry, id string) bool { _, ok := r.Completion(id); return ok },
		close:    (*Registry).CloseCompletion,
		evict:    (*Registry).EvictIdleCompletions,
		closeAll: (*Registry).CloseAllCompletions,
		totals:   func(r *Registry) LeaseTotals { return r.CompletionTotals().LeaseTotals },
		errFull:  ErrCursorLimit,
	},
}

// TestLeaseLifecycle walks each lease kind through every way a lease
// ends — close by id, grammar replacement, Remove, idle eviction and
// close-all — behind a population cap that concurrent opens race, and
// checks Opened == Open + Closed + Evicted after every step.
func TestLeaseLifecycle(t *testing.T) {
	for _, k := range leaseKinds {
		t.Run(k.name, func(t *testing.T) {
			r := New()
			register := func(name string) *Entry {
				t.Helper()
				e, err := r.Register(name, Spec{Source: boolSrc})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			mustOpen := func(e *Entry) string {
				t.Helper()
				id, err := k.open(r, e)
				if err != nil {
					t.Fatal(err)
				}
				return id
			}
			check := func(step string, want LeaseTotals) {
				t.Helper()
				got := k.totals(r)
				if got != want {
					t.Errorf("%s: totals %+v, want %+v", step, got, want)
				}
				if got.Opened != uint64(got.Open)+got.Closed+got.Evicted {
					t.Errorf("%s: opened %d != open %d + closed %d + evicted %d",
						step, got.Opened, got.Open, got.Closed, got.Evicted)
				}
			}
			const max = 4
			k.limit(r, max, time.Minute)
			a := register("a")

			// The cap: concurrent opens never get past Max.
			var wg sync.WaitGroup
			var mu sync.Mutex
			var ids []string
			for i := 0; i < 4*max; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					id, err := k.open(r, a)
					if err != nil {
						if !errors.Is(err, k.errFull) {
							t.Errorf("concurrent open: %v", err)
						}
						return
					}
					mu.Lock()
					ids = append(ids, id)
					mu.Unlock()
				}()
			}
			wg.Wait()
			if len(ids) != max {
				t.Fatalf("%d concurrent opens under a cap of %d: %d succeeded", 4*max, max, len(ids))
			}
			check("at the cap", LeaseTotals{Open: max, Opened: max})

			// Close by id, once.
			if !k.close(r, ids[0]) || k.live(r, ids[0]) {
				t.Fatal("close by id left the lease open")
			}
			if k.close(r, ids[0]) {
				t.Error("second close of the same id reported success")
			}
			check("closed by id", LeaseTotals{Open: max - 1, Opened: max, Closed: 1})

			// Replacing a grammar closes its leases only.
			b := register("b")
			other := mustOpen(b)
			a = register("a")
			for _, id := range ids[1:] {
				if k.live(r, id) {
					t.Errorf("lease %s survived its grammar's replacement", id)
				}
			}
			if !k.live(r, other) {
				t.Error("replacing a closed another grammar's lease")
			}
			check("grammar replaced", LeaseTotals{Open: 1, Opened: max + 1, Closed: max})

			// Remove closes that grammar's leases only.
			kept := mustOpen(a)
			r.Remove("b")
			if k.live(r, other) || !k.live(r, kept) {
				t.Error("Remove(b) closed the wrong leases")
			}
			check("grammar removed", LeaseTotals{Open: 1, Opened: max + 2, Closed: max + 1})

			// Idle eviction against a synthetic now.
			if n := k.evict(r, time.Now()); n != 0 {
				t.Errorf("evicted %d fresh leases", n)
			}
			if n := k.evict(r, time.Now().Add(2*time.Minute)); n != 1 || k.live(r, kept) {
				t.Errorf("evicted %d idle leases, want 1", n)
			}
			check("evicted", LeaseTotals{Opened: max + 2, Closed: max + 1, Evicted: 1})

			// CloseAll.
			mustOpen(a)
			mustOpen(a)
			if n := k.closeAll(r); n != 2 {
				t.Errorf("close-all closed %d, want 2", n)
			}
			check("closed all", LeaseTotals{Opened: max + 4, Closed: max + 3, Evicted: 1})
		})
	}
}

// TestLeaseTotalsDoNotWaitOnRequests holds one session's and one
// cursor's mu, as an in-flight request does for its whole run; a
// metrics scrape must still read both totals.
func TestLeaseTotalsDoNotWaitOnRequests(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.OpenSession(e, "true or false")
	if err != nil {
		t.Fatal(err)
	}
	cs, _, err := r.OpenCompletion(e, "true or", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	cs.mu.Lock()
	defer s.mu.Unlock()
	defer cs.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.SessionTotals()
		r.CompletionTotals()
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("lease totals waited on a lease's in-flight request")
	}
}

// TestLeaseWorkTotalsExact drives sessions and cursors, a one-shot query
// and an open that fails, then closes one lease of each kind and evicts
// the other: each work total must equal the per-lease Stat counters
// summed before, with nothing from the one-shot query or the failed
// open.
func TestLeaseWorkTotalsExact(t *testing.T) {
	r := New()
	r.SetSessionLimits(SessionLimits{IdleTimeout: time.Minute})
	r.SetCompletionLimits(CompletionLimits{IdleTimeout: time.Minute})
	earley, err := r.Register("bool", Spec{Source: boolSrc, Engine: engine.KindEarley})
	if err != nil {
		t.Fatal(err)
	}
	lalr, err := r.Register("calc", Spec{Source: calcDetSrc, Engine: engine.KindLALR})
	if err != nil {
		t.Fatal(err)
	}

	// Sessions: an incremental Earley one and a full-reparse LALR one,
	// each growing its document at the front.
	for i, doc := range []struct {
		e             *Entry
		input, insert string
	}{{earley, "true or false", "true and"}, {lalr, "n + n", "n *"}} {
		s, err := r.OpenSession(doc.e, doc.input)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i+1; j++ {
			if err := s.Splice(0, 0, doc.insert, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Reparse(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Cursors: restores, feeds and queries, then a rejected feed.
	var set engine.TermSet
	for _, cur := range []struct {
		e            *Entry
		prefix, feed string
	}{{earley, "true or", "false and true"}, {lalr, "n +", "n * n"}} {
		cs, _, err := r.OpenCompletion(cur.e, cur.prefix, nil)
		if err != nil {
			t.Fatal(err)
		}
		toks, err := cs.FeedTokens(cur.feed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := cs.Apply(2, toks, &set, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cs.Apply(-1, toks, &set, nil); !errors.Is(err, engine.ErrRejected) {
			t.Fatalf("feed after a complete sentence: %v, want ErrRejected", err)
		}
	}
	// A one-shot query and an open rejected after two feeds retain
	// nothing and count nothing.
	if _, _, _, _, err := r.Complete(context.Background(), lalr, CompletionOp{Once: true, Input: "n + n"}, &set, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.OpenCompletion(lalr, "n + + n", nil); !errors.Is(err, engine.ErrRejected) {
		t.Fatalf("rejected prefix open: %v", err)
	}

	var want SessionTotals
	for _, st := range r.SessionStats() {
		want.Splices += st.Splices
		want.Reparses += st.Reparses
		want.FullReparses += st.FullReparses
		want.SetsReused += st.SetsReused
		want.SetsRebuilt += st.SetsRebuilt
	}
	var wantC CompletionTotals
	for _, st := range r.CompletionStats() {
		wantC.Queries += st.Queries
		wantC.Feeds += st.Feeds
	}
	if want.FullReparses == 0 || want.SetsReused == 0 || wantC.Feeds == 0 || wantC.Queries == 0 {
		t.Fatalf("the mix did not exercise every counter: %+v %+v", want, wantC)
	}
	check := func(step string) {
		t.Helper()
		got, gotC := r.SessionTotals(), r.CompletionTotals()
		want.LeaseTotals, wantC.LeaseTotals = got.LeaseTotals, gotC.LeaseTotals
		if got != want {
			t.Errorf("%s: session totals %+v, want %+v", step, got, want)
		}
		if gotC != wantC {
			t.Errorf("%s: completion totals %+v, want %+v", step, gotC, wantC)
		}
	}
	check("open")
	r.CloseSession(r.SessionStats()[0].ID)
	r.CloseCompletion(r.CompletionStats()[0].ID)
	if n := r.EvictIdleSessions(time.Now().Add(time.Hour)) + r.EvictIdleCompletions(time.Now().Add(time.Hour)); n != 2 {
		t.Fatalf("evicted %d leases, want 2", n)
	}
	check("after close and eviction")
}
