package registry

import (
	"errors"
	"sync"
	"testing"
	"time"
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
