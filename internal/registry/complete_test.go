package registry

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ipg/internal/engine"
)

// TestCompletionConcurrentStress races cursor opens, feeds, accept-set
// queries, stats and closes against idle eviction and a metrics scraper;
// every scrape must see the lifecycle counters conserved (Opened ==
// Open + Closed + Evicted). Under -race this is the cursor layer's
// data-race gate.
func TestCompletionConcurrentStress(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	r.SetCompletionLimits(CompletionLimits{MaxCursors: 64, MaxPrefixTokens: 256, IdleTimeout: time.Millisecond})

	const workers = 8
	const opsPerWorker = 120
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var cs *CompletionSession
			var ts engine.TermSet
			for op := 0; op < opsPerWorker; op++ {
				if cs == nil {
					var err error
					cs, _, err = r.OpenCompletion(e, "true or", nil)
					if err != nil {
						if errors.Is(err, ErrCursorLimit) {
							continue
						}
						t.Errorf("worker %d: open: %v", w, err)
						return
					}
				}
				var err error
				switch op % 4 {
				case 0:
					var toks = []string{"true", "or"}
					feed, ferr := cs.FeedTokens(toks[op/4%2])
					if ferr != nil {
						t.Errorf("worker %d: feed tokens: %v", w, ferr)
						return
					}
					_, err = cs.Apply(-1, feed, nil, nil)
				case 1:
					_, err = cs.Apply(-1, nil, &ts, nil)
				case 2:
					cs.Stat()
				case 3:
					if op%12 == 3 {
						r.CloseCompletion(cs.ID())
						cs = nil
					}
				}
				// Eviction, entry admission and a feed the cursor cannot
				// take are expected outcomes, not failures.
				if err != nil && !errors.Is(err, ErrNoCursor) && !errors.Is(err, engine.ErrRejected) &&
					!errors.Is(err, ErrBusy) && !errors.Is(err, ErrRateLimited) {
					t.Errorf("worker %d op %d: %v", w, op, err)
					return
				}
				if errors.Is(err, ErrNoCursor) {
					cs = nil
				}
			}
			if cs != nil {
				r.CloseCompletion(cs.ID())
			}
		}(w)
	}
	done := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-done:
				return
			default:
				r.EvictIdleCompletions(time.Now().Add(time.Hour))
				if tot := r.CompletionTotals(); tot.Opened != uint64(tot.Open)+tot.Closed+tot.Evicted {
					t.Errorf("scrape: opened %d != open %d + closed %d + evicted %d", tot.Opened, tot.Open, tot.Closed, tot.Evicted)
					return
				}
				r.CompletionStats()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(done)
	scraper.Wait()

	r.EvictIdleCompletions(time.Now().Add(time.Hour))
	tot := r.CompletionTotals()
	if tot.Open != 0 {
		t.Errorf("cursors leaked: %+v", tot)
	}
	if tot.Opened != tot.Closed+tot.Evicted {
		t.Errorf("opened %d != closed %d + evicted %d", tot.Opened, tot.Closed, tot.Evicted)
	}
	if tot.Queries == 0 || tot.Feeds == 0 {
		t.Errorf("no work recorded: %+v", tot)
	}
}

// TestCursorResumeAllocFree pins the decode loop's hot step — a warm
// cursor's restore, feed and accept-set query through Apply — at 0
// allocs/op on the table backends and auto. Earley's chart cursor
// allocates per fed token and is not gated.
func TestCursorResumeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool lossy; allocation counts are meaningless under -race")
	}
	for _, kind := range []engine.Kind{engine.KindLALR, engine.KindGLR, engine.KindAuto} {
		t.Run(kind.String(), func(t *testing.T) {
			r := New()
			e, err := r.Register("bool", Spec{Source: boolSrc, Engine: kind})
			if err != nil {
				t.Fatal(err)
			}
			cs, _, err := r.OpenCompletion(e, "true or", nil)
			if err != nil {
				t.Fatal(err)
			}
			feed, err := cs.FeedTokens("false and true")
			if err != nil {
				t.Fatal(err)
			}
			var set engine.TermSet
			step := func() {
				if _, err := cs.Apply(2, feed, &set, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ {
				step()
			}
			if got := testing.AllocsPerRun(200, step); got != 0 {
				t.Errorf("warm restore+feed+accepts: %v allocs/op, want 0", got)
			}
		})
	}
}

// TestCursorRacesRuleUpdates opens cursors and queries their accept
// sets on lazy GLR and LALR calc entries while a writer adds rules with
// fresh keywords, which intern new terminals into the entry's symbol
// table (run it under -race). Cursor work holds the entry's update read
// lock, so no cursor reads the table mid-intern; a cursor the grammar
// moved under between two requests answers ErrCursorStale.
func TestCursorRacesRuleUpdates(t *testing.T) {
	for _, kind := range []engine.Kind{engine.KindGLR, engine.KindLALR} {
		t.Run(kind.String(), func(t *testing.T) {
			r := New()
			e, err := r.Register("calc", Spec{Source: calcDetSrc, Engine: kind})
			if err != nil {
				t.Fatal(err)
			}
			const rounds = 200
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if _, err := e.AddRulesText(fmt.Sprintf(`F ::= "kw%d"`, i)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				var set engine.TermSet
				for i := 0; i < rounds; i++ {
					cs, _, err := r.OpenCompletion(e, "n +", nil)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := cs.Apply(-1, nil, &set, nil); err != nil && !errors.Is(err, engine.ErrCursorStale) {
						t.Error(err)
					}
					r.CloseCompletion(cs.ID())
				}
			}()
			wg.Wait()
		})
	}
}
