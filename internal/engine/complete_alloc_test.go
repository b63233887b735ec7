// Allocation pins for the completion hot path: an accept-set query is
// issued once per generated token in constrained decoding, so the warm
// deterministic cursors must not touch the heap at all, and a cursor
// advance may amortize at most one arena growth. These pins extend the
// TestAllocRegressionGuard discipline (which gates the parse workloads
// against BENCH baselines) down to the completion layer.
package engine_test

import (
	"testing"

	"ipg/internal/engine"
	"ipg/internal/fixtures"
)

func TestAcceptsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool lossy; allocation counts are meaningless under -race")
	}
	cases := []struct {
		name    string
		kind    engine.Kind
		fixture string
	}{
		{"lalr", engine.KindLALR, "CalcDet.bnf"},
		{"ll", engine.KindLL, "CalcLL.bnf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := guardFixture(t, tc.fixture)
			e, err := engine.New(tc.kind, g)
			if err != nil {
				t.Fatal(err)
			}
			c, rej, err := engine.OpenCursor(e, fixtures.Tokens(g, "n + n * ( n"))
			if err != nil {
				t.Fatalf("OpenCursor: rej=%d %v", rej, err)
			}
			defer c.Close()
			var set engine.TermSet
			tok := fixtures.Tokens(g, ")")[0]
			// Warm the set storage and the cursor arenas: one query, one
			// full feed/restore cycle.
			cp := c.Checkpoint()
			if err := c.Accepts(&set); err != nil {
				t.Fatal(err)
			}
			if err := c.Feed(tok); err != nil {
				t.Fatal(err)
			}
			if err := c.Restore(cp); err != nil {
				t.Fatal(err)
			}

			if got := testing.AllocsPerRun(100, func() {
				if err := c.Accepts(&set); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("warm Accepts: %v allocs/op, want 0", got)
			}
			if !set.Has(tok) {
				t.Fatalf("warm accept set lost %q", ")")
			}
			if got := testing.AllocsPerRun(100, func() {
				if err := c.Feed(tok); err != nil {
					t.Fatal(err)
				}
				if err := c.Restore(cp); err != nil {
					t.Fatal(err)
				}
			}); got > 1 {
				t.Errorf("warm Feed+Restore cycle: %v allocs/op, want <= 1", got)
			}
		})
	}
}

// TestCursorPoolReuse pins that Close returns cursor storage to the
// pool: a close/reopen cycle on a warm engine must not rebuild the
// arenas from scratch every time (one allocation budget covers the
// vocabulary rebuild, which is per-open by design).
func TestCursorPoolReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool lossy; allocation counts are meaningless under -race")
	}
	g := guardFixture(t, "CalcDet.bnf")
	e, err := engine.New(engine.KindLALR, g)
	if err != nil {
		t.Fatal(err)
	}
	prefix := fixtures.Tokens(g, "n + n")
	// Warm the pool and the table.
	for i := 0; i < 4; i++ {
		c, _, err := engine.OpenCursor(e, prefix)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	got := testing.AllocsPerRun(50, func() {
		c, _, err := engine.OpenCursor(e, prefix)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	})
	// NewVocab allocates the terms/names/bit slices per open (4 allocs
	// with headroom for the Terminals copy); the cursor arenas must come
	// from the pool.
	if got > 8 {
		t.Errorf("open/feed/close cycle: %v allocs/op, want <= 8 (pooled arenas)", got)
	}
}
