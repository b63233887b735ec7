package engine_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ipg/internal/cancel"
	"ipg/internal/engine"
	"ipg/internal/faultinject"
	"ipg/internal/fixtures"
	"ipg/internal/grammar"
)

// guardFixture reads a BNF grammar from the repository testdata (the
// package-internal tests have their own copy of this helper).
func guardFixture(t testing.TB, name string) *grammar.Grammar {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	g, err := grammar.Parse(string(src), nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return g
}

// TestParseGuardedRecoversPanics pins the panic quarantine boundary:
// an engine panic surfaces as a structured *engine.PanicError carrying the
// stack, never as a crashed process.
func TestParseGuardedRecoversPanics(t *testing.T) {
	defer faultinject.Reset()
	g := guardFixture(t, "CalcDet.bnf")
	e, err := engine.New(engine.KindLALR, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	input := fixtures.Tokens(g, "n + n")
	faultinject.Set(faultinject.SiteDispatch,
		faultinject.Fault{Kind: faultinject.Panic, Times: 1})
	_, err = engine.ParseGuarded(e, input, false, nil, nil)
	var p *engine.PanicError
	if !errors.As(err, &p) {
		t.Fatalf("panic surfaced as %v, want *engine.PanicError", err)
	}
	if len(p.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	// The fault is exhausted: the engine serves again immediately.
	res, err := engine.ParseGuarded(e, input, false, nil, nil)
	if err != nil || !res.Accepted {
		t.Fatalf("parse after recovered panic: %v accepted=%v", err, res.Accepted)
	}
}

// TestCancelFlagAbortsEveryEngine drives a pre-fired cancellation flag
// through ParseGuarded on all four backends: each must abort at a
// checkpoint with the structured cancellation error instead of
// finishing the parse.
func TestCancelFlagAbortsEveryEngine(t *testing.T) {
	for _, tc := range []struct {
		kind    engine.Kind
		fixture string
	}{
		{engine.KindGLR, "CalcDet.bnf"},
		{engine.KindLALR, "CalcDet.bnf"},
		{engine.KindEarley, "CalcDet.bnf"},
		{engine.KindLL, "CalcLL.bnf"},
	} {
		g := guardFixture(t, tc.fixture)
		e, err := engine.New(tc.kind, g, nil)
		if err != nil {
			t.Fatalf("New(%v): %v", tc.kind, err)
		}
		input := fixtures.Tokens(g, "n + n * n + n")
		fl := new(cancel.Flag)
		fl.Cancel(cancel.Deadline)
		_, err = engine.ParseGuarded(e, input, false, nil, fl)
		if !errors.Is(err, cancel.ErrCanceled) {
			t.Errorf("%v: fired flag produced %v, want canceled", tc.kind, err)
		}
		var cerr *cancel.Error
		if !errors.As(err, &cerr) || cerr.Reason != cancel.Deadline {
			t.Errorf("%v: error %v carries no deadline reason", tc.kind, err)
		}
		// An unfired flag must not disturb the parse.
		res, err := engine.ParseGuarded(e, input, false, nil, new(cancel.Flag))
		if err != nil || !res.Accepted {
			t.Errorf("%v: unfired flag broke the parse: %v accepted=%v",
				tc.kind, err, res.Accepted)
		}
	}
}

// TestSessionGuardedCancelAndPanic covers the session mirror of the
// guard on every session kind — Earley's chart-reuse session and the
// full-reparse fallback on GLR, LALR and LL, plus auto: canceled
// reparses surface the structured error, panics are recovered, and a
// healthy session keeps serving afterwards.
func TestSessionGuardedCancelAndPanic(t *testing.T) {
	defer faultinject.Reset()
	for _, tc := range []struct {
		kind    engine.Kind
		fixture string
	}{
		{engine.KindGLR, "CalcDet.bnf"},
		{engine.KindLALR, "CalcDet.bnf"},
		{engine.KindEarley, "CalcDet.bnf"},
		{engine.KindLL, "CalcLL.bnf"},
		{engine.KindAuto, "CalcDet.bnf"},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			g := guardFixture(t, tc.fixture)
			e, err := engine.New(tc.kind, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := engine.OpenSession(e, fixtures.Tokens(g, "n + n"))
			if err != nil {
				t.Fatal(err)
			}

			fl := new(cancel.Flag)
			fl.Cancel(cancel.ClientGone)
			if _, err := engine.ParseGuarded(s, nil, false, nil, fl); !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("fired flag on reparse produced %v, want canceled", err)
			}

			faultinject.Set(faultinject.SiteDispatch,
				faultinject.Fault{Kind: faultinject.Panic, Times: 1})
			var p *engine.PanicError
			if _, err := engine.ParseGuarded(s, nil, true, nil, nil); !errors.As(err, &p) {
				t.Fatalf("session panic surfaced as %v, want *engine.PanicError", err)
			}
			faultinject.Reset()

			res, err := engine.ParseGuarded(s, nil, false, nil, nil)
			if err != nil || !res.Accepted {
				t.Fatalf("session after recovered panic: %v accepted=%v", err, res.Accepted)
			}
		})
	}
}

// TestCursorGuardedCancelAndPanic is the cursor row of the guard table
// on every backend: a cursor step run through ParseGuarded stops its
// feed at the first checkpoint after the flag fires, with the
// structured cancellation error, and the tokens fed before it stay fed;
// a panic at dispatch surfaces as a *engine.PanicError; and the cursor
// serves its next step afterwards.
func TestCursorGuardedCancelAndPanic(t *testing.T) {
	defer faultinject.Reset()
	for _, tc := range []struct {
		kind    engine.Kind
		fixture string
	}{
		{engine.KindGLR, "CalcDet.bnf"},
		{engine.KindLALR, "CalcDet.bnf"},
		{engine.KindEarley, "CalcDet.bnf"},
		{engine.KindLL, "CalcLL.bnf"},
		{engine.KindAuto, "CalcDet.bnf"},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			g := guardFixture(t, tc.fixture)
			e, err := engine.New(tc.kind, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			c, _, err := engine.OpenCursor(e, fixtures.Tokens(g, "n +"))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			step := &engine.CursorStep{Cursor: c, Restore: -1}

			// The injected cancel fires the flag at feed index 1; the
			// checkpoint before index 2 aborts, with "n *" fed.
			faultinject.Set(faultinject.SiteDriveToken,
				faultinject.Fault{Kind: faultinject.Cancel, At: 1})
			_, err = engine.ParseGuarded(step, fixtures.Tokens(g, "n * n"), false, nil, new(cancel.Flag))
			faultinject.Reset()
			var cerr *cancel.Error
			if !errors.As(err, &cerr) || cerr.Reason != cancel.Injected {
				t.Fatalf("injected cancel on a cursor feed produced %v, want canceled", err)
			}
			if step.Fed != 2 || c.Pos() != 4 {
				t.Fatalf("after the abort: fed %d, pos %d; want 2 fed at pos 4", step.Fed, c.Pos())
			}
			fl := new(cancel.Flag)
			fl.Cancel(cancel.ClientGone)
			if _, err := engine.ParseGuarded(step, fixtures.Tokens(g, "n"), false, nil, fl); !errors.Is(err, cancel.ErrCanceled) || c.Pos() != 4 {
				t.Fatalf("fired flag on a cursor feed: %v at pos %d, want canceled at pos 4", err, c.Pos())
			}

			var set engine.TermSet
			step.Accepts = &set
			faultinject.Set(faultinject.SiteDispatch,
				faultinject.Fault{Kind: faultinject.Panic, Times: 1})
			var p *engine.PanicError
			if _, err := engine.ParseGuarded(step, fixtures.Tokens(g, "n"), false, nil, nil); !errors.As(err, &p) {
				t.Fatalf("cursor step panic surfaced as %v, want *engine.PanicError", err)
			}
			faultinject.Reset()

			res, err := engine.ParseGuarded(step, fixtures.Tokens(g, "n"), false, nil, nil)
			if err != nil || res.ErrorPos != -1 || c.Pos() != 5 || !set.Has(grammar.EOF) {
				t.Fatalf("cursor step after recovered panic: %v, pos %d, complete=%v", err, c.Pos(), set.Has(grammar.EOF))
			}
		})
	}
}

// TestParseGuardedZeroAllocsWithFlag is the hot-path allocation pin for
// the cancellation checkpoints: the warm GLR path (the one the
// registry-level gate already pins at 0 allocs/op) must stay at zero
// through the guarded dispatch with a live (armed, never fired) flag
// threaded into every checkpoint.
func TestParseGuardedZeroAllocsWithFlag(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool lossy; allocation counts are meaningless under -race")
	}
	g := fixtures.Booleans()
	e, err := engine.New(engine.KindGLR, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// EOF-terminated input is the service's zero-alloc convention: a
	// bare token slice makes the GLR front end copy it to append the
	// end marker, which would show up here as a false positive.
	input := append(fixtures.Tokens(g, "true or false and true"), grammar.EOF)
	fl := new(cancel.Flag)
	for i := 0; i < 16; i++ {
		if res, err := engine.ParseGuarded(e, input, false, nil, fl); err != nil || !res.Accepted {
			t.Fatalf("warm-up: %v accepted=%v", err, res.Accepted)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		res, err := engine.ParseGuarded(e, input, false, nil, fl)
		if err != nil || !res.Accepted {
			t.Fatal("parse failed mid-measurement")
		}
	}); got != 0 {
		t.Errorf("warm guarded parse with armed flag: %v allocs/op, want 0", got)
	}
}

// TestGuardedFlagAddsNoAllocs pins the checkpoint overhead on the
// table-driven backends: their warm parses carry a small committed
// allocation baseline (see TestAllocRegressionGuard), and threading an
// armed cancellation flag through the guard must not add to it.
func TestGuardedFlagAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool lossy; allocation counts are meaningless under -race")
	}
	for _, tc := range []struct {
		kind    engine.Kind
		fixture string
	}{
		{engine.KindLALR, "CalcDet.bnf"},
		{engine.KindLL, "CalcLL.bnf"},
	} {
		g := guardFixture(t, tc.fixture)
		e, err := engine.New(tc.kind, g, nil)
		if err != nil {
			t.Fatalf("New(%v): %v", tc.kind, err)
		}
		input := append(fixtures.Tokens(g, "n + n * n"), grammar.EOF)
		fl := new(cancel.Flag)
		for i := 0; i < 16; i++ {
			e.Parse(input, false)
			engine.ParseGuarded(e, input, false, nil, fl)
		}
		bare := testing.AllocsPerRun(200, func() { e.Parse(input, false) })
		armed := testing.AllocsPerRun(200, func() {
			engine.ParseGuarded(e, input, false, nil, fl)
		})
		if armed > bare {
			t.Errorf("%v: guarded parse with armed flag: %v allocs/op, bare parse %v — checkpoints must be free",
				tc.kind, armed, bare)
		}
	}
}

// TestCancelFlagErrReportsWork sanity-checks the structured error the
// engines raise on abort: position and token counts describe how far
// the drive got.
func TestCancelFlagErrReportsWork(t *testing.T) {
	fl := new(cancel.Flag)
	if fl.Hit() {
		t.Fatal("fresh flag reads fired")
	}
	fl.Cancel(cancel.Deadline)
	fl.Cancel(cancel.ClientGone) // loser: the first reason sticks
	if got := fl.Reason(); got != cancel.Deadline {
		t.Fatalf("reason after double Cancel = %v, want deadline", got)
	}
	err := fl.Err(7, 100, 42)
	var cerr *cancel.Error
	if !errors.As(err, &cerr) {
		t.Fatalf("Err returned %T", err)
	}
	if cerr.Reason != cancel.Deadline || cerr.Pos != 7 || cerr.Tokens != 100 || cerr.Work != 42 {
		t.Errorf("error fields = %+v", cerr)
	}
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Error("cancel.Error is not ErrCanceled")
	}
}
