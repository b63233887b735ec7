package registry

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ipg/internal/cancel"
	"ipg/internal/engine"
	"ipg/internal/faultinject"
	"ipg/internal/grammar"
)

// llFriendlySrc is accepted by all four backends (LL(1), LALR(1),
// lazy GLR and Earley), so cancellation can be exercised on each.
const llFriendlySrc = `
START ::= S
S ::= "a" S | "b"
`

// slowInput is a long sentence of that grammar; with a per-token delay
// fault armed, parsing it takes hundreds of milliseconds unless a
// cancellation checkpoint aborts the drive first.
func slowInput(tokens int) string {
	var b strings.Builder
	for i := 0; i < tokens-1; i++ {
		b.WriteString("a ")
	}
	b.WriteString("b")
	return b.String()
}

// TestParseAbortsOnDeadlineAllEngines is the acceptance gate for
// cancellable parses: a fault-injected slow parse must abort mid-drive
// on every backend when its context deadline expires, surfacing the
// structured cancellation error with reason deadline.
func TestParseAbortsOnDeadlineAllEngines(t *testing.T) {
	for _, kind := range []engine.Kind{
		engine.KindGLR, engine.KindLALR, engine.KindLL, engine.KindEarley,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			defer faultinject.Reset()
			r := New()
			e, err := r.Register("slow", Spec{Source: llFriendlySrc, Engine: kind})
			if err != nil {
				t.Fatal(err)
			}
			// 1ms per drive-loop token: the 400-token input would take
			// ~400ms to finish, far past the 15ms deadline.
			faultinject.Set(faultinject.SiteDriveToken,
				faultinject.Fault{Kind: faultinject.Delay, Delay: time.Millisecond})
			ctx, cancelCtx := context.WithTimeout(context.Background(), 15*time.Millisecond)
			defer cancelCtx()
			start := time.Now()
			_, err = e.Run(ctx, slowInput(400), nil, false, nil)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("%s: slow parse completed despite deadline", kind)
			}
			if !errors.Is(err, cancel.ErrCanceled) {
				t.Fatalf("%s: error %v is not the canceled class", kind, err)
			}
			var cerr *cancel.Error
			if !errors.As(err, &cerr) {
				t.Fatalf("%s: error %v carries no *cancel.Error", kind, err)
			}
			if cerr.Reason != cancel.Deadline {
				t.Errorf("%s: reason %v, want deadline", kind, cerr.Reason)
			}
			// The abort must happen mid-drive, not after the full input.
			if elapsed > 200*time.Millisecond {
				t.Errorf("%s: abort took %v; checkpoints not reached", kind, elapsed)
			}
			if got := e.CanceledTotal()[cancel.Deadline]; got != 1 {
				t.Errorf("%s: canceled[deadline] = %d, want 1", kind, got)
			}
		})
	}
}

// TestParseAbortsOnClientGoneAllEngines covers the disconnect half of
// the acceptance gate: a canceled request context aborts the drive with
// reason client_gone on every backend.
func TestParseAbortsOnClientGoneAllEngines(t *testing.T) {
	for _, kind := range []engine.Kind{
		engine.KindGLR, engine.KindLALR, engine.KindLL, engine.KindEarley,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			defer faultinject.Reset()
			r := New()
			e, err := r.Register("slow", Spec{Source: llFriendlySrc, Engine: kind})
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Set(faultinject.SiteDriveToken,
				faultinject.Fault{Kind: faultinject.Delay, Delay: time.Millisecond})
			ctx, cancelCtx := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancelCtx()
			}()
			_, err = e.Run(ctx, slowInput(400), nil, false, nil)
			var cerr *cancel.Error
			if !errors.As(err, &cerr) {
				t.Fatalf("%s: error %v carries no *cancel.Error", kind, err)
			}
			if cerr.Reason != cancel.ClientGone {
				t.Errorf("%s: reason %v, want client_gone", kind, cerr.Reason)
			}
		})
	}
}

// TestCompletionGuardedLikeParses runs completion through the entry's
// guarded dispatch on every backend. A deadline aborts a one-shot
// query's feed mid-prefix with the structured error and counts like a
// canceled parse. An injected dispatch panic on a resume surfaces as a
// *engine.PanicError and counts in Stats().Panics and the breaker's
// failure streak. The cursor then serves its next step, which ends the
// streak.
func TestCompletionGuardedLikeParses(t *testing.T) {
	for _, kind := range []engine.Kind{
		engine.KindGLR, engine.KindLALR, engine.KindLL, engine.KindEarley, engine.KindAuto,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			defer faultinject.Reset()
			r := New()
			r.SetBreakerConfig(BreakerConfig{Threshold: 3, Cooldown: time.Minute})
			e, err := r.Register("slow", Spec{Source: llFriendlySrc, Engine: kind})
			if err != nil {
				t.Fatal(err)
			}
			var set engine.TermSet
			faultinject.Set(faultinject.SiteDriveToken,
				faultinject.Fault{Kind: faultinject.Delay, Delay: time.Millisecond})
			ctx, cancelCtx := context.WithTimeout(context.Background(), 15*time.Millisecond)
			defer cancelCtx()
			start := time.Now()
			_, _, _, _, err = r.Complete(ctx, e, CompletionOp{Once: true, Input: slowInput(400)}, &set, nil)
			var cerr *cancel.Error
			if !errors.As(err, &cerr) || cerr.Reason != cancel.Deadline {
				t.Fatalf("deadline-bounded completion: %v, want a deadline cancellation", err)
			}
			if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
				t.Errorf("abort took %v; checkpoints not reached", elapsed)
			}
			if got := e.CanceledTotal()[cancel.Deadline]; got != 1 {
				t.Errorf("canceled[deadline] = %d, want 1", got)
			}
			faultinject.Reset()

			cs, _, err := r.OpenCompletion(e, "a a", nil)
			if err != nil {
				t.Fatal(err)
			}
			feed := func(text string) error {
				toks, err := cs.FeedTokens(text)
				if err != nil {
					t.Fatal(err)
				}
				_, err = cs.Apply(-1, toks, &set, nil)
				return err
			}
			faultinject.Set(faultinject.SiteDispatch,
				faultinject.Fault{Kind: faultinject.Panic, Times: 1})
			var p *engine.PanicError
			if err := feed("a"); !errors.As(err, &p) {
				t.Fatalf("completion panic surfaced as %v, want *engine.PanicError", err)
			}
			faultinject.Reset()
			if st := e.Stats(); st.Panics != 1 || st.Breaker.ConsecutiveFailures != 1 {
				t.Fatalf("after the panic: panics %d, breaker %+v; want 1 and a streak of 1", st.Panics, st.Breaker)
			}
			if err := feed("b"); err != nil || !set.Has(grammar.EOF) {
				t.Fatalf("step after the panic: %v, complete=%v", err, set.Has(grammar.EOF))
			}
			if st := e.Stats(); st.Breaker.ConsecutiveFailures != 0 || st.Breaker.State != "closed" {
				t.Errorf("after a served step: breaker %+v, want closed with no streak", st.Breaker)
			}
		})
	}
}

// TestInjectedCancelAbortsMidDrive pins the deterministic cancel fault:
// firing the flag at token 5 aborts with a position past the gate but
// far before the end of the input — direct evidence the drive loop saw
// the flag mid-parse.
func TestInjectedCancelAbortsMidDrive(t *testing.T) {
	defer faultinject.Reset()
	r := New()
	e, err := r.Register("slow", Spec{Source: llFriendlySrc, Engine: engine.KindLALR})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(faultinject.SiteDriveToken,
		faultinject.Fault{Kind: faultinject.Cancel, At: 5})
	// The injected fault needs an armed flag to fire into, so parse
	// with a cancelable context.
	ctx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx()
	_, err = e.Run(ctx, slowInput(400), nil, false, nil)
	var cerr *cancel.Error
	if !errors.As(err, &cerr) {
		t.Fatalf("error %v carries no *cancel.Error", err)
	}
	if cerr.Reason != cancel.Injected {
		t.Errorf("reason %v, want injected", cerr.Reason)
	}
	if cerr.Pos < 5 || cerr.Pos >= 399 {
		t.Errorf("abort at pos %d, want mid-drive (>=5, <399)", cerr.Pos)
	}
}

// TestBreakerLifecycle walks the quarantine circuit through every
// transition: consecutive panics trip it open, open rejects with a
// Retry-After, the cooldown admits one half-open probe, a panicking
// probe reopens, and a healthy probe closes it again.
func TestBreakerLifecycle(t *testing.T) {
	defer faultinject.Reset()
	r := New()
	r.SetBreakerConfig(BreakerConfig{Threshold: 2, Cooldown: 40 * time.Millisecond})
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	parse := func() error {
		_, err := e.ParseInput("true or false", false)
		return err
	}

	// Two consecutive panics reach the threshold and trip the breaker.
	faultinject.Set(faultinject.SiteDispatch,
		faultinject.Fault{Kind: faultinject.Panic, Times: 2})
	for i := 0; i < 2; i++ {
		err := parse()
		var p *engine.PanicError
		if !errors.As(err, &p) {
			t.Fatalf("panic %d surfaced as %v, want *engine.PanicError", i, err)
		}
	}
	if st := e.Stats().Breaker; st.State != "open" || st.Trips != 1 {
		t.Fatalf("after 2 panics: state=%s trips=%d, want open/1", st.State, st.Trips)
	}

	// Open rejects without running the engine, with a retry hint.
	err = parse()
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("open breaker admitted a parse: %v", err)
	}
	var q *QuarantineError
	if !errors.As(err, &q) || q.RetryAfter <= 0 {
		t.Fatalf("quarantine error %v carries no positive RetryAfter", err)
	}

	// After the cooldown, the single half-open probe panics → reopen.
	time.Sleep(60 * time.Millisecond)
	faultinject.Set(faultinject.SiteDispatch,
		faultinject.Fault{Kind: faultinject.Panic, Times: 1})
	var p *engine.PanicError
	if err := parse(); !errors.As(err, &p) {
		t.Fatalf("half-open probe surfaced as %v, want panic error", err)
	}
	if st := e.Stats().Breaker; st.State != "open" || st.Trips != 2 {
		t.Fatalf("after failed probe: state=%s trips=%d, want open/2", st.State, st.Trips)
	}
	if err := parse(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("reopened breaker admitted a parse: %v", err)
	}

	// A healthy probe closes the circuit; normal service resumes.
	time.Sleep(60 * time.Millisecond)
	if err := parse(); err != nil {
		t.Fatalf("healthy probe failed: %v", err)
	}
	if st := e.Stats().Breaker; st.State != "closed" {
		t.Fatalf("after healthy probe: state=%s, want closed", st.State)
	}
	if err := parse(); err != nil {
		t.Fatalf("parse after close failed: %v", err)
	}
	if e.Stats().Panics != 3 {
		t.Errorf("panics counter = %d, want 3", e.Stats().Panics)
	}
}

// TestDrainingRejects pins the drain flag: while set, every admission
// is refused with ErrDraining and counted; clearing it restores
// service.
func TestDrainingRejects(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	r.SetDraining(true)
	if _, err := e.ParseInput("true", false); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining registry admitted a parse: %v", err)
	}
	if got := r.Resilience().DrainRejected; got != 1 {
		t.Errorf("drain_rejected = %d, want 1", got)
	}
	r.SetDraining(false)
	if _, err := e.ParseInput("true", false); err != nil {
		t.Fatalf("parse after drain cleared: %v", err)
	}
}

// TestMemoryBudgetRejects pins the global memory budget: when the
// refreshed estimate exceeds the budget, new parses are shed with
// ErrMemoryBudget until the budget is lifted.
func TestMemoryBudgetRejects(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the table so the estimate is nonzero, then set an impossible
	// budget.
	if _, err := e.ParseInput("true or false", false); err != nil {
		t.Fatal(err)
	}
	r.SetMemoryBudget(1)
	if usage := r.RefreshMemoryUsage(); usage <= 1 {
		t.Fatalf("usage estimate %d not above the 1-byte budget", usage)
	}
	if _, err := e.ParseInput("true", false); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("over-budget registry admitted a parse: %v", err)
	}
	if got := r.Resilience().MemRejected; got != 1 {
		t.Errorf("mem_rejected = %d, want 1", got)
	}
	r.SetMemoryBudget(0)
	if _, err := e.ParseInput("true", false); err != nil {
		t.Fatalf("parse after budget lifted: %v", err)
	}
}

// TestShedderEngagesAndRecovers drives the p99 shedder through a
// healthy baseline window, an inflated window that engages shedding,
// and a recovered window that disengages it.
func TestShedderEngagesAndRecovers(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ShedConfig{Factor: 3, MinSamples: 50, DropPer: 1}

	// Prime the diff base, then a healthy window (~1ms p99).
	r.ShedTick(cfg)
	for i := 0; i < 100; i++ {
		e.lat.observe(time.Millisecond)
	}
	if r.ShedTick(cfg) {
		t.Fatal("healthy window engaged shedding")
	}

	// Inflated window: p99 is 64× the baseline.
	for i := 0; i < 100; i++ {
		e.lat.observe(64 * time.Millisecond)
	}
	if !r.ShedTick(cfg) {
		t.Fatal("64x p99 inflation did not engage shedding")
	}
	// DropPer 1 sheds every request.
	if _, err := e.ParseInput("true", false); !errors.Is(err, ErrShed) {
		t.Fatalf("shedding registry admitted a parse: %v", err)
	}
	if got := r.Resilience().Shed; got == 0 {
		t.Error("shed counter did not move")
	}

	// Recovered window: back at the baseline → shedding disengages.
	for i := 0; i < 100; i++ {
		e.lat.observe(time.Millisecond)
	}
	if r.ShedTick(cfg) {
		t.Fatal("recovered window kept shedding engaged")
	}
	if _, err := e.ParseInput("true", false); err != nil {
		t.Fatalf("parse after shed disengaged: %v", err)
	}
}

// TestSnapshotSaveRetries pins the bounded-backoff retry: two injected
// write errors are absorbed by three retries, and the retry counter
// records them; with the fault outlasting the budget, the save fails.
func TestSnapshotSaveRetries(t *testing.T) {
	defer faultinject.Reset()
	r := New()
	r.SetSnapshotStore(newStoreT(t))
	r.SetSnapshotRetry(3, 0)
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ParseInput("true or false", false); err != nil {
		t.Fatal(err)
	}

	faultinject.Set(faultinject.SiteSnapshotSave,
		faultinject.Fault{Kind: faultinject.Error, Times: 2})
	if _, err := r.SnapshotEntry("bool"); err != nil {
		t.Fatalf("save with 2 injected errors and 3 retries failed: %v", err)
	}
	if got := r.SnapshotRetries(); got != 2 {
		t.Errorf("snapshot retries = %d, want 2", got)
	}

	// A fault outlasting the retry budget fails the save.
	faultinject.Set(faultinject.SiteSnapshotSave,
		faultinject.Fault{Kind: faultinject.Error, Times: 10})
	if _, err := r.SnapshotEntry("bool"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("save with persistent fault returned %v, want injected error", err)
	}
}

// TestResilienceAdmitZeroAllocs extends the warm-path allocation pin
// over the new admission gates: with a breaker configured, a memory
// budget set (but not exceeded) and cancellation hooks compiled in, a
// warm parse must still allocate nothing.
func TestResilienceAdmitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool lossy; allocation counts are meaningless under -race")
	}
	r := New()
	r.SetBreakerConfig(BreakerConfig{Threshold: 3, Cooldown: time.Second})
	r.SetMemoryBudget(1 << 30)
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	r.RefreshMemoryUsage()
	input := mustTokens(t, e, "true or false and true")
	for i := 0; i < 16; i++ {
		if res, err := e.Parse(input, false); err != nil || !res.Accepted {
			t.Fatalf("warm-up parse: %v %v", err, res.Accepted)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		res, err := e.Parse(input, false)
		if err != nil || !res.Accepted {
			t.Fatal("parse failed mid-measurement")
		}
	}); got != 0 {
		t.Errorf("warm parse with resilience gates armed: %v allocs/op, want 0", got)
	}
}

// TestDrainStress is the -race drain scenario: parsers and session
// editors hammer the registry while a drain begins, in-flight contexts
// are force-canceled, and every session is closed. Nothing may race,
// deadlock or leak a wedged parse.
func TestDrainStress(t *testing.T) {
	defer faultinject.Reset()
	r := New()
	e, err := r.Register("slow", Spec{Source: llFriendlySrc, Engine: engine.KindEarley})
	if err != nil {
		t.Fatal(err)
	}
	// A mild per-token delay keeps parses in flight long enough for the
	// drain to overlap them.
	faultinject.Set(faultinject.SiteDriveToken,
		faultinject.Fault{Kind: faultinject.Delay, Delay: 50 * time.Microsecond})

	baseCtx, cancelBase := context.WithCancel(context.Background())
	const workers = 8
	done := make(chan struct{})
	errs := make(chan error, workers*4)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; ; i++ {
				select {
				case <-baseCtx.Done():
					return
				default:
				}
				if w%2 == 0 {
					_, err := e.Run(baseCtx, slowInput(50), nil, false, nil)
					if err != nil && !errors.Is(err, cancel.ErrCanceled) &&
						!errors.Is(err, ErrDraining) {
						errs <- err
						return
					}
				} else {
					sess, err := r.OpenSession(e, slowInput(20))
					if err != nil {
						if errors.Is(err, ErrDraining) || errors.Is(err, ErrSessionLimit) {
							continue
						}
						errs <- err
						return
					}
					_, err = sess.Run(baseCtx, nil, true, false, nil)
					if err != nil && !errors.Is(err, cancel.ErrCanceled) &&
						!errors.Is(err, ErrDraining) && !errors.Is(err, ErrNoSession) {
						errs <- err
						return
					}
					r.CloseSession(sess.ID())
				}
			}
		}(w)
	}

	// Let the workers get in flight, then drain: refuse new work,
	// force-cancel in-flight contexts, close all sessions.
	time.Sleep(20 * time.Millisecond)
	r.SetDraining(true)
	time.Sleep(5 * time.Millisecond)
	cancelBase()
	for w := 0; w < workers; w++ {
		select {
		case <-done:
		case err := <-errs:
			t.Fatalf("worker failed: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("drain stress wedged: workers did not exit")
		}
	}
	r.CloseAllSessions()
	if n := r.SessionTotals().Open; n != 0 {
		t.Errorf("%d sessions survived CloseAllSessions", n)
	}
	select {
	case err := <-errs:
		t.Fatalf("worker failed: %v", err)
	default:
	}
}
