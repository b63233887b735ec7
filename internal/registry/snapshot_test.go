package registry

import (
	"errors"
	"log/slog"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipg/internal/snapshot"
)

func newStoreT(t *testing.T) *snapshot.Store {
	t.Helper()
	st, err := snapshot.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// logCapture collects registry log output for assertion: a locked
// byte sink behind a slog text handler.
type logCapture struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (lc *logCapture) Write(p []byte) (int, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.buf.Write(p)
}

func (lc *logCapture) logger() *slog.Logger {
	return slog.New(slog.NewTextHandler(lc, nil))
}

func (lc *logCapture) joined() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.buf.String()
}

func TestSnapshotRestoreResumesWarm(t *testing.T) {
	store := newStoreT(t)

	// Process 1: register, warm the table, snapshot, "die".
	r1 := New()
	r1.SetSnapshotStore(store)
	e1, err := r1.Register("calc", Spec{Source: calcSDF})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := e1.ParseInput("1 + 2 * 3", true); err != nil || !res.Accepted {
		t.Fatalf("warm parse: %v %v", err, res.Accepted)
	}
	warmExpanded := e1.Stats().Counters.StatesExpanded
	if warmExpanded == 0 {
		t.Fatal("warm parse expanded nothing")
	}
	if _, err := r1.SnapshotEntry("calc"); err != nil {
		t.Fatal(err)
	}
	if st := r1.SnapshotStats(); !st.Enabled || st.Saves != 1 || st.LastSaveUnix == 0 {
		t.Errorf("snapshot stats after save: %+v", st)
	}

	// Process 2: same store, same grammar — must resume, not re-earn.
	r2 := New()
	r2.SetSnapshotStore(store)
	e2, err := r2.Register("calc", Spec{Source: calcSDF})
	if err != nil {
		t.Fatal(err)
	}
	st2 := e2.Stats()
	if !st2.Restored {
		t.Fatal("entry did not restore from snapshot")
	}
	if st2.Complete == 0 {
		t.Fatal("restored table has no complete states")
	}
	res, err := e2.ParseInput("1 + 2 * 3", true)
	if err != nil || !res.Accepted || res.Trees != 1 {
		t.Fatalf("parse after restore: %v %+v", err, res)
	}
	// The acceptance criterion: the first parse after restart performs
	// zero lazy state expansions.
	if got := e2.Stats().Counters.StatesExpanded; got != 0 {
		t.Errorf("first parse after restore expanded %d states, want 0", got)
	}
	if r2.SnapshotStats().Restores != 1 {
		t.Errorf("restore not counted: %+v", r2.SnapshotStats())
	}
}

func TestCorruptSnapshotFallsBackCold(t *testing.T) {
	store := newStoreT(t)
	r1 := New()
	r1.SetSnapshotStore(store)
	if _, err := r1.Register("calc", Spec{Source: calcSDF}); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.SnapshotEntry("calc"); err != nil {
		t.Fatal(err)
	}

	// Truncate the snapshot file — a crash mid-disk-write, bit rot, etc.
	path := store.Path("calc")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var lc logCapture
	r2 := New()
	r2.SetSnapshotStore(store)
	r2.SetLogger(lc.logger())
	e, err := r2.Register("calc", Spec{Source: calcSDF})
	if err != nil {
		t.Fatalf("corrupt snapshot must not fail registration: %v", err)
	}
	if e.Stats().Restored {
		t.Error("corrupt snapshot must not restore")
	}
	if !strings.Contains(lc.joined(), "generating cold") {
		t.Errorf("fallback reason not logged: %q", lc.joined())
	}
	if r2.SnapshotStats().Errors != 1 {
		t.Errorf("corruption not counted: %+v", r2.SnapshotStats())
	}
	// The cold entry serves correct parses.
	if res, err := e.ParseInput("1 + 2 * 3", true); err != nil || !res.Accepted || res.Trees != 1 {
		t.Errorf("cold fallback parse: %v %+v", err, res)
	}
}

func TestStaleSnapshotRejectedByHash(t *testing.T) {
	store := newStoreT(t)
	r1 := New()
	r1.SetSnapshotStore(store)
	if _, err := r1.Register("g", Spec{Source: boolSrc}); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.SnapshotEntry("g"); err != nil {
		t.Fatal(err)
	}

	// The "same" grammar name re-registers with different rules: the
	// snapshot is stale and must be rejected, never resolved wrongly.
	var lc logCapture
	r2 := New()
	r2.SetSnapshotStore(store)
	r2.SetLogger(lc.logger())
	e, err := r2.Register("g", Spec{Source: boolSrc + "\nB ::= \"not\" B\n"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Restored {
		t.Error("stale snapshot must not restore")
	}
	if !strings.Contains(lc.joined(), "stale") {
		t.Errorf("rejection not logged: %q", lc.joined())
	}
	if r2.SnapshotStats().Rejected != 1 {
		t.Errorf("rejection not counted: %+v", r2.SnapshotStats())
	}
	if res, err := e.ParseInput("not true", false); err != nil || !res.Accepted {
		t.Errorf("cold entry must serve the new grammar: %v %v", err, res.Accepted)
	}
}

func TestSnapshotEntryErrors(t *testing.T) {
	r := New()
	if _, err := r.SnapshotEntry("x"); !errors.Is(err, ErrNoStore) {
		t.Errorf("no store: %v", err)
	}
	if _, err := r.SnapshotAll(); !errors.Is(err, ErrNoStore) {
		t.Errorf("no store: %v", err)
	}
	r.SetSnapshotStore(newStoreT(t))
	if _, err := r.SnapshotEntry("x"); err == nil || errors.Is(err, ErrNoStore) {
		t.Errorf("unknown entry: %v", err)
	}
	if n, err := r.SnapshotAll(); n != 0 || err != nil {
		t.Errorf("empty registry: %d %v", n, err)
	}
}

func TestSnapshotAllRoundTrip(t *testing.T) {
	store := newStoreT(t)
	r := New()
	r.SetSnapshotStore(store)
	if _, err := r.Register("bool", Spec{Source: boolSrc}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("calc", Spec{Source: calcSDF}); err != nil {
		t.Fatal(err)
	}
	n, err := r.SnapshotAll()
	if n != 2 || err != nil {
		t.Fatalf("snapshot all: %d %v", n, err)
	}
	names, err := store.List()
	if err != nil || strings.Join(names, ",") != "bool,calc" {
		t.Errorf("store contents: %v %v", names, err)
	}
}

func TestAdmissionMaxConcurrentParses(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc, Limits: Limits{MaxConcurrentParses: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot, then the next parse must be rejected with
	// ErrBusy rather than queue.
	e.inflight.Add(1)
	_, err = e.ParseInput("true", false)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("want ErrBusy, got %v", err)
	}
	e.inflight.Add(-1)
	if _, err := e.ParseInput("true", false); err != nil {
		t.Fatalf("slot released, parse must succeed: %v", err)
	}
	st := e.Stats()
	if st.AdmissionRejected != 1 || st.Limits.MaxConcurrentParses != 1 {
		t.Errorf("stats: %+v", st)
	}

	// SDF entries must reject BEFORE the scan phase, which serializes on
	// the entry's scanner — a saturated entry must not queue there.
	sdfEntry, err := r.Register("calc", Spec{Source: calcSDF, Limits: Limits{MaxConcurrentParses: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sdfEntry.inflight.Add(1)
	if _, err := sdfEntry.ParseInput("1 + 2", false); !errors.Is(err, ErrBusy) {
		t.Fatalf("SDF parse with saturated entry: want ErrBusy, got %v", err)
	}
	sdfEntry.inflight.Add(-1)
	if res, err := sdfEntry.ParseInput("1 + 2", false); err != nil || !res.Accepted {
		t.Fatalf("slot released: %v", err)
	}
}

func TestAdmissionMaxForestNodes(t *testing.T) {
	r := New()
	r.SetDefaultLimits(Limits{MaxForestNodes: 3})
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	// The ambiguous sentence builds a forest beyond the cap.
	_, err = e.ParseInput("true or true or true", true)
	if !errors.Is(err, ErrForestLimit) {
		t.Fatalf("want ErrForestLimit, got %v", err)
	}
	if e.Stats().AdmissionRejected != 1 {
		t.Errorf("rejection not counted: %+v", e.Stats())
	}
	// Registry defaults apply, but explicit spec limits win.
	e2, err := r.Register("roomy", Spec{Source: boolSrc, Limits: Limits{MaxForestNodes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := e2.ParseInput("true or true or true", true); err != nil || !res.Accepted {
		t.Errorf("roomy entry must accept: %v", err)
	}
}

// TestSnapshotWhileParsingStress runs the full concurrent triangle —
// parsers, a snapshotter on a tight loop, and a writer interleaving
// AddRule/DeleteRule — under -race, and checks the counters add up.
func TestSnapshotWhileParsingStress(t *testing.T) {
	store := newStoreT(t)
	r := New()
	r.SetSnapshotStore(store)
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}

	const (
		parsers    = 8
		perParser  = 60
		writerIter = 20
	)
	var parses atomic.Uint64
	var snapshots atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Snapshotter: persist the live table as fast as it can.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.SnapshotEntry("bool"); err != nil {
				t.Errorf("snapshot during parse: %v", err)
				return
			}
			snapshots.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	// Writer: interleave rule addition and deletion.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerIter; i++ {
			if _, err := e.AddRulesText(`B ::= "not" B`); err != nil {
				t.Errorf("add: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
			if _, err := e.DeleteRulesText(`B ::= "not" B`); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()

	// Parsers: hammer the shared table.
	inputs := []string{"true", "true or false", "false and true or true", "true or"}
	for i := 0; i < parsers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perParser; j++ {
				in := inputs[(i+j)%len(inputs)]
				if _, err := e.Parse(mustTokens(t, e, in), j%2 == 0); err != nil {
					t.Errorf("parse %q: %v", in, err)
					return
				}
				parses.Add(1)
			}
		}(i)
	}

	// Wait for writer+parsers, then stop the snapshotter.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitParsers := parsers * perParser
	deadline := time.After(30 * time.Second)
	for parses.Load() < uint64(waitParsers) {
		select {
		case <-deadline:
			t.Fatalf("stress timed out at %d/%d parses", parses.Load(), waitParsers)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-done

	if snapshots.Load() == 0 {
		t.Error("snapshotter never ran")
	}
	st := e.Stats()
	if st.Counters.ParsesServed != uint64(waitParsers) {
		t.Errorf("ParsesServed %d, want %d", st.Counters.ParsesServed, waitParsers)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight %d after quiesce, want 0", st.Inflight)
	}
	if st.Counters.ActionCalls < st.Counters.CacheHits {
		t.Errorf("counters inconsistent: calls %d < hits %d", st.Counters.ActionCalls, st.Counters.CacheHits)
	}
	// The last snapshot on disk must be valid and restorable.
	r2 := New()
	r2.SetSnapshotStore(store)
	e2, err := r2.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := e2.ParseInput("true or false", true); err != nil || !res.Accepted {
		t.Errorf("restore after stress: %v", err)
	}
}
