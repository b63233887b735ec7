// The allocation gates: CI fails when a steady-state pass of any
// engine workload, run live on the code under test, allocates more than
// twice the reference table's allocs/op (reference_test.go). ns/op
// regressions are machine-dependent and belong to human review of the
// uploaded engine report; allocs/op is deterministic enough to gate on.
package engine_test

import (
	"runtime"
	"sync"
	"testing"

	"ipg/internal/engine"
	"ipg/internal/fixtures"
	"ipg/internal/grammar"
	"ipg/internal/harness"
	"ipg/internal/sdf"
)

// engineRun holds the one live RunEngines run both allocation gates
// read, so the package pays for the workload passes once.
var engineRun struct {
	once sync.Once
	rows []harness.EngineResult
	err  error
}

// liveEngines runs every engine workload live (repeat 2, minima over
// the repeats) on first use.
func liveEngines(t *testing.T) []harness.EngineResult {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation gates run full workload passes; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool lossy; allocation counts are meaningless under -race")
	}
	engineRun.once.Do(func() {
		workloads, err := harness.EngineWorkloads("../../testdata")
		if err != nil {
			engineRun.err = err
			return
		}
		engineRun.rows = harness.RunEngines(workloads, 2)
	})
	if engineRun.err != nil {
		t.Fatal(engineRun.err)
	}
	return engineRun.rows
}

// TestAllocRegressionGuard holds every live (workload, engine) row to
// at most 2× its reference allocs/op plus a small absolute buffer for
// background-GC noise in the Mallocs delta. The reference table and the
// run must cover the same rows, so a new backend or workload cannot
// slip past the guard.
func TestAllocRegressionGuard(t *testing.T) {
	live := map[[2]string]harness.EngineResult{}
	for _, r := range liveEngines(t) {
		live[[2]string{r.Workload, r.Engine}] = r
	}
	for key, want := range referenceAllocs {
		r, ok := live[key]
		switch {
		case !ok:
			t.Errorf("%s/%s: reference row not produced by the live run", key[0], key[1])
		case r.Error != "":
			t.Errorf("%s/%s: %s", key[0], key[1], r.Error)
		case r.AllocsPerOp > 2*want+8:
			t.Errorf("%s/%s: %d allocs per steady pass, reference %d (limit %d) — hot-path allocation regression",
				key[0], key[1], r.AllocsPerOp, want, 2*want+8)
		}
	}
	for key, r := range live {
		if _, ok := referenceAllocs[key]; !ok && r.Error == "" {
			t.Errorf("%s/%s: %d allocs per steady pass and no reference value — add the row to referenceAllocs",
				key[0], key[1], r.AllocsPerOp)
		}
	}
}

// TestSessionReparseAllocFree extends the allocation gate to the
// session layer: once a document session is warm, a same-length
// single-token splice plus reparse must not touch the heap — the chart
// resumes in place and the edited suffix re-drives through pooled
// workspace storage.
func TestSessionReparseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool lossy; allocation counts are meaningless under -race")
	}
	g := fixtures.Booleans()
	e, err := engine.New(engine.KindEarley, g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.OpenSession(e, fixtures.Tokens(g, "true or false and true or false or true"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if res, err := s.Reparse(); err != nil || !res.Accepted {
		t.Fatalf("initial reparse: %v accepted=%v", err, res.Accepted)
	}
	// Touch edit at the last token; the insert slice is hoisted so the
	// measured cycle is pure splice+reparse.
	pos := s.Len() - 1
	insert := []grammar.Symbol{fixtures.Tokens(g, "true")[0]}
	cycle := func() {
		if err := s.Splice(pos, 1, insert); err != nil {
			t.Fatal(err)
		}
		res, err := s.Reparse()
		if err != nil || !res.Accepted {
			t.Fatalf("warm reparse: %v accepted=%v", err, res.Accepted)
		}
	}
	cycle() // warm the resumed suffix
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("warm single-token splice+reparse: %.2f allocs/op, want 0", avg)
	}
	st := s.Stats()
	if st.LastReused != pos+1 {
		t.Errorf("last reparse reused %d sets, want %d (sets 0..pos, left of the edit)", st.LastReused, pos+1)
	}
}

// TestEarleyAllocDropVersusPR4 pins the chart overhaul's acceptance
// criterion on the code under test: the pooled chart must cut Earley's
// steady-state allocs/op at least 10× against the pre-overhaul
// recognizer (preChartEarleyAllocs) on every one of its workloads.
func TestEarleyAllocDropVersusPR4(t *testing.T) {
	live := map[string]harness.EngineResult{}
	for _, r := range liveEngines(t) {
		if r.Engine == "earley" {
			live[r.Workload] = r
		}
	}
	for w, before := range preChartEarleyAllocs {
		r, ok := live[w]
		switch {
		case !ok:
			t.Errorf("%s/earley: pre-overhaul workload not produced by the live run", w)
		case r.Error != "":
			t.Errorf("%s/earley: %s", w, r.Error)
		case r.AllocsPerOp*10 > before:
			t.Errorf("%s/earley: %d allocs/op vs %d pre-overhaul — less than the required 10x drop",
				w, r.AllocsPerOp, before)
		}
	}
}

// asfTreeBytesLimit bounds the heap bytes of one warm lazy-GLR tree parse
// of ASF.sdf (475 tokens): about 1.25x the 144 KB it measured once GSS
// edges were labelled by their derivations (a forest of 1,663 nodes);
// with a single-alternative ambiguity node per edge it was 510 KB and
// 3,422 nodes.
const asfTreeBytesLimit = 180_000

// TestTreeParseBytesGuard holds a warm ASF.sdf tree parse through the
// GLR engine to asfTreeBytesLimit bytes per parse. Like RunEngines it
// counts on one P after a warm-up there, so pooled workspaces are hits.
func TestTreeParseBytesGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool lossy; allocation counts are meaningless under -race")
	}
	g := sdf.MustBootstrapGrammar()
	inputs, err := harness.LoadInputs("../../testdata", g)
	if err != nil {
		t.Fatal(err)
	}
	var asf []grammar.Symbol
	for _, in := range inputs {
		if in.Name == "ASF.sdf" {
			asf = in.Tokens
		}
	}
	e, err := engine.New(engine.KindGLR, g)
	if err != nil {
		t.Fatal(err)
	}
	parse := func() {
		res, err := e.Parse(asf, true)
		if err != nil || !res.Accepted || res.Root == nil {
			t.Fatalf("ASF.sdf tree parse: accepted %v, %v", res.Accepted, err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		parse()
	}
	const runs = 20
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&ms1)
	perOp := (ms1.TotalAlloc - ms0.TotalAlloc) / runs
	t.Logf("warm ASF.sdf tree parse: %d B/op (limit %d)", perOp, asfTreeBytesLimit)
	if perOp > asfTreeBytesLimit {
		t.Errorf("warm ASF.sdf tree parse allocates %d B/op, limit %d — forest construction regression", perOp, asfTreeBytesLimit)
	}
}
