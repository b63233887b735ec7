package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ipg/internal/engine"
	"ipg/internal/grammar"
	"ipg/internal/snapshot"
)

// calcDetSrc mirrors testdata/CalcDet.bnf: deterministic, LALR(1)-clean.
const calcDetSrc = `
START ::= E
E ::= E "+" T | E "-" T | T
T ::= T "*" F | T "/" F | F
F ::= "n" | "(" E ")"
`

func TestSameGrammarUnderEveryEngine(t *testing.T) {
	r := New()
	for _, kind := range []engine.Kind{engine.KindGLR, engine.KindLALR, engine.KindEarley, engine.KindAuto} {
		e, err := r.Register("calc-"+kind.String(), Spec{Source: calcDetSrc, Engine: kind})
		if err != nil {
			t.Fatalf("register with engine %v: %v", kind, err)
		}
		for input, want := range map[string]bool{
			"n + n * n":     true,
			"( n - n ) / n": true,
			"n + +":         false,
		} {
			res, err := e.ParseInput(input, true)
			if err != nil {
				t.Fatalf("engine %v: ParseInput(%q): %v", kind, input, err)
			}
			if res.Accepted != want {
				t.Errorf("engine %v: ParseInput(%q) accepted=%v, want %v", kind, input, res.Accepted, want)
			}
		}
		st := e.Stats()
		if kind != engine.KindAuto && st.Engine != kind {
			t.Errorf("Stats().Engine = %v, want %v", st.Engine, kind)
		}
		if st.EngineReason == "" {
			t.Errorf("engine %v: empty selection reason", kind)
		}
		if st.Counters.ParsesServed == 0 {
			t.Errorf("engine %v: ParsesServed = 0", kind)
		}
	}
}

// TestAutoSelectionPerGrammar pins auto's verdict on every testdata
// grammar, registered as ipg-serve's -grammar flag registers it: a
// conflicted LALR(1) table selects lazy GLR, a conflict-free one
// LALR(1).
func TestAutoSelectionPerGrammar(t *testing.T) {
	r := New()
	for _, c := range []struct {
		file string
		want engine.Kind
	}{
		{"SDF.sdf", engine.KindGLR},
		{"exp.sdf", engine.KindGLR},
		{"Calc.sdf", engine.KindGLR},
		{"CalcDet.bnf", engine.KindLALR},
		{"CalcLL.bnf", engine.KindLALR},
		{"Exam.sdf", engine.KindLALR},
		{"ASF.sdf", engine.KindLALR},
	} {
		e := registerTestdata(t, r, c.file, c.file, engine.KindAuto)
		reason := e.Stats().EngineReason
		if got := e.EngineKind(); got != c.want {
			t.Errorf("auto picked %v for %s, want %v (%s)", got, c.file, c.want, reason)
		}
		if e.RequestedEngine() != engine.KindAuto {
			t.Errorf("%s: RequestedEngine = %v, want auto", c.file, e.RequestedEngine())
		}
		if want := map[engine.Kind]string{engine.KindGLR: "LALR(1) conflicts", engine.KindLALR: "conflict-free"}[c.want]; !strings.Contains(reason, want) {
			t.Errorf("%s: selection reason %q does not say %q", c.file, reason, want)
		}
	}

	// The ambiguous SDF calculator (priorities, not stratification)
	// parses on lazy GLR with its priority filters applied.
	amb, _ := r.Get("Calc.sdf")
	res, err := amb.ParseInput("1 + 2 * 3", true)
	if err != nil || !res.Accepted || res.Trees != 1 {
		t.Fatalf("auto/GLR SDF parse: err=%v accepted=%v trees=%d", err, res.Accepted, res.Trees)
	}
}

// registerTestdata registers a testdata grammar the way ipg-serve's
// -grammar flag does: .sdf files as SDF definitions, others as rules.
func registerTestdata(tb testing.TB, r *Registry, name, file string, kind engine.Kind) *Entry {
	tb.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", file))
	if err != nil {
		tb.Fatal(err)
	}
	spec := Spec{Source: string(src), Engine: kind}
	if strings.HasSuffix(file, ".sdf") {
		spec.Form = FormSDF
	}
	e, err := r.Register(name, spec)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestAutoGLRUpdatesRepairProbe pins auto on the churn workload's
// service path. SDF.sdf has LALR(1) conflicts, so auto serves it with
// lazy GLR, and 24 fresh-keyword rule updates, each followed by parses,
// keep it there.
func TestAutoGLRUpdatesRepairProbe(t *testing.T) {
	e := registerTestdata(t, New(), "sdf", "SDF.sdf", engine.KindAuto)
	if e.EngineKind() != engine.KindGLR {
		t.Fatalf("auto picked %v for SDF.sdf, want glr (%s)", e.EngineKind(), e.Stats().EngineReason)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "exp.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	parse := func() {
		t.Helper()
		res, err := e.ParseInput(string(doc), false)
		if err != nil || !res.Accepted {
			t.Fatalf("parse exp.sdf: err=%v accepted=%v", err, res.Accepted)
		}
	}
	sorts := []string{"LEX-ELEM", "CF-ELEM", "PRIO-DEF", "ABBREV-LIST", "GT-CHAIN", "ATTRIBUTE"}
	parse()
	for i := 0; i < 12; i++ {
		rule := fmt.Sprintf("%s ::= %q", sorts[i%len(sorts)], fmt.Sprintf("kw%d", i))
		if n, err := e.AddRulesText(rule); err != nil || n != 1 {
			t.Fatalf("add %s: n=%d err=%v", rule, n, err)
		}
		parse()
		if n, err := e.DeleteRulesText(rule); err != nil || n != 1 {
			t.Fatalf("delete %s: n=%d err=%v", rule, n, err)
		}
		parse()
		parse()
		if e.EngineKind() != engine.KindGLR {
			t.Fatalf("pair %d: auto moved to %v (%s)", i, e.EngineKind(), e.Stats().EngineReason)
		}
	}
}

func TestEarleyServesFilteredSDFGrammar(t *testing.T) {
	// Calc.sdf carries priority/associativity filters, which need a
	// parse forest to apply. Before the chart overhaul Earley could only
	// recognize, so this registration was refused; now it builds packed
	// forests, the filters apply, and the disambiguated result must
	// match the tree-building LR engines'.
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "Calc.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	earleyEnt, err := r.Register("calc-earley", Spec{Source: string(src), Form: FormSDF, Engine: engine.KindEarley})
	if err != nil {
		t.Fatalf("register Calc.sdf under Earley: %v", err)
	}
	glrEnt, err := r.Register("calc-glr", Spec{Source: string(src), Form: FormSDF, Engine: engine.KindGLR})
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range []string{"1 + 2 * 3", "4 * 5 + 6 * 7", "2 ^ 3 ^ 2", "1 - 2 - 3"} {
		eRes, err := earleyEnt.ParseInput(input, true)
		if err != nil {
			t.Fatalf("earley ParseInput(%q): %v", input, err)
		}
		gRes, err := glrEnt.ParseInput(input, true)
		if err != nil {
			t.Fatalf("glr ParseInput(%q): %v", input, err)
		}
		if !eRes.Accepted || eRes.Trees != 1 {
			t.Errorf("earley %q: accepted=%v trees=%d, want one filtered derivation", input, eRes.Accepted, eRes.Trees)
		}
		_, eTree := earleyEnt.Describe(eRes, true)
		_, gTree := glrEnt.Describe(gRes, true)
		if eTree != gTree {
			t.Errorf("%q: filtered trees diverge\nearley: %s\nglr:    %s", input, eTree, gTree)
		}
	}
}

func TestIncrementalUpdateUnderNonIncrementalEngine(t *testing.T) {
	r := New()
	e, err := r.Register("calc", Spec{Source: calcDetSrc, Engine: engine.KindLALR})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := e.AddRulesText(`F ::= "id"`); err != nil || n != 1 {
		t.Fatalf("AddRulesText: n=%d err=%v", n, err)
	}
	res, err := e.ParseInput("id * n", false)
	if err != nil || !res.Accepted {
		t.Fatalf("parse with regenerated table: err=%v accepted=%v", err, res.Accepted)
	}
	if inv := e.Counters().StatesInvalidated; inv == 0 {
		t.Error("LALR regeneration not visible in StatesInvalidated")
	}
	if e.Version() != 2 {
		t.Errorf("version %d after one update, want 2", e.Version())
	}
}

func TestDefaultEngine(t *testing.T) {
	r := New()
	r.SetDefaultEngine(engine.KindAuto)
	e, err := r.Register("calc", Spec{Source: calcDetSrc})
	if err != nil {
		t.Fatal(err)
	}
	if e.EngineKind() != engine.KindLALR {
		t.Errorf("default auto engine picked %v, want lalr", e.EngineKind())
	}
	explicit, err := r.Register("calc2", Spec{Source: calcDetSrc, Engine: engine.KindGLR})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.EngineKind() != engine.KindGLR {
		t.Errorf("explicit glr overridden to %v", explicit.EngineKind())
	}
}

func TestRateLimitAdmission(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{
		Source: boolSrc,
		Limits: Limits{RatePerSec: 0.001, Burst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.ParseInput("true", false); err != nil {
			t.Fatalf("parse %d within burst: %v", i, err)
		}
	}
	_, err = e.ParseInput("true", false)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("3rd parse err = %v, want ErrRateLimited", err)
	}
	st := e.Stats()
	if st.AdmissionRejected == 0 {
		t.Error("rate-limit rejection not counted")
	}
	if st.Limits.RatePerSec == 0 || st.Limits.Burst != 2 {
		t.Errorf("limits not echoed in stats: %+v", st.Limits)
	}
}

func TestSnapshotDegradesGracefullyPerEngine(t *testing.T) {
	dir := t.TempDir()
	store, err := snapshot.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.SetSnapshotStore(store)
	if _, err := r.Register("glr", Spec{Source: calcDetSrc, Engine: engine.KindGLR}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("lalr", Spec{Source: calcDetSrc, Engine: engine.KindLALR}); err != nil {
		t.Fatal(err)
	}

	// Per-entry: the GLR entry snapshots, the LALR entry reports the
	// capability gap.
	if _, err := r.SnapshotEntry("glr"); err != nil {
		t.Fatalf("SnapshotEntry(glr): %v", err)
	}
	if _, err := r.SnapshotEntry("lalr"); !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("SnapshotEntry(lalr) err = %v, want ErrNotSnapshottable", err)
	}

	// Service-wide: non-snapshottable entries are skipped, not errors.
	saved, err := r.SnapshotAll()
	if err != nil {
		t.Fatalf("SnapshotAll: %v", err)
	}
	if saved != 1 {
		t.Fatalf("SnapshotAll saved %d, want 1 (the GLR entry)", saved)
	}
	if st := r.SnapshotStats(); st.Errors != 0 {
		t.Errorf("capability gaps counted as snapshot errors: %d", st.Errors)
	}

	// A re-registration of the LALR entry must not try to restore.
	e, err := r.Register("lalr", Spec{Source: calcDetSrc, Engine: engine.KindLALR})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Restored {
		t.Error("LALR entry claims to be restored from a snapshot")
	}
}

func TestSnapshotGCRemovesUnregistered(t *testing.T) {
	dir := t.TempDir()
	store, err := snapshot.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.SetSnapshotStore(store)
	for _, name := range []string{"keep", "drop"} {
		if _, err := r.Register(name, Spec{Source: boolSrc}); err != nil {
			t.Fatal(err)
		}
	}
	if saved, err := r.SnapshotAll(); err != nil || saved != 2 {
		t.Fatalf("SnapshotAll: saved=%d err=%v", saved, err)
	}
	if !r.Remove("drop") {
		t.Fatal("Remove(drop) = false")
	}
	removed, err := r.SnapshotGC()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "drop" {
		t.Fatalf("SnapshotGC removed %v, want [drop]", removed)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "keep" {
		t.Fatalf("store holds %v after GC, want [keep]", names)
	}
}

func TestSnapshotGCSparesUnregisteredOfPreviousRun(t *testing.T) {
	dir := t.TempDir()
	store, err := snapshot.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// First process run: register and snapshot a grammar.
	r1 := New()
	r1.SetSnapshotStore(store)
	if _, err := r1.Register("tenant", Spec{Source: boolSrc}); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.SnapshotEntry("tenant"); err != nil {
		t.Fatal(err)
	}

	// Second run: the grammar has not been re-registered yet. GC must
	// not mistake restart-absence for removal — the snapshot is the
	// warm restart the re-registration expects.
	r2 := New()
	r2.SetSnapshotStore(store)
	if removed, err := r2.SnapshotGC(); err != nil || len(removed) != 0 {
		t.Fatalf("SnapshotGC reclaimed %v (err %v) across a restart", removed, err)
	}
	e, err := r2.Register("tenant", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Stats().Restored {
		t.Fatal("warm restart lost: entry generated cold")
	}
}

// TestSnapshotGCSparesConcurrentReregistration races each
// re-registration of a removed grammar against a SnapshotGC pass. The
// pass may win, and the registration then generates cold; but no round
// may end with the entry resumed warm from a file the pass deleted
// afterwards, which would start the next restart cold.
func TestSnapshotGCSparesConcurrentReregistration(t *testing.T) {
	store := newStoreT(t)
	r := New()
	r.SetSnapshotStore(store)
	if _, err := r.Register("g", Spec{Source: boolSrc}); err != nil {
		t.Fatal(err)
	}
	const rounds = 300
	warm, lost := 0, 0
	for i := 0; i < rounds; i++ {
		if _, err := r.SnapshotEntry("g"); err != nil {
			t.Fatal(err)
		}
		r.Remove("g")
		var wg sync.WaitGroup
		wg.Add(1)
		start := make(chan struct{})
		go func() {
			defer wg.Done()
			<-start
			if _, err := r.SnapshotGC(); err != nil {
				t.Error(err)
			}
		}()
		close(start)
		e, err := r.Register("g", Spec{Source: boolSrc})
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !e.restored {
			continue
		}
		warm++
		if _, err := store.Load("g"); errors.Is(err, snapshot.ErrNotFound) {
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d warm re-registrations had their snapshot deleted afterwards", lost, warm)
	}
}

// TestConcurrentEarleyParseAndModify is the -race stress test for the
// overhauled Earley backend: parses sharing one entry (pooled charts,
// the grammar view each update recompiles) race rule updates. Every
// parse must see a consistent rule set — before-or-after semantics, no
// torn compiled view.
func TestConcurrentEarleyParseAndModify(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: `
B ::= "true"
B ::= "false"
B ::= B "or" B
B ::= B "and" B
START ::= B
`, Engine: engine.KindEarley})
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.Tokens("true or false and true")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddRulesText(`B ::= "not" B`); err != nil {
		t.Fatal(err)
	}
	ext, err := e.Tokens("not true or false")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteRulesText(`B ::= "not" B`); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	stop := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				res, err := e.Parse(base, j%2 == 0)
				if err != nil {
					errs <- err
					return
				}
				if !res.Accepted {
					errs <- errorString("base sentence rejected")
					return
				}
				// The extension toggles; either verdict is fine, but the
				// parse must not error.
				if _, err := e.Parse(ext, false); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.AddRulesText(`B ::= "not" B`); err != nil {
				errs <- err
				return
			}
			if _, err := e.DeleteRulesText(`B ::= "not" B`); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestExplicitEndMarkerInput guards the EOF-termination convention: a
// client that already supplies the documented "$" end marker must not
// end up with a doubled marker (which the engines reject as mid-stream
// EOF).
func TestExplicitEndMarkerInput(t *testing.T) {
	r := New()
	for _, kind := range []engine.Kind{engine.KindGLR, engine.KindLALR, engine.KindEarley} {
		e, err := r.Register("calc-"+kind.String(), Spec{Source: calcDetSrc, Engine: kind})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.ParseInput("n + n $", false)
		if err != nil || !res.Accepted {
			t.Errorf("engine %v: ParseInput with explicit $: accepted=%v err=%v", kind, res.Accepted, err)
		}
		toks, err := e.Tokens("n + n $")
		if err != nil {
			t.Fatal(err)
		}
		if n := len(toks); n != 4 || toks[n-1] != grammar.EOF {
			t.Errorf("engine %v: Tokens with explicit $ = %v, want 4 symbols ending in EOF", kind, toks)
		}
	}
}
