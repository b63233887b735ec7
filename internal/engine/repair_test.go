package engine

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/lalr"
	"ipg/internal/ll"
	"ipg/internal/sdf"
)

// TestLALRSessionSurvivesRuleUpdates pins the session-facing win of the
// table repair: rule updates interleaved with a live fallback session's
// splices and reparses are absorbed in place — the session's engine
// keeps the very same table value instead of regenerating it under the
// open document.
func TestLALRSessionSurvivesRuleUpdates(t *testing.T) {
	g := loadFixture(t, "CalcDet.bnf")
	e := NewLALR(g, "requested")
	s, err := OpenSession(e, fixtures.Tokens(g, "n + n * n"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Incremental() {
		t.Fatal("LALR sessions should be full-reparse fallbacks")
	}
	if res, err := s.Reparse(); err != nil || !res.Accepted {
		t.Fatalf("base reparse: %v accepted=%v", err, res.Accepted)
	}
	tbl := e.Table()

	mod, err := grammar.Parse(`F ::= "id"`, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	rule := mod.Rules()[0]
	id := g.Symbols().MustIntern("id", grammar.Terminal)

	// Update, edit, reparse — several rounds, both directions.
	for round := 0; round < 3; round++ {
		if err := e.AddRule(rule); err != nil {
			t.Fatal(err)
		}
		if err := s.Splice(0, 1, []grammar.Symbol{id}); err != nil {
			t.Fatal(err)
		}
		if res, err := s.Reparse(); err != nil || !res.Accepted {
			t.Fatalf("round %d: reparse with id: %v accepted=%v", round, err, res.Accepted)
		}
		if err := e.DeleteRule(rule); err != nil {
			t.Fatal(err)
		}
		if err := s.Splice(0, 1, []grammar.Symbol{fixtures.Tokens(g, "n")[0]}); err != nil {
			t.Fatal(err)
		}
		if res, err := s.Reparse(); err != nil || !res.Accepted {
			t.Fatalf("round %d: reparse after delete: %v accepted=%v", round, err, res.Accepted)
		}
	}
	if e.Table() != tbl {
		t.Error("session-interleaved rule updates regenerated the table")
	}
	if got := e.Counters().RepairFallbacks; got != 0 {
		t.Errorf("session-interleaved rule updates fell back %d times, want 0", got)
	}
}

// TestConcurrentLALRParseAndModify is the -race stress for the repair
// path: parses sharing one LALR engine race rule updates that splice
// the table in place. Every parse must see a consistent table —
// before-or-after semantics, no torn repair.
func TestConcurrentLALRParseAndModify(t *testing.T) {
	g := loadFixture(t, "CalcDet.bnf")
	e := NewLALR(g, "requested")
	base := fixtures.Tokens(g, "n + n * ( n - n )")

	mod, err := grammar.Parse(`F ::= "id"`, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	rule := mod.Rules()[0]
	ext := append([]grammar.Symbol{g.Symbols().MustIntern("id", grammar.Terminal)},
		fixtures.Tokens(g, "+ n")...)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+1)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				res, err := e.Parse(base, j%2 == 0)
				if err != nil {
					errs <- err
					return
				}
				if !res.Accepted {
					errs <- errorf("base sentence rejected")
					return
				}
				// The extension rule toggles; either verdict is fine, but
				// the parse must not error.
				if _, err := e.Parse(ext, false); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := e.AddRule(rule); err != nil {
				errs <- err
				return
			}
			if err := e.DeleteRule(rule); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.Counters().RepairFallbacks; got != 0 {
		t.Errorf("update storm fell back %d times, want 0", got)
	}
}

// loadSDFGrammar compiles testdata/SDF.sdf the way the registry does
// for an SDF entry.
func loadSDFGrammar(t testing.TB) *grammar.Grammar {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "SDF.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	def, err := sdf.ParseDefinition(string(src))
	if err != nil {
		t.Fatal(err)
	}
	conv, err := sdf.Convert(def, "")
	if err != nil {
		t.Fatal(err)
	}
	return conv.Grammar
}

// TestAutoVerdictParity is the property behind the incremental auto
// verdict: over random add/delete sequences, after every update the auto
// engine selects what a probe of a fresh copy of the grammar selects,
// and while lazy GLR serves, the LALR(1) table auto keeps and repairs is
// action-identical to a from-scratch generation (the LL(1) table too,
// once no deferred additions are pending).
func TestAutoVerdictParity(t *testing.T) {
	grammars := []struct {
		name string
		load func(testing.TB) *grammar.Grammar
	}{
		{"CalcDet", func(tb testing.TB) *grammar.Grammar { return loadFixture(tb, "CalcDet.bnf") }},
		{"ambiguous", func(testing.TB) *grammar.Grammar { return grammar.MustParse(ambiguousText) }},
		{"SDF.sdf", loadSDFGrammar},
	}
	for _, c := range grammars {
		for seed := int64(0); seed < 4; seed++ {
			g := c.load(t)
			a := NewAuto(g, nil)
			rng := rand.New(rand.NewSource(seed))
			var nts, pool []grammar.Symbol
			for _, n := range g.Symbols().Nonterminals() {
				if n != g.Start() {
					nts = append(nts, n)
					pool = append(pool, n)
				}
			}
			for _, s := range g.Symbols().Terminals() {
				if s != grammar.EOF {
					pool = append(pool, s)
				}
			}
			for step := 0; step < 10; step++ {
				if rng.Intn(2) == 0 {
					rhs := make([]grammar.Symbol, rng.Intn(4))
					for i := range rhs {
						rhs[i] = pool[rng.Intn(len(pool))]
					}
					r := grammar.NewRule(nts[rng.Intn(len(nts))], rhs...)
					if g.Has(r) {
						continue
					}
					if err := a.AddRule(r); err != nil {
						t.Fatalf("%s seed %d step %d: add: %v", c.name, seed, step, err)
					}
				} else {
					var candidates []*grammar.Rule
					for _, r := range g.Rules() {
						if r.Lhs != g.Start() {
							candidates = append(candidates, r)
						}
					}
					if len(candidates) == 0 {
						continue
					}
					if err := a.DeleteRule(candidates[rng.Intn(len(candidates))]); err != nil {
						t.Fatalf("%s seed %d step %d: delete: %v", c.name, seed, step, err)
					}
				}
				// Parse traffic keeps the churn heuristic out of the way.
				for i := 0; i < 3; i++ {
					a.noteParse()
				}
				got := a.Kind()
				want, reason := Probe(g.Clone())
				if got != want {
					t.Fatalf("%s seed %d step %d: auto selects %v, a fresh probe %v (%s)", c.name, seed, step, got, want, reason)
				}
				if got != KindGLR {
					continue
				}
				a.mu.RLock()
				lrTbl, llTbl, pending := a.lrTbl, a.llTbl, len(a.llPending)
				a.mu.RUnlock()
				if lrTbl == nil {
					t.Fatalf("%s seed %d step %d: lazy GLR serves without the probe tables", c.name, seed, step)
				}
				if got, want := lrTbl.Signature(), lalr.Generate(g).Signature(); got != want {
					t.Fatalf("%s seed %d step %d: retained LALR table diverges\n--- retained ---\n%s\n--- regenerated ---\n%s",
						c.name, seed, step, got, want)
				}
				if pending == 0 {
					if got, want := llTbl.Signature(), ll.Generate(g).Signature(); got != want {
						t.Fatalf("%s seed %d step %d: retained LL table diverges\n--- retained ---\n%s\n--- regenerated ---\n%s",
							c.name, seed, step, got, want)
					}
				}
			}
		}
	}
}

type errorf string

func (e errorf) Error() string { return string(e) }

// tableRepairCtx is one grammar's differential-fuzz setup for the
// table-repair fuzzer.
type tableRepairCtx struct {
	src  string
	name string
}

// FuzzTableRepair differentially fuzzes the incremental table repair:
// byte strings decode to add/delete sequences applied to a live
// grammar, with the LALR(1) and LL(1) tables repaired in place after
// every mutation. The repaired tables must be action-identical to
// from-scratch generations of the same grammar (canonical signatures
// cover actions, gotos, lookaheads and conflicts), and the repaired
// LALR table must produce the same parse forests. CI runs this for 60s
// alongside FuzzSessionSplice and uploads crashers.
func FuzzTableRepair(f *testing.F) {
	calcSrc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "CalcDet.bnf"))
	if err != nil {
		f.Fatal(err)
	}
	ctxs := []tableRepairCtx{
		{src: string(calcSrc), name: "CalcDet"},
		{src: ambiguousText, name: "ambiguous"},
	}

	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{2, 1, 2, 0, 1, 3, 2, 1, 7, 5})
	f.Add([]byte{1, 0, 3, 9, 8, 7, 0, 2, 0, 4, 4, 4, 4, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range ctxs {
			g := grammar.MustParse(c.src)
			ltab := lalr.Generate(g)
			ptab := ll.Generate(g)

			var nts []grammar.Symbol
			pool := []grammar.Symbol{}
			for _, n := range g.Symbols().Nonterminals() {
				if n != g.Start() {
					nts = append(nts, n)
					pool = append(pool, n)
				}
			}
			for _, s := range g.Symbols().Terminals() {
				if s != grammar.EOF {
					pool = append(pool, s)
				}
			}

			ops := data
			for step := 0; len(ops) >= 3 && step < 8; step++ {
				op, a, b := int(ops[0]), int(ops[1]), int(ops[2])
				ops = ops[3:]
				var r *grammar.Rule
				if op%2 == 0 || g.Len() <= 1 {
					lhs := nts[a%len(nts)]
					rhs := make([]grammar.Symbol, b%4)
					for k := range rhs {
						rhs[k] = pool[(b+k*5)%len(pool)]
					}
					cand := grammar.NewRule(lhs, rhs...)
					if g.Has(cand) {
						continue
					}
					if err := g.AddRule(cand); err != nil {
						t.Fatalf("%s step %d: add: %v", c.name, step, err)
					}
					r = cand
				} else {
					var candidates []*grammar.Rule
					for _, cr := range g.Rules() {
						if cr.Lhs != g.Start() {
							candidates = append(candidates, cr)
						}
					}
					if len(candidates) == 0 {
						continue
					}
					stored, err := g.DeleteRule(candidates[a%len(candidates)])
					if err != nil {
						t.Fatalf("%s step %d: delete: %v", c.name, step, err)
					}
					r = stored
				}

				// LALR: repairs — conflict-set changes included — must be
				// signature-identical; stale tables regenerate (mirroring
				// the engine policy).
				if st := ltab.Repair(r); st.Stale() {
					ltab = lalr.Generate(g)
				} else if got, want := ltab.Signature(), lalr.Generate(g).Signature(); got != want {
					t.Fatalf("%s step %d: repaired LALR table diverges\n--- repaired ---\n%s\n--- regenerated ---\n%s",
						c.name, step, got, want)
				}
				// LL repair never declines.
				ptab.Repair(r)
				if got, want := ptab.Signature(), ll.Generate(g).Signature(); got != want {
					t.Fatalf("%s step %d: repaired LL table diverges\n--- repaired ---\n%s\n--- regenerated ---\n%s",
						c.name, step, got, want)
				}
			}

			// Parse-tree differential: byte-derived sentences must produce
			// identical verdicts and forests on the repaired table and on a
			// freshly generated one.
			fresh := lalr.Generate(g)
			var terms []grammar.Symbol
			for _, s := range g.Symbols().Terminals() {
				if s != grammar.EOF {
					terms = append(terms, s)
				}
			}
			for sen := 0; sen < 2 && len(terms) > 0; sen++ {
				n := 1 + (len(data)+sen*3)%6
				input := make([]grammar.Symbol, n)
				for k := range input {
					idx := sen*7 + k*3
					if idx < len(data) {
						input[k] = terms[int(data[idx])%len(terms)]
					} else {
						input[k] = terms[(sen+k)%len(terms)]
					}
				}
				got, gerr := glr.Parse(ltab, input, &glr.Options{Engine: glr.GSS})
				want, werr := glr.Parse(fresh, input, &glr.Options{Engine: glr.GSS})
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s: parse errors diverge: repaired %v vs fresh %v", c.name, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				if got.Accepted != want.Accepted || got.ErrorPos != want.ErrorPos {
					t.Fatalf("%s: verdicts diverge on %s: repaired (accepted=%v pos=%d) vs fresh (accepted=%v pos=%d)",
						c.name, g.Symbols().NamesOf(input), got.Accepted, got.ErrorPos, want.Accepted, want.ErrorPos)
				}
				if got.Accepted {
					gs := forest.String(got.Root, g.Symbols())
					ws := forest.String(want.Root, g.Symbols())
					if gs != ws {
						t.Fatalf("%s: forests diverge on %s:\nrepaired: %s\nfresh:    %s",
							c.name, g.Symbols().NamesOf(input), gs, ws)
					}
				}
			}
		}
	})
}
