package engine

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/lalr"
	"ipg/internal/ll"
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
// LALR table must produce the same parse forests. A second pass decodes
// the same bytes as batches of 1–8 mutations, add→delete and
// delete→re-add pairs of one rule included; each batch is folded to
// its net diff (foldUpdate) and repaired with one Repair of it per
// table, an empty Repair when the diff is empty. CI runs this for 60s
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
	// Batches: a delete→re-add of the first live rule, a net-empty
	// add→delete, and a mix of both with a plain add.
	f.Add([]byte{0, 3, 0, 0})
	f.Add([]byte{0, 2, 3, 1})
	f.Add([]byte{3, 2, 1, 2, 3, 0, 0, 0, 4, 5, 7, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range ctxs {
			fuzzBatchedRepair(t, c, data)

			g := grammar.MustParse(c.src)
			ltab := lalr.Generate(g)
			ptab := ll.Generate(g)
			m := newFuzzMutator(g)

			ops := data
			for step := 0; len(ops) >= 3 && step < 8; step++ {
				op, a, b := int(ops[0]), int(ops[1]), int(ops[2])
				ops = ops[3:]
				var r *grammar.Rule
				if op%2 == 0 || g.Len() <= 1 {
					cand := m.candidate(a, b)
					if cand == nil {
						continue
					}
					if err := g.AddRule(cand); err != nil {
						t.Fatalf("%s step %d: add: %v", c.name, step, err)
					}
					r = cand
				} else {
					victim := m.live(a)
					if victim == nil {
						continue
					}
					stored, err := g.DeleteRule(victim)
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

// fuzzMutator derives rule updates of one grammar from fuzz bytes.
type fuzzMutator struct {
	g         *grammar.Grammar
	nts, pool []grammar.Symbol
}

func newFuzzMutator(g *grammar.Grammar) *fuzzMutator {
	m := &fuzzMutator{g: g}
	for _, n := range g.Symbols().Nonterminals() {
		if n != g.Start() {
			m.nts = append(m.nts, n)
			m.pool = append(m.pool, n)
		}
	}
	for _, s := range g.Symbols().Terminals() {
		if s != grammar.EOF {
			m.pool = append(m.pool, s)
		}
	}
	return m
}

// candidate is the rule bytes a and b name, or nil when g has it.
func (m *fuzzMutator) candidate(a, b int) *grammar.Rule {
	rhs := make([]grammar.Symbol, b%4)
	for k := range rhs {
		rhs[k] = m.pool[(b+k*5)%len(m.pool)]
	}
	if r := grammar.NewRule(m.nts[a%len(m.nts)], rhs...); !m.g.Has(r) {
		return r
	}
	return nil
}

// live is the non-START rule byte a names, or nil when there is none.
func (m *fuzzMutator) live(a int) *grammar.Rule {
	var candidates []*grammar.Rule
	for _, r := range m.g.Rules() {
		if r.Lhs != m.g.Start() {
			candidates = append(candidates, r)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[a%len(candidates)]
}

// foldUpdate appends a rule update to a log, which it keeps folded to
// its net diff. Only an add followed by a delete of the same rule
// cancels: the grammar is then as it was, rule order included. A delete
// followed by a re-add does not cancel, since the re-added rule moves
// to the end of its left-hand side's rules. A delete that finds its
// rule in the log therefore finds it last as an add.
func foldUpdate(log []*grammar.Rule, r *grammar.Rule, added bool) []*grammar.Rule {
	if !added {
		for i := len(log) - 1; i >= 0; i-- {
			if log[i].Equal(r) {
				return slices.Delete(log, i, i+1)
			}
		}
	}
	return append(log, r)
}

// fuzzBatchedRepair is FuzzTableRepair's batched pass: data decodes to
// batches, a size byte (1 + b%8 mutations) then 3 bytes a mutation,
// whose first byte picks an add, a delete, an add→delete of one new
// rule or a delete→re-add of one live rule. Each batch is applied to
// the grammar, folded through foldUpdate, and repaired once per table.
func fuzzBatchedRepair(t *testing.T, c tableRepairCtx, data []byte) {
	g := grammar.MustParse(c.src)
	ltab := lalr.Generate(g)
	ptab := ll.Generate(g)
	m := newFuzzMutator(g)
	add := func(r *grammar.Rule) *grammar.Rule {
		if err := g.AddRule(r); err != nil {
			t.Fatalf("%s: add: %v", c.name, err)
		}
		return r
	}
	del := func(r *grammar.Rule) *grammar.Rule {
		stored, err := g.DeleteRule(r)
		if err != nil {
			t.Fatalf("%s: delete: %v", c.name, err)
		}
		return stored
	}
	ops := data
	for batch := 0; len(ops) >= 4 && batch < 4; batch++ {
		size := 1 + int(ops[0])%8
		ops = ops[1:]
		var log []*grammar.Rule
		for i := 0; i < size && len(ops) >= 3; i++ {
			op, a, b := int(ops[0]), int(ops[1]), int(ops[2])
			ops = ops[3:]
			switch op % 4 {
			case 0:
				if r := m.candidate(a, b); r != nil {
					log = foldUpdate(log, add(r), true)
				}
			case 1:
				if r := m.live(a); r != nil {
					log = foldUpdate(log, del(r), false)
				}
			case 2:
				if r := m.candidate(a, b); r != nil {
					log = foldUpdate(log, add(r), true)
					log = foldUpdate(log, del(r), false)
				}
			case 3:
				if r := m.live(a); r != nil {
					stored := del(r)
					log = foldUpdate(log, stored, false)
					log = foldUpdate(log, add(grammar.NewRule(stored.Lhs, stored.Rhs...)), true)
				}
			}
		}
		if st := ltab.Repair(log...); st.Stale() {
			ltab = lalr.Generate(g)
		}
		ptab.Repair(log...)
		if got, want := ltab.Signature(), lalr.Generate(g).Signature(); got != want {
			t.Fatalf("%s batch %d: repaired LALR table diverges\n--- repaired ---\n%s\n--- regenerated ---\n%s",
				c.name, batch, got, want)
		}
		if got, want := ptab.Signature(), ll.Generate(g).Signature(); got != want {
			t.Fatalf("%s batch %d: repaired LL table diverges\n--- repaired ---\n%s\n--- regenerated ---\n%s",
				c.name, batch, got, want)
		}
	}
}
