package lalr

import (
	"math/rand"
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// repairOrRegen applies one already-performed grammar mutation to tbl,
// regenerating (as the engines do) when Repair declines.
func repairOrRegen(t *testing.T, tbl *Table, g *grammar.Grammar, r *grammar.Rule) *Table {
	t.Helper()
	if st := tbl.Repair(r); st.FellBack {
		return Generate(g)
	}
	return tbl
}

// expectParity asserts the repaired table is action-identical to a
// from-scratch generation of the same grammar.
func expectParity(t *testing.T, tbl *Table, g *grammar.Grammar, step string) {
	t.Helper()
	expectExactRefCounts(t, tbl, step)
	fresh := Generate(g)
	if got, want := tbl.Signature(), fresh.Signature(); got != want {
		t.Fatalf("%s: repaired table diverges from regeneration\n--- repaired ---\n%s\n--- regenerated ---\n%s", step, got, want)
	}
}

// expectExactRefCounts asserts the invariant reference-count
// reclamation keeps: every state is reachable from the start state, and
// its count is exactly its number of incoming transitions (plus the
// start state's permanent reference).
func expectExactRefCounts(t *testing.T, tbl *Table, step string) {
	t.Helper()
	a := tbl.Automaton()
	in := map[*lr.State]int{a.Start(): 1}
	for _, s := range a.States() {
		for _, succ := range s.Transitions {
			in[succ]++
		}
	}
	for _, s := range a.States() {
		if s != a.Start() && in[s] == 0 {
			t.Fatalf("%s: state %d (%s) is unreachable garbage", step, s.ID, s.Kernel.Key())
		}
		if s.RefCount != in[s] {
			t.Fatalf("%s: state %d (%s) has RefCount %d, want %d", step, s.ID, s.Kernel.Key(), s.RefCount, in[s])
		}
	}
	if len(tbl.net) != a.Len() {
		t.Fatalf("%s: %d network entries for %d states", step, len(tbl.net), a.Len())
	}
}

func mustAdd(t *testing.T, g *grammar.Grammar, r *grammar.Rule) {
	t.Helper()
	if err := g.AddRule(r); err != nil {
		t.Fatal(err)
	}
}

func mustDelete(t *testing.T, g *grammar.Grammar, r *grammar.Rule) *grammar.Rule {
	t.Helper()
	stored, err := g.DeleteRule(r)
	if err != nil {
		t.Fatal(err)
	}
	return stored
}

// TestRepairParityAddDelete walks a table through a mixed add/delete
// sequence — new alternatives, an epsilon rule, a fresh nonterminal, a
// recursive rule, and their removals — asserting after every step that
// the spliced table matches a from-scratch generation action for action.
func TestRepairParityAddDelete(t *testing.T) {
	g := grammar.MustParse(`
START ::= E
E ::= E "+" T
E ::= T
T ::= T "*" F
T ::= F
F ::= "x"
F ::= "(" E ")"
`)
	tbl := Generate(g)
	syms := g.Symbols()
	e := syms.MustIntern("E", grammar.Nonterminal)
	f := syms.MustIntern("F", grammar.Nonterminal)
	tt := syms.MustIntern("T", grammar.Nonterminal)
	y := syms.MustIntern("y", grammar.Terminal)
	minus := syms.MustIntern("-", grammar.Terminal)
	z := syms.MustIntern("Z", grammar.Nonterminal)

	steps := []struct {
		name string
		rule *grammar.Rule
		del  bool
	}{
		{"add F ::= y", grammar.NewRule(f, y), false},
		{"add E ::= E - T", grammar.NewRule(e, e, minus, tt), false},
		{"add Z ::= y (unreachable nonterminal)", grammar.NewRule(z, y), false},
		{"add F ::= Z", grammar.NewRule(f, z), false},
		{"add Z ::= epsilon", grammar.NewRule(z), false},
		{"delete Z ::= epsilon", grammar.NewRule(z), true},
		{"delete F ::= Z", grammar.NewRule(f, z), true},
		{"delete E ::= E - T", grammar.NewRule(e, e, minus, tt), true},
		{"delete F ::= y", grammar.NewRule(f, y), true},
		{"delete Z ::= y", grammar.NewRule(z, y), true},
	}
	for _, step := range steps {
		r := step.rule
		if step.del {
			r = mustDelete(t, g, r)
		} else {
			mustAdd(t, g, r)
		}
		tbl = repairOrRegen(t, tbl, g, r)
		expectParity(t, tbl, g, step.name)
	}
	if n := len(tbl.Conflicts()); n != 0 {
		t.Fatalf("round-tripped grammar has %d conflicts", n)
	}
	res, err := glr.Parse(tbl, fixtures.Tokens(g, "x + x * ( x + x )"),
		&glr.Options{Engine: glr.Deterministic})
	if err != nil || !res.Accepted {
		t.Fatalf("round-tripped table rejects the expression (err=%v)", err)
	}
}

// TestRepairKeepsStateIdentity pins the splice contract the engines'
// concurrency discipline relies on: a repair must not replace state
// objects that survive it, and must keep most of the table verbatim for
// a small update.
func TestRepairKeepsStateIdentity(t *testing.T) {
	g := grammar.MustParse(`
START ::= E
E ::= E "+" T
E ::= T
T ::= T "*" F
T ::= F
F ::= "x"
F ::= "(" E ")"
`)
	tbl := Generate(g)
	before := map[string]*stateBox{}
	for _, s := range tbl.Automaton().States() {
		before[s.Kernel.Key()] = &stateBox{s}
	}
	f := g.Symbols().MustIntern("F", grammar.Nonterminal)
	y := g.Symbols().MustIntern("y", grammar.Terminal)
	r := grammar.NewRule(f, y)
	mustAdd(t, g, r)
	st := tbl.Repair(r)
	if st.FellBack {
		t.Fatalf("small add fell back: %s", st.Reason)
	}
	if st.Affected == 0 || st.Created == 0 {
		t.Fatalf("expected affected and created states, got %+v", st)
	}
	if st.Kept == 0 || st.Kept < st.Rederived {
		t.Fatalf("small add should keep most lookaheads verbatim: %+v", st)
	}
	for _, s := range tbl.Automaton().States() {
		if box, ok := before[s.Kernel.Key()]; ok && box.s != s {
			t.Fatalf("state with kernel %q was replaced, not spliced", s.Kernel.Key())
		}
		if !s.Published() {
			t.Fatalf("state %d left unpublished after repair", s.ID)
		}
	}
	expectParity(t, tbl, g, "identity add")
}

type stateBox struct{ s interface{ Published() bool } }

// TestRepairFallbacks exercises the three decline paths: START-rule
// updates and oversized damage frontiers leave the table untouched;
// conflict-set changes complete the splice (still parity-correct) but
// tell the caller to regenerate.
func TestRepairFallbacks(t *testing.T) {
	t.Run("start rule", func(t *testing.T) {
		g := grammar.MustParse("START ::= A\nA ::= \"a\"\n")
		tbl := Generate(g)
		a := g.Symbols().MustIntern("A", grammar.Nonterminal)
		r := grammar.NewRule(g.Start(), a, a)
		mustAdd(t, g, r)
		st := tbl.Repair(r)
		if !st.FellBack || st.Reason != "start rule modified" {
			t.Fatalf("start-rule update should fall back, got %+v", st)
		}
	})
	t.Run("damage fraction", func(t *testing.T) {
		// S ::= A A A A puts a transition on A in 4 of 7 states (> 50%).
		g := grammar.MustParse("START ::= S\nS ::= A A A A\nA ::= \"a\"\n")
		tbl := Generate(g)
		a := g.Symbols().MustIntern("A", grammar.Nonterminal)
		b := g.Symbols().MustIntern("b", grammar.Terminal)
		r := grammar.NewRule(a, b)
		mustAdd(t, g, r)
		st := tbl.Repair(r)
		if !st.FellBack {
			t.Fatalf("oversized damage frontier should fall back, got %+v", st)
		}
	})
	t.Run("conflict change", func(t *testing.T) {
		// The dangling-else shape: adding the unmatched alternative
		// introduces the classic shift/reduce conflict.
		g := grammar.MustParse(`
START ::= S
S ::= "if" S "else" S
S ::= "x"
`)
		tbl := Generate(g)
		if len(tbl.Conflicts()) != 0 {
			t.Fatal("base grammar should be conflict-free")
		}
		s := g.Symbols().MustIntern("S", grammar.Nonterminal)
		ifT := g.Symbols().MustIntern("if", grammar.Terminal)
		r := grammar.NewRule(s, ifT, s)
		mustAdd(t, g, r)
		st := tbl.Repair(r)
		if !st.FellBack || st.Reason != "conflict set changed" {
			t.Fatalf("conflict-introducing update should fall back, got %+v", st)
		}
		// The documented contract: on this path the table is nonetheless
		// fully repaired and parity-correct.
		expectParity(t, tbl, g, "conflict-change splice")
	})
}

// TestRepairParityRandom is the package-local differential: random
// add/delete sequences on random grammars, parity-checked against a
// from-scratch generation after every repair.
func TestRepairParityRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := grammar.Random(grammar.RandConfig{Nonterminals: 4, Terminals: 3, Rules: 8}, rng)
		tbl := Generate(g)
		nts := []grammar.Symbol{}
		for _, n := range g.Symbols().Nonterminals() {
			if n != g.Start() {
				nts = append(nts, n)
			}
		}
		terms := []grammar.Symbol{}
		for _, s := range g.Symbols().Terminals() {
			if s != grammar.EOF {
				terms = append(terms, s)
			}
		}
		pool := append(append([]grammar.Symbol{}, nts...), terms...)
		for step := 0; step < 12; step++ {
			if rng.Intn(2) == 0 || g.Len() <= 1 {
				lhs := nts[rng.Intn(len(nts))]
				rhs := make([]grammar.Symbol, rng.Intn(4))
				for i := range rhs {
					rhs[i] = pool[rng.Intn(len(pool))]
				}
				r := grammar.NewRule(lhs, rhs...)
				if g.Has(r) {
					continue
				}
				mustAdd(t, g, r)
				tbl = repairOrRegen(t, tbl, g, r)
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
				r := mustDelete(t, g, candidates[rng.Intn(len(candidates))])
				tbl = repairOrRegen(t, tbl, g, r)
			}
			expectParity(t, tbl, g, "seed/step")
		}
	}
}
