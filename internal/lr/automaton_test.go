package lr

import (
	"strings"
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/grammar"
)

// TestFig41Graph verifies the conventional generator reproduces the graph
// of item sets of Fig 4.1(c): 8 states with the published transition
// structure (state numbering may differ from the figure; the shape may
// not).
func TestFig41Graph(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()

	if a.Len() != 8 {
		t.Fatalf("graph has %d states, want 8\n%s", a.Len(), a.Dump())
	}
	syms := g.Symbols()
	b, _ := syms.Lookup("B")
	tr, _ := syms.Lookup("true")
	fa, _ := syms.Lookup("false")
	or, _ := syms.Lookup("or")
	and, _ := syms.Lookup("and")

	s0 := a.Start()
	if s0.Type != Complete {
		t.Fatal("start state not complete after GenerateAll")
	}
	if len(s0.Transitions) != 3 {
		t.Fatalf("start state has %d transitions, want 3 (B,true,false)", len(s0.Transitions))
	}
	s1 := s0.Transitions[b]
	sTrue := s0.Transitions[tr]
	sFalse := s0.Transitions[fa]
	if s1 == nil || sTrue == nil || sFalse == nil {
		t.Fatal("start state missing transitions")
	}

	// State 1 accepts on $ and shifts or/and.
	if !s1.Accept {
		t.Error("state after B should have the ($ accept) transition")
	}
	sOr := s1.Transitions[or]
	sAnd := s1.Transitions[and]
	if sOr == nil || sAnd == nil {
		t.Fatal("B-state missing or/and transitions")
	}

	// true/false states reduce their unit rules.
	if len(sTrue.Reductions) != 1 || sTrue.Reductions[0].String(syms) != `B ::= true` {
		t.Errorf("true-state reductions: %v", sTrue.Reductions)
	}
	if len(sFalse.Reductions) != 1 || sFalse.Reductions[0].String(syms) != `B ::= false` {
		t.Errorf("false-state reductions: %v", sFalse.Reductions)
	}

	// or/and states share the true/false states (Fig 4.1c shows the
	// re-used boxes 2 and 3).
	if sOr.Transitions[tr] != sTrue || sOr.Transitions[fa] != sFalse {
		t.Error("or-state should reuse the true/false states")
	}
	if sAnd.Transitions[tr] != sTrue || sAnd.Transitions[fa] != sFalse {
		t.Error("and-state should reuse the true/false states")
	}

	// The result states reduce the binary rules and allow continuing.
	s6 := sOr.Transitions[b]
	s7 := sAnd.Transitions[b]
	if s6 == nil || s7 == nil || s6 == s7 {
		t.Fatal("or/and result states wrong")
	}
	if len(s6.Reductions) != 1 || s6.Reductions[0].String(syms) != `B ::= B or B` {
		t.Errorf("or-result reductions: %v", s6.Reductions)
	}
	if s6.Transitions[or] != sOr || s6.Transitions[and] != sAnd {
		t.Error("or-result should loop back to or/and states")
	}
	if len(s7.Reductions) != 1 || s7.Reductions[0].String(syms) != `B ::= B and B` {
		t.Errorf("and-result reductions: %v", s7.Reductions)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a1 := New(fixtures.Booleans())
	a1.GenerateAll()
	a2 := New(fixtures.Booleans())
	a2.GenerateAll()
	if a1.Dump() != a2.Dump() {
		t.Error("GenerateAll is not deterministic")
	}
}

func TestActionsOf(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	syms := g.Symbols()
	tr, _ := syms.Lookup("true")
	or, _ := syms.Lookup("or")

	acts := a.Actions(a.Start(), tr)
	if len(acts) != 1 || acts[0].Kind != Shift {
		t.Fatalf("ACTION(0, true) = %v, want single shift", acts)
	}
	// In the true-state on 'or', only the reduce applies.
	sTrue := a.Start().Transitions[tr]
	acts = a.Actions(sTrue, or)
	if len(acts) != 1 || acts[0].Kind != Reduce {
		t.Fatalf("ACTION(true-state, or) = %v, want single reduce", acts)
	}
	// Error action: empty set.
	acts = a.Actions(a.Start(), or)
	if len(acts) != 0 {
		t.Fatalf("ACTION(0, or) = %v, want empty (error)", acts)
	}
	// Accept on $ in the B-state.
	b, _ := syms.Lookup("B")
	s1 := a.Start().Transitions[b]
	acts = a.Actions(s1, grammar.EOF)
	var haveAccept bool
	for _, ac := range acts {
		if ac.Kind == Accept {
			haveAccept = true
		}
	}
	if !haveAccept {
		t.Fatalf("ACTION(B-state, $) = %v, want accept", acts)
	}
}

func TestActionConflicts(t *testing.T) {
	// In the or-result state on 'or', both a shift and a reduce apply —
	// this is where the parallel parser splits (Fig 4.1b shows s5/r2).
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	syms := g.Symbols()
	b, _ := syms.Lookup("B")
	or, _ := syms.Lookup("or")
	sOr := a.Start().Transitions[b].Transitions[or]
	s6 := sOr.Transitions[b]
	acts := a.Actions(s6, or)
	if len(acts) != 2 {
		t.Fatalf("expected shift/reduce conflict, got %v", acts)
	}
	kinds := map[ActionKind]bool{}
	for _, ac := range acts {
		kinds[ac.Kind] = true
	}
	if !kinds[Shift] || !kinds[Reduce] {
		t.Errorf("conflict should contain shift and reduce: %v", acts)
	}
}

func TestGotoInvariantPanics(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g) // start state still initial
	defer func() {
		if recover() == nil {
			t.Error("GOTO on an initial state must panic (Appendix A)")
		}
	}()
	b, _ := g.Symbols().Lookup("B")
	GotoOf(a.Start(), b)
}

func TestGotoUndefinedPanics(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	or, _ := g.Symbols().Lookup("or")
	defer func() {
		if recover() == nil {
			t.Error("GOTO on missing transition must panic")
		}
	}()
	GotoOf(a.Start(), or) // start has no transition on 'or'
}

func TestRefCountsMatchInEdges(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	want := map[*State]int{a.Start(): 1} // root reference
	for _, s := range a.States() {
		for _, succ := range s.Transitions {
			want[succ]++
		}
	}
	for _, s := range a.States() {
		if s.RefCount != want[s] {
			t.Errorf("state %d refcount %d, want %d", s.ID, s.RefCount, want[s])
		}
	}
}

func TestEmptyGrammarAutomaton(t *testing.T) {
	// IPG starts interactive sessions with empty grammars; the automaton
	// must cope: a start state with an empty kernel that expands to
	// nothing.
	g := grammar.New(nil)
	a := New(g)
	a.GenerateAll()
	if a.Len() != 1 {
		t.Fatalf("empty grammar graph has %d states, want 1", a.Len())
	}
	if a.Start().Type != Complete {
		t.Error("start state should expand to complete")
	}
	if len(a.Start().Transitions) != 0 || a.Start().Accept {
		t.Error("empty grammar start state should have no actions")
	}
}

func TestEpsilonRuleAutomaton(t *testing.T) {
	g := grammar.MustParse(`
START ::= A
A ::= ε
A ::= "x" A
`)
	a := New(g)
	a.GenerateAll()
	// Start state closure contains A ::= . which is an immediate
	// reduction of an epsilon rule.
	s0 := a.Start()
	var haveEps bool
	for _, r := range s0.Reductions {
		if r.Len() == 0 {
			haveEps = true
		}
	}
	if !haveEps {
		t.Errorf("start state should reduce the epsilon rule:\n%s", a.Dump())
	}
}

func TestInternReuse(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	k := StartKernel(g)
	if s := a.Intern(k); s != a.Start() {
		t.Error("Intern of existing kernel should return the existing state")
	}
	created := a.Stats.StatesCreated
	a.Intern(k)
	if a.Stats.StatesCreated != created {
		t.Error("Intern of existing kernel should not create a state")
	}
}

func TestRemove(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	n := a.Len()
	var victim *State
	for _, s := range a.States() {
		if s != a.Start() {
			victim = s
			break
		}
	}
	a.Remove(victim)
	if a.Len() != n-1 {
		t.Errorf("Remove did not shrink the graph: %d -> %d", n, a.Len())
	}
	if _, ok := a.Lookup(victim.Kernel); ok {
		t.Error("removed state still in bookkeeping table")
	}
	if a.Stats.StatesRemoved != 1 {
		t.Errorf("StatesRemoved = %d, want 1", a.Stats.StatesRemoved)
	}
}

func TestStatsAccumulate(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	if a.Stats.Expansions != 8 {
		t.Errorf("Expansions = %d, want 8", a.Stats.Expansions)
	}
	if a.Stats.StatesCreated != 8 {
		t.Errorf("StatesCreated = %d, want 8", a.Stats.StatesCreated)
	}
	if a.Stats.ClosureItems == 0 {
		t.Error("ClosureItems not counted")
	}
}

func TestTypeCounts(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	i, c, d := a.TypeCounts()
	if i != 1 || c != 0 || d != 0 {
		t.Errorf("fresh automaton counts = %d/%d/%d, want 1/0/0", i, c, d)
	}
	a.GenerateAll()
	i, c, d = a.TypeCounts()
	if i != 0 || c != 8 || d != 0 {
		t.Errorf("generated counts = %d/%d/%d, want 0/8/0", i, c, d)
	}
}

func TestFormatTableFig41(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	table := a.FormatTable()
	for _, want := range []string{"state", "acc", "s", "r0", "true", "false"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	// The conflict cells of Fig 4.1(b) join shift and reduce with '/'.
	if !strings.Contains(table, "/") {
		t.Errorf("expected conflict cell with '/':\n%s", table)
	}
}

func TestFormatTableInitialRows(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	table := a.FormatTable()
	if !strings.Contains(table, "·") {
		t.Errorf("ungenerated states should render as '·':\n%s", table)
	}
}

func TestDOT(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	dot := a.DOT()
	for _, want := range []string{"digraph", "accept", "n0 ->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestResetStartKernel(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	// Add a START rule behind the automaton's back and reset.
	b, _ := g.Symbols().Lookup("B")
	not := g.Symbols().MustIntern("not", grammar.Terminal)
	if err := g.AddRule(grammar.NewRule(g.Start(), not, b)); err != nil {
		t.Fatal(err)
	}
	old := a.Start()
	a.ResetStartKernel()
	if a.Start() != old {
		t.Error("start state object should keep its identity")
	}
	if len(a.Start().Kernel) != 2 {
		t.Errorf("start kernel has %d items, want 2", len(a.Start().Kernel))
	}
	if got, ok := a.Lookup(a.Start().Kernel); !ok || got != old {
		t.Error("start state not re-keyed")
	}
}

// TestReleaseReclaimsOrphanCycles re-expands the one state that reaches
// a self-looping chain after the rule leading into it is deleted:
// Release must reclaim the chain, cycle included, keep exact counts on
// the survivors, and drop the reclaimed states from the index.
func TestReleaseReclaimsOrphanCycles(t *testing.T) {
	g := grammar.MustParse(`
START ::= S
S ::= "x" | "a" L
L ::= "b" L | "c"
`)
	a := New(g)
	a.GenerateAll()
	syms := g.Symbols()
	s := syms.MustIntern("S", grammar.Nonterminal)
	l := syms.MustIntern("L", grammar.Nonterminal)
	if n := len(a.AppendStatesOn(nil, l)); n != 2 {
		t.Fatalf("%d states transition on L, want 2 (after a, after b)", n)
	}
	if _, err := g.DeleteRule(grammar.NewRule(s, syms.MustIntern("a", grammar.Terminal), l)); err != nil {
		t.Fatal(err)
	}
	var released []*State
	for _, st := range a.AppendStatesOn(nil, s) {
		old := st.Transitions
		a.Expand(st)
		for sym, succ := range old {
			if st.Transitions[sym] == succ {
				succ.RefCount--
			} else {
				released = append(released, succ)
			}
		}
	}
	before := a.Len()
	removed, visited := a.Release(released)
	if len(removed) == 0 || a.Len() != before-len(removed) || visited < len(removed) {
		t.Fatalf("removed %d of %d states, visited %d", len(removed), before, visited)
	}
	in := map[*State]int{a.Start(): 1}
	for _, st := range a.States() {
		for _, succ := range st.Transitions {
			in[succ]++
		}
	}
	for _, st := range a.States() {
		if st.RefCount != in[st] || in[st] == 0 {
			t.Fatalf("state %d: RefCount %d, %d incoming", st.ID, st.RefCount, in[st])
		}
	}
	if n := len(a.AppendStatesOn(nil, l)); n != 0 {
		t.Fatalf("%d reclaimed states left in the index", n)
	}
	if got := len(a.SweepUnreachable()); got != 0 {
		t.Fatalf("a global sweep still finds %d orphans", got)
	}
}
