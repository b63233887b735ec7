package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ipg/internal/fixtures"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// mustRule builds a rule from names: first the LHS, then the RHS. Symbols
// must already exist or be terminals to intern.
func mustRule(t *testing.T, g *grammar.Grammar, lhs string, rhs ...string) *grammar.Rule {
	t.Helper()
	l, ok := g.Symbols().Lookup(lhs)
	if !ok {
		t.Fatalf("unknown lhs %q", lhs)
	}
	syms := make([]grammar.Symbol, len(rhs))
	for i, name := range rhs {
		s, ok := g.Symbols().Lookup(name)
		if !ok {
			s = g.Symbols().MustIntern(name, grammar.Terminal)
		}
		syms[i] = s
	}
	return grammar.NewRule(l, syms...)
}

// TestFig61AddUnknown reproduces Fig 6.1/6.4/6.5: adding 'B ::= unknown'
// to the fully generated booleans graph invalidates exactly the states
// with a transition on B (0, the or-state and the and-state); re-expanding
// the start state re-establishes its old connections and creates the new
// unknown-successor.
func TestFig61AddUnknown(t *testing.T) {
	g := fixtures.Booleans()
	gen := New(g, &Options{SweepThreshold: -1})
	gen.Pregenerate()
	if gen.Automaton().Len() != 8 {
		t.Fatalf("full booleans graph has %d states, want 8", gen.Automaton().Len())
	}

	syms := g.Symbols()
	b, _ := syms.Lookup("B")
	tr, _ := syms.Lookup("true")
	fa, _ := syms.Lookup("false")
	or, _ := syms.Lookup("or")
	and, _ := syms.Lookup("and")

	s0 := gen.Start()
	s1 := s0.Transitions[b]
	s2 := s0.Transitions[tr]
	s3 := s0.Transitions[fa]
	s4 := s1.Transitions[or]
	s5 := s1.Transitions[and]
	s6 := s4.Transitions[b]
	s7 := s5.Transitions[b]

	if err := gen.AddRule(mustRule(t, g, "B", "unknown")); err != nil {
		t.Fatal(err)
	}

	// Fig 6.4: exactly 0, 4 and 5 are invalidated (they had a transition
	// for B); the rest keeps its type.
	for _, tc := range []struct {
		s    *lr.State
		want lr.StateType
	}{
		{s0, lr.Dirty}, {s4, lr.Dirty}, {s5, lr.Dirty},
		{s1, lr.Complete}, {s2, lr.Complete}, {s3, lr.Complete},
		{s6, lr.Complete}, {s7, lr.Complete},
	} {
		if tc.s.Type != tc.want {
			t.Errorf("state %d type = %v, want %v", tc.s.ID, tc.s.Type, tc.want)
		}
	}

	// Fig 6.5: re-expansion of 0 re-establishes the connections with 1, 2
	// and 3 (same objects!) and creates the initial unknown-successor.
	unknown, _ := syms.Lookup("unknown")
	gen.Actions(s0, tr) // lazy re-expansion
	if s0.Transitions[b] != s1 || s0.Transitions[tr] != s2 || s0.Transitions[fa] != s3 {
		t.Error("re-expansion should reconnect the original states 1, 2, 3")
	}
	s8 := s0.Transitions[unknown]
	if s8 == nil || s8.Type != lr.Initial {
		t.Fatalf("unknown-successor missing or not initial: %v", s8)
	}
	if len(s8.Kernel) != 1 || s8.Kernel.String(syms) != "B ::= unknown ." {
		t.Errorf("unknown-successor kernel: %s", s8.Kernel.String(syms))
	}

	// The modified language is parsed correctly, reusing old states.
	if !parse(t, gen, "unknown and true") {
		t.Error("'unknown and true' should be accepted after the addition")
	}
	if !parse(t, gen, "true or unknown") {
		t.Error("'true or unknown' should be accepted after the addition")
	}
}

// TestFig63NonMonotonicUpdate reproduces Fig 6.2/6.3: in the a b / c b
// grammar, adding 'A ::= b' restructures the graph — the a-state's
// b-successor is replaced by a state recognizing both B ::= b and
// A ::= b, while the c-state keeps the old shared b-successor.
func TestFig63NonMonotonicUpdate(t *testing.T) {
	g := fixtures.AB()
	gen := New(g, &Options{SweepThreshold: -1})
	gen.Pregenerate()

	syms := g.Symbols()
	a, _ := syms.Lookup("a")
	bTok, _ := syms.Lookup("b")
	c, _ := syms.Lookup("c")

	sA := gen.Start().Transitions[a] // kernel D ::= a . A
	sC := gen.Start().Transitions[c] // kernel E ::= c . C
	old7 := sA.Transitions[bTok]     // kernel B ::= b .
	if old7 != sC.Transitions[bTok] {
		t.Fatal("original graph should share the b-successor (state 7 of Fig 6.2)")
	}

	if err := gen.AddRule(mustRule(t, g, "A", "b")); err != nil {
		t.Fatal(err)
	}
	// Only the a-state had a transition on A.
	if sA.Type != lr.Dirty {
		t.Error("a-state should be invalidated")
	}
	if sC.Type != lr.Complete || gen.Start().Type != lr.Complete {
		t.Error("c-state and start state should be untouched")
	}

	gen.Pregenerate()

	new8 := sA.Transitions[bTok]
	if new8 == old7 {
		t.Error("a-state's b-successor should be a new state")
	}
	if len(new8.Kernel) != 2 {
		t.Errorf("new b-successor kernel should hold B ::= b . and A ::= b .:\n%s",
			new8.Kernel.String(syms))
	}
	// "Set of items 7 and the transition of 2 to 7 are not affected."
	if sC.Transitions[bTok] != old7 {
		t.Error("c-state should keep the old b-successor")
	}
	if old7.Type != lr.Complete {
		t.Error("old b-successor should remain complete")
	}

	for _, tc := range []struct {
		input string
		want  bool
	}{
		{"a b", true},
		{"c b", true},
		{"b", false},
		{"a b b", false},
	} {
		if got := parse(t, gen, tc.input); got != tc.want {
			t.Errorf("parse(%q) = %v, want %v", tc.input, got, tc.want)
		}
	}
}

func TestDeleteRuleIncremental(t *testing.T) {
	g := fixtures.Booleans()
	gen := New(g, nil)
	gen.Pregenerate()

	if err := gen.DeleteRule(mustRule(t, g, "B", "B", "or", "B")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		input string
		want  bool
	}{
		{"true and false", true},
		{"true or false", false},
		{"true", true},
	} {
		if got := parse(t, gen, tc.input); got != tc.want {
			t.Errorf("after delete: parse(%q) = %v, want %v", tc.input, got, tc.want)
		}
	}
}

func TestDeleteThenReAdd(t *testing.T) {
	// "unless, of course, the new rule is discarded again" — deleting and
	// re-adding a rule reuses retained states.
	g := fixtures.Booleans()
	gen := New(g, &Options{SweepThreshold: -1})
	gen.Pregenerate()

	orRule := mustRule(t, g, "B", "B", "or", "B")
	if err := gen.DeleteRule(orRule); err != nil {
		t.Fatal(err)
	}
	if err := gen.AddRule(mustRule(t, g, "B", "B", "or", "B")); err != nil {
		t.Fatal(err)
	}
	if !parse(t, gen, "true or false") {
		t.Error("'true or false' should be accepted after re-adding the rule")
	}
	// Full equivalence with a from-scratch automaton.
	gen.Pregenerate()
	eager := lr.New(g.Clone())
	eager.GenerateAll()
	assertEquivalentReachable(t, gen.Automaton(), eager)
}

func TestStartRuleModification(t *testing.T) {
	g := fixtures.Booleans()
	gen := New(g, nil)
	gen.Pregenerate()

	bang := g.Symbols().MustIntern("!", grammar.Terminal)
	b, _ := g.Symbols().Lookup("B")
	if err := gen.AddRule(grammar.NewRule(g.Start(), b, bang)); err != nil {
		t.Fatal(err)
	}
	if len(gen.Start().Kernel) != 2 {
		t.Errorf("start kernel has %d items, want 2", len(gen.Start().Kernel))
	}
	if !parse(t, gen, "true !") {
		t.Error("'true !' should be accepted")
	}
	if !parse(t, gen, "true or false") {
		t.Error("original START rule should still work")
	}

	// Deleting the original START rule.
	if err := gen.DeleteRule(mustRule(t, g, "START", "B")); err != nil {
		t.Fatal(err)
	}
	if parse(t, gen, "true") {
		t.Error("'true' should be rejected after deleting START ::= B")
	}
	if !parse(t, gen, "false !") {
		t.Error("'false !' should still be accepted")
	}
}

func TestAddRuleErrorsLeaveGraphIntact(t *testing.T) {
	g := fixtures.Booleans()
	gen := New(g, nil)
	gen.Pregenerate()
	dump := gen.Automaton().Dump()

	if err := gen.AddRule(mustRule(t, g, "B", "true")); err == nil {
		t.Fatal("duplicate AddRule should fail")
	}
	if err := gen.DeleteRule(mustRule(t, g, "B", "nosuch")); err == nil {
		t.Fatal("DeleteRule of unknown rule should fail")
	}
	if gen.Automaton().Dump() != dump {
		t.Error("failed modifications must not change the graph")
	}
	if !parse(t, gen, "true or false") {
		t.Error("graph unusable after failed modifications")
	}
}

func TestAddGrammarComposition(t *testing.T) {
	// Section 8 "modular composition of parsers": merge a module's
	// grammar into a running generator.
	st := grammar.NewSymbolTable()
	base, err := grammar.Parse(`
START ::= E
E ::= "x"
`, st)
	if err != nil {
		t.Fatal(err)
	}
	module, err := grammar.Parse(`
START ::= E
E ::= E "+" E
E ::= "(" E ")"
`, st)
	if err != nil {
		t.Fatal(err)
	}
	gen := New(base, nil)
	if !parse(t, gen, "x") {
		t.Fatal("base grammar broken")
	}
	if parse(t, gen, "x + x") {
		t.Fatal("extension syntax should not parse yet")
	}
	n, err := gen.AddGrammar(module)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("AddGrammar added %d rules, want 2", n)
	}
	for _, input := range []string{"x", "x + x", "( x + x ) + x"} {
		if !parse(t, gen, input) {
			t.Errorf("%q should parse after composition", input)
		}
	}
}

// assertEquivalentReachable checks that the reachable parts of two
// (fully expanded) automatons are isomorphic: same kernels, same
// reductions, same accept flags, same transition structure.
func assertEquivalentReachable(t *testing.T, a, b *lr.Automaton) {
	t.Helper()
	type pair struct{ x, y *lr.State }
	match := map[*lr.State]*lr.State{}
	queue := []pair{{a.Start(), b.Start()}}
	match[a.Start()] = b.Start()
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		x, y := p.x, p.y
		if x.Kernel.Key() != y.Kernel.Key() {
			t.Fatalf("kernel mismatch:\n%s\n--- vs ---\n%s",
				x.Kernel.String(a.Grammar().Symbols()), y.Kernel.String(b.Grammar().Symbols()))
		}
		if x.Type != lr.Complete || y.Type != lr.Complete {
			t.Fatalf("states not complete: %v / %v (fully expand both first)", x.Type, y.Type)
		}
		if x.Accept != y.Accept {
			t.Fatalf("accept mismatch on kernel %s", x.Kernel.String(a.Grammar().Symbols()))
		}
		rx := ruleStrings(a, x.Reductions)
		ry := ruleStrings(b, y.Reductions)
		if rx != ry {
			t.Fatalf("reductions mismatch: %s vs %s", rx, ry)
		}
		if len(x.Transitions) != len(y.Transitions) {
			t.Fatalf("transition count mismatch on kernel %s", x.Kernel.String(a.Grammar().Symbols()))
		}
		for sym, xs := range x.Transitions {
			ys, ok := y.Transitions[sym]
			if !ok {
				t.Fatalf("missing transition on %s", a.Grammar().Symbols().Name(sym))
			}
			if prev, seen := match[xs]; seen {
				if prev != ys {
					t.Fatal("inconsistent state pairing (graphs not isomorphic)")
				}
				continue
			}
			match[xs] = ys
			queue = append(queue, pair{xs, ys})
		}
	}
}

func ruleStrings(a *lr.Automaton, rules []*grammar.Rule) string {
	out := make([]string, 0, len(rules))
	for _, r := range rules {
		out = append(out, r.String(a.Grammar().Symbols()))
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// randomModifications applies n random rule additions/deletions to a
// generator and mirrors them in the returned grammar clone.
func applyRandomModifications(gen *Generator, rng *rand.Rand, n int) {
	g := gen.Grammar()
	syms := g.Symbols()
	var nts []grammar.Symbol
	for _, s := range syms.Nonterminals() {
		if s != g.Start() {
			nts = append(nts, s)
		}
	}
	var pool []grammar.Symbol
	pool = append(pool, nts...)
	for _, s := range syms.Terminals() {
		if s != grammar.EOF {
			pool = append(pool, s)
		}
	}
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 && g.Len() > 1 {
			// Delete a random non-START rule (keep START so the
			// automaton stays meaningful).
			rules := g.Rules()
			r := rules[rng.Intn(len(rules))]
			if r.Lhs == g.Start() {
				continue
			}
			if err := gen.DeleteRule(r); err != nil {
				panic(err)
			}
			continue
		}
		lhs := nts[rng.Intn(len(nts))]
		rhs := make([]grammar.Symbol, rng.Intn(4))
		for j := range rhs {
			rhs[j] = pool[rng.Intn(len(pool))]
		}
		r := grammar.NewRule(lhs, rhs...)
		if g.Has(r) {
			continue
		}
		if err := gen.AddRule(r); err != nil {
			panic(err)
		}
	}
}

// assertIndexConsistent checks the automaton's maintained bookkeeping
// against a scan: the type counts, and, per nonterminal, the complete
// states with a transition on it.
func assertIndexConsistent(t *testing.T, a *lr.Automaton) {
	t.Helper()
	var counts [3]int
	want := map[grammar.Symbol]map[*lr.State]bool{}
	for _, s := range a.States() {
		counts[s.Type]++
		if s.Type != lr.Complete {
			continue
		}
		for sym := range s.Transitions {
			if a.Grammar().Symbols().Kind(sym) == grammar.Nonterminal {
				if want[sym] == nil {
					want[sym] = map[*lr.State]bool{}
				}
				want[sym][s] = true
			}
		}
	}
	if i, c, d := a.TypeCounts(); [3]int{i, c, d} != counts {
		t.Fatalf("type counts %d/%d/%d, scan %v", i, c, d, counts)
	}
	for _, n := range a.Grammar().Symbols().Nonterminals() {
		got := a.AppendStatesOn(nil, n)
		if len(got) != len(want[n]) {
			t.Fatalf("index on %s: %d states, scan %d", a.Grammar().Symbols().Name(n), len(got), len(want[n]))
		}
		for _, s := range got {
			if !want[n][s] {
				t.Fatalf("index on %s holds state %d, which the scan does not", a.Grammar().Symbols().Name(n), s.ID)
			}
		}
	}
}

// Property: after any sequence of random modifications, the incrementally
// maintained graph (fully expanded) is isomorphic to a from-scratch
// conventional generation for the final grammar, and its type counts and
// nonterminal index agree with a scan.
func TestIncrementalEquivalentToScratch(t *testing.T) {
	for _, policy := range []Policy{PolicyRefCount, PolicyRetainAll, PolicyEagerSweep} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				g := grammar.Random(grammar.RandConfig{Nonterminals: 3, Terminals: 3, Rules: 6}, rng)
				gen := New(g, &Options{Policy: policy})
				gen.Pregenerate() // specialize fully toward the old grammar
				applyRandomModifications(gen, rng, 4)
				assertIndexConsistent(t, gen.Automaton())
				gen.Pregenerate()
				assertIndexConsistent(t, gen.Automaton())

				eager := lr.New(g.Clone())
				eager.GenerateAll()
				assertEquivalentReachable(t, gen.Automaton(), eager)
				return true
			}
			if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: the lazily driven incremental generator accepts exactly the
// sentences a from-scratch eager table accepts, including after
// modifications, without ever pregenerating.
func TestIncrementalParseEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := grammar.Random(grammar.RandConfig{Nonterminals: 3, Terminals: 3, Rules: 6}, rng)
		gen := New(g, nil)
		// Parse a little to trigger partial generation.
		if sent, ok := g.RandomSentence(rng, 8); ok {
			if _, err := glr.Recognize(gen, sent, glr.GSS); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		applyRandomModifications(gen, rng, 3)

		eager := lr.New(g.Clone())
		eager.GenerateAll()

		for i := 0; i < 10; i++ {
			var input []grammar.Symbol
			if sent, ok := g.RandomSentence(rng, 8); ok && rng.Intn(2) == 0 {
				input = sent
				if rng.Intn(2) == 0 && len(input) > 0 {
					// Perturb: drop a token.
					k := rng.Intn(len(input))
					input = append(append([]grammar.Symbol{}, input[:k]...), input[k+1:]...)
				}
			} else {
				// Random token soup.
				terms := g.Symbols().Terminals()
				for j := 0; j < rng.Intn(6); j++ {
					s := terms[rng.Intn(len(terms))]
					if s == grammar.EOF {
						continue
					}
					input = append(input, s)
				}
			}
			gotLazy, err := glr.Recognize(gen, input, glr.GSS)
			if err != nil {
				t.Fatalf("seed %d lazy: %v", seed, err)
			}
			gotEager, err := glr.Recognize(eager, input, glr.GSS)
			if err != nil {
				t.Fatalf("seed %d eager: %v", seed, err)
			}
			if gotLazy != gotEager {
				t.Fatalf("seed %d: acceptance mismatch on %s: lazy=%v eager=%v",
					seed, g.Symbols().NamesOf(input), gotLazy, gotEager)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
