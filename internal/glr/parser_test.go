package glr

import (
	"errors"
	"strings"
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/lalr"
	"ipg/internal/lr"
)

func boolTable(t *testing.T) lr.Table {
	t.Helper()
	a := lr.New(fixtures.Booleans())
	a.GenerateAll()
	return a
}

func engines() []Engine { return []Engine{Copying, GSS} }

func TestAcceptSimple(t *testing.T) {
	tbl := boolTable(t)
	g := tbl.Grammar()
	for _, e := range engines() {
		for _, tc := range []struct {
			input string
			want  bool
		}{
			{"true", true},
			{"false", true},
			{"true or false", true},
			{"true and true and false", true},
			{"true or", false},
			{"or true", false},
			{"", false},
			{"true true", false},
		} {
			got, err := Recognize(tbl, fixtures.Tokens(g, tc.input), e)
			if err != nil {
				t.Fatalf("%v %q: %v", e, tc.input, err)
			}
			if got != tc.want {
				t.Errorf("%v Recognize(%q) = %v, want %v", e, tc.input, got, tc.want)
			}
		}
	}
}

func TestDeterministicEngine(t *testing.T) {
	tbl := boolTable(t)
	g := tbl.Grammar()
	res, err := Parse(tbl, fixtures.Tokens(g, "true or false"), &Options{Engine: Deterministic})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !res.Accepted {
		t.Fatal("should accept 'true or false'")
	}
	// A path through a conflict cell fails with ErrNondeterministic.
	_, err = Parse(tbl, fixtures.Tokens(g, "true or true or true"), &Options{Engine: Deterministic})
	if !errors.Is(err, ErrNondeterministic) {
		t.Fatalf("want ErrNondeterministic, got %v", err)
	}
}

// TestFig42Trace replays the parsing of 'true or false' (Fig 4.2) and
// checks the parser's moves through the graph of item sets.
func TestFig42Trace(t *testing.T) {
	tbl := boolTable(t)
	g := tbl.Grammar()
	var ops []string
	_, err := Parse(tbl, fixtures.Tokens(g, "true or false"), &Options{
		Engine: Deterministic,
		Trace: func(ev Event) {
			if ev.Op == "reduce" {
				ops = append(ops, "reduce:"+ev.Rule.String(g.Symbols()))
				return
			}
			ops = append(ops, ev.Op)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"shift",             // true
		"reduce:B ::= true", // on or
		"goto",
		"shift",              // or
		"shift",              // false
		"reduce:B ::= false", // on $
		"goto",
		"reduce:B ::= B or B", // on $
		"goto",
		"accept",
	}
	if strings.Join(ops, "|") != strings.Join(want, "|") {
		t.Errorf("trace mismatch:\n got %v\nwant %v", ops, want)
	}
}

func TestParseTreeSimple(t *testing.T) {
	tbl := boolTable(t)
	g := tbl.Grammar()
	for _, e := range engines() {
		res, err := Parse(tbl, fixtures.Tokens(g, "true or false"), &Options{Engine: e})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if res.Root == nil {
			t.Fatalf("%v: no tree", e)
		}
		got := forest.String(res.Root, g.Symbols())
		if got != "B(B(true) or B(false))" {
			t.Errorf("%v: tree = %s", e, got)
		}
		n, err := forest.TreeCount(res.Root)
		if err != nil || n != 1 {
			t.Errorf("%v: TreeCount = %d, %v", e, n, err)
		}
	}
}

func TestAmbiguityBothEngines(t *testing.T) {
	tbl := boolTable(t)
	g := tbl.Grammar()
	// 'true or true or true': two parses (left- and right-associated).
	for _, e := range engines() {
		res, err := Parse(tbl, fixtures.Tokens(g, "true or true or true"), &Options{Engine: e})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if !res.Accepted {
			t.Fatalf("%v: rejected", e)
		}
		n, err := forest.TreeCount(res.Root)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if n != 2 {
			t.Errorf("%v: TreeCount = %d, want 2\n%s", e, n, forest.String(res.Root, g.Symbols()))
		}
	}
}

func TestAmbiguityCountCatalan(t *testing.T) {
	// A chain of n 'or's has Catalan(n) parses: 1, 2, 5, 14.
	tbl := boolTable(t)
	g := tbl.Grammar()
	catalan := []int64{1, 1, 2, 5, 14, 42}
	for n := 1; n <= 5; n++ {
		input := "true" + strings.Repeat(" or true", n)
		for _, e := range engines() {
			res, err := Parse(tbl, fixtures.Tokens(g, input), &Options{Engine: e})
			if err != nil {
				t.Fatalf("%v n=%d: %v", e, n, err)
			}
			c, err := forest.TreeCount(res.Root)
			if err != nil {
				t.Fatalf("%v n=%d: %v", e, n, err)
			}
			if c != catalan[n] {
				t.Errorf("%v: %d ors -> %d trees, want %d", e, n, c, catalan[n])
			}
		}
	}
}

// TestSharedLabelsCountOnce parses a sentence on which edges over one
// span hang off different stack nodes. Their labels must be one node:
// keyed by rule and children instead, two edges of a span can carry
// distinct nodes that each later gain the other's derivation, and
// packing both into a parent counts derivations twice (19 trees here
// instead of 14).
func TestSharedLabelsCountOnce(t *testing.T) {
	g := grammar.MustParse(`
START ::= N1
N1 ::= N0 | "t1" N1 | "t1"
N0 ::= N1 "t1" N1 | N1 N0 | "t0" N0
`)
	auto := lr.New(g)
	auto.GenerateAll()
	for _, tbl := range []lr.Table{auto, lalr.Generate(g)} {
		toks := fixtures.Tokens(g, "t1 t1 t1 t1 t1")
		resC, err := Parse(tbl, toks, &Options{Engine: Copying})
		if err != nil {
			t.Fatal(err)
		}
		resG, err := Parse(tbl, toks, &Options{Engine: GSS})
		if err != nil {
			t.Fatal(err)
		}
		cc, _ := forest.TreeCount(resC.Root)
		cg, _ := forest.TreeCount(resG.Root)
		if cc != 14 || cg != 14 {
			t.Errorf("tree counts: copying %d, gss %d, want 14", cc, cg)
		}
		tc, _ := forest.Trees(resC.Root, g.Symbols(), 0)
		tg, _ := forest.Trees(resG.Root, g.Symbols(), 0)
		if strings.Join(tc, "\n") != strings.Join(tg, "\n") {
			t.Errorf("trees differ:\ncopying %q\ngss     %q", tc, tg)
		}
	}
}

func TestGSSSharingBeatsCopying(t *testing.T) {
	tbl := boolTable(t)
	g := tbl.Grammar()
	input := "true" + strings.Repeat(" or true", 8)
	toks := fixtures.Tokens(g, input)
	// The copying engine is exponential here (Catalan(8) = 1430 parses);
	// give it an explicit budget well above the default.
	resCopy, err := Parse(tbl, toks, &Options{Engine: Copying, MaxReductions: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	resGSS, err := Parse(tbl, toks, &Options{Engine: GSS})
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := forest.TreeCount(resCopy.Root)
	cg, _ := forest.TreeCount(resGSS.Root)
	if cc != cg {
		t.Fatalf("tree counts differ: copying %d, gss %d", cc, cg)
	}
	if resGSS.Stats.Reduces >= resCopy.Stats.Reduces {
		t.Errorf("GSS should perform fewer reduces: gss %d, copying %d",
			resGSS.Stats.Reduces, resCopy.Stats.Reduces)
	}
}

func TestEpsilonGrammar(t *testing.T) {
	g := grammar.MustParse(`
START ::= A B
A ::= "a" | ε
B ::= "b"
`)
	a := lr.New(g)
	a.GenerateAll()
	for _, e := range engines() {
		for _, tc := range []struct {
			input string
			want  bool
		}{
			{"a b", true},
			{"b", true},
			{"a", false},
			{"", false},
		} {
			got, err := Recognize(a, fixtures.Tokens(g, tc.input), e)
			if err != nil {
				t.Fatalf("%v %q: %v", e, tc.input, err)
			}
			if got != tc.want {
				t.Errorf("%v Recognize(%q) = %v, want %v", e, tc.input, got, tc.want)
			}
		}
	}
}

func TestNullableStart(t *testing.T) {
	g := grammar.MustParse(`
START ::= A
A ::= ε | "x" A
`)
	a := lr.New(g)
	a.GenerateAll()
	for _, e := range engines() {
		got, err := Recognize(a, nil, e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if !got {
			t.Errorf("%v: empty sentence should be accepted", e)
		}
		got, err = Recognize(a, fixtures.Tokens(g, "x x x"), e)
		if err != nil || !got {
			t.Errorf("%v: 'x x x' should be accepted (err %v)", e, err)
		}
	}
}

func TestHiddenLeftRecursion(t *testing.T) {
	// A classic hard case for GLR implementations: nullable B hides the
	// left recursion of S.
	g := grammar.MustParse(`
START ::= S
S ::= B S "a" | "a"
B ::= ε
`)
	a := lr.New(g)
	a.GenerateAll()
	for _, input := range []string{"a", "a a", "a a a a"} {
		got, err := Recognize(a, fixtures.Tokens(g, input), GSS)
		if err != nil {
			t.Fatalf("GSS %q: %v", input, err)
		}
		if !got {
			t.Errorf("GSS should accept %q", input)
		}
	}
	if got, err := Recognize(a, fixtures.Tokens(g, "a a"), GSS); err != nil || !got {
		t.Errorf("GSS 'a a': %v %v", got, err)
	}
}

func TestCyclicGrammar(t *testing.T) {
	g := grammar.MustParse(`
START ::= A
A ::= A | "x"
`)
	a := lr.New(g)
	a.GenerateAll()

	// The copying engine spins on the unit cycle and trips its budget.
	_, err := Parse(a, fixtures.Tokens(g, "x"), &Options{Engine: Copying})
	if !errors.Is(err, ErrNotFinitelyAmbiguous) {
		t.Fatalf("copying engine: want ErrNotFinitelyAmbiguous, got %v", err)
	}

	// The GSS engine terminates, accepts, and produces a cyclic forest.
	res, err := Parse(a, fixtures.Tokens(g, "x"), &Options{Engine: GSS})
	if err != nil {
		t.Fatalf("GSS: %v", err)
	}
	if !res.Accepted {
		t.Fatal("GSS should accept 'x'")
	}
	if _, err := forest.TreeCount(res.Root); !errors.Is(err, forest.ErrCyclic) {
		t.Errorf("TreeCount of cyclic forest: want ErrCyclic, got %v", err)
	}
}

func TestInputValidation(t *testing.T) {
	tbl := boolTable(t)
	g := tbl.Grammar()
	b, _ := g.Symbols().Lookup("B")
	if _, err := Parse(tbl, []grammar.Symbol{b}, nil); err == nil {
		t.Error("nonterminal in input should be rejected")
	}
	tr, _ := g.Symbols().Lookup("true")
	if _, err := Parse(tbl, []grammar.Symbol{grammar.EOF, tr}, nil); err == nil {
		t.Error("$ before end of input should be rejected")
	}
	// Explicit trailing $ is allowed.
	if res, err := Parse(tbl, []grammar.Symbol{tr, grammar.EOF}, nil); err != nil || !res.Accepted {
		t.Errorf("explicit $ termination failed: %v %v", res.Accepted, err)
	}
}

func TestDisableTrees(t *testing.T) {
	tbl := boolTable(t)
	g := tbl.Grammar()
	for _, e := range engines() {
		res, err := Parse(tbl, fixtures.Tokens(g, "true or false"), &Options{Engine: e, DisableTrees: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted || res.Root != nil {
			t.Errorf("%v: DisableTrees gave Accepted=%v Root=%v", e, res.Accepted, res.Root)
		}
	}
}

func TestYieldMatchesInput(t *testing.T) {
	tbl := boolTable(t)
	g := tbl.Grammar()
	input := fixtures.Tokens(g, "true and false or true")
	for _, e := range engines() {
		res, err := Parse(tbl, input, &Options{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		y, err := forest.Yield(res.Root)
		if err != nil {
			t.Fatal(err)
		}
		if len(y) != len(input) {
			t.Fatalf("%v: yield length %d, want %d", e, len(y), len(input))
		}
		for i := range y {
			if y[i] != input[i] {
				t.Errorf("%v: yield[%d] = %s, want %s", e, i,
					g.Symbols().Name(y[i]), g.Symbols().Name(input[i]))
			}
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	tbl := boolTable(t)
	g := tbl.Grammar()
	res, err := Parse(tbl, fixtures.Tokens(g, "true or true or true"), &Options{Engine: Copying})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shifts == 0 || res.Stats.Reduces == 0 || res.Stats.Copies == 0 {
		t.Errorf("copying stats not populated: %+v", res.Stats)
	}
	if res.Stats.MaxParsers < 2 {
		t.Errorf("ambiguous parse should split parsers: MaxParsers = %d", res.Stats.MaxParsers)
	}
	res, err = Parse(tbl, fixtures.Tokens(g, "true or true"), &Options{Engine: GSS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes == 0 || res.Stats.Edges == 0 {
		t.Errorf("gss stats not populated: %+v", res.Stats)
	}
}

func TestUnknownEngine(t *testing.T) {
	tbl := boolTable(t)
	if _, err := Parse(tbl, nil, &Options{Engine: Engine(99)}); err == nil {
		t.Error("unknown engine should error")
	}
}

func TestRejectionProducesNoRoot(t *testing.T) {
	tbl := boolTable(t)
	g := tbl.Grammar()
	for _, e := range engines() {
		res, err := Parse(tbl, fixtures.Tokens(g, "true or"), &Options{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted || res.Root != nil {
			t.Errorf("%v: rejection should produce no root", e)
		}
	}
}
