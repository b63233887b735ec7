package ll

import (
	"errors"
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/grammar"
)

const llExpr = `
START ::= E
E ::= T Etail
Etail ::= "+" T Etail | ε
T ::= "x" | "(" E ")"
`

func TestLL1TableNoConflicts(t *testing.T) {
	tbl := Generate(grammar.MustParse(llExpr))
	if n := len(tbl.Conflicts()); n != 0 {
		t.Fatalf("LL(1) grammar reports %d conflicts: %+v", n, tbl.Conflicts())
	}
}

func TestPredictiveParse(t *testing.T) {
	g := grammar.MustParse(llExpr)
	tbl := Generate(g)
	for _, tc := range []struct {
		input string
		want  bool
	}{
		{"x", true},
		{"x + x + x", true},
		{"( x + x )", true},
		{"( x + x ) + x", true},
		{"x +", false},
		{"+ x", false},
		{"( x", false},
		{"", false},
	} {
		got, err := tbl.Parse(fixtures.Tokens(g, tc.input))
		if err != nil {
			t.Fatalf("%q: %v", tc.input, err)
		}
		if got != tc.want {
			t.Errorf("Parse(%q) = %v, want %v", tc.input, got, tc.want)
		}
	}
}

func TestLeftRecursionConflicts(t *testing.T) {
	// Left-recursive grammars are never LL(1).
	tbl := Generate(grammar.MustParse(`
START ::= E
E ::= E "+" "x" | "x"
`))
	if len(tbl.Conflicts()) == 0 {
		t.Fatal("left-recursive grammar should report LL(1) conflicts")
	}
	if _, err := tbl.Parse(nil); !errors.Is(err, ErrNotLL1) {
		t.Fatalf("Parse on conflicted table: want ErrNotLL1, got %v", err)
	}
}

func TestAmbiguousConflicts(t *testing.T) {
	tbl := Generate(fixtures.Booleans())
	if len(tbl.Conflicts()) == 0 {
		t.Fatal("ambiguous grammar should report LL(1) conflicts")
	}
}

func TestRecursiveDescent(t *testing.T) {
	g := grammar.MustParse(llExpr)
	parse, err := BuildRecursiveDescent(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		input string
		want  bool
	}{
		{"x + ( x + x )", true},
		{"x x", false},
		{"( )", false},
	} {
		if got := parse(fixtures.Tokens(g, tc.input)); got != tc.want {
			t.Errorf("rd(%q) = %v, want %v", tc.input, got, tc.want)
		}
	}
}

func TestRecursiveDescentRejectsNonLL1(t *testing.T) {
	if _, err := BuildRecursiveDescent(fixtures.Booleans()); !errors.Is(err, ErrNotLL1) {
		t.Fatalf("want ErrNotLL1, got %v", err)
	}
}

func TestTableAndRDagree(t *testing.T) {
	g := grammar.MustParse(llExpr)
	tbl := Generate(g)
	rd, err := BuildRecursiveDescent(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range []string{"x", "x + x", "( ( x ) )", "x + + x", "( x ) ("} {
		toks := fixtures.Tokens(g, input)
		a, err := tbl.Parse(toks)
		if err != nil {
			t.Fatal(err)
		}
		b := rd(toks)
		if a != b {
			t.Errorf("table=%v rd=%v on %q", a, b, input)
		}
	}
}

func TestEpsilonViaFollow(t *testing.T) {
	g := grammar.MustParse(`
START ::= A "b"
A ::= "a" | ε
`)
	tbl := Generate(g)
	if len(tbl.Conflicts()) != 0 {
		t.Fatalf("conflicts: %+v", tbl.Conflicts())
	}
	got, err := tbl.Parse(fixtures.Tokens(g, "b"))
	if err != nil || !got {
		t.Errorf("epsilon production through FOLLOW failed: %v %v", got, err)
	}
}

func TestParseForestBuildsUniqueTree(t *testing.T) {
	g := grammar.MustParse(llExpr)
	tbl := Generate(g)
	f := forest.NewForest()
	root, errPos, _, err := tbl.ParseForest(fixtures.Tokens(g, "x + ( x + x )"), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root == nil || errPos != -1 {
		t.Fatalf("ParseForest rejected an LL(1) sentence (errPos=%d)", errPos)
	}
	if n, err := forest.TreeCount(root); err != nil || n != 1 {
		t.Fatalf("TreeCount = %d, %v; want exactly 1 (LL(1) is unambiguous)", n, err)
	}
	got := forest.String(root, g.Symbols())
	if got == "" {
		t.Fatal("empty tree rendering")
	}
}

func TestParseForestDiagnostics(t *testing.T) {
	g := grammar.MustParse(llExpr)
	tbl := Generate(g)
	syms := g.Symbols()
	for _, tc := range []struct {
		input   string
		wantPos int
	}{
		{"x +", 2},     // Etail needs a T after "+"
		{"+ x", 0},     // no prediction for E on "+"
		{"x x", 1},     // trailing garbage after a complete E
		{"( x + x", 4}, // unclosed paren: end of input
	} {
		toks := fixtures.Tokens(g, tc.input)
		root, errPos, expected, err := tbl.ParseForest(toks, forest.NewForest(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if root != nil {
			t.Errorf("ParseForest(%q) accepted", tc.input)
			continue
		}
		if errPos != tc.wantPos {
			t.Errorf("ParseForest(%q) errPos = %d, want %d (expected %v)", tc.input, errPos, tc.wantPos, expected)
		}
		if len(expected) == 0 {
			t.Errorf("ParseForest(%q) reported no expected terminals", tc.input)
		}
		for _, s := range expected {
			if s != grammar.EOF && syms.Kind(s) != grammar.Terminal {
				t.Errorf("ParseForest(%q) expected non-terminal %q", tc.input, syms.Name(s))
			}
		}
	}
}

func TestParseForestConflictedTable(t *testing.T) {
	g := grammar.MustParse(`
START ::= S
S ::= "a" S | "a"
`)
	tbl := Generate(g)
	if _, _, _, err := tbl.ParseForest(fixtures.Tokens(g, "a a"), forest.NewForest(), nil); !errors.Is(err, ErrNotLL1) {
		t.Fatalf("ParseForest on conflicted table: err = %v, want ErrNotLL1", err)
	}
}

func TestParseForestDeepInputNoStackGrowth(t *testing.T) {
	// A service-sized, deeply right-recursive sentence must parse on the
	// heap, not the goroutine stack: x + x + x + ... (100k terms).
	g := grammar.MustParse(llExpr)
	tbl := Generate(g)
	syms := g.Symbols()
	x, _ := syms.Lookup("x")
	plus, _ := syms.Lookup("+")
	const terms = 100_000
	input := make([]grammar.Symbol, 0, 2*terms-1)
	for i := 0; i < terms; i++ {
		if i > 0 {
			input = append(input, plus)
		}
		input = append(input, x)
	}
	root, errPos, _, err := tbl.ParseForest(input, forest.NewForest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if root == nil {
		t.Fatalf("deep input rejected at %d", errPos)
	}
}
