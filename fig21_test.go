package ipg_test

import (
	"strings"
	"testing"

	"ipg/internal/cigale"
	"ipg/internal/core"
	"ipg/internal/earley"
	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/lalr"
	"ipg/internal/ll"
	"ipg/internal/lr"
	"ipg/internal/objparse"
)

// TestFig21Matrix regenerates the qualitative comparison of Fig 2.1 by
// experiment rather than assertion-by-authority: each cell of the
// "powerful / fast / flexible / modular" matrix is derived from running
// the corresponding algorithm, and the derived matrix is compared
// against the paper's.
func TestFig21Matrix(t *testing.T) {
	ambiguous := fixtures.Booleans() // left-recursive and ambiguous
	ambiguousInput := fixtures.Tokens(ambiguous, "true or true or true")

	// --- "powerful": which algorithms handle the ambiguous,
	// left-recursive booleans grammar?
	powerful := map[string]bool{}

	lalrTbl := lalr.Generate(ambiguous)
	powerful["LALR"] = len(lalrTbl.Conflicts()) == 0

	llTbl := ll.Generate(ambiguous)
	powerful["LL"] = len(llTbl.Conflicts()) == 0

	powerful["Earley"] = earley.New(ambiguous).Recognize(ambiguousInput)

	cig := cigale.New(ambiguous)
	cigOK, cigErr := cig.Recognize(ambiguousInput)
	powerful["Cigale"] = cigOK && cigErr == nil

	obj := objparse.New(ambiguous)
	_, objErr := obj.CountParses(ambiguousInput)
	powerful["OBJ"] = objErr == nil

	auto := lr.New(ambiguous.Clone())
	auto.GenerateAll()
	tomitaOK, tomitaErr := glr.Recognize(auto, ambiguousInput, glr.GSS)
	powerful["Tomita"] = tomitaOK && tomitaErr == nil

	gen := core.New(ambiguous.Clone(), nil)
	ipgOK, ipgErr := glr.Recognize(gen, ambiguousInput, glr.GSS)
	powerful["IPG"] = ipgOK && ipgErr == nil

	want := map[string]bool{
		"LALR": false, "LL": false, "Earley": true,
		"Cigale": false, "OBJ": false, "Tomita": true, "IPG": true,
	}
	for name, w := range want {
		if powerful[name] != w {
			t.Errorf("powerful[%s] = %v, want %v (Fig 2.1)", name, powerful[name], w)
		}
	}

	// --- "flexible": work to incorporate one rule change. For IPG the
	// expansions after a modification are a small fraction of a full
	// regeneration (PG); counters are deterministic, so assert the
	// inequality the figure encodes.
	g := fixtures.Booleans()
	genFlex := core.New(g, nil)
	genFlex.Pregenerate()
	fullWork := genFlex.Coverage().Expansions

	b, _ := g.Symbols().Lookup("B")
	unknown := g.Symbols().MustIntern("unknown", grammar.Terminal)
	if err := genFlex.AddRule(grammar.NewRule(b, unknown)); err != nil {
		t.Fatal(err)
	}
	before := genFlex.Coverage().Expansions
	genFlex.Pregenerate()
	incrementalWork := genFlex.Coverage().Expansions - before
	if incrementalWork >= fullWork {
		t.Errorf("flexible: incremental re-expansion (%d) should be less than full regeneration (%d)",
			incrementalWork, fullWork)
	}

	// --- "fast": Earley does strictly more per-sentence work than the
	// table-driven parsers once the table exists. Items created vs GSS
	// reduce count on the same input is a machine-independent proxy.
	_, est := earley.New(fixtures.Booleans()).RecognizeStats(ambiguousInput)
	res, err := glr.Parse(auto, ambiguousInput, &glr.Options{Engine: glr.GSS, DisableTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.Items <= res.Stats.Reduces+res.Stats.Shifts {
		t.Errorf("fast: Earley items (%d) expected to exceed GSS work (%d)",
			est.Items, res.Stats.Reduces+res.Stats.Shifts)
	}

	// --- "modular": Cigale tries and IPG grammars compose; assert both
	// composition paths work (the LALR/LL path has no composition
	// operation at all — a type-level fact).
	st := grammar.NewSymbolTable()
	base, err := grammar.Parse("START ::= E\nE ::= \"x\"", st)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := grammar.Parse("START ::= E\nE ::= \"x\" \"+\" E", st)
	if err != nil {
		t.Fatal(err)
	}
	cp := cigale.New(base)
	if err := cp.Extend(ext); err != nil {
		t.Fatal(err)
	}
	x, _ := st.Lookup("x")
	plus, _ := st.Lookup("+")
	if ok, err := cp.Recognize([]grammar.Symbol{x, plus, x}); err != nil || !ok {
		t.Errorf("modular: composed Cigale trie rejected x+x: %v %v", ok, err)
	}
	genMod := core.New(base.Clone(), nil)
	if _, err := genMod.AddGrammar(ext); err != nil {
		t.Fatal(err)
	}
	if ok, err := glr.Recognize(genMod, []grammar.Symbol{x, plus, x}, glr.GSS); err != nil || !ok {
		t.Errorf("modular: composed IPG grammar rejected x+x: %v %v", ok, err)
	}

	var sb strings.Builder
	sb.WriteString("algorithm  powerful\n")
	for _, name := range []string{"LALR", "LL", "Earley", "Cigale", "OBJ", "Tomita", "IPG"} {
		mark := "-"
		if powerful[name] {
			mark = "++"
		}
		sb.WriteString(name + "  " + mark + "\n")
	}
	t.Log("\n" + sb.String())
}

// TestFig21OBJDetectsAmbiguity: the OBJ row's redeeming feature — "the
// backtrack parser does detect all ambiguous parses" — on a grammar
// inside its class.
func TestFig21OBJDetectsAmbiguity(t *testing.T) {
	g := grammar.MustParse(`
START ::= S
S ::= "i" S | "i" S "e" S | "x"
`)
	p := objparse.New(g)
	toks := fixtures.Tokens(g, "i i x e x")
	n, err := p.CountParses(toks)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("OBJ should find both dangling-else parses, got %d", n)
	}
	// And the parallel parser agrees on the count.
	auto := lr.New(g.Clone())
	auto.GenerateAll()
	res, err := glr.Parse(auto, fixtures.Tokens(g, "i i x e x"), &glr.Options{Engine: glr.GSS})
	if err != nil {
		t.Fatal(err)
	}
	if c, err := ipgTreeCount(res); err != nil || c != 2 {
		t.Errorf("GSS forest count = %d, %v", c, err)
	}
}

func ipgTreeCount(res glr.Result) (int64, error) {
	return forestTreeCount(res)
}

func forestTreeCount(res glr.Result) (int64, error) {
	return forest.TreeCount(res.Root)
}
