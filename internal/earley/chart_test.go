package earley

import (
	"errors"
	"strings"
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// TestEarleyRecognizeAllocFree pins the chart-overhaul claim: a
// steady-state recognition pass over a pooled (or caller-held) chart
// does zero heap allocations — the Earley analog of the GSS and
// deterministic engines' gates in internal/glr.
func TestEarleyRecognizeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts and sync.Pool behavior")
	}
	g := fixtures.Booleans()
	p := New(g)
	input := append(fixtures.Tokens(g, "true or false and true or true"), grammar.EOF)
	held := &Options{Workspace: new(Workspace)}
	for i := 0; i < 3; i++ {
		if res, err := p.Parse(input, held); err != nil || !res.Accepted {
			t.Fatalf("warm-up: %v %v", res.Accepted, err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		res, err := p.Parse(input, held)
		if err != nil || !res.Accepted {
			t.Fatalf("parse: %v %v", res.Accepted, err)
		}
	}); avg != 0 {
		t.Errorf("steady-state recognize with held workspace allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if !p.Recognize(input) {
			t.Fatal("rejected")
		}
	}); avg != 0 {
		t.Errorf("steady-state recognize with pooled workspace allocates %.2f allocs/op, want 0", avg)
	}
}

// TestLeoRightRecursionLinear checks the Leo memo: on a plain
// right-recursive grammar the chart must stay linear in the input (the
// textbook behavior without Leo is a quadratic completion cascade).
func TestLeoRightRecursionLinear(t *testing.T) {
	g := grammar.MustParse(`
START ::= E
E ::= "x" E | "x"
`)
	p := New(g)
	x, _ := g.Symbols().Lookup("x")
	input := func(n int) []grammar.Symbol {
		out := make([]grammar.Symbol, n)
		for i := range out {
			out[i] = x
		}
		return out
	}
	ok1, s1 := p.RecognizeStats(input(50))
	ok2, s2 := p.RecognizeStats(input(100))
	if !ok1 || !ok2 {
		t.Fatal("right-recursive sentences rejected")
	}
	if s2.Leo == 0 {
		t.Error("Leo memo never used on a right-recursive grammar")
	}
	// Linear: doubling the input roughly doubles the items. Without Leo
	// the 100-token chart holds ~4x the items of the 50-token one.
	if s2.Items > s1.Items*5/2 {
		t.Errorf("items not linear under right recursion: %d at n=50, %d at n=100", s1.Items, s2.Items)
	}
}

// TestLeoDoesNotChangeDiagnostics compares recognition outcomes and
// rejection diagnostics with and without the Leo shortcut (tree-building
// runs keep the full chart) across accept and reject sentences.
func TestLeoDoesNotChangeDiagnostics(t *testing.T) {
	g := grammar.MustParse(`
START ::= E
E ::= "x" E | "y" E "z" | "x"
`)
	p := New(g)
	for _, text := range []string{
		"x", "x x x", "y x z", "y y x z z", "y x x z", "", "z", "x z", "y x", "y z",
	} {
		toks := fixtures.Tokens(g, text)
		rec, _ := p.Parse(toks, nil)
		tree, err := p.Parse(toks, &Options{BuildTrees: true})
		if err != nil {
			t.Fatalf("%q: tree parse: %v", text, err)
		}
		if rec.Accepted != tree.Accepted || rec.ErrorPos != tree.ErrorPos {
			t.Errorf("%q: Leo path (ok=%v pos=%d) vs full chart (ok=%v pos=%d)",
				text, rec.Accepted, rec.ErrorPos, tree.Accepted, tree.ErrorPos)
		}
		if len(rec.Expected) != len(tree.Expected) {
			t.Errorf("%q: expected sets diverge: %v vs %v", text, rec.Expected, tree.Expected)
		}
	}
}

// TestParseTreesMatchGLR: on an ambiguous grammar the packed forest
// must represent exactly the derivations the GSS engine packs, and on
// every sentence the rendered forests must coincide.
func TestParseTreesMatchGLR(t *testing.T) {
	g := fixtures.Booleans()
	p := New(g)
	auto := lr.New(g)
	auto.GenerateAll()
	for _, text := range []string{
		"true",
		"true or false",
		"true or false and true",
		"true and true or false and true",
		"true or true or true or true",
	} {
		toks := fixtures.Tokens(g, text)
		eRes, err := p.Parse(toks, &Options{BuildTrees: true})
		if err != nil || !eRes.Accepted || eRes.Root == nil {
			t.Fatalf("%q: earley parse: ok=%v err=%v", text, eRes.Accepted, err)
		}
		gRes, err := glr.Parse(auto, toks, &glr.Options{Engine: glr.GSS})
		if err != nil || !gRes.Accepted {
			t.Fatalf("%q: glr parse: %v %v", text, gRes.Accepted, err)
		}
		eCount, err1 := forest.TreeCount(eRes.Root)
		gCount, err2 := forest.TreeCount(gRes.Root)
		if err1 != nil || err2 != nil || eCount != gCount {
			t.Errorf("%q: derivation counts diverge: earley %d (%v), glr %d (%v)",
				text, eCount, err1, gCount, err2)
		}
		if e, g2 := forest.String(eRes.Root, g.Symbols()), forest.String(gRes.Root, g.Symbols()); e != g2 {
			t.Errorf("%q: rendered forests diverge\nearley: %s\nglr:    %s", text, e, g2)
		}
	}
}

// TestParseNullableTrees exercises forest construction through epsilon
// rules and Aycock–Horspool skips: the yield of every tree must equal
// the input.
func TestParseNullableTrees(t *testing.T) {
	g := grammar.MustParse(`
START ::= A B
A ::= "a" | ε
B ::= "b" B | ε
`)
	p := New(g)
	for _, text := range []string{"", "a", "b b b", "a b b"} {
		toks := fixtures.Tokens(g, text)
		res, err := p.Parse(toks, &Options{BuildTrees: true})
		if err != nil || !res.Accepted || res.Root == nil {
			t.Fatalf("%q: ok=%v root=%v err=%v", text, res.Accepted, res.Root, err)
		}
		yield, err := forest.Yield(res.Root)
		if err != nil {
			t.Fatalf("%q: yield: %v", text, err)
		}
		if len(yield) != len(toks) {
			t.Errorf("%q: yield %v does not match input %v", text,
				g.Symbols().NamesOf(yield), g.Symbols().NamesOf(toks))
		}
	}
}

// TestCyclicGrammarTreesError: cyclic grammars have no finite packed
// forest; tree building reports that while recognition keeps working.
func TestCyclicGrammarTreesError(t *testing.T) {
	g := grammar.MustParse(`
START ::= A
A ::= A | "x"
`)
	p := New(g)
	toks := fixtures.Tokens(g, "x")
	if !p.Recognize(toks) {
		t.Fatal("cyclic grammar should still recognize 'x'")
	}
	if _, err := p.Parse(toks, &Options{BuildTrees: true}); !errors.Is(err, ErrCyclic) {
		t.Fatalf("tree building on a cyclic grammar: err = %v, want ErrCyclic", err)
	}
}

// TestWorkspaceReuseMatchesFresh guards chart recycling: a parse
// through a heavily reused workspace must produce exactly the result a
// fresh one does.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	g := fixtures.Booleans()
	p := New(g)
	ws := new(Workspace)
	for _, text := range []string{
		"true",
		"true or false",
		"true or false and true or true",
		"true or or true", // rejected
		"",                // rejected
	} {
		toks := fixtures.Tokens(g, text)
		reused, err1 := p.Parse(toks, &Options{BuildTrees: true, Workspace: ws})
		fresh, err2 := p.Parse(toks, &Options{BuildTrees: true, Workspace: new(Workspace)})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%q: err mismatch %v vs %v", text, err1, err2)
		}
		if reused.Accepted != fresh.Accepted || reused.ErrorPos != fresh.ErrorPos ||
			reused.Stats.Items != fresh.Stats.Items {
			t.Errorf("%q: reused %+v vs fresh %+v", text, reused, fresh)
		}
		if (reused.Root == nil) != (fresh.Root == nil) {
			t.Errorf("%q: root nil-ness differs", text)
		}
		if reused.Root != nil {
			r1 := forest.String(reused.Root, g.Symbols())
			r2 := forest.String(fresh.Root, g.Symbols())
			if r1 != r2 {
				t.Errorf("%q: forests diverge:\nreused: %s\nfresh:  %s", text, r1, r2)
			}
		}
	}
}

// TestGrammarVersionRecompiles: a rule update and its Refresh must be
// visible on the very next parse.
func TestGrammarVersionRecompiles(t *testing.T) {
	g := grammar.MustParse(`
START ::= E
E ::= "x"
`)
	p := New(g)
	g.Symbols().MustIntern("y", grammar.Terminal)
	if p.Recognize(fixtures.Tokens(g, "y")) {
		t.Fatal("accepted 'y' before the rule existed")
	}
	mod, err := grammar.Parse(`E ::= "y"`, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddRule(mod.Rules()[0]); err != nil {
		t.Fatal(err)
	}
	p.Refresh()
	if !p.Recognize(fixtures.Tokens(g, "y")) {
		t.Fatal("rule update not visible to the next parse")
	}
	if _, err := g.DeleteRule(mod.Rules()[0]); err != nil {
		t.Fatal(err)
	}
	p.Refresh()
	if p.Recognize(fixtures.Tokens(g, "y")) {
		t.Fatal("rule deletion not visible to the next parse")
	}
}

// TestEOFTerminatedInput: the end marker is accepted and ignored, so
// EOF-terminated token streams (the service's zero-alloc convention)
// parse identically to bare ones.
func TestEOFTerminatedInput(t *testing.T) {
	g := fixtures.Booleans()
	p := New(g)
	bare := fixtures.Tokens(g, "true or false")
	term := append(append([]grammar.Symbol(nil), bare...), grammar.EOF)
	if got, want := p.Recognize(term), p.Recognize(bare); got != want {
		t.Fatalf("EOF-terminated %v, bare %v", got, want)
	}
	res, err := p.Parse(term, &Options{BuildTrees: true})
	if err != nil || !res.Accepted {
		t.Fatalf("EOF-terminated tree parse: %v %v", res.Accepted, err)
	}
	if s := forest.String(res.Root, g.Symbols()); !strings.Contains(s, "or") {
		t.Fatalf("unexpected tree %s", s)
	}
}

// TestParsesLoadTheUpdatesView: New and Refresh publish the grammar
// view; a parse, a document reparse, a tree and a cursor after an update
// all run on the view the update published, and none compiles another.
// A parse after an update nobody refreshed panics instead of compiling.
func TestParsesLoadTheUpdatesView(t *testing.T) {
	g := grammar.MustParse(`
START ::= S
S ::= A "b"
A ::= "a"
`)
	p := New(g)
	if p.prog == nil || p.prog.version != g.Version() {
		t.Fatalf("New published no view of version %d", g.Version())
	}
	b := fixtures.Tokens(g, "b")
	d := p.OpenDoc(b, true)
	if res, err := d.Reparse(nil); err != nil || res.Accepted {
		t.Fatalf("'b' with A not nullable: accepted %v, %v", res.Accepted, err)
	}
	before := p.prog

	a, _ := g.Symbols().Lookup("A")
	eps := grammar.NewRule(a)
	if err := g.AddRule(eps); err != nil {
		t.Fatal(err)
	}
	p.Refresh()
	pr := p.prog
	if pr == before || pr.version != g.Version() || !pr.nullable[a] {
		t.Fatalf("Refresh published %p at version %d (nullable A %v), want a new view at %d",
			pr, pr.version, pr.nullable[a], g.Version())
	}
	if !p.Recognize(b) {
		t.Fatal("'b' rejected after A became nullable")
	}
	if res, err := d.Reparse(nil); err != nil || !res.Accepted || d.prog != pr {
		t.Fatalf("doc reparse: accepted %v, %v, on the published view %v", res.Accepted, err, d.prog == pr)
	}
	if res, err := d.Tree(nil); err != nil || res.Root == nil || d.b.pr != pr {
		t.Fatalf("doc tree: root %v, %v, on the published view %v", res.Root != nil, err, d.b.pr == pr)
	}
	c := p.OpenCursor()
	if !c.Feed(b[0]) || !c.AtEnd() || c.d.prog != pr {
		t.Fatalf("cursor: fed 'b' to a sentence on the published view %v", c.d.prog == pr)
	}
	if p.prog != pr {
		t.Fatal("a parse replaced the view the update published")
	}

	if _, err := g.DeleteRule(eps); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a parse after an unrefreshed update did not panic")
		}
	}()
	p.Recognize(b)
}
