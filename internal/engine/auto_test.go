package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ipg/internal/core"
	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/lalr"
	"ipg/internal/sdf"
)

// loadSDFDoc compiles testdata/SDF.sdf the way the registry does for an
// SDF entry and tokenizes the testdata document doc with its scanner.
func loadSDFDoc(t testing.TB, doc string) (*grammar.Grammar, []grammar.Symbol) {
	t.Helper()
	conv := convertSDF(t)
	sc, err := conv.Scanner()
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", doc))
	if err != nil {
		t.Fatal(err)
	}
	toks, _, err := sdf.TokenizeWith(sc, string(src), conv.Grammar.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	return conv.Grammar, toks
}

// mustRule parses one rule against g's symbol table, as the registry
// parses a rules request.
func mustRule(t testing.TB, g *grammar.Grammar, text string) *grammar.Rule {
	t.Helper()
	mod, err := grammar.Parse(text, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	return mod.Rules()[0]
}

// TestAutoChurnWarmUpDefersKeptRepairs replays the service benchmark's
// churn warm-up on SDF.sdf, which lazy GLR serves: 3 parses, then 12
// add→delete pairs of fresh-keyword rules with no verdict read between
// them. The updates do no kept-table work, lazy GLR keeps serving
// without a table probe, and the next verdict read leaves the kept
// LALR(1) table equal to a regenerated one.
func TestAutoChurnWarmUpDefersKeptRepairs(t *testing.T) {
	g, doc := loadSDFDoc(t, "exp.sdf")
	a := NewAuto(g)
	for i := 0; i < 3; i++ {
		if ok, err := a.Recognize(doc); err != nil || !ok {
			t.Fatalf("parse %d of exp.sdf: ok=%v err=%v", i, ok, err)
		}
	}
	keptWork := func() core.Counters {
		a.mu.RLock()
		defer a.mu.RUnlock()
		return a.keptWork
	}
	before := keptWork()
	sorts := []string{"LEX-ELEM", "CF-ELEM", "PRIO-DEF", "ABBREV-LIST", "GT-CHAIN", "ATTRIBUTE"}
	for i := 0; i < 12; i++ {
		r := mustRule(t, g, fmt.Sprintf("%s ::= %q", sorts[i%len(sorts)], fmt.Sprintf("kw%d", i)))
		if err := a.AddRule(r); err != nil {
			t.Fatal(err)
		}
		if err := a.DeleteRule(r); err != nil {
			t.Fatal(err)
		}
		if w := keptWork(); w != before {
			t.Fatalf("pair %d: the kept table did work during the updates: %+v, was %+v", i, w, before)
		}
	}
	if k := ServingKind(a); k != KindGLR {
		t.Fatalf("after the warm-up %v serves, want glr", k)
	}
	if n := a.Reprobes(); n != 0 {
		t.Fatalf("the warm-up ran %d table probes, want 0", n)
	}
	if k := a.Kind(); k != KindGLR {
		t.Fatalf("the settled verdict is %v, want glr (%s)", k, a.Reason())
	}
	a.mu.RLock()
	lrTbl := a.lrTbl
	a.mu.RUnlock()
	if got, want := lrTbl.Signature(), lalr.Generate(g).Signature(); got != want {
		t.Error("the kept LALR(1) table diverges from a regenerated one")
	}
}

// TestAutoGLRReasonFollowsUpdates pins that the reason of a lazy GLR
// selection quotes the conflicts of the grammar as it is now, not as it
// was probed: a settle that leaves lazy GLR serving refreshes the reason
// from the repaired LALR(1) table.
func TestAutoGLRReasonFollowsUpdates(t *testing.T) {
	g := grammar.MustParse(ambiguousText)
	a := NewAuto(g)
	for _, u := range []struct {
		add  bool
		rule string
	}{
		{true, `E ::= E "*" E`},
		{true, `E ::= E "-" E`},
		{false, `E ::= E "+" E`},
		{true, `E ::= "(" E ")"`},
	} {
		r := mustRule(t, g, u.rule)
		var err error
		if u.add {
			err = a.AddRule(r)
		} else {
			err = a.DeleteRule(r)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkAutoParity(t, a, g, fmt.Sprintf("after %v %s", map[bool]string{true: "adding", false: "deleting"}[u.add], u.rule))
	}
}

// TestCapsOfAutoIsUnionOfSelectable pins CapsOf(KindAuto) to what auto
// can deliver: the union of the rows of the kinds it selects.
func TestCapsOfAutoIsUnionOfSelectable(t *testing.T) {
	var union Caps
	u := reflect.ValueOf(&union).Elem()
	for _, k := range []Kind{KindLALR, KindGLR} {
		c := reflect.ValueOf(CapsOf(k))
		for i := 0; i < u.NumField(); i++ {
			u.Field(i).SetBool(u.Field(i).Bool() || c.Field(i).Bool())
		}
	}
	if got := CapsOf(KindAuto); got != union {
		t.Errorf("CapsOf(auto) = %+v, want the union of lalr and glr: %+v", got, union)
	}
}

// llNotLALRText is the textbook grammar that is LL(1) but not LALR(1):
// E and F both derive the empty A, and the two LR(1) states that reduce
// A to E or F, reached before and after "(", expect "]" and ")" the
// other way round. LALR(1) merges them into two reduce/reduce
// conflicts; LL(1) predicts each alternative from its first terminal
// or its FOLLOW set.
const llNotLALRText = `
START ::= S
S ::= "(" X | E "]" | F ")"
X ::= E ")" | F "]"
E ::= A
F ::= A
A ::= ε
`

// TestAutoServesLLNotLALRWithGLR pins the two-way verdict on a grammar
// only the LL(1) prediction table finds deterministic: the probe and
// auto select lazy GLR, and auto agrees with an explicit ll engine on
// acceptance and tree count for every sentence of up to three tokens.
func TestAutoServesLLNotLALRWithGLR(t *testing.T) {
	g := grammar.MustParse(llNotLALRText)
	if k, reason := Probe(g); k != KindGLR {
		t.Fatalf("Probe selects %v (%s), want glr", k, reason)
	}
	a := NewAuto(g)
	if k := a.Kind(); k != KindGLR {
		t.Fatalf("auto serves %v (%s), want glr", k, a.Reason())
	}
	llEng, err := NewLL(g, "requested")
	if err != nil {
		t.Fatal(err)
	}
	var terms []grammar.Symbol
	for _, s := range g.Symbols().Terminals() {
		if s != grammar.EOF {
			terms = append(terms, s)
		}
	}
	sentences := [][]grammar.Symbol{{}}
	for n, from := 0, 0; n < 3; n++ {
		to := len(sentences)
		for _, prefix := range sentences[from:to] {
			for _, s := range terms {
				sentences = append(sentences, append(slices.Clip(prefix), s))
			}
		}
		from = to
	}
	accepted := 0
	for _, input := range sentences {
		name := g.Symbols().NamesOf(input)
		got, err := a.Parse(input, true)
		if err != nil {
			t.Fatalf("auto %s: %v", name, err)
		}
		want, err := llEng.Parse(input, true)
		if err != nil {
			t.Fatalf("ll %s: %v", name, err)
		}
		if got.Accepted != want.Accepted {
			t.Fatalf("%s: auto accepted=%v, ll accepted=%v", name, got.Accepted, want.Accepted)
		}
		if !got.Accepted {
			continue
		}
		accepted++
		gotTrees, err := forest.TreeCount(got.Root)
		if err != nil {
			t.Fatal(err)
		}
		wantTrees, err := forest.TreeCount(want.Root)
		if err != nil {
			t.Fatal(err)
		}
		if gotTrees != wantTrees {
			t.Errorf("%s: auto counts %d trees, ll %d", name, gotTrees, wantTrees)
		}
	}
	if accepted != 4 {
		t.Errorf("%d of %d sentences accepted, want the language's 4", accepted, len(sentences))
	}
}
