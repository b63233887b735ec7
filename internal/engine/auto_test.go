package engine

import (
	"reflect"
	"slices"
	"testing"

	"ipg/internal/forest"
	"ipg/internal/grammar"
)

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
