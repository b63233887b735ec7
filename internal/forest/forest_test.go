package forest

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ipg/internal/grammar"
)

func exprFixture(t *testing.T) (*grammar.Grammar, *Forest) {
	t.Helper()
	g := grammar.MustParse(`
START ::= B
B ::= "true" | "false"
B ::= B "or" B
`)
	return g, NewForest()
}

func symbols(g *grammar.Grammar, names ...string) []grammar.Symbol {
	out := make([]grammar.Symbol, len(names))
	for i, n := range names {
		s, ok := g.Symbols().Lookup(n)
		if !ok {
			panic("unknown symbol " + n)
		}
		out[i] = s
	}
	return out
}

func TestLeafSharing(t *testing.T) {
	g, f := exprFixture(t)
	tr := symbols(g, "true")[0]
	a := f.Leaf(tr, 0)
	b := f.Leaf(tr, 0)
	if a != b {
		t.Error("identical leaves not shared")
	}
	c := f.Leaf(tr, 1)
	if a == c {
		t.Error("leaves at different positions should differ")
	}
	if f.NodeCount() != 2 {
		t.Errorf("NodeCount = %d, want 2", f.NodeCount())
	}
}

func TestRuleSharing(t *testing.T) {
	g, f := exprFixture(t)
	b, _ := g.Symbols().Lookup("B")
	tr := symbols(g, "true")[0]
	var unitRule *grammar.Rule
	for _, r := range g.RulesFor(b) {
		if r.Len() == 1 && r.Rhs[0] == tr {
			unitRule = r
		}
	}
	leaf := f.Leaf(tr, 0)
	n1 := f.Rule(unitRule, []*Node{leaf})
	n2 := f.Rule(unitRule, []*Node{leaf})
	if n1 != n2 {
		t.Error("identical rule nodes not shared")
	}
	if n1.Symbol() != b || n1.Rule() != unitRule {
		t.Error("rule node fields wrong")
	}
}

func TestRuleArityCheck(t *testing.T) {
	g, f := exprFixture(t)
	b, _ := g.Symbols().Lookup("B")
	tr := symbols(g, "true")[0]
	var unitRule *grammar.Rule
	for _, r := range g.RulesFor(b) {
		if r.Len() == 1 && r.Rhs[0] == tr {
			unitRule = r
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong arity should panic")
		}
	}()
	f.Rule(unitRule, nil)
}

func buildAmbForest(t *testing.T) (*grammar.Grammar, *Forest, *Node) {
	t.Helper()
	g, f := exprFixture(t)
	b, _ := g.Symbols().Lookup("B")
	var unit, orRule *grammar.Rule
	tr := symbols(g, "true")[0]
	for _, r := range g.RulesFor(b) {
		switch {
		case r.Len() == 1 && r.Rhs[0] == tr:
			unit = r
		case r.Len() == 3:
			orRule = r
		}
	}
	or := symbols(g, "or")[0]
	// true or true or true, both associations.
	t0 := f.Rule(unit, []*Node{f.Leaf(tr, 0)})
	t2 := f.Rule(unit, []*Node{f.Leaf(tr, 2)})
	t4 := f.Rule(unit, []*Node{f.Leaf(tr, 4)})
	o1, o3 := f.Leaf(or, 1), f.Leaf(or, 3)
	left := f.Rule(orRule, []*Node{f.Rule(orRule, []*Node{t0, o1, t2}), o3, t4})
	right := f.Rule(orRule, []*Node{t0, o1, f.Rule(orRule, []*Node{t2, o3, t4})})
	root := f.Ambiguity(left, right)
	return g, f, root
}

func TestAmbiguityBasics(t *testing.T) {
	g, f, root := buildAmbForest(t)
	if root.Kind() != Amb || len(root.Alts()) != 2 {
		t.Fatalf("root is %v with %d alts", root.Kind(), len(root.Alts()))
	}
	n, err := TreeCount(root)
	if err != nil || n != 2 {
		t.Fatalf("TreeCount = %d, %v", n, err)
	}
	s := String(root, g.Symbols())
	if !strings.Contains(s, "|") || !strings.HasPrefix(s, "{") {
		t.Errorf("ambiguity renders as %s", s)
	}
	_ = f
}

func TestAmbiguitySingleCollapses(t *testing.T) {
	g, f := exprFixture(t)
	tr := symbols(g, "true")[0]
	leaf := f.Leaf(tr, 0)
	if f.Ambiguity(leaf) != leaf {
		t.Error("single-alternative Ambiguity should return the alternative")
	}
	if f.Ambiguity(leaf, leaf) != leaf {
		t.Error("duplicate alternatives should collapse")
	}
}

func TestAmbiguityFlattens(t *testing.T) {
	g, f := exprFixture(t)
	tr := symbols(g, "true")[0]
	fa := symbols(g, "false")[0]
	l1, l2, l3 := f.Leaf(tr, 0), f.Leaf(fa, 0), f.Leaf(tr, 1)
	inner := f.Ambiguity(l1, l2)
	outer := f.Ambiguity(inner, l3)
	if len(outer.Alts()) != 3 {
		t.Errorf("nested ambiguity should flatten: %d alts", len(outer.Alts()))
	}
}

// TestSlotAndPack packs alternatives into an ambiguity node: a new
// alternative extends it in place, a duplicate is dropped, and packing
// another ambiguity node merges its alternatives.
func TestSlotAndPack(t *testing.T) {
	g, f := exprFixture(t)
	tr := symbols(g, "true")[0]
	fa := symbols(g, "false")[0]
	l1, l2, l3, l4 := f.Leaf(tr, 0), f.Leaf(fa, 0), f.Leaf(tr, 1), f.Leaf(fa, 1)
	slot := f.Ambiguity(l1, l2)
	id := slot.ID()
	f.Pack(slot, l3)
	if slot.Kind() != Amb || len(slot.Alts()) != 3 || slot.ID() != id {
		t.Fatalf("Pack did not extend the ambiguity node in place: %v #%d with %d alts", slot.Kind(), slot.ID(), len(slot.Alts()))
	}
	f.Pack(slot, l3) // duplicate
	f.Pack(slot, slot)
	if len(slot.Alts()) != 3 {
		t.Errorf("Pack should deduplicate: %d alts", len(slot.Alts()))
	}
	// Packing an amb merges its alternatives.
	f.Pack(slot, f.Ambiguity(l1, l3))
	if len(slot.Alts()) != 3 {
		t.Errorf("packing an amb with known alts should not grow the node: %d alts", len(slot.Alts()))
	}
	f.Pack(slot, f.Ambiguity(l2, l4))
	if len(slot.Alts()) != 4 || slot.Alts()[3] != l4 {
		t.Errorf("packing an amb should add its new alternatives: %d alts", len(slot.Alts()))
	}
	if got := String(slot, g.Symbols()); got != "{false | false | true | true}" {
		t.Errorf("packed node renders as %q", got)
	}
}

func TestPackNonAmbPanics(t *testing.T) {
	g, f := exprFixture(t)
	tr := symbols(g, "true")[0]
	leaf := f.Leaf(tr, 0)
	defer func() {
		if recover() == nil {
			t.Error("Pack into a leaf should panic")
		}
	}()
	f.Pack(leaf, leaf)
}

// TestPackPromotesInPlace packs a second derivation into a rule node
// that a parent already references: the parent sees both derivations,
// the original moves to a fresh node, and Rule hands out that copy from
// then on.
func TestPackPromotesInPlace(t *testing.T) {
	g, f := exprFixture(t)
	b, _ := g.Symbols().Lookup("B")
	tr := symbols(g, "true")[0]
	or := symbols(g, "or")[0]
	var unit, orRule *grammar.Rule
	for _, r := range g.RulesFor(b) {
		switch {
		case r.Len() == 1 && r.Rhs[0] == tr:
			unit = r
		case r.Len() == 3:
			orRule = r
		}
	}
	start, _ := g.Symbols().Lookup("START")
	var top *grammar.Rule
	for _, r := range g.RulesFor(start) {
		top = r
	}
	// true or true or true: the left-nested derivation first, with a
	// parent START node built over it.
	t0 := f.Rule(unit, []*Node{f.Leaf(tr, 0)})
	t2 := f.Rule(unit, []*Node{f.Leaf(tr, 2)})
	t4 := f.Rule(unit, []*Node{f.Leaf(tr, 4)})
	o1, o3 := f.Leaf(or, 1), f.Leaf(or, 3)
	left := f.Rule(orRule, []*Node{f.Rule(orRule, []*Node{t0, o1, t2}), o3, t4})
	parent := f.Rule(top, []*Node{left})
	if n, _ := TreeCount(parent); n != 1 {
		t.Fatalf("TreeCount before packing = %d, want 1", n)
	}
	leftID := left.ID()

	right := f.Rule(orRule, []*Node{t0, o1, f.Rule(orRule, []*Node{t2, o3, t4})})
	f.Pack(left, right)
	if left.Kind() != Amb || len(left.Alts()) != 2 || left.ID() != leftID {
		t.Fatalf("promoted node is %v #%d with %d alts, want amb #%d with 2", left.Kind(), left.ID(), len(left.Alts()), leftID)
	}
	if n, err := TreeCount(parent); err != nil || n != 2 {
		t.Errorf("parent built before packing counts %d trees (%v), want 2", n, err)
	}
	if got := String(parent, g.Symbols()); !strings.HasPrefix(got, "START({") || !strings.Contains(got, " | ") {
		t.Errorf("parent renders as %s", got)
	}
	moved := left.Alts()[0]
	if moved.Kind() != RuleNode || moved.Rule() != orRule {
		t.Fatalf("first alternative is %v, want the moved rule node", moved.Kind())
	}
	// The index re-points to the moved copy: the same derivation interns
	// to it, and packing it again is a no-op.
	again := f.Rule(orRule, moved.Children())
	if again != moved {
		t.Error("Rule does not return the moved copy of a promoted node")
	}
	f.Pack(left, again)
	f.Pack(left, right)
	if len(left.Alts()) != 2 {
		t.Errorf("duplicate packs grew the node to %d alts", len(left.Alts()))
	}
	if !left.Holds(orRule, moved.Children()) || !left.Holds(orRule, right.Children()) {
		t.Error("promoted node does not hold both derivations")
	}
}

func TestYield(t *testing.T) {
	g, _, root := buildAmbForest(t)
	y, err := Yield(root)
	if err != nil {
		t.Fatal(err)
	}
	names := g.Symbols().NamesOf(y)
	if names != "true or true or true" {
		t.Errorf("yield = %s", names)
	}
}

func TestTrees(t *testing.T) {
	g, _, root := buildAmbForest(t)
	all, err := Trees(root, g.Symbols(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("Trees enumerated %d, want 2: %v", len(all), all)
	}
	limited, err := Trees(root, g.Symbols(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 1 {
		t.Errorf("limit not respected: %d", len(limited))
	}
}

func TestTreeCountSaturates(t *testing.T) {
	g, f := exprFixture(t)
	tr := symbols(g, "true")[0]
	// Build a chain of ambiguity nodes each doubling the count: 2^70
	// saturates at MaxInt64.
	b, _ := g.Symbols().Lookup("B")
	var unit, orRule *grammar.Rule
	for _, r := range g.RulesFor(b) {
		if r.Len() == 1 && r.Rhs[0] == tr {
			unit = r
		}
		if r.Len() == 3 {
			orRule = r
		}
	}
	or := symbols(g, "or")[0]
	// Each level doubles the tree count: amb of two distinct derivations
	// of the same span, composed 70 times, saturates 2^70 > MaxInt64.
	cur := f.Ambiguity(
		f.Rule(unit, []*Node{f.Leaf(tr, 0)}),
		f.Rule(unit, []*Node{f.Leaf(tr, 1)}),
	)
	for i := 0; i < 70; i++ {
		alt1 := f.Rule(unit, []*Node{f.Leaf(tr, 2*i+2)})
		alt2 := f.Rule(unit, []*Node{f.Leaf(tr, 2*i+3)})
		cur = f.Rule(orRule, []*Node{cur, f.Leaf(or, i), f.Ambiguity(alt1, alt2)})
	}
	n, err := TreeCount(cur)
	if err != nil {
		t.Fatal(err)
	}
	if n != math.MaxInt64 {
		t.Errorf("TreeCount = %d, want saturation at MaxInt64", n)
	}
}

func TestCyclicForestDetected(t *testing.T) {
	g, f := exprFixture(t)
	b, _ := g.Symbols().Lookup("B")
	tr := symbols(g, "true")[0]
	var unit *grammar.Rule
	for _, r := range g.RulesFor(b) {
		if r.Len() == 1 && r.Rhs[0] == tr {
			unit = r
		}
	}
	leaf := f.Leaf(tr, 0)
	slot := f.Rule(unit, []*Node{leaf})
	// Create a cycle: pack an alternative whose child is the node itself.
	// (This is what parsing 'x' with A ::= A | "x" produces.)
	cyc := f.Rule(unit, []*Node{slot})
	f.Pack(slot, cyc)
	if _, err := TreeCount(slot); !errors.Is(err, ErrCyclic) {
		t.Errorf("TreeCount on cyclic forest: %v", err)
	}
	if _, err := Trees(slot, g.Symbols(), 10); !errors.Is(err, ErrCyclic) {
		t.Errorf("Trees on cyclic forest: %v", err)
	}
	if s := String(slot, g.Symbols()); !strings.Contains(s, "<cycle>") {
		t.Errorf("String on cyclic forest: %s", s)
	}
}

func TestDOT(t *testing.T) {
	g, _, root := buildAmbForest(t)
	dot := DOT(root, g.Symbols())
	for _, want := range []string{"digraph forest", "amb", "true@0"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	// Shared leaf true@0 appears exactly once.
	if strings.Count(dot, "\"true@0\"") != 1 {
		t.Error("shared leaf duplicated in DOT")
	}
}
