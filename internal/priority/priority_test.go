package priority

import (
	"errors"
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// exprSetup builds the ambiguous expression grammar E ::= E+E | E*E | x
// and parses an input, returning the pieces the filter needs.
func exprSetup(t *testing.T, input string) (*grammar.Grammar, *forest.Forest, *forest.Node, map[string]*grammar.Rule) {
	t.Helper()
	g := grammar.MustParse(`
START ::= E
E ::= E "+" E
E ::= E "*" E
E ::= "x"
`)
	auto := lr.New(g)
	auto.GenerateAll()
	res, err := glr.Parse(auto, fixtures.Tokens(g, input), &glr.Options{Engine: glr.GSS})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("%q rejected", input)
	}
	rules := map[string]*grammar.Rule{}
	e, _ := g.Symbols().Lookup("E")
	for _, r := range g.RulesFor(e) {
		switch r.Len() {
		case 1:
			rules["x"] = r
		case 3:
			rules[g.Symbols().Name(r.Rhs[1])] = r
		}
	}
	return g, res.Forest, res.Root, rules
}

func TestPriorityFilter(t *testing.T) {
	g, f, root, rules := exprSetup(t, "x + x * x")
	before, _ := forest.TreeCount(root)
	if before != 2 {
		t.Fatalf("before: %d trees, want 2", before)
	}
	rel := New()
	rel.AddGreater(rules["*"], rules["+"]) // * binds tighter
	rel.Close()
	filtered, err := rel.Filter(f, root)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := forest.TreeCount(filtered)
	if after != 1 {
		t.Fatalf("after: %d trees, want 1\n%s", after, forest.String(filtered, g.Symbols()))
	}
	// The survivor nests + above *: E(E(x) + E(E(x) * E(x))).
	got := forest.String(filtered, g.Symbols())
	if got != "E(E(x) + E(E(x) * E(x)))" {
		t.Errorf("survivor: %s", got)
	}
}

func TestAssociativityFilter(t *testing.T) {
	g, f, root, rules := exprSetup(t, "x + x + x")
	rel := New()
	rel.SetAssoc(rules["+"], Left)
	filtered, err := rel.Filter(f, root)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := forest.TreeCount(filtered)
	if n != 1 {
		t.Fatalf("left-assoc should keep 1 tree, got %d", n)
	}
	got := forest.String(filtered, g.Symbols())
	if got != "E(E(E(x) + E(x)) + E(x))" {
		t.Errorf("left-assoc survivor: %s", got)
	}

	// Right associativity keeps the mirror image.
	_, f2, root2, rules2 := exprSetup(t, "x + x + x")
	rel2 := New()
	rel2.SetAssoc(rules2["+"], Right)
	filtered2, err := rel2.Filter(f2, root2)
	if err != nil {
		t.Fatal(err)
	}
	got2 := forest.String(filtered2, g.Symbols())
	if got2 != "E(E(x) + E(E(x) + E(x)))" {
		t.Errorf("right-assoc survivor: %s", got2)
	}
}

func TestNonAssocRemovesAll(t *testing.T) {
	_, f, root, rules := exprSetup(t, "x + x + x")
	rel := New()
	rel.SetAssoc(rules["+"], NonAssoc)
	_, err := rel.Filter(f, root)
	if !errors.Is(err, ErrNoValidParse) {
		t.Fatalf("non-assoc on x+x+x: want ErrNoValidParse, got %v", err)
	}
	// A single + is still fine.
	_, f1, root1, rules1 := exprSetup(t, "x + x")
	rel1 := New()
	rel1.SetAssoc(rules1["+"], NonAssoc)
	if _, err := rel1.Filter(f1, root1); err != nil {
		t.Errorf("non-assoc on x+x: %v", err)
	}
}

func TestTransitiveClosure(t *testing.T) {
	g := grammar.MustParse(`
START ::= E
E ::= E "+" E
E ::= E "*" E
E ::= E "^" E
E ::= "x"
`)
	e, _ := g.Symbols().Lookup("E")
	rules := map[string]*grammar.Rule{}
	for _, r := range g.RulesFor(e) {
		if r.Len() == 3 {
			rules[g.Symbols().Name(r.Rhs[1])] = r
		}
	}
	rel := New()
	rel.AddGreater(rules["^"], rules["*"])
	rel.AddGreater(rules["*"], rules["+"])
	rel.Close()
	if !rel.Forbidden(rules["^"], 0, rules["+"]) {
		t.Error("closure should derive ^ > +")
	}
}

func TestFilterPreservesSharing(t *testing.T) {
	_, f, root, rules := exprSetup(t, "x * x + x * x")
	rel := New()
	rel.AddGreater(rules["*"], rules["+"])
	rel.SetAssoc(rules["+"], Left)
	rel.Close()
	filtered, err := rel.Filter(f, root)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := forest.TreeCount(filtered)
	if n != 1 {
		t.Fatalf("want single tree, got %d", n)
	}
	y, err := forest.Yield(filtered)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 7 {
		t.Errorf("yield length %d, want 7", len(y))
	}
}

func TestEmptyRelationIsNoop(t *testing.T) {
	rel := New()
	if !rel.Empty() {
		t.Error("fresh relation should be empty")
	}
	_, f, root, _ := exprSetup(t, "x + x * x")
	filtered, err := rel.Filter(f, root)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := forest.TreeCount(root)
	a, _ := forest.TreeCount(filtered)
	if a != b {
		t.Errorf("empty relation changed tree count: %d -> %d", b, a)
	}
}

// TestFilterReturnsUnchangedNodes checks that Filter builds nothing for
// what it does not prune: with no constraint violated it returns the
// root itself, and pruning one of two derivations returns the other as
// it is.
func TestFilterReturnsUnchangedNodes(t *testing.T) {
	_, f, root, rules := exprSetup(t, "x + x * x")
	nodes := f.NodeCount()
	filtered, err := New().Filter(f, root)
	if err != nil {
		t.Fatal(err)
	}
	if filtered != root || f.NodeCount() != nodes {
		t.Errorf("empty relation: root #%d -> #%d, %d -> %d nodes", root.ID(), filtered.ID(), nodes, f.NodeCount())
	}
	rel := New()
	rel.AddGreater(rules["*"], rules["+"])
	rel.Close()
	filtered, err = rel.Filter(f, root)
	if err != nil {
		t.Fatal(err)
	}
	kept := false
	for _, a := range root.Alts() {
		kept = kept || a == filtered
	}
	if !kept || f.NodeCount() != nodes {
		t.Errorf("pruning one derivation: got #%d (an original alternative: %v), %d -> %d nodes", filtered.ID(), kept, nodes, f.NodeCount())
	}
}

func TestAssocOnNonRecursiveRuleVacuous(t *testing.T) {
	g := grammar.MustParse(`
START ::= E
E ::= "x"
`)
	e, _ := g.Symbols().Lookup("E")
	r := g.RulesFor(e)[0]
	rel := New()
	rel.SetAssoc(r, Left)
	if rel.Forbidden(r, 0, r) {
		t.Error("associativity on a non-recursive rule should be vacuous")
	}
}
