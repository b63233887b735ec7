package grammar

import (
	"errors"
	"strings"
	"testing"
)

func boolGrammar(t *testing.T) *Grammar {
	t.Helper()
	g, err := Parse(`
B ::= "true"
B ::= "false"
B ::= B "or" B
B ::= B "and" B
START ::= B
`, nil)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return g
}

func TestGrammarBasics(t *testing.T) {
	g := boolGrammar(t)
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b, ok := g.Symbols().Lookup("B")
	if !ok {
		t.Fatal("B not interned")
	}
	if g.Symbols().Kind(b) != Nonterminal {
		t.Error("B should be a nonterminal")
	}
	if n := len(g.RulesFor(b)); n != 4 {
		t.Errorf("RulesFor(B) = %d rules, want 4", n)
	}
	if n := len(g.RulesFor(g.Start())); n != 1 {
		t.Errorf("RulesFor(START) = %d rules, want 1", n)
	}
}

func TestAddRuleVersioning(t *testing.T) {
	g := boolGrammar(t)
	v := g.Version()
	b, _ := g.Symbols().Lookup("B")
	unknown := g.Symbols().MustIntern("unknown", Terminal)
	if err := g.AddRule(NewRule(b, unknown)); err != nil {
		t.Fatalf("AddRule: %v", err)
	}
	if g.Version() != v+1 {
		t.Errorf("Version not incremented: %d -> %d", v, g.Version())
	}
	if g.Len() != 6 {
		t.Errorf("Len = %d, want 6", g.Len())
	}
}

func TestAddDuplicateRule(t *testing.T) {
	g := boolGrammar(t)
	b, _ := g.Symbols().Lookup("B")
	tr, _ := g.Symbols().Lookup("true")
	err := g.AddRule(NewRule(b, tr))
	if !errors.Is(err, ErrDuplicateRule) {
		t.Fatalf("want ErrDuplicateRule, got %v", err)
	}
	if g.Len() != 5 {
		t.Errorf("duplicate add changed rule count")
	}
}

func TestDeleteRule(t *testing.T) {
	g := boolGrammar(t)
	b, _ := g.Symbols().Lookup("B")
	and, _ := g.Symbols().Lookup("and")
	v := g.Version()
	stored, err := g.DeleteRule(NewRule(b, b, and, b))
	if err != nil {
		t.Fatalf("DeleteRule: %v", err)
	}
	if stored == nil || stored.Lhs != b {
		t.Fatalf("DeleteRule returned %v", stored)
	}
	if g.Version() != v+1 {
		t.Error("Version not incremented on delete")
	}
	if g.Len() != 4 {
		t.Errorf("Len = %d, want 4", g.Len())
	}
	if _, err := g.DeleteRule(NewRule(b, b, and, b)); !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("second delete: want ErrUnknownRule, got %v", err)
	}
}

func TestDeleteLastRuleForLhs(t *testing.T) {
	g := MustParse(`
START ::= A
A ::= "x"
`)
	a, _ := g.Symbols().Lookup("A")
	x, _ := g.Symbols().Lookup("x")
	if _, err := g.DeleteRule(NewRule(a, x)); err != nil {
		t.Fatal(err)
	}
	if rs := g.RulesFor(a); len(rs) != 0 {
		t.Errorf("RulesFor after delete = %v", rs)
	}
}

func TestRuleConstraints(t *testing.T) {
	g := boolGrammar(t)
	b, _ := g.Symbols().Lookup("B")
	tr, _ := g.Symbols().Lookup("true")

	if err := g.AddRule(NewRule(tr, b)); err == nil {
		t.Error("terminal LHS should be rejected")
	}
	if err := g.AddRule(NewRule(b, g.Start())); err == nil {
		t.Error("START in RHS should be rejected")
	}
	if err := g.AddRule(NewRule(b, EOF)); err == nil {
		t.Error("$ in RHS should be rejected")
	}
	if err := g.AddRule(NewRule(b, Symbol(4096))); err == nil {
		t.Error("foreign symbol in RHS should be rejected")
	}
	if err := g.AddRule(nil); err == nil {
		t.Error("nil rule should be rejected")
	}
}

func TestValidateNoStart(t *testing.T) {
	g := New(nil)
	if err := g.Validate(); err == nil {
		t.Fatal("grammar without START rule should not validate")
	}
}

func TestClone(t *testing.T) {
	g := boolGrammar(t)
	c := g.Clone()
	if c.Len() != g.Len() {
		t.Fatalf("clone has %d rules, want %d", c.Len(), g.Len())
	}
	b, _ := g.Symbols().Lookup("B")
	xor := g.Symbols().MustIntern("xor", Terminal)
	if err := c.AddRule(NewRule(b, b, xor, b)); err != nil {
		t.Fatalf("AddRule on clone: %v", err)
	}
	if g.Len() != 5 {
		t.Error("mutating clone changed original")
	}
	if c.Symbols() != g.Symbols() {
		t.Error("clone should share the symbol table")
	}
}

func TestAddAllComposition(t *testing.T) {
	st := NewSymbolTable()
	base, err := Parse(`
START ::= E
E ::= "x"
`, st)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Parse(`
START ::= E
E ::= E "+" E
E ::= "x"
`, st)
	if err != nil {
		t.Fatal(err)
	}
	n, err := base.AddAll(ext)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("AddAll added %d rules, want 1 (duplicates skipped)", n)
	}
	if base.Len() != 3 {
		t.Errorf("composed grammar has %d rules, want 3", base.Len())
	}
	// Different symbol tables must be rejected.
	other := MustParse(`START ::= "y"`)
	if _, err := base.AddAll(other); err == nil {
		t.Error("AddAll across symbol tables should fail")
	}
}

func TestGrammarString(t *testing.T) {
	g := MustParse(`
START ::= E
E ::= E "+" E | "x"
`)
	s := g.String()
	for _, want := range []string{`START ::= E`, `E ::= E "+" E`, `E ::= "x"`} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestLookupCanonicalRule(t *testing.T) {
	g := boolGrammar(t)
	b, _ := g.Symbols().Lookup("B")
	tr, _ := g.Symbols().Lookup("true")
	mine := NewRule(b, tr)
	stored, ok := g.Lookup(mine)
	if !ok {
		t.Fatal("Lookup failed for present rule")
	}
	if stored == mine {
		t.Error("Lookup should return the grammar's own instance")
	}
	if !stored.Equal(mine) {
		t.Error("stored rule not equal to probe")
	}
}

func TestEpsilonRule(t *testing.T) {
	g := MustParse(`
START ::= A
A ::= ε
A ::= "x" A
`)
	a, _ := g.Symbols().Lookup("A")
	var eps *Rule
	for _, r := range g.RulesFor(a) {
		if r.Len() == 0 {
			eps = r
		}
	}
	if eps == nil {
		t.Fatal("epsilon rule not parsed")
	}
	if got := eps.String(g.Symbols()); got != "A ::= ε" {
		t.Errorf("epsilon rule formats as %q", got)
	}
}

// TestRuleIDs checks rule identity: equal rules of one symbol table get
// one ID when they enter a grammar, a deleted rule's ID comes back with
// an equal rule, and a rule another table interned is copied, its ID
// left alone.
func TestRuleIDs(t *testing.T) {
	g := boolGrammar(t)
	syms := g.Symbols()
	b, _ := syms.Lookup("B")
	tr, _ := syms.Lookup("true")
	stored, _ := g.Lookup(NewRule(b, tr))
	id := stored.ID()
	if id == 0 {
		t.Fatal("a grammar's rule has no ID")
	}
	fresh := NewRule(b, tr)
	if fresh.ID() != 0 || syms.RuleID(fresh) != id || !fresh.Equal(stored) || !stored.Equal(fresh) {
		t.Errorf("fresh equal rule: ID %d, RuleID %d (want 0, %d), Equal %v/%v",
			fresh.ID(), syms.RuleID(fresh), id, fresh.Equal(stored), stored.Equal(fresh))
	}
	seen := map[uint32]bool{}
	for _, r := range g.Rules() {
		if seen[r.ID()] {
			t.Errorf("two rules share ID %d", r.ID())
		}
		seen[r.ID()] = true
	}
	if _, err := g.DeleteRule(fresh); err != nil {
		t.Fatal(err)
	}
	if err := g.AddRule(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.ID() != id {
		t.Errorf("re-added rule got ID %d, want %d", fresh.ID(), id)
	}

	other := New(nil)
	ob := other.Symbols().MustIntern("B", Nonterminal)
	other.Symbols().MustIntern("true", Terminal)
	if ob != b {
		t.Fatalf("test needs equal symbol numbering, got B = %d and %d", ob, b)
	}
	if err := other.AddRule(fresh); err != nil {
		t.Fatal(err)
	}
	copied, _ := other.Lookup(fresh)
	if copied == fresh || copied.ID() == 0 || fresh.ID() != id {
		t.Errorf("rule added over another table: stored %p (added %p), IDs %d and %d (want %d)",
			copied, fresh, copied.ID(), fresh.ID(), id)
	}
}
