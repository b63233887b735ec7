package engine

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/ll"
	"ipg/internal/lr"
)

// loadFixture reads a BNF grammar from the repository testdata.
func loadFixture(t testing.TB, name string) *grammar.Grammar {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	g, err := grammar.Parse(string(src), nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return g
}

const ambiguousText = `
START ::= E
E ::= E "+" E | "n"
`

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"", KindDefault},
		{"default", KindDefault},
		{"glr", KindGLR},
		{"lazy-glr", KindGLR},
		{"lalr", KindLALR},
		{"lalr1", KindLALR},
		{"yacc", KindLALR},
		{"ll", KindLL},
		{"ll(1)", KindLL},
		{"earley", KindEarley},
		{"auto", KindAuto},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseKind("cyk"); err == nil {
		t.Error("ParseKind accepted an unknown engine name")
	}
}

func TestEveryEngineParsesTheCalculator(t *testing.T) {
	sentences := []struct {
		input string
		want  bool
	}{
		{"n", true},
		{"n + n * n", true},
		{"( n + n ) * n - n / n", true},
		{"n +", false},
		{"* n", false},
		{"( n", false},
		{"", false},
	}
	for _, tc := range []struct {
		kind    Kind
		fixture string
	}{
		{KindGLR, "CalcDet.bnf"},
		{KindLALR, "CalcDet.bnf"},
		{KindEarley, "CalcDet.bnf"},
		{KindAuto, "CalcDet.bnf"},
		{KindLL, "CalcLL.bnf"}, // CalcDet is left-recursive; LL needs the factored variant
	} {
		g := loadFixture(t, tc.fixture)
		e, err := New(tc.kind, g)
		if err != nil {
			t.Fatalf("New(%v): %v", tc.kind, err)
		}
		for _, s := range sentences {
			res, err := e.Parse(fixtures.Tokens(g, s.input), true)
			if err != nil {
				t.Fatalf("%v.Parse(%q): %v", tc.kind, s.input, err)
			}
			if res.Accepted != s.want {
				t.Errorf("%v.Parse(%q) accepted=%v, want %v", tc.kind, s.input, res.Accepted, s.want)
			}
			if s.want && e.Caps().Trees && res.Root == nil {
				t.Errorf("%v.Parse(%q): no tree despite Caps().Trees", tc.kind, s.input)
			}
			if !s.want && res.ErrorPos < 0 {
				t.Errorf("%v.Parse(%q): rejection without an error position", tc.kind, s.input)
			}
			ok, err := e.Recognize(fixtures.Tokens(g, s.input))
			if err != nil || ok != s.want {
				t.Errorf("%v.Recognize(%q) = %v, %v; want %v", tc.kind, s.input, ok, err, s.want)
			}
		}
		if c := e.Counters(); c.ParsesServed == 0 {
			t.Errorf("%v: ParsesServed = 0 after %d parses", tc.kind, 2*len(sentences))
		}
	}
}

func TestLLRejectsNonLL1Grammar(t *testing.T) {
	g := loadFixture(t, "CalcDet.bnf")
	if _, err := NewLL(g, "requested"); !errors.Is(err, ll.ErrNotLL1) {
		t.Fatalf("NewLL on a left-recursive grammar: err = %v, want ErrNotLL1", err)
	}
}

func TestAutoSelectsLALRForDeterministicCalc(t *testing.T) {
	g := loadFixture(t, "CalcDet.bnf")
	e := NewAuto(g)
	if e.Kind() != KindLALR {
		t.Fatalf("auto picked %v for the calculator, want lalr (reason %q)", e.Kind(), e.Reason())
	}
	if !strings.Contains(e.Reason(), "conflict-free") {
		t.Errorf("selection reason %q does not explain the conflict-free verdict", e.Reason())
	}
}

func TestAutoSelectsGLRForAmbiguousGrammar(t *testing.T) {
	g := grammar.MustParse(ambiguousText)
	e := NewAuto(g)
	if e.Kind() != KindGLR {
		t.Fatalf("auto picked %v for an ambiguous grammar, want glr (reason %q)", e.Kind(), e.Reason())
	}
	if !strings.Contains(e.Reason(), "conflict") {
		t.Errorf("selection reason %q does not mention the conflicts", e.Reason())
	}
	res, err := e.Parse(fixtures.Tokens(g, "n + n + n"), true)
	if err != nil || !res.Accepted {
		t.Fatalf("auto/GLR parse failed: %v accepted=%v", err, res.Accepted)
	}
	if res.Root == nil {
		t.Fatal("auto/GLR built no forest")
	}
}

// TestAutoKeepsRegistrationVerdict pins that auto probes once: New
// returns the concrete engine the probe picked, and rule updates keep it
// whichever way they move the grammar across the LALR(1) boundary. An
// LALR engine whose table gains conflicts counts them in its reason and
// drives the GSS parser over its table, agreeing with lazy GLR.
func TestAutoKeepsRegistrationVerdict(t *testing.T) {
	g := loadFixture(t, "CalcDet.bnf")
	e, err := New(KindAuto, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*LALR); !ok {
		t.Fatalf("New(auto) built a %T for the calculator, want *LALR", e)
	}
	mod, err := grammar.Parse(`E ::= E "+" E`, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	rule := mod.Rules()[0]
	if err := e.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	if k, _ := Probe(g.Clone()); k != KindGLR {
		t.Fatalf("a fresh probe of the ambiguous calculator selects %v, want glr", k)
	}
	if e.Kind() != KindLALR {
		t.Fatalf("after the ambiguous rule: %v serves, want lalr (reason %q)", e.Kind(), e.Reason())
	}
	if !strings.Contains(e.Reason(), "LALR(1) conflicts") {
		t.Errorf("reason %q does not name the conflicts the update added", e.Reason())
	}
	ref := NewGLR(g.Clone(), "requested")
	input := fixtures.Tokens(g, "n + n + n")
	got, err := e.Parse(input, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Parse(input, true)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Accepted || !want.Accepted {
		t.Fatalf("n + n + n: auto accepted=%v, glr accepted=%v; want both", got.Accepted, want.Accepted)
	}
	gotTrees, err := forest.TreeCount(got.Root)
	if err != nil {
		t.Fatal(err)
	}
	wantTrees, err := forest.TreeCount(want.Root)
	if err != nil {
		t.Fatal(err)
	}
	if gotTrees != wantTrees || gotTrees < 2 {
		t.Errorf("n + n + n: auto counts %d trees, glr %d; want the same ambiguity", gotTrees, wantTrees)
	}

	if err := e.DeleteRule(rule); err != nil {
		t.Fatal(err)
	}
	if e.Kind() != KindLALR {
		t.Fatalf("after deleting the rule: %v serves, want lalr (reason %q)", e.Kind(), e.Reason())
	}

	amb := grammar.MustParse(ambiguousText)
	e, err = New(KindAuto, amb)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*GLR); !ok {
		t.Fatalf("New(auto) built a %T for an ambiguous grammar, want *GLR", e)
	}
	mod, err = grammar.Parse(`E ::= E "+" E`, amb.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteRule(mod.Rules()[0]); err != nil {
		t.Fatal(err)
	}
	if k, _ := Probe(amb.Clone()); k != KindLALR {
		t.Fatalf("a fresh probe of the disambiguated grammar selects %v, want lalr", k)
	}
	if e.Kind() != KindGLR {
		t.Fatalf("after deleting the ambiguous rule: %v serves, want glr (reason %q)", e.Kind(), e.Reason())
	}
}

func TestSnapshotterOf(t *testing.T) {
	det := loadFixture(t, "CalcDet.bnf")
	amb := grammar.MustParse(ambiguousText)

	glrEng, _ := New(KindGLR, grammar.MustParse(ambiguousText))
	if SnapshotterOf(glrEng) == nil {
		t.Error("GLR engine must support snapshots")
	}
	lalrEng, _ := New(KindLALR, det)
	if SnapshotterOf(lalrEng) != nil {
		t.Error("LALR engine must not claim snapshot support")
	}
	if s := SnapshotterOf(NewAuto(det)); s != nil {
		t.Error("auto→LALR must not claim snapshot support")
	}
	if s := SnapshotterOf(NewAuto(amb)); s == nil {
		t.Error("auto→GLR must support snapshots")
	}
}

func TestGLRSnapshotRoundTrip(t *testing.T) {
	g := grammar.MustParse(ambiguousText)
	e := NewGLR(g, "requested")
	if _, err := e.Parse(fixtures.Tokens(g, "n + n"), true); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cov, err := e.SaveTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Complete == 0 {
		t.Fatal("no states expanded before the snapshot")
	}

	g2 := grammar.MustParse(ambiguousText)
	auto, err := lr.Load(g2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewGLR(g2, "requested")
	e2.RestoreTable(auto)
	info := e2.TableInfo()
	if info.Complete != cov.Complete {
		t.Fatalf("restored table has %d complete states, snapshot had %d", info.Complete, cov.Complete)
	}
	res, err := e2.Parse(fixtures.Tokens(g2, "n + n"), true)
	if err != nil || !res.Accepted {
		t.Fatalf("restored engine parse: %v accepted=%v", err, res.Accepted)
	}
	if got := e2.Counters().StatesExpanded; got != 0 {
		t.Errorf("restored engine expanded %d states re-parsing a covered sentence, want 0", got)
	}
}

func TestGeneratorOf(t *testing.T) {
	amb := grammar.MustParse(ambiguousText)
	if GeneratorOf(NewGLR(amb, "requested")) == nil {
		t.Error("GeneratorOf(GLR) = nil")
	}
	if GeneratorOf(NewAuto(amb)) == nil {
		t.Error("GeneratorOf(auto→GLR) = nil")
	}
	det := loadFixture(t, "CalcDet.bnf")
	if GeneratorOf(NewLALR(det, "requested")) != nil {
		t.Error("GeneratorOf(LALR) != nil")
	}
}

func TestLALRRepairsOnRuleUpdate(t *testing.T) {
	g := loadFixture(t, "CalcDet.bnf")
	e := NewLALR(g, "requested")
	before := e.Counters()
	tblBefore := e.Table()

	mod, err := grammar.Parse(`F ::= "id"`, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(mod.Rules()[0]); err != nil {
		t.Fatal(err)
	}
	after := e.Counters()
	if after.StatesRepaired == before.StatesRepaired {
		t.Error("rule update did not record the in-place repair")
	}
	if after.RepairFallbacks != 0 {
		t.Errorf("adding F ::= id fell back to regeneration (%d fallbacks)", after.RepairFallbacks)
	}
	if e.Table() != tblBefore {
		t.Error("repair replaced the table value; published pointers were invalidated")
	}
	if !strings.Contains(e.Reason(), "repaired in place") {
		t.Errorf("Reason() = %q, want it to record the repair", e.Reason())
	}
	res, err := e.Parse(fixtures.Tokens(g, "id + n"), false)
	if err != nil || !res.Accepted {
		t.Fatalf("parse with the new rule: %v accepted=%v", err, res.Accepted)
	}
}

func TestLLRepairsOnRuleUpdate(t *testing.T) {
	g := loadFixture(t, "CalcLL.bnf")
	e, err := NewLL(g, "requested")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := grammar.Parse(`F ::= "id"`, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(mod.Rules()[0]); err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().StatesRepaired; got == 0 {
		t.Error("rule update did not record any repaired prediction rows")
	}
	if !strings.Contains(e.Reason(), "repaired in place") {
		t.Errorf("Reason() = %q, want it to record the repair", e.Reason())
	}
	res, err := e.Parse(fixtures.Tokens(g, "id + n"), false)
	if err != nil || !res.Accepted {
		t.Fatalf("parse with the new rule: %v accepted=%v", err, res.Accepted)
	}
}

func TestLLRollsBackConflictingRule(t *testing.T) {
	g := loadFixture(t, "CalcLL.bnf")
	e, err := NewLL(g, "requested")
	if err != nil {
		t.Fatal(err)
	}
	// Left recursion on E makes the grammar non-LL(1); the engine must
	// roll the rule back and keep serving the old table.
	bad, err := grammar.Parse(`E ::= E "+" E`, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(bad.Rules()[0]); !errors.Is(err, ll.ErrNotLL1) {
		t.Fatalf("AddRule(conflicting) err = %v, want ErrNotLL1", err)
	}
	if g.Has(bad.Rules()[0]) {
		t.Fatal("conflicting rule was not rolled back")
	}
	res, err := e.Parse(fixtures.Tokens(g, "n + n"), true)
	if err != nil || !res.Accepted {
		t.Fatalf("engine broken after rollback: %v accepted=%v", err, res.Accepted)
	}
}

// TestAutoKeepsLALRUnderChurn pins that a burst of rule updates with no
// parse traffic keeps a deterministic grammar on the LALR fast path:
// each update is absorbed by an in-place repair of the serving table,
// not a regeneration.
func TestAutoKeepsLALRUnderChurn(t *testing.T) {
	g := loadFixture(t, "CalcDet.bnf")
	e := NewAuto(g)
	if e.Kind() != KindLALR {
		t.Fatalf("initial selection %v, want lalr", e.Kind())
	}

	mod, err := grammar.Parse(`F ::= "id"`, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	rule := mod.Rules()[0]
	for i := 0; i < 6; i++ {
		if err := e.AddRule(rule); err != nil {
			t.Fatal(err)
		}
		if err := e.DeleteRule(rule); err != nil {
			t.Fatal(err)
		}
	}
	if e.Kind() != KindLALR {
		t.Fatalf("after heavy churn: selection %v, want lalr (reason %q)", e.Kind(), e.Reason())
	}
	if !strings.Contains(e.Reason(), "repaired in place") {
		t.Errorf("selection reason %q does not record the repairs", e.Reason())
	}
	c := e.Counters()
	if c.StatesRepaired == 0 {
		t.Error("churn burst recorded no repaired states")
	}
	if c.RepairFallbacks != 0 {
		t.Errorf("churn burst fell back to regeneration %d times", c.RepairFallbacks)
	}
	res, err := e.Parse(fixtures.Tokens(g, "n + n * n"), true)
	if err != nil || !res.Accepted || res.Root == nil {
		t.Fatalf("post-churn parse: err=%v accepted=%v root=%v", err, res.Accepted, res.Root)
	}
}
