package engine

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipg/internal/fixtures"
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

func TestAutoReselectsAcrossModifications(t *testing.T) {
	g := loadFixture(t, "CalcDet.bnf")
	e := NewAuto(g)
	if e.Kind() != KindLALR {
		t.Fatalf("initial selection %v, want lalr", e.Kind())
	}

	// An ambiguous flat rule introduces LALR(1) conflicts: auto must move
	// the grammar onto the lazy-GLR path.
	amb, err := grammar.Parse(`E ::= E "+" E`, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Parse(fixtures.Tokens(g, "n + n"), false); err != nil {
		t.Fatal(err)
	}
	served := e.Counters().ParsesServed

	rule := amb.Rules()[0]
	if err := e.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	if e.Kind() != KindGLR {
		t.Fatalf("after ambiguous rule: selection %v, want glr (reason %q)", e.Kind(), e.Reason())
	}
	// Reselection must not reset the entry's monotonic counters.
	if got := e.Counters().ParsesServed; got < served {
		t.Fatalf("ParsesServed regressed across reselection: %d -> %d", served, got)
	}
	res, err := e.Parse(fixtures.Tokens(g, "n + n + n"), true)
	if err != nil || !res.Accepted {
		t.Fatalf("post-switch parse: %v accepted=%v", err, res.Accepted)
	}

	// Deleting it restores determinism: auto returns to LALR.
	if err := e.DeleteRule(rule); err != nil {
		t.Fatal(err)
	}
	if e.Kind() != KindLALR {
		t.Fatalf("after deleting the rule: selection %v, want lalr (reason %q)", e.Kind(), e.Reason())
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
// not a regeneration, and the verdict reads after the burst find it
// still conflict-free.
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
	// Repaired updates whose verdict visibly holds stamp the selection
	// current instead of scheduling a probe; the whole burst must not
	// have regenerated a single table.
	if got := e.Reprobes(); got != 0 {
		t.Errorf("churn burst triggered %d re-probes, want 0", got)
	}
	res, err := e.Parse(fixtures.Tokens(g, "n + n * n"), true)
	if err != nil || !res.Accepted || res.Root == nil {
		t.Fatalf("post-churn parse: err=%v accepted=%v root=%v", err, res.Accepted, res.Root)
	}
}
