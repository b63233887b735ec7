package sdf

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ipg/internal/core"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/isg"
	"ipg/internal/lalr"
)

// tokenize scans src with sc (nil: the SDF scanner) and maps each
// token's sort to its terminal in syms, as internal/lang's front end
// does for every other caller; this package's tests cannot import it.
func tokenize(t *testing.T, sc *isg.Scanner, src string, syms *grammar.SymbolTable) ([]grammar.Symbol, error) {
	t.Helper()
	if sc == nil {
		var err error
		if sc, err = NewScanner(); err != nil {
			t.Fatal(err)
		}
	}
	toks, err := sc.Scan(src)
	if err != nil {
		return nil, err
	}
	out := make([]grammar.Symbol, 0, len(toks)+1)
	for _, tk := range toks {
		s, ok := syms.Lookup(tk.Sort)
		if !ok {
			return nil, fmt.Errorf("token sort %q (at %d:%d) is not a terminal", tk.Sort, tk.Line, tk.Col)
		}
		out = append(out, s)
	}
	return out, nil
}

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func TestScannerTokens(t *testing.T) {
	sc, err := NewScanner()
	if err != nil {
		t.Fatal(err)
	}
	toks, err := sc.Scan(`module X begin -- comment
lexical syntax functions [a-z] -> L "+" -> P ~[\n] -> C end X`)
	if err != nil {
		t.Fatal(err)
	}
	var sorts []string
	for _, tk := range toks {
		sorts = append(sorts, tk.Sort)
	}
	want := "module ID begin lexical syntax functions CHAR-CLASS -> ID LITERAL -> ID ~ CHAR-CLASS -> ID end ID"
	if got := strings.Join(sorts, " "); got != want {
		t.Errorf("sorts:\n got %s\nwant %s", got, want)
	}
}

func TestScannerKeywordsVsIDs(t *testing.T) {
	sc, err := NewScanner()
	if err != nil {
		t.Fatal(err)
	}
	toks, err := sc.Scan("module modules context-free context-free-x")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"module", "ID", "context-free", "ID"}
	for i, w := range want {
		if toks[i].Sort != w {
			t.Errorf("token %d: %s %q, want %s", i, toks[i].Sort, toks[i].Text, w)
		}
	}
}

func TestScannerArrowVsComment(t *testing.T) {
	sc, err := NewScanner()
	if err != nil {
		t.Fatal(err)
	}
	toks, err := sc.Scan("-> -- this is a comment\n->")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].Sort != "->" || toks[1].Sort != "->" {
		t.Errorf("tokens: %+v", toks)
	}
}

func TestBootstrapGrammarIsLALR1(t *testing.T) {
	// Section 7: "the test grammar had to be LR(1), since these are the
	// only grammars accepted by Yacc."
	g := MustBootstrapGrammar()
	tbl := lalr.Generate(g)
	if n := len(tbl.Conflicts()); n != 0 {
		t.Fatalf("bootstrap SDF grammar has %d LALR(1) conflicts:\n%s", n, tbl.String())
	}
}

// TestPaperTokenCounts pins the testdata inputs to the exact token counts
// of Fig 7.1: exp.sdf 37 tokens, Exam.sdf 166, SDF.sdf 342, ASF.sdf 475.
func TestPaperTokenCounts(t *testing.T) {
	g := MustBootstrapGrammar()
	want := map[string]int{
		"exp.sdf":  37,
		"Exam.sdf": 166,
		"SDF.sdf":  342,
		"ASF.sdf":  475,
	}
	for name, n := range want {
		toks, err := tokenize(t, nil, readTestdata(t, name), g.Symbols())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(toks) != n {
			t.Errorf("%s: %d tokens, paper says %d", name, len(toks), n)
		}
	}
}

func TestBootstrapAcceptsTestdata(t *testing.T) {
	g := MustBootstrapGrammar()
	gen := core.New(g, nil)
	for _, name := range []string{"exp.sdf", "Exam.sdf", "SDF.sdf", "ASF.sdf"} {
		toks, err := tokenize(t, nil, readTestdata(t, name), g.Symbols())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ok, err := glr.Recognize(gen, toks, glr.GSS)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ok {
			t.Errorf("%s: rejected by the bootstrap SDF grammar", name)
		}
	}
}

func TestBootstrapRejectsBrokenInput(t *testing.T) {
	g := MustBootstrapGrammar()
	gen := core.New(g, nil)
	for _, src := range []string{
		"module X begin end",                             // missing end name
		"module X context-free syntax functions end X",   // missing begin
		"module X begin context-free syntax end X",       // missing functions
		"begin context-free syntax functions -> A end X", // missing module header
	} {
		toks, err := tokenize(t, nil, src, g.Symbols())
		if err != nil {
			continue // scan errors also count as rejection
		}
		ok, err := glr.Recognize(gen, toks, glr.GSS)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("broken input accepted: %q", src)
		}
	}
}

func TestModificationRule(t *testing.T) {
	g := MustBootstrapGrammar()
	rule, err := ModificationRule(g)
	if err != nil {
		t.Fatal(err)
	}
	gen := core.New(g, nil)
	// "( CF-ELEM+ ) ?" only parses after the Fig 7.1 modification.
	src := `module M begin context-free syntax functions ( EXP "+" EXP ) ? -> EXP end M`
	toks, err := tokenize(t, nil, src, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := glr.Recognize(gen, toks, glr.GSS)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("optional-group syntax should be rejected before the modification")
	}
	if err := gen.AddRule(rule); err != nil {
		t.Fatal(err)
	}
	ok, err = glr.Recognize(gen, toks, glr.GSS)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("optional-group syntax should be accepted after the modification")
	}
	// And the normal inputs still parse.
	toks, err = tokenize(t, nil, readTestdata(t, "exp.sdf"), g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := glr.Recognize(gen, toks, glr.GSS); !ok {
		t.Error("exp.sdf rejected after the modification")
	}
}

func TestParseDefinitionExp(t *testing.T) {
	def, err := ParseDefinition(readTestdata(t, "exp.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "Exp" {
		t.Errorf("module name %q", def.Name)
	}
	if len(def.LexFuncs) != 2 || len(def.CFFuncs) != 4 {
		t.Errorf("lex %d cf %d, want 2/4", len(def.LexFuncs), len(def.CFFuncs))
	}
	if def.Layout[0] != "SPACE" {
		t.Errorf("layout: %v", def.Layout)
	}
	if got := def.CFFuncs[3].String(); got != "EXP OP EXP -> EXP" {
		t.Errorf("last function: %s", got)
	}
}

func TestParseDefinitionAllTestdata(t *testing.T) {
	for _, name := range []string{"exp.sdf", "Exam.sdf", "SDF.sdf", "ASF.sdf"} {
		def, err := ParseDefinition(readTestdata(t, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(def.CFFuncs) == 0 {
			t.Errorf("%s: no context-free functions", name)
		}
	}
}

func TestParseDefinitionErrors(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"wrong end name", "module A begin context-free syntax functions \"x\" -> E end B"},
		{"trailing junk", "module A begin context-free syntax functions \"x\" -> E end A junk"},
		{"missing arrow", "module A begin context-free syntax functions \"x\" E end A"},
		{"bad attribute", "module A begin context-free syntax functions \"x\" -> E {bogus} end A"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseDefinition(tc.src); err == nil {
				t.Errorf("expected error for %q", tc.src)
			}
		})
	}
}

func TestConvertExpEndToEnd(t *testing.T) {
	def, err := ParseDefinition(readTestdata(t, "exp.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	conv, err := Convert(def, "")
	if err != nil {
		t.Fatal(err)
	}
	if conv.StartSort != "EXP" {
		t.Errorf("start sort %q", conv.StartSort)
	}
	sc, err := conv.Scanner()
	if err != nil {
		t.Fatal(err)
	}
	gen := core.New(conv.Grammar, nil)
	for _, tc := range []struct {
		input string
		want  bool
	}{
		{"1 + 2 * 3", true},
		{"7", true},
		{"1 +", false},
		{"+ 1", false},
	} {
		toks, err := tokenize(t, sc, tc.input, conv.Grammar.Symbols())
		if err != nil {
			t.Fatalf("%q: %v", tc.input, err)
		}
		ok, err := glr.Recognize(gen, toks, glr.GSS)
		if err != nil {
			t.Fatalf("%q: %v", tc.input, err)
		}
		if ok != tc.want {
			t.Errorf("parse(%q) = %v, want %v", tc.input, ok, tc.want)
		}
	}
	// The grammar is ambiguous (EXP OP EXP without priorities); check the
	// forest records both parses of 1+2*3.
	toks, err := tokenize(t, sc, "1 + 2 * 3", conv.Grammar.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	res, err := glr.Parse(gen, toks, &glr.Options{Engine: glr.GSS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Root == nil {
		t.Fatal("no forest")
	}
}

func TestConvertIteratorExpansion(t *testing.T) {
	def, err := ParseDefinition(readTestdata(t, "Exam.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	conv, err := Convert(def, "")
	if err != nil {
		t.Fatal(err)
	}
	syms := conv.Grammar.Symbols()
	// QUESTION+ and WORD+ become auxiliary nonterminals.
	if _, ok := syms.Lookup("QUESTION+"); !ok {
		t.Error("QUESTION+ auxiliary missing")
	}
	if q, _ := syms.Lookup("QUESTION+"); syms.Kind(q) != grammar.Nonterminal {
		t.Error("QUESTION+ should be a nonterminal")
	}
	// WORD is lexical, so WORD+ iterates a terminal.
	w, ok := syms.Lookup("WORD")
	if !ok || syms.Kind(w) != grammar.Terminal {
		t.Error("WORD should be a terminal token sort")
	}
}

func TestConvertSepListExpansion(t *testing.T) {
	def, err := ParseDefinition(readTestdata(t, "ASF.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	conv, err := Convert(def, "")
	if err != nil {
		t.Fatal(err)
	}
	syms := conv.Grammar.Symbols()
	aux, ok := syms.Lookup(`{BINDING ,}+`)
	if !ok {
		t.Fatalf("separated-list auxiliary missing; symbols: %v", conv.TokenSorts)
	}
	rules := conv.Grammar.RulesFor(aux)
	if len(rules) != 2 {
		t.Errorf("{BINDING ,}+ has %d rules, want 2", len(rules))
	}
}

func TestConvertErrors(t *testing.T) {
	def := &Definition{Name: "X"}
	if _, err := Convert(def, ""); err == nil {
		t.Error("empty definition should fail")
	}
	def = &Definition{
		Name:    "X",
		CFFuncs: []CFFunc{{Elems: []CFElem{{Kind: CFSort, Sort: "UNDEFINED"}}, Result: "E"}},
	}
	if _, err := Convert(def, ""); err == nil {
		t.Error("undefined sort should fail")
	}
	def = &Definition{
		Name:    "X",
		CFFuncs: []CFFunc{{Elems: []CFElem{{Kind: CFLiteral, Literal: "x"}}, Result: "E"}},
	}
	if _, err := Convert(def, "NOSUCH"); err == nil {
		t.Error("unknown start sort should fail")
	}
}

// TestSelfApplication is the paper's bootstrap: the grammar extracted from
// SDF.sdf (the SDF definition of SDF, Appendix B) drives ISG/IPG to scan
// and parse other SDF definitions.
func TestSelfApplication(t *testing.T) {
	def, err := ParseDefinition(readTestdata(t, "SDF.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	conv, err := Convert(def, "SDF-DEFINITION")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := conv.Scanner()
	if err != nil {
		t.Fatal(err)
	}
	gen := core.New(conv.Grammar, nil)
	for _, name := range []string{"exp.sdf", "Exam.sdf"} {
		toks, err := tokenize(t, sc, readTestdata(t, name), conv.Grammar.Symbols())
		if err != nil {
			t.Fatalf("%s: scan with generated scanner: %v", name, err)
		}
		ok, err := glr.Recognize(gen, toks, glr.GSS)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ok {
			t.Errorf("%s: rejected by the grammar extracted from SDF.sdf", name)
		}
	}
}
