package ipg

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

const boolSrc = `
START ::= B
B ::= "true" | "false"
B ::= B "or" B | B "and" B
`

func TestQuickstart(t *testing.T) {
	g, err := ParseGrammar(boolSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParser(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Parse(p.MustTokens("true or false"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("rejected")
	}
	if got := p.TreeString(res.Root); got != "B(B(true) or B(false))" {
		t.Errorf("tree: %s", got)
	}
}

func TestLazinessVisibleThroughStats(t *testing.T) {
	g, _ := ParseGrammar(boolSrc)
	p, _ := NewParser(g, nil)
	if s := p.Stats(); s.Complete != 0 || s.States != 1 {
		t.Fatalf("before parsing: %+v", s)
	}
	if _, err := p.Parse(p.MustTokens("true and true")); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Complete == 0 || s.Initial == 0 {
		t.Errorf("after one sentence the table should be partial: %+v", s)
	}
	eager, _ := ParseGrammar(boolSrc)
	pe, _ := NewParser(eager, &Options{Eager: true})
	se := pe.Stats()
	if se.Initial != 0 || se.Complete != 8 {
		t.Errorf("eager stats: %+v", se)
	}
}

func TestIncrementalFacade(t *testing.T) {
	g, _ := ParseGrammar(boolSrc)
	p, _ := NewParser(g, nil)
	if _, err := p.Parse(p.MustTokens("true or false")); err != nil {
		t.Fatal(err)
	}
	added, err := p.AddRulesText(`B ::= "not" B`)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 {
		t.Fatalf("added %d rules", len(added))
	}
	res, err := p.Parse(p.MustTokens("not true or false"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Error("extension not picked up")
	}
	if err := p.DeleteRulesText(`B ::= "not" B`); err != nil {
		t.Fatal(err)
	}
	res, err = p.Parse(p.MustTokens("not true"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Error("deletion not picked up")
	}
}

func TestEngines(t *testing.T) {
	g, _ := ParseGrammar(boolSrc)
	for _, e := range []Engine{Copying, GSS} {
		p, err := NewParser(g.Clone(), &Options{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Parse(p.MustTokens("true or true or true"))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		n, err := TreeCount(res.Root)
		if err != nil || n != 2 {
			t.Errorf("%v: TreeCount = %d, %v", e, n, err)
		}
		trees, err := p.Trees(res.Root, 10)
		if err != nil || len(trees) != 2 {
			t.Errorf("%v: Trees = %v, %v", e, trees, err)
		}
	}
}

func TestTokensErrors(t *testing.T) {
	g, _ := ParseGrammar(boolSrc)
	p, _ := NewParser(g, nil)
	if _, err := p.Tokens("true nosuch"); err == nil {
		t.Error("unknown token should error")
	}
	if _, err := p.Tokens("B"); err == nil {
		t.Error("nonterminal as token should error")
	}
	toks, err := p.Tokens("  true\n\tor  false ")
	if err != nil || len(toks) != 3 {
		t.Errorf("whitespace handling: %v %v", toks, err)
	}
}

func TestTableAndGraphRendering(t *testing.T) {
	g, _ := ParseGrammar(boolSrc)
	p, _ := NewParser(g, nil)
	if !strings.Contains(p.TableString(), "·") {
		t.Error("lazy table should show ungenerated states")
	}
	if _, err := p.Parse(p.MustTokens("true")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.GraphString(), "state 0") {
		t.Error("graph dump missing states")
	}
	if !strings.Contains(p.DOT(), "digraph") {
		t.Error("DOT output missing header")
	}
}

func TestLoadSDF(t *testing.T) {
	src, err := os.ReadFile("testdata/exp.sdf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadSDF(string(src), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Scanner() == nil {
		t.Fatal("SDF parser should carry a scanner")
	}
	res, err := p.ParseText("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Error("expression rejected")
	}
	n, err := TreeCount(res.Root)
	if err != nil || n != 2 {
		t.Errorf("ambiguous expression TreeCount = %d, %v", n, err)
	}
	// Grammar-only parsers refuse ParseText.
	g, _ := ParseGrammar(boolSrc)
	pb, _ := NewParser(g, nil)
	if _, err := pb.ParseText("true"); err == nil {
		t.Error("ParseText without scanner should error")
	}
}

func TestErrorMessage(t *testing.T) {
	g, _ := ParseGrammar(boolSrc)
	p, _ := NewParser(g, nil)
	input := p.MustTokens("true or or")
	res, err := p.Parse(input)
	if err != nil {
		t.Fatal(err)
	}
	msg := p.ErrorMessage(res, input)
	if !strings.Contains(msg, "token 2") {
		t.Errorf("message should name position 2: %s", msg)
	}
	if !strings.Contains(msg, `"or"`) {
		t.Errorf("message should name the found token: %s", msg)
	}
	if !strings.Contains(msg, `"true"`) || !strings.Contains(msg, `"false"`) {
		t.Errorf("message should list expected terminals: %s", msg)
	}
	// Accepted results yield no message.
	res, _ = p.Parse(p.MustTokens("true"))
	if p.ErrorMessage(res, nil) != "" {
		t.Error("accepted parse should have empty error message")
	}
}

func TestDisambiguateViaSDF(t *testing.T) {
	src, err := os.ReadFile("testdata/Calc.sdf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadSDF(string(src), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	// ^ is right-associative and binds tightest, * beats +, - chains
	// left-associatively: one parse must survive.
	for _, expr := range []string{
		"1 + 2 * 3 ^ 4 ^ 5",
		"8 - 4 - 2",
		"1 * 2 + 3 * 4",
	} {
		res, err := p.ParseText(expr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("%q rejected", expr)
		}
		n, err := TreeCount(res.Root)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Errorf("%q: priorities should leave exactly 1 parse, got %d:\n%s",
				expr, n, p.TreeString(res.Root))
		}
	}
}

// TestConcurrentParserUse: Parser.Parse and the rule-text helpers are
// documented as safe for concurrent use on LR(0) parsers; exercise that
// contract (meaningful under -race).
func TestConcurrentParserUse(t *testing.T) {
	g, _ := ParseGrammar(boolSrc)
	p, _ := NewParser(g, nil)
	input := p.MustTokens("true or false and true")
	// Warm the table so the first modification finds complete states to
	// invalidate regardless of goroutine scheduling.
	if res, err := p.Parse(input); err != nil || !res.Accepted {
		t.Fatal(res.Accepted, err)
	}
	var wg sync.WaitGroup
	var failures atomic.Uint64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				res, err := p.Parse(input)
				if err != nil || !res.Accepted {
					failures.Add(1)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 15; j++ {
			rule := fmt.Sprintf("B ::= %q B", fmt.Sprintf("kw%d", j))
			if _, err := p.AddRulesText(rule); err != nil {
				failures.Add(1)
				return
			}
			if err := p.DeleteRulesText(rule); err != nil {
				failures.Add(1)
				return
			}
		}
	}()
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d goroutines failed", failures.Load())
	}
	if c := p.Counters(); c.ParsesServed < 121 || c.StatesInvalidated == 0 {
		t.Errorf("counters after concurrent use: %+v", c)
	}
}

func TestNilGrammar(t *testing.T) {
	if _, err := NewParser(nil, nil); err == nil {
		t.Error("nil grammar should error")
	}
}

func TestSaveLoadTable(t *testing.T) {
	g, _ := ParseGrammar(boolSrc)
	p, _ := NewParser(g, nil)
	// Generate part of the table lazily, then persist it.
	if _, err := p.Parse(p.MustTokens("true and true")); err != nil {
		t.Fatal(err)
	}
	partialStats := p.Stats()
	var buf strings.Builder
	if err := p.SaveTable(&buf); err != nil {
		t.Fatal(err)
	}

	// A new session over the same grammar text resumes from the file.
	g2, _ := ParseGrammar(boolSrc)
	p2, err := NewParserFromTable(g2, strings.NewReader(buf.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Stats(); got.Complete != partialStats.Complete || got.Initial != partialStats.Initial {
		t.Errorf("restored stats %+v, want %+v", got, partialStats)
	}
	// Parsing continues — including expansion of the restored lazy
	// frontier and incremental modification.
	res, err := p2.Parse(p2.MustTokens("true or false"))
	if err != nil || !res.Accepted {
		t.Fatalf("restored parser: %v %v", res.Accepted, err)
	}
	if _, err := p2.AddRulesText(`B ::= "maybe"`); err != nil {
		t.Fatal(err)
	}
	res, err = p2.Parse(p2.MustTokens("maybe or true"))
	if err != nil || !res.Accepted {
		t.Fatalf("modified restored parser: %v %v", res.Accepted, err)
	}
}

// TestSimultaneousLexicalAndSyntacticModification exercises the paper's
// section 8 vision — "simultaneous editing of language definitions and
// programs" — end to end: a new operator is added to a *running*
// SDF-loaded parser by extending both the ISG scanner (new token) and the
// IPG parse table (new rule), with no regeneration of either. The
// lexical half is done by hand (ISG AddRule) or left to AddRulesText,
// which teaches the scanner the rule's new literal itself.
func TestSimultaneousLexicalAndSyntacticModification(t *testing.T) {
	src, err := os.ReadFile("testdata/Calc.sdf")
	if err != nil {
		t.Fatal(err)
	}
	for _, manual := range []bool{true, false} {
		p, err := LoadSDF(string(src), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := p.ParseText("7 + 2"); !res.Accepted {
			t.Fatal("base language broken")
		}
		if _, _, err := p.ScanText("7 % 2"); err == nil {
			t.Fatal("'%' should not scan before the lexical modification")
		}

		if manual {
			// Lexical half: teach the scanner the new token (ISG AddRule).
			if err := p.Scanner().AddRule(LiteralTokenRule("%")); err != nil {
				t.Fatal(err)
			}
		}
		// Syntactic half: teach the parser the new rule (IPG ADD-RULE).
		if _, err := p.AddRulesText(`EXP ::= EXP "%" EXP`); err != nil {
			t.Fatal(err)
		}

		res, err := p.ParseText("7 % 2")
		if err != nil {
			t.Fatalf("manual lexical half %v: %v", manual, err)
		}
		if !res.Accepted {
			t.Errorf("manual lexical half %v: '%%' expression rejected after the simultaneous modification", manual)
		}
		// The old language still works and the table was reused, not rebuilt.
		if res, _ := p.ParseText("7 + 2 * 3"); !res.Accepted {
			t.Errorf("manual lexical half %v: old language broken by the modification", manual)
		}
	}
}
