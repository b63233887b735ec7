package ipg_test

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"ipg"
)

// frontCase is one grammar both a facade parser and a glr registry
// entry load, with a rule-text edit and the inputs to compare.
type frontCase struct {
	file   string
	rule   string
	inputs []string
}

var frontCases = []frontCase{
	{
		file: "Calc.sdf",
		rule: `EXP ::= EXP "%" EXP`,
		inputs: []string{
			"1 + 2 * 3", "7 % 2", "1 % 2 + 3", "2 ^ 3 ^ 2", "8 - 4 - 2", "(1 % 2)", "1 +",
		},
	},
	{
		file: "CalcDet.bnf",
		rule: `T ::= T "%" F`,
		inputs: []string{
			"n + n * n", "n % n", "n % n * n", "( n % n )", "n +",
		},
	},
}

// outcome is what a parse says about one input: whether it failed before
// parsing (an unknown token or character), acceptance, and the number
// of trees left after the priority filters.
type outcome struct {
	failed   bool
	accepted bool
	trees    int64
}

func facadeOutcome(t *testing.T, p *ipg.Parser, sdf bool, input string) outcome {
	t.Helper()
	var res ipg.Result
	var err error
	if sdf {
		res, err = p.ParseText(input)
	} else {
		var toks []ipg.Symbol
		if toks, err = p.Tokens(input); err == nil {
			res, err = p.Parse(toks)
		}
	}
	if err != nil {
		return outcome{failed: true}
	}
	out := outcome{accepted: res.Accepted}
	if res.Root != nil {
		n, err := ipg.TreeCount(res.Root)
		if err != nil {
			t.Fatalf("TreeCount(%q): %v", input, err)
		}
		out.trees = n
	}
	return out
}

func entryOutcome(t *testing.T, e *ipg.RegistryEntry, input string) outcome {
	t.Helper()
	res, err := e.ParseInput(input, true)
	if err != nil {
		return outcome{failed: true}
	}
	if !res.TreesKnown {
		t.Fatalf("entry parse of %q left its tree count unknown", input)
	}
	return outcome{accepted: res.Accepted, trees: res.Trees}
}

// TestFacadeMatchesRegistryEntry is a differential test of the one
// grammar front end: a facade parser (LoadSDF or NewParser) and a glr
// registry entry over the same grammar must agree on every input —
// scan failure, acceptance and filtered tree count — before a rule-text
// addition, after it, after adding it again (a no-op), after deleting
// it and after deleting it again (a no-op).
func TestFacadeMatchesRegistryEntry(t *testing.T) {
	for _, tc := range frontCases {
		t.Run(tc.file, func(t *testing.T) {
			src, err := os.ReadFile("testdata/" + tc.file)
			if err != nil {
				t.Fatal(err)
			}
			sdf := strings.HasSuffix(tc.file, ".sdf")
			var p *ipg.Parser
			form := ipg.FormRules
			if sdf {
				form = ipg.FormSDF
				p, err = ipg.LoadSDF(string(src), "", nil)
			} else {
				var g *ipg.Grammar
				if g, err = ipg.ParseGrammar(string(src)); err == nil {
					p, err = ipg.NewParser(g, nil)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			e, err := ipg.NewRegistry().Register("g", ipg.GrammarSpec{Source: string(src), Form: form, Engine: ipg.EngineGLR})
			if err != nil {
				t.Fatal(err)
			}
			compare := func(step string) {
				t.Helper()
				for _, in := range tc.inputs {
					if got, want := facadeOutcome(t, p, sdf, in), entryOutcome(t, e, in); got != want {
						t.Errorf("%s: %q: facade %+v, entry %+v", step, in, got, want)
					}
				}
			}
			compare("before")
			for i, step := range []struct {
				name string
				add  bool
				want int
			}{
				{"add", true, 1},
				{"re-add", true, 0},
				{"delete", false, 1},
				{"re-delete", false, 0},
			} {
				var got int
				if step.add {
					added, err := p.AddRulesText(tc.rule)
					if err != nil {
						t.Fatalf("%s: facade: %v", step.name, err)
					}
					got = len(added)
				} else if err := p.DeleteRulesText(tc.rule); err != nil {
					t.Fatalf("%s: facade: %v", step.name, err)
				}
				var n int
				if step.add {
					n, err = e.AddRulesText(tc.rule)
				} else {
					n, err = e.DeleteRulesText(tc.rule)
				}
				if err != nil {
					t.Fatalf("%s: entry: %v", step.name, err)
				}
				if n != step.want || (step.add && got != step.want) {
					t.Errorf("%s: facade applied %d, entry %d, want %d", step.name, got, n, step.want)
				}
				compare(fmt.Sprintf("after step %d (%s)", i+1, step.name))
			}
		})
	}
}

// TestConcurrentTextParsesBesideRuleUpdates runs ParseText from several
// goroutines on a fresh SDF-loaded parser, so the scanner's lazy DFA
// expands under concurrent scans, beside a writer toggling a rule whose
// new literal the scanner must learn. Meaningful under -race: the front
// end serializes the scanner.
func TestConcurrentTextParsesBesideRuleUpdates(t *testing.T) {
	src, err := os.ReadFile("testdata/Calc.sdf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ipg.LoadSDF(string(src), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []string{"1 + 2 * 3", "(10 - 4) / 2", "2 ^ 3 ^ 2", "987 * (6 + 5)", "1\t-\n2"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				in := inputs[(w+j)%len(inputs)]
				res, err := p.ParseText(in)
				if err != nil {
					t.Errorf("ParseText(%q): %v", in, err)
					return
				}
				if n, err := ipg.TreeCount(res.Root); !res.Accepted || err != nil || n != 1 {
					t.Errorf("ParseText(%q): accepted %v, %d trees, %v", in, res.Accepted, n, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			rule := fmt.Sprintf(`EXP ::= EXP "%%%d" EXP`, j)
			if _, err := p.AddRulesText(rule); err != nil {
				t.Errorf("AddRulesText(%s): %v", rule, err)
				return
			}
			if err := p.DeleteRulesText(rule); err != nil {
				t.Errorf("DeleteRulesText(%s): %v", rule, err)
				return
			}
		}
	}()
	wg.Wait()
}
