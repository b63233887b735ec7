// Benchmarks regenerating every quantitative result of the paper:
//
//	BenchmarkFig71            — the Fig 7.1 harness (Yacc/PG/IPG ×
//	                            construct/parse1/parse2/modify/reparse
//	                            over the four SDF inputs)
//	BenchmarkSec52Coverage    — the §5.2 lazy-coverage measurement
//	BenchmarkFig21Fast        — the "fast" column of Fig 2.1
//	BenchmarkFig21Flexible    — the "flexible" column of Fig 2.1
//	BenchmarkExtEarley        — the Earley comparison §7 omitted
//	BenchmarkAblationGC       — §6.2 garbage-collection policies
//	BenchmarkAblationEngines  — copying PAR-PARSE vs GSS sharing
//
// Run with: go test -bench=. -benchmem
package ipg_test

import (
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ipg"
	"ipg/internal/cigale"
	"ipg/internal/core"
	"ipg/internal/earley"
	"ipg/internal/fixtures"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/harness"
	"ipg/internal/isg"
	"ipg/internal/lalr"
	"ipg/internal/ll"
	"ipg/internal/lr"
	"ipg/internal/objparse"
	"ipg/internal/registry"
	"ipg/internal/sdf"
)

func loadInputs(b *testing.B) []harness.Input {
	b.Helper()
	g := sdf.MustBootstrapGrammar()
	inputs, err := harness.LoadInputs("testdata", g)
	if err != nil {
		b.Fatal(err)
	}
	return inputs
}

// BenchmarkFig71 regenerates Fig 7.1. Each sub-benchmark measures one
// phase for one system on one input; the per-iteration setup (fresh
// grammar, table construction, warm-up parses) runs outside the timer.
func BenchmarkFig71(b *testing.B) {
	inputs := loadInputs(b)

	type table struct {
		tbl lr.Table
		g   *grammar.Grammar
	}
	construct := func(sys harness.System) table {
		g := sdf.MustBootstrapGrammar()
		switch sys {
		case harness.Yacc:
			return table{lalr.Generate(g), g}
		case harness.PG:
			auto := lr.New(g)
			auto.GenerateAll()
			return table{auto, g}
		default:
			return table{core.New(g, nil), g}
		}
	}
	parse := func(b *testing.B, tbl lr.Table, in harness.Input) {
		res, err := glr.Parse(tbl, in.Tokens, &glr.Options{Engine: glr.GSS})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatalf("%s rejected", in.Name)
		}
	}
	// modify applies the Fig 7.1 rule; for Yacc and PG this means full
	// regeneration, for IPG a MODIFY call.
	modify := func(b *testing.B, sys harness.System, t table) lr.Table {
		rule, err := sdf.ModificationRule(t.g)
		if err != nil {
			b.Fatal(err)
		}
		switch sys {
		case harness.Yacc:
			if err := t.g.AddRule(rule); err != nil {
				b.Fatal(err)
			}
			return lalr.Generate(t.g)
		case harness.PG:
			if err := t.g.AddRule(rule); err != nil {
				b.Fatal(err)
			}
			auto := lr.New(t.g)
			auto.GenerateAll()
			return auto
		default:
			gen := t.tbl.(*core.Generator)
			if err := gen.AddRule(rule); err != nil {
				b.Fatal(err)
			}
			return gen
		}
	}

	for _, sys := range harness.Systems {
		sys := sys
		b.Run(string(sys), func(b *testing.B) {
			b.Run("construct", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					construct(sys)
				}
			})
			for _, in := range inputs {
				in := in
				b.Run("parse1/"+in.Name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						t := construct(sys)
						b.StartTimer()
						parse(b, t.tbl, in)
					}
				})
				b.Run("parse2/"+in.Name, func(b *testing.B) {
					t := construct(sys)
					parse(b, t.tbl, in) // warm up: first parse untimed
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						parse(b, t.tbl, in)
					}
				})
				b.Run("modify/"+in.Name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						t := construct(sys)
						parse(b, t.tbl, in)
						parse(b, t.tbl, in)
						b.StartTimer()
						modify(b, sys, t)
					}
				})
				b.Run("reparse1/"+in.Name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						t := construct(sys)
						parse(b, t.tbl, in)
						parse(b, t.tbl, in)
						tbl := modify(b, sys, t)
						b.StartTimer()
						parse(b, tbl, in)
					}
				})
				b.Run("reparse2/"+in.Name, func(b *testing.B) {
					b.StopTimer()
					t := construct(sys)
					parse(b, t.tbl, in)
					parse(b, t.tbl, in)
					tbl := modify(b, sys, t)
					parse(b, tbl, in)
					b.StartTimer()
					for i := 0; i < b.N; i++ {
						parse(b, tbl, in)
					}
				})
			}
		})
	}
}

// BenchmarkSec52Coverage measures the §5.2 claim: parsing an SDF
// definition lazily generates only part of the SDF table (the paper
// reports ~60% for SDF.sdf). The coverage is attached as a custom
// metric.
func BenchmarkSec52Coverage(b *testing.B) {
	inputs := loadInputs(b)
	full := core.New(sdf.MustBootstrapGrammar(), nil)
	full.Pregenerate()
	total := full.Coverage().Complete

	for _, in := range inputs {
		in := in
		b.Run(in.Name, func(b *testing.B) {
			coverage := 0.0
			for i := 0; i < b.N; i++ {
				gen := core.New(sdf.MustBootstrapGrammar(), nil)
				ok, err := glr.Recognize(gen, in.Tokens, glr.GSS)
				if err != nil || !ok {
					b.Fatalf("%s: %v %v", in.Name, ok, err)
				}
				coverage = 100 * float64(gen.Coverage().Complete) / float64(total)
			}
			b.ReportMetric(coverage, "coverage%")
		})
	}
}

// TestLazyGenerationPaidOnce pins, on exact counters that host noise
// cannot move, the paper's claim that lazy generation is paid once, with
// §5.2's coverage and the cost of the Fig 7.1 modification. Per Fig 7.1
// input (exp, Exam, SDF and ASF.sdf), glr.Recognize on a fresh lazy
// generator of the SDF grammar:
//   - the cold parse expands 51 / 56 / 65 / 61 states, and the second
//     parse expands none;
//   - exactly those states are complete, of the full table's 113;
//   - the Fig 7.1 modification invalidates 3 states, the next parse
//     re-expands exactly those 3, and the parse after that none.
func TestLazyGenerationPaidOnce(t *testing.T) {
	g := sdf.MustBootstrapGrammar()
	inputs, err := harness.LoadInputs("testdata", g)
	if err != nil {
		t.Fatal(err)
	}
	full := core.New(sdf.MustBootstrapGrammar(), nil)
	full.Pregenerate()
	if n := full.Coverage().Complete; n != 113 {
		t.Fatalf("the full SDF table has %d states, want 113", n)
	}
	cold := map[string]uint64{"exp.sdf": 51, "Exam.sdf": 56, "SDF.sdf": 65, "ASF.sdf": 61}
	for _, in := range inputs {
		gen := core.New(sdf.MustBootstrapGrammar(), nil)
		expanded := gen.Counters().StatesExpanded
		parse := func(phase string, want uint64) {
			t.Helper()
			if ok, err := glr.Recognize(gen, in.Tokens, glr.GSS); err != nil || !ok {
				t.Fatalf("%s %s parse: ok=%v err=%v", in.Name, phase, ok, err)
			}
			c := gen.Counters()
			if got := c.StatesExpanded - expanded; got != want {
				t.Errorf("%s: the %s parse expanded %d states, want %d", in.Name, phase, got, want)
			}
			expanded = c.StatesExpanded
		}
		parse("cold", cold[in.Name])
		parse("second", 0)
		if got := gen.Coverage().Complete; uint64(got) != cold[in.Name] {
			t.Errorf("%s: %d of %d states complete after parsing, want %d", in.Name, got, full.Coverage().Complete, cold[in.Name])
		}
		rule, err := sdf.ModificationRule(gen.Grammar())
		if err != nil {
			t.Fatal(err)
		}
		invalidated := gen.Counters().StatesInvalidated
		if err := gen.AddRule(rule); err != nil {
			t.Fatal(err)
		}
		if got := gen.Counters().StatesInvalidated - invalidated; got != 3 {
			t.Errorf("%s: the modification invalidated %d states, want 3", in.Name, got)
		}
		parse("post-modification", 3)
		parse("warm post-modification", 0)
	}
}

// TestWarmLazyParsesLikeEager gates the paper's claim that a warm lazy
// table parses as fast as an eagerly generated LR table. The same GSS
// driver recognises SDF.sdf and ASF.sdf (342 and 475 tokens) on two
// tables of the SDF grammar: a lazy core.Generator, warmed by one parse
// and read through core.ParseSession as the service reads it, and
// lr.Automaton.GenerateAll(). The sides alternate, one timed
// recognition each, and the gate reads the minimum of warmLazyRuns
// runs per side, so a burst of host load cannot move it: lazy / eager
// must stay under warmLazyBound. Ten runs of this test on a shared
// 2-vCPU VM read 0.87–1.09 on SDF.sdf and 1.00–1.11 on ASF.sdf; the
// bound sits 0.14 above that spread's top. A ParseSession that spends
// ~50% more per action lookup fails it. Skipped under -short and
// -race, whose instrumentation skews timing.
func TestWarmLazyParsesLikeEager(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing gate: skipped under -short and -race")
	}
	const warmLazyRuns, warmLazyBound = 201, 1.25
	g := sdf.MustBootstrapGrammar()
	inputs, err := harness.LoadInputs("testdata", g)
	if err != nil {
		t.Fatal(err)
	}
	eager := lr.New(sdf.MustBootstrapGrammar())
	eager.GenerateAll()
	opts := &glr.Options{Engine: glr.GSS, DisableTrees: true}
	for _, in := range inputs {
		if in.Name != "SDF.sdf" && in.Name != "ASF.sdf" {
			continue
		}
		gen := core.New(sdf.MustBootstrapGrammar(), nil)
		var sess core.ParseSession
		recognize := func(tbl lr.Table) {
			if res, err := glr.Parse(tbl, in.Tokens, opts); err != nil || !res.Accepted {
				t.Fatalf("%s: accepted=%v err=%v", in.Name, res.Accepted, err)
			}
		}
		lazy := func() {
			sess.Begin(gen)
			recognize(&sess)
			sess.End()
		}
		sides := [2]func(){lazy, func() { recognize(eager) }}
		for _, side := range sides {
			side() // the lazy side's first parse expands the table by need
		}
		runtime.GC()
		best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
		for run := 0; run < warmLazyRuns; run++ {
			for k := range sides {
				side := (run + k) % 2
				start := time.Now()
				sides[side]()
				best[side] = min(best[side], time.Since(start))
			}
		}
		ratio := float64(best[0]) / float64(best[1])
		t.Logf("%s: warm lazy %v, eager %v per recognition (%.2fx)", in.Name, best[0], best[1], ratio)
		if ratio > warmLazyBound {
			t.Errorf("%s: a warm lazy recognition takes %.2fx the eager one (%v vs %v), want <= %.2fx",
				in.Name, ratio, best[0], best[1], warmLazyBound)
		}
	}
}

// fig21Language builds token streams for the language x (+ x)* used by
// the "fast" comparison: every baseline can express it in its natural
// grammar class.
func fig21Input(g *grammar.Grammar, n int) []grammar.Symbol {
	x, _ := g.Symbols().Lookup("x")
	plus, _ := g.Symbols().Lookup("+")
	toks := make([]grammar.Symbol, 0, 2*n+1)
	toks = append(toks, x)
	for i := 0; i < n; i++ {
		toks = append(toks, plus, x)
	}
	return toks
}

const leftRecExpr = `
START ::= E
E ::= E "+" "x" | "x"
`

const rightRecExpr = `
START ::= E
E ::= "x" "+" E | "x"
`

const llExpr = `
START ::= E
E ::= "x" Etail
Etail ::= "+" "x" Etail | ε
`

// BenchmarkFig21Fast is the "fast" column of Fig 2.1: parse time of each
// algorithm on growing inputs of one language. Grammars are chosen per
// algorithm's accepted class (left-recursive for the LR family,
// right-recursive for Cigale/OBJ, left-factored for LL).
func BenchmarkFig21Fast(b *testing.B) {
	sizes := []int{10, 100, 1000}

	b.Run("LALR-deterministic", func(b *testing.B) {
		g := grammar.MustParse(leftRecExpr)
		tbl := lalr.Generate(g)
		for _, n := range sizes {
			in := fig21Input(g, n)
			b.Run(sizeName(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := glr.Parse(tbl, in, &glr.Options{Engine: glr.Deterministic, DisableTrees: true})
					if err != nil || !res.Accepted {
						b.Fatal(res.Accepted, err)
					}
				}
			})
		}
	})
	b.Run("Tomita-GSS", func(b *testing.B) {
		g := grammar.MustParse(leftRecExpr)
		auto := lr.New(g)
		auto.GenerateAll()
		for _, n := range sizes {
			in := fig21Input(g, n)
			b.Run(sizeName(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ok, err := glr.Recognize(auto, in, glr.GSS)
					if err != nil || !ok {
						b.Fatal(ok, err)
					}
				}
			})
		}
	})
	b.Run("IPG-lazy", func(b *testing.B) {
		for _, n := range sizes {
			b.Run(sizeName(n), func(b *testing.B) {
				g := grammar.MustParse(leftRecExpr)
				gen := core.New(g, nil)
				in := fig21Input(g, n)
				for i := 0; i < b.N; i++ {
					ok, err := glr.Recognize(gen, in, glr.GSS)
					if err != nil || !ok {
						b.Fatal(ok, err)
					}
				}
			})
		}
	})
	b.Run("Earley", func(b *testing.B) {
		g := grammar.MustParse(leftRecExpr)
		p := earley.New(g)
		for _, n := range sizes {
			in := fig21Input(g, n)
			b.Run(sizeName(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if !p.Recognize(in) {
						b.Fatal("rejected")
					}
				}
			})
		}
	})
	b.Run("LL1", func(b *testing.B) {
		g := grammar.MustParse(llExpr)
		tbl := ll.Generate(g)
		if len(tbl.Conflicts()) > 0 {
			b.Fatal("not LL(1)")
		}
		for _, n := range sizes {
			in := fig21Input(g, n)
			b.Run(sizeName(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ok, err := tbl.Parse(in)
					if err != nil || !ok {
						b.Fatal(ok, err)
					}
				}
			})
		}
	})
	b.Run("Cigale", func(b *testing.B) {
		g := grammar.MustParse(rightRecExpr)
		p := cigale.New(g)
		for _, n := range sizes {
			in := fig21Input(g, n)
			b.Run(sizeName(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ok, err := p.Recognize(in)
					if err != nil || !ok {
						b.Fatal(ok, err)
					}
				}
			})
		}
	})
	b.Run("OBJ-backtrack", func(b *testing.B) {
		g := grammar.MustParse(rightRecExpr)
		p := objparse.New(g)
		p.MaxDepth = 1 << 20
		// OBJ "can be expensive for complex expressions": keep sizes
		// small enough to terminate.
		for _, n := range []int{10, 100} {
			in := fig21Input(g, n)
			b.Run(sizeName(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ok, err := p.Recognize(in)
					if err != nil || !ok {
						b.Fatal(ok, err)
					}
				}
			})
		}
	})
}

func sizeName(n int) string {
	switch n {
	case 10:
		return "n=10"
	case 100:
		return "n=100"
	default:
		return "n=1000"
	}
}

// BenchmarkFig21Flexible is the "flexible" column of Fig 2.1: the cost of
// incorporating one rule modification, per system.
func BenchmarkFig21Flexible(b *testing.B) {
	newRule := func(g *grammar.Grammar) *grammar.Rule {
		e, _ := g.Symbols().Lookup("E")
		star := g.Symbols().MustIntern("*", grammar.Terminal)
		x, _ := g.Symbols().Lookup("x")
		return grammar.NewRule(e, e, star, x)
	}
	b.Run("IPG-modify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := grammar.MustParse(leftRecExpr)
			gen := core.New(g, nil)
			gen.Pregenerate()
			r := newRule(g)
			b.StartTimer()
			if err := gen.AddRule(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PG-regenerate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := grammar.MustParse(leftRecExpr)
			if err := g.AddRule(newRule(g)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			auto := lr.New(g)
			auto.GenerateAll()
		}
	})
	b.Run("Yacc-regenerate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := grammar.MustParse(leftRecExpr)
			if err := g.AddRule(newRule(g)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			lalr.Generate(g)
		}
	})
	b.Run("Earley-refresh", func(b *testing.B) {
		// Earley needs no table at all: modification cost is adding the
		// rule to the grammar and recompiling the parser's grammar view.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := grammar.MustParse(leftRecExpr)
			p := earley.New(g)
			r := newRule(g)
			b.StartTimer()
			if err := g.AddRule(r); err != nil {
				b.Fatal(err)
			}
			p.Refresh()
		}
	})
}

// BenchmarkExtEarley runs the comparison the authors omitted in §7:
// "we expect Earley's algorithm to have better generation performance,
// but a much inferior parsing performance." Generation is free for
// Earley; parsing the SDF inputs is measured against IPG's steady state.
func BenchmarkExtEarley(b *testing.B) {
	inputs := loadInputs(b)
	for _, in := range inputs {
		in := in
		b.Run("Earley/"+in.Name, func(b *testing.B) {
			p := earley.New(sdf.MustBootstrapGrammar())
			for i := 0; i < b.N; i++ {
				if !p.Recognize(in.Tokens) {
					b.Fatal("rejected")
				}
			}
		})
		b.Run("IPG/"+in.Name, func(b *testing.B) {
			gen := core.New(sdf.MustBootstrapGrammar(), nil)
			if ok, err := glr.Recognize(gen, in.Tokens, glr.GSS); err != nil || !ok {
				b.Fatal(ok, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := glr.Recognize(gen, in.Tokens, glr.GSS)
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

// BenchmarkAblationGC compares the §6.2 garbage-collection policies over
// a modify/reparse cycle on the SDF grammar.
func BenchmarkAblationGC(b *testing.B) {
	inputs := loadInputs(b)
	sdfIn := inputs[2] // SDF.sdf
	for _, policy := range []core.Policy{core.PolicyRefCount, core.PolicyRetainAll, core.PolicyEagerSweep} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			states := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := sdf.MustBootstrapGrammar()
				gen := core.New(g, &core.Options{Policy: policy})
				if ok, err := glr.Recognize(gen, sdfIn.Tokens, glr.GSS); err != nil || !ok {
					b.Fatal(ok, err)
				}
				rule, err := sdf.ModificationRule(g)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := gen.AddRule(rule); err != nil {
					b.Fatal(err)
				}
				if ok, err := glr.Recognize(gen, sdfIn.Tokens, glr.GSS); err != nil || !ok {
					b.Fatal(ok, err)
				}
				b.StopTimer()
				cov := gen.Coverage()
				states = cov.Initial + cov.Complete + cov.Dirty
				b.StartTimer()
			}
			b.ReportMetric(float64(states), "retained-states")
		})
	}
}

// BenchmarkAblationEngines compares the paper's copying PAR-PARSE with
// the GSS engine on the ambiguity ladder (Catalan-many parses).
func BenchmarkAblationEngines(b *testing.B) {
	g := fixtures.Booleans()
	auto := lr.New(g)
	auto.GenerateAll()
	for _, n := range []int{2, 4, 6, 8} {
		input := fixtures.Tokens(g, "true"+strings.Repeat(" or true", n))
		b.Run("copying/"+sizeName2(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := glr.Parse(auto, input, &glr.Options{Engine: glr.Copying, MaxReductions: 1 << 28})
				if err != nil || !res.Accepted {
					b.Fatal(res.Accepted, err)
				}
			}
		})
		b.Run("gss/"+sizeName2(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := glr.Parse(auto, input, &glr.Options{Engine: glr.GSS})
				if err != nil || !res.Accepted {
					b.Fatal(res.Accepted, err)
				}
			}
		})
	}
}

func sizeName2(n int) string {
	return "ors=" + string(rune('0'+n))
}

// BenchmarkAblationPerSymbol reproduces the §5.3 ablation: the authors
// considered expanding item sets one symbol at a time and rejected it
// because "the additional administrative overhead incurred turned out to
// be so large that no net gain in efficiency was to be expected". Both
// generators parse the SDF inputs from cold; compare ns/op.
func BenchmarkAblationPerSymbol(b *testing.B) {
	inputs := loadInputs(b)
	for _, in := range []harness.Input{inputs[0], inputs[2]} { // exp.sdf, SDF.sdf
		in := in
		b.Run("whole-state/"+in.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen := core.New(sdf.MustBootstrapGrammar(), nil)
				ok, err := glr.Recognize(gen, in.Tokens, glr.GSS)
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
		b.Run("per-symbol/"+in.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gen := core.NewPerSymbol(sdf.MustBootstrapGrammar())
				ok, err := glr.Recognize(gen, in.Tokens, glr.GSS)
				if err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

// BenchmarkISG measures the companion scanner generator: lazy DFA
// construction is spread over scanning, and a lexical modification
// invalidates only the DFA (the NFA rebuild is linear). The asf-cold and
// asf-warm rows scan ASF.sdf with the scanner generated from SDF.sdf's
// lexical syntax — the tokenize stage of the service's SDF parses —
// from a fresh DFA and from a warm one.
func BenchmarkISG(b *testing.B) {
	src := strings.Repeat("module foo begin -- c\n end foo\n", 50)
	b.Run("first-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sc, err := sdf.NewScanner()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := sc.Scan(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-scan", func(b *testing.B) {
		sc, err := sdf.NewScanner()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sc.Scan(src); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sc.Scan(src); err != nil {
				b.Fatal(err)
			}
		}
	})

	def, err := os.ReadFile("testdata/SDF.sdf")
	if err != nil {
		b.Fatal(err)
	}
	asf, err := os.ReadFile("testdata/ASF.sdf")
	if err != nil {
		b.Fatal(err)
	}
	sdfScanner := func(b *testing.B) *isg.Scanner {
		d, err := sdf.ParseDefinition(string(def))
		if err != nil {
			b.Fatal(err)
		}
		conv, err := sdf.Convert(d, "")
		if err != nil {
			b.Fatal(err)
		}
		sc, err := conv.Scanner()
		if err != nil {
			b.Fatal(err)
		}
		return sc
	}
	b.Run("asf-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sc := sdfScanner(b)
			b.StartTimer()
			if _, err := sc.Scan(string(asf)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("asf-warm", func(b *testing.B) {
		sc := sdfScanner(b)
		text := string(asf)
		if _, err := sc.Scan(text); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sc.Scan(text); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentParse measures the concurrent parse service's core
// claim: one shared, lazily generated table serves many goroutines, so
// parallel throughput on a warm table scales beyond the sequential
// baseline (compare ns/op of sequential vs parallel; parallel runs
// GOMAXPROCS goroutines through one generator). The "cold" variants
// include cooperative lazy expansion: racing parses expand each state
// exactly once.
func BenchmarkConcurrentParse(b *testing.B) {
	inputs := loadInputs(b)
	in := inputs[2] // SDF.sdf

	parseOnce := func(b *testing.B, gen *core.Generator) {
		gen.BeginParse()
		ok, err := glr.Recognize(gen, in.Tokens, glr.GSS)
		gen.EndParse()
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}

	b.Run("sequential-warm", func(b *testing.B) {
		b.ReportAllocs()
		gen := core.New(sdf.MustBootstrapGrammar(), nil)
		parseOnce(b, gen)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			parseOnce(b, gen)
		}
	})
	b.Run("parallel-warm", func(b *testing.B) {
		b.ReportAllocs()
		gen := core.New(sdf.MustBootstrapGrammar(), nil)
		parseOnce(b, gen)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				parseOnce(b, gen)
			}
		})
	})
	b.Run("sequential-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gen := core.New(sdf.MustBootstrapGrammar(), nil)
			b.StartTimer()
			parseOnce(b, gen)
		}
	})
	b.Run("shared-cold", func(b *testing.B) {
		b.ReportAllocs()
		// Eight goroutines race one cold table per iteration; the
		// double-checked expansion path is on the critical path, but the
		// expansion work is paid once and shared.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gen := core.New(sdf.MustBootstrapGrammar(), nil)
			var wg sync.WaitGroup
			b.StartTimer()
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					parseOnce(b, gen)
				}()
			}
			wg.Wait()
		}
	})
	b.Run("private-cold", func(b *testing.B) {
		b.ReportAllocs()
		// The no-sharing baseline: eight goroutines each expand their own
		// table. Even on one core the shared variant wins, because
		// expansion happens once instead of eight times.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gens := make([]*core.Generator, 8)
			for w := range gens {
				gens[w] = core.New(sdf.MustBootstrapGrammar(), nil)
			}
			var wg sync.WaitGroup
			b.StartTimer()
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					parseOnce(b, gens[w])
				}(w)
			}
			wg.Wait()
		}
	})
}

// BenchmarkRegistryBatch measures the registry + service path end to
// end: concurrent text parses (scan + parse + priority filter) through
// one shared SDF entry.
func BenchmarkRegistryBatch(b *testing.B) {
	src, err := os.ReadFile("testdata/Calc.sdf")
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.New()
	e, err := reg.Register("calc", registry.Spec{Source: string(src)})
	if err != nil {
		b.Fatal(err)
	}
	exprs := []string{"1 + 2 * 3", "4 * 5 + 6 * 7", "10 / 2 - 3", "2 ^ 3 ^ 2"}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			res, err := e.ParseInput(exprs[i%len(exprs)], true)
			if err != nil || !res.Accepted || res.Trees != 1 {
				b.Fatal(res, err)
			}
			i++
		}
	})
}

// BenchmarkQuickstart exercises the public API end to end, so facade
// overhead stays visible.
func BenchmarkQuickstart(b *testing.B) {
	g, err := ipg.ParseGrammar(`
START ::= B
B ::= "true" | "false" | B "or" B | B "and" B
`)
	if err != nil {
		b.Fatal(err)
	}
	p, err := ipg.NewParser(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	toks := p.MustTokens("true or false and true")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Parse(toks)
		if err != nil || !res.Accepted {
			b.Fatal(res.Accepted, err)
		}
	}
}
