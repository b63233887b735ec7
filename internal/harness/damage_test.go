package harness

import (
	"os"
	"path/filepath"
	"testing"

	"ipg/internal/core"
	"ipg/internal/grammar"
	"ipg/internal/lalr"
	"ipg/internal/lang"
	"ipg/internal/ll"
)

// damageWork is what one fresh-keyword add+delete on copy 0's LEX-ELEM
// visited in each layer of the k-replicated SDF.sdf grammar: the work
// counts the repairs report, summed over the two updates.
type damageWork struct {
	rules, states int
	lalr          lalr.RepairStats
	ll            ll.RepairStats
	coreScanned   uint64
}

func loadSDFGrammar(tb testing.TB) *grammar.Grammar {
	tb.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "SDF.sdf"))
	if err != nil {
		tb.Fatal(err)
	}
	front, err := lang.LoadSDF(string(src), "")
	if err != nil {
		tb.Fatal(err)
	}
	return front.Grammar()
}

// measureDamage runs one warm-up and one counted add+delete cycle of
// LEX-ELEM ::= "kw0" through each layer, each on its own copy of the
// k-replicated grammar.
func measureDamage(tb testing.TB, base *grammar.Grammar, k int) damageWork {
	tb.Helper()
	keyword := func(g *grammar.Grammar) *grammar.Rule {
		lex, ok := g.Symbols().Lookup("LEX-ELEM")
		if !ok {
			tb.Fatal("no LEX-ELEM")
		}
		return grammar.NewRule(lex, g.Symbols().MustIntern("kw0", grammar.Terminal))
	}
	cycle := func(g *grammar.Grammar, repair func(*grammar.Rule)) {
		r := keyword(g)
		if err := g.AddRule(r); err != nil {
			tb.Fatal(err)
		}
		repair(r)
		stored, err := g.DeleteRule(r)
		if err != nil {
			tb.Fatal(err)
		}
		repair(stored)
	}
	var w damageWork

	g := grammar.Replicate(base, k)
	w.rules = g.Len()
	tbl := lalr.Generate(g)
	w.states = tbl.Automaton().Len()
	counted := false
	lalrRepair := func(r *grammar.Rule) {
		st := tbl.Repair(r)
		if st.FellBack {
			tb.Fatalf("k=%d: LALR repair fell back: %s", k, st.Reason)
		}
		if counted {
			w.lalr.Affected += st.Affected
			w.lalr.Scanned += st.Scanned
			w.lalr.Propagated += st.Propagated
			w.lalr.RulesDiffed += st.RulesDiffed
			w.lalr.Reanalysed += st.Reanalysed
		}
	}
	cycle(g, lalrRepair)
	counted = true
	cycle(g, lalrRepair)
	if tbl.Signature() != lalr.Generate(g).Signature() {
		tb.Fatalf("k=%d: repaired LALR table diverges from regeneration", k)
	}

	g = grammar.Replicate(base, k)
	lt := ll.Generate(g)
	counted = false
	llRepair := func(r *grammar.Rule) {
		st := lt.Repair(r)
		if counted {
			w.ll.RowsRepaired += st.RowsRepaired
			w.ll.RulesDiffed += st.RulesDiffed
			w.ll.Reanalysed += st.Reanalysed
		}
	}
	cycle(g, llRepair)
	counted = true
	cycle(g, llRepair)
	if lt.Signature() != ll.Generate(g).Signature() {
		tb.Fatalf("k=%d: repaired LL table diverges from regeneration", k)
	}

	// The lazy generator invalidates what a modification damages; the
	// next parses re-expand it (Pregenerate stands in for them here, so
	// every update finds complete states to invalidate).
	g = grammar.Replicate(base, k)
	gen := core.New(g, nil)
	gen.Pregenerate()
	r := keyword(g)
	coreCycle := func() uint64 {
		before := gen.Counters().RepairScanned
		if err := gen.AddRule(r); err != nil {
			tb.Fatal(err)
		}
		gen.Pregenerate()
		if err := gen.DeleteRule(r); err != nil {
			tb.Fatal(err)
		}
		gen.Pregenerate()
		return gen.Counters().RepairScanned - before
	}
	coreCycle()
	w.coreScanned = coreCycle()
	return w
}

// TestRepairWorkBoundedByDamage is the damage gate of the paper's
// claim that modification cost scales with the damage, not the grammar
// (section 6.1): on k = 16 copies of SDF.sdf's nonterminals under one
// START, adding and deleting a fresh-keyword rule on one copy's
// LEX-ELEM damages what it damages at k = 1, and every work count the
// layers report — states scanned, slots propagated, rules diffed,
// nonterminals re-analysed, LL rows refilled — may exceed its k = 1
// value by at most a small constant. The copies share terminals, so
// from k = 2 on the LR(0) automaton has states where their derivations
// coincide, a few of which the edited copy's lookaheads reach; past
// that the counts must not move at all, so k = 16 must equal k = 2. The
// counts are deterministic, so the gate holds on any machine.
func TestRepairWorkBoundedByDamage(t *testing.T) {
	base := loadSDFGrammar(t)
	one, two, many := measureDamage(t, base, 1), measureDamage(t, base, 2), measureDamage(t, base, 16)
	for _, w := range []struct {
		k int
		w damageWork
	}{{1, one}, {2, two}, {16, many}} {
		t.Logf("k=%d: %d rules, %d states; lalr scanned %d, propagated %d, rules diffed %d, re-analysed %d; ll rows %d, rules diffed %d, re-analysed %d; core scanned %d",
			w.k, w.w.rules, w.w.states, w.w.lalr.Scanned, w.w.lalr.Propagated, w.w.lalr.RulesDiffed, w.w.lalr.Reanalysed,
			w.w.ll.RowsRepaired, w.w.ll.RulesDiffed, w.w.ll.Reanalysed, w.w.coreScanned)
	}
	if many.states < 10*one.states {
		t.Fatalf("k=16 grammar has %d states, k=1 %d: the copies are not separate", many.states, one.states)
	}
	if many.lalr.Affected != one.lalr.Affected {
		t.Fatalf("affected states: k=16 %d, k=1 %d; the damage must not depend on k", many.lalr.Affected, one.lalr.Affected)
	}
	const slack = 16
	for _, c := range []struct {
		name           string
		one, two, many int
	}{
		{"lalr states scanned", one.lalr.Scanned, two.lalr.Scanned, many.lalr.Scanned},
		{"lalr slots propagated", one.lalr.Propagated, two.lalr.Propagated, many.lalr.Propagated},
		{"lalr rules diffed", one.lalr.RulesDiffed, two.lalr.RulesDiffed, many.lalr.RulesDiffed},
		{"lalr nonterminals re-analysed", one.lalr.Reanalysed, two.lalr.Reanalysed, many.lalr.Reanalysed},
		{"ll rows refilled", one.ll.RowsRepaired, two.ll.RowsRepaired, many.ll.RowsRepaired},
		{"ll rules diffed", one.ll.RulesDiffed, two.ll.RulesDiffed, many.ll.RulesDiffed},
		{"ll nonterminals re-analysed", one.ll.Reanalysed, two.ll.Reanalysed, many.ll.Reanalysed},
		{"core states scanned", int(one.coreScanned), int(two.coreScanned), int(many.coreScanned)},
	} {
		if c.one == 0 {
			t.Errorf("%s: k=1 visits nothing; the count is not wired", c.name)
		}
		if c.many > c.one+slack {
			t.Errorf("%s: k=16 visits %d, k=1 %d (slack %d)", c.name, c.many, c.one, slack)
		}
		if c.many != c.two {
			t.Errorf("%s: k=16 visits %d, k=2 %d; the count grows with the grammar", c.name, c.many, c.two)
		}
	}
}
