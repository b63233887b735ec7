package lalr

import (
	"fmt"
	"testing"

	"ipg/internal/grammar"
)

// BenchmarkGenerate measures a from-scratch LALR(1) generation: the
// LR(0) automaton plus the lookahead analysis. SDF.sdf is the grammar
// auto probes when the service benchmark registers it; CalcDet.bnf is
// the small conflict-free grammar served by LALR(1).
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"SDF.sdf", "CalcDet.bnf"} {
		b.Run(name, func(b *testing.B) {
			g := loadTestdata(b, name)
			b.ReportAllocs()
			for b.Loop() {
				Generate(g)
			}
		})
	}
}

// BenchmarkRepair measures the table half of a registry rule update on
// k copies of SDF.sdf's nonterminals under one START (k = 1 is SDF.sdf
// itself): one op adds LEX-ELEM ::= "kw0" to copy 0 and deletes it
// again, repairing the table after each mutation. The damage is the
// same at every k, so the op should cost the same too.
func BenchmarkRepair(b *testing.B) {
	base := loadTestdata(b, "SDF.sdf")
	for _, k := range []int{1, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g := grammar.Replicate(base, k)
			lex, _ := g.Symbols().Lookup("LEX-ELEM")
			rule := grammar.NewRule(lex, g.Symbols().MustIntern("kw0", grammar.Terminal))
			tbl := Generate(g)
			repair := func(r *grammar.Rule) {
				if st := tbl.Repair(r); st.Stale() {
					b.Fatalf("repair left the table stale: %s", st.Reason)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				if err := g.AddRule(rule); err != nil {
					b.Fatal(err)
				}
				repair(rule)
				stored, err := g.DeleteRule(rule)
				if err != nil {
					b.Fatal(err)
				}
				repair(stored)
			}
		})
	}
}
