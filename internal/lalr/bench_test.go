package lalr

import (
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
// SDF.sdf: one op adds LEX-ELEM ::= "kw0" and deletes it again, repairing
// the table after each mutation.
func BenchmarkRepair(b *testing.B) {
	g := loadTestdata(b, "SDF.sdf")
	tmp, err := grammar.Parse(`LEX-ELEM ::= "kw0"`, g.Symbols())
	if err != nil {
		b.Fatal(err)
	}
	rule := tmp.Rules()[0]
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
}
