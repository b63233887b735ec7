package ll

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ipg/internal/grammar"
	"ipg/internal/sdf"
)

// BenchmarkRepair measures an LL(1) table repair on k copies of
// SDF.sdf's nonterminals under one START (k = 1 is SDF.sdf itself): one
// op adds LEX-ELEM ::= "kw0" to copy 0 and deletes it again, repairing
// the table after each mutation. The damage is the same at every k.
func BenchmarkRepair(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "SDF.sdf"))
	if err != nil {
		b.Fatal(err)
	}
	def, err := sdf.ParseDefinition(string(src))
	if err != nil {
		b.Fatal(err)
	}
	conv, err := sdf.Convert(def, "")
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g := grammar.Replicate(conv.Grammar, k)
			tbl := Generate(g)
			lex, _ := g.Symbols().Lookup("LEX-ELEM")
			rule := grammar.NewRule(lex, g.Symbols().MustIntern("kw0", grammar.Terminal))
			b.ReportAllocs()
			for b.Loop() {
				if err := g.AddRule(rule); err != nil {
					b.Fatal(err)
				}
				tbl.Repair(rule)
				stored, err := g.DeleteRule(rule)
				if err != nil {
					b.Fatal(err)
				}
				tbl.Repair(stored)
			}
		})
	}
}
