package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ipg/internal/grammar"
	"ipg/internal/sdf"
)

// BenchmarkModify measures the lazy generator's half of a rule update
// on k copies of SDF.sdf's nonterminals under one START (k = 1 is
// SDF.sdf itself): one op adds LEX-ELEM ::= "kw0" to copy 0 and deletes
// it again, and after each modification re-expands the states it
// invalidated, as the next parses would. The damage is the same at
// every k, so the op should cost the same too.
func BenchmarkModify(b *testing.B) {
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
			gen := New(g, nil)
			gen.Pregenerate()
			lex, _ := g.Symbols().Lookup("LEX-ELEM")
			rule := grammar.NewRule(lex, g.Symbols().MustIntern("kw0", grammar.Terminal))
			damaged := gen.Automaton().AppendStatesOn(nil, lex)
			reexpand := func() {
				for _, s := range damaged {
					gen.Actions(s, grammar.EOF)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				if err := gen.AddRule(rule); err != nil {
					b.Fatal(err)
				}
				reexpand()
				if err := gen.DeleteRule(rule); err != nil {
					b.Fatal(err)
				}
				reexpand()
			}
		})
	}
}
