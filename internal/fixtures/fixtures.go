// Package fixtures provides the example grammars and sentences used
// throughout the paper, shared by tests, examples, and benchmarks.
package fixtures

import (
	"strings"

	"ipg/internal/grammar"
)

// BooleansText is the grammar of the Booleans of Fig. 4.1(a):
//
//	0  B ::= true
//	1  B ::= false
//	2  B ::= B or B
//	3  B ::= B and B
//	4  START ::= B
//
// It is ambiguous (no priorities between or/and), which exercises the
// parallel parser.
const BooleansText = `
B ::= "true"
B ::= "false"
B ::= B "or" B
B ::= B "and" B
START ::= B
`

// Booleans returns a fresh booleans grammar.
func Booleans() *grammar.Grammar { return grammar.MustParse(BooleansText) }

// AB is the grammar of Fig. 6.2(a), "a complicated way to describe a
// language with only the sentences 'a b' and 'c b'". Adding A ::= b to it
// restructures the graph of item sets (Fig. 6.3), showing that grammar
// extension is not graph extension.
const ABText = `
START ::= E
E ::= "c" C
C ::= B
START ::= D
D ::= "a" A
A ::= B
B ::= "b"
`

// AB returns a fresh Fig. 6.2 grammar.
func AB() *grammar.Grammar { return grammar.MustParse(ABText) }

// Tokens looks each whitespace-separated word of s up in g's symbol
// table and returns the token stream (without end marker). It panics on
// an unknown word — fixture sentences are static.
func Tokens(g *grammar.Grammar, s string) []grammar.Symbol {
	var out []grammar.Symbol
	for _, word := range strings.Fields(s) {
		sym, ok := g.Symbols().Lookup(word)
		if !ok {
			panic("fixtures: unknown token " + word)
		}
		out = append(out, sym)
	}
	return out
}
