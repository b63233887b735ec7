// Package sdf implements a working subset of SDF, the Syntax Definition
// Formalism of Appendix B: the lexical syntax of SDF itself (via the ISG
// scanner generator), the context-free grammar of SDF itself (the "LR(1)
// version of the grammar of SDF" used as the test grammar in section 7),
// a parser for SDF definitions, and the normalization of parsed
// definitions into plain context-free grammars plus lexical rule sets —
// which is how user-written .sdf files drive IPG/ISG, exactly as in the
// ASF+SDF environment the paper describes. Package sdf produces grammars
// and scanners; internal/lang turns text into their terminals.
package sdf

import "ipg/internal/isg"

// literals are the keywords and punctuation of the SDF language, each
// scanned as a sort of its own text: they double as terminal names in
// the bootstrap grammar.
var literals = []string{
	"module", "begin", "end",
	"lexical", "syntax", "sorts", "layout", "functions",
	"context-free", "priorities",
	"par", "assoc", "left-assoc", "right-assoc",
	"->", ",", "{", "}", "(", ")", ">", "<", "~", "?",
}

// NewScanner builds the ISG scanner for the SDF language itself,
// following the lexical syntax of Appendix B: layout (whitespace and
// "--" comments), identifiers (LETTER ID-TAIL*), literals, character
// classes and iterators. Keywords take priority over ID on equal-length
// matches (rule order).
func NewScanner() (*isg.Scanner, error) {
	az, AZ := isg.RuneRange{Lo: 'a', Hi: 'z'}, isg.RuneRange{Lo: 'A', Hi: 'Z'}
	letter := isg.NewCharClass(az, AZ)
	idTail := isg.NewCharClass(az, AZ, isg.RuneRange{Lo: '0', Hi: '9'},
		isg.RuneRange{Lo: '-', Hi: '-'}, isg.RuneRange{Lo: '_', Hi: '_'})
	ws := isg.ClassOf(' ', '\t', '\n', '\r', '\f')
	// L-CHAR: anything except '"' and backslash, or a backslash escape.
	notQuote := isg.ClassOf('"', '\\').Negate()
	// C-CHAR inside classes: anything except ']' and backslash, or a
	// backslash escape.
	notBracket := isg.ClassOf(']', '\\').Negate()
	anyRune := isg.NewCharClass(isg.RuneRange{Lo: 0, Hi: isg.MaxRune})
	notNewline := isg.ClassOf('\n').Negate()

	var rules []isg.Rule
	// Keywords first: rule order breaks longest-match ties.
	for _, lit := range literals {
		rules = append(rules, isg.Rule{Sort: lit, Pattern: isg.Lit(lit)})
	}
	escape := isg.Seq(isg.Lit(`\`), isg.Class(anyRune))
	rules = append(rules,
		isg.Rule{Sort: "ID", Pattern: isg.Seq(isg.Class(letter), isg.Star(isg.Class(idTail)))},
		isg.Rule{Sort: "ITERATOR", Pattern: isg.Alt(isg.Lit("+"), isg.Lit("*"))},
		isg.Rule{Sort: "LITERAL", Pattern: isg.Seq(
			isg.Lit(`"`),
			isg.Star(isg.Alt(isg.Class(notQuote), escape)),
			isg.Lit(`"`),
		)},
		isg.Rule{Sort: "CHAR-CLASS", Pattern: isg.Seq(
			isg.Lit("["),
			isg.Star(isg.Alt(isg.Class(notBracket), escape)),
			isg.Lit("]"),
		)},
		isg.Rule{Sort: "WHITE-SPACE", Pattern: isg.Plus(isg.Class(ws)), Layout: true},
		isg.Rule{Sort: "COMMENT", Pattern: isg.Seq(
			isg.Lit("--"),
			isg.Star(isg.Class(notNewline)),
		), Layout: true},
	)
	return isg.NewScanner(rules)
}
