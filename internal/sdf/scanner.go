// Package sdf implements a working subset of SDF, the Syntax Definition
// Formalism of Appendix B: the lexical syntax of SDF itself (via the ISG
// scanner generator), the context-free grammar of SDF itself (the "LR(1)
// version of the grammar of SDF" used as the test grammar in section 7),
// a parser for SDF definitions, and the normalization of parsed
// definitions into plain context-free grammars plus lexical rule sets —
// which is how user-written .sdf files drive IPG/ISG, exactly as in the
// ASF+SDF environment the paper describes.
package sdf

import (
	"fmt"

	"ipg/internal/grammar"
	"ipg/internal/isg"
)

// Keywords of the SDF language. They double as terminal names in the
// bootstrap grammar.
var keywords = []string{
	"module", "begin", "end",
	"lexical", "syntax", "sorts", "layout", "functions",
	"context-free", "priorities",
	"par", "assoc", "left-assoc", "right-assoc",
}

// punct maps scanner sorts to the punctuation they match.
var punct = []struct{ sort, text string }{
	{"->", "->"},
	{",", ","},
	{"{", "{"},
	{"}", "}"},
	{"(", "("},
	{")", ")"},
	{">", ">"},
	{"<", "<"},
	{"~", "~"},
	{"?", "?"},
}

// NewScanner builds the ISG scanner for the SDF language itself,
// following the lexical syntax of Appendix B: layout (whitespace and
// "--" comments), identifiers (LETTER ID-TAIL*), literals, character
// classes and iterators. Keywords take priority over ID on equal-length
// matches (rule order).
func NewScanner() (*isg.Scanner, error) {
	letter, err := isg.ParseClass("[a-zA-Z]")
	if err != nil {
		return nil, err
	}
	idTail, err := isg.ParseClass(`[a-zA-Z0-9\-_]`)
	if err != nil {
		return nil, err
	}
	ws, err := isg.ParseClass("[ \\t\\n\\r\\f]")
	if err != nil {
		return nil, err
	}
	// L-CHAR: anything except '"' and backslash, or a backslash escape.
	lchar, err := isg.ParseClass(`["\\]`)
	if err != nil {
		return nil, err
	}
	notQuote := lchar.Negate()
	// C-CHAR inside classes: anything except ']' and backslash, or a
	// backslash escape.
	cchar, err := isg.ParseClass(`[\]\\]`)
	if err != nil {
		return nil, err
	}
	notBracket := cchar.Negate()
	anyRune := isg.NewCharClass(isg.RuneRange{Lo: 0, Hi: isg.MaxRune})
	newline := isg.ClassOf('\n')
	notNewline := newline.Negate()

	var rules []isg.Rule
	// Keywords first: rule order breaks longest-match ties.
	for _, kw := range keywords {
		rules = append(rules, isg.Rule{Sort: kw, Pattern: isg.Lit(kw)})
	}
	for _, p := range punct {
		rules = append(rules, isg.Rule{Sort: p.sort, Pattern: isg.Lit(p.text)})
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

// Tokenize scans src and maps the tokens onto terminals of the bootstrap
// grammar's symbol table — "the input of all parsers was a stream of
// lexical tokens already in memory" (section 7).
func Tokenize(src string, syms *grammar.SymbolTable) ([]grammar.Symbol, []isg.Token, error) {
	sc, err := NewScanner()
	if err != nil {
		return nil, nil, err
	}
	return TokenizeWith(sc, src, syms)
}

// TokenizeWith is Tokenize reusing an existing scanner.
func TokenizeWith(sc *isg.Scanner, src string, syms *grammar.SymbolTable) ([]grammar.Symbol, []isg.Token, error) {
	toks, err := sc.Scan(src)
	if err != nil {
		return nil, nil, err
	}
	// One spare slot for the end marker parsers append.
	out := make([]grammar.Symbol, 0, len(toks)+1)
	for _, tk := range toks {
		s, ok := syms.Lookup(tk.Sort)
		if !ok {
			return nil, nil, fmt.Errorf("sdf: token sort %q (at %d:%d) is not a terminal of the SDF grammar",
				tk.Sort, tk.Line, tk.Col)
		}
		out = append(out, s)
	}
	return out, toks, nil
}
