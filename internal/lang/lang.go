// Package lang is the grammar front end shared by the ipg facade's
// Parser and the registry's entries: it holds a language definition (a
// grammar read from plain BNF rules, or one loaded from an SDF
// definition with its ISG scanner and priority relation), resolves input
// to terminal streams, applies rule-text updates, and filters parse
// forests by the SDF priorities.
//
// A Front is the one place where text becomes terminals. It keeps a
// table from each scanner rule to the grammar terminal its sort names,
// so a scan for a parse goes straight from the scanner's longest match
// (isg.Scanner.Match) to symbols, with no token texts, positions or
// name lookups; positions are computed only for an error.
//
// In the paper's interactive environment (section 1) a user edits a
// language definition and its programs together, so a rule that brings
// a new keyword must reach the scanner as well as the parse table:
// UpdateRules teaches the scanner before it hands each rule to the
// table.
//
// Locking: a Front shares its grammar's symbol table with the parse
// table, and rule-text updates intern new symbols into it. Callers keep
// a reader/writer lock for that table: they hold it shared around
// Tokens, ScanText, InputTokens and Disambiguate, and exclusively around
// UpdateRules. The ISG scanner mutates itself as its DFA expands lazily;
// the Front serializes scans and scanner extensions itself, so
// concurrent readers need no more than the shared lock.
package lang

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/isg"
	"ipg/internal/priority"
	"ipg/internal/sdf"
)

// ErrNoScanner is returned by ScanText for grammars not loaded from SDF,
// which have no lexical syntax.
var ErrNoScanner = errors.New("lang: grammar has no scanner (not loaded from SDF); give terminal names instead")

// Front is one grammar with its input front end: for SDF definitions the
// generated scanner and the priority relation.
type Front struct {
	g *grammar.Grammar
	// scanMu serializes use of the scanner, whose lazy DFA expansion
	// mutates scanner state, and guards its extension. Lock order: the
	// caller's symbol-table lock, then scanMu, then the table's locks.
	scanMu  sync.Mutex
	scanner *isg.Scanner
	// terms maps each scanner rule, by its index in Rules, to the symbol
	// its sort names (NoSymbol for none, layout for a layout rule), as of
	// the scanner's modification count lexAt and the symbol table's size
	// symsAt; buf is InputTokens's scratch. scanMu guards all four.
	terms         []grammar.Symbol
	lexAt, symsAt int
	buf           []grammar.Symbol
	rel           *priority.Relation
}

// layout marks a layout rule in Front.terms: its matches are skipped.
const layout grammar.Symbol = -1

// New returns the front end of a grammar read from plain rules: input is
// whitespace-separated terminal names.
func New(g *grammar.Grammar) *Front { return &Front{g: g} }

// LoadSDF reads an SDF definition (Appendix B), generates its scanner
// with ISG and returns its front end. startSort selects the start sort
// ("" = the result sort of the first context-free function).
func LoadSDF(src, startSort string) (*Front, error) {
	def, err := sdf.ParseDefinition(src)
	if err != nil {
		return nil, err
	}
	conv, err := sdf.Convert(def, startSort)
	if err != nil {
		return nil, err
	}
	sc, err := conv.Scanner()
	if err != nil {
		return nil, err
	}
	f := WithScanner(conv.Grammar, sc)
	f.rel = conv.Relation
	return f, nil
}

// WithScanner returns the front end of g for source text scanned by sc,
// whose rules' sorts name g's terminals: LoadSDF's, or the bootstrap
// SDF grammar (sdf.BootstrapGrammar) with sdf.NewScanner.
func WithScanner(g *grammar.Grammar, sc *isg.Scanner) *Front {
	f := &Front{g: g, scanner: sc}
	f.table()
	return f
}

// Grammar returns the front end's grammar.
func (f *Front) Grammar() *grammar.Grammar { return f.g }

// Scanner returns the ISG scanner of an SDF-loaded grammar (nil
// otherwise).
func (f *Front) Scanner() *isg.Scanner { return f.scanner }

// Tokens converts whitespace-separated terminal names into a token
// stream. The stream is EOF-terminated, the form every engine accepts
// without copying; an input that already ends with the "$" end marker
// stays as is. Unknown names and nonterminals are errors.
func (f *Front) Tokens(text string) ([]grammar.Symbol, error) {
	syms := f.g.Symbols()
	words := strings.Fields(text)
	out := make([]grammar.Symbol, 0, len(words)+1)
	for _, word := range words {
		s, ok := syms.Lookup(word)
		if !ok {
			return nil, fmt.Errorf("lang: unknown token %q", word)
		}
		if syms.Kind(s) != grammar.Terminal {
			return nil, fmt.Errorf("lang: %q is not a terminal", word)
		}
		out = append(out, s)
	}
	if n := len(out); n > 0 && out[n-1] == grammar.EOF {
		return out, nil
	}
	return append(out, grammar.EOF), nil
}

// ScanText tokenizes src with the scanner. The symbol slice (without the
// end marker) feeds a parse; the token slice carries the matched texts
// and positions, which forest leaves index into via Node.Pos. It returns
// ErrNoScanner for grammars not loaded from SDF.
func (f *Front) ScanText(src string) ([]grammar.Symbol, []isg.Token, error) {
	if f.scanner == nil {
		return nil, nil, ErrNoScanner
	}
	f.scanMu.Lock()
	defer f.scanMu.Unlock()
	return f.scanText(src)
}

// scanText is ScanText under scanMu: Scan's tokens mapped through the
// table. A scan error comes before an unmapped token.
func (f *Front) scanText(src string) ([]grammar.Symbol, []isg.Token, error) {
	toks, err := f.scanner.Scan(src)
	if err != nil {
		return nil, nil, err
	}
	terms := f.table()
	// One spare slot for the end marker parsers append.
	out := make([]grammar.Symbol, len(toks), len(toks)+1)
	for i, tk := range toks {
		if out[i] = terms[tk.Rule]; out[i] == grammar.NoSymbol {
			return nil, nil, fmt.Errorf("sdf: token sort %q (at %d:%d) is not a terminal of the SDF grammar",
				tk.Sort, tk.Line, tk.Col)
		}
	}
	return out, toks, nil
}

// InputTokens resolves input into an EOF-terminated token stream: source
// text through the scanner for SDF-loaded grammars, whitespace-separated
// terminal names otherwise. Source text is scanned straight into
// symbols, the result its one allocation once the front end is warm; on
// a failure it is scanned again by ScanText for the error.
func (f *Front) InputTokens(input string) ([]grammar.Symbol, error) {
	if f.scanner == nil {
		return f.Tokens(input)
	}
	f.scanMu.Lock()
	defer f.scanMu.Unlock()
	terms, buf := f.table(), f.buf[:0]
	for pos := 0; pos < len(input); {
		rule, end := f.scanner.Match(input, pos)
		if rule < 0 || terms[rule] == grammar.NoSymbol {
			_, _, err := f.scanText(input)
			return nil, err
		}
		if terms[rule] != layout {
			buf = append(buf, terms[rule])
		}
		pos = end
	}
	f.buf = buf
	out := make([]grammar.Symbol, 0, len(buf)+1)
	return append(append(out, buf...), grammar.EOF), nil
}

// table returns terms, rebuilt first when either side changed since it
// was built: the scanner's rules (UpdateRules teaches it literals, a
// caller of Scanner may change them itself, and every change counts in
// Stats.Invalidations) or the symbol table (updates intern new names).
// Callers hold scanMu.
func (f *Front) table() []grammar.Symbol {
	syms, lex := f.g.Symbols(), f.scanner.Stats.Invalidations
	if f.terms == nil || f.lexAt != lex || f.symsAt != syms.Len() {
		f.terms, f.lexAt, f.symsAt = f.terms[:0], lex, syms.Len()
		for _, r := range f.scanner.Rules() {
			t, _ := syms.Lookup(r.Sort)
			if r.Layout {
				t = layout
			}
			f.terms = append(f.terms, t)
		}
	}
	return f.terms
}

// UpdateRules parses BNF rule lines against the grammar's symbol table
// and passes each rule to apply, which updates the parse table (and so
// the grammar), skipping rules already present (add) or absent (delete).
// Before adding a rule to an SDF-loaded grammar it teaches the scanner
// each terminal of the rule the scanner cannot yet produce, as a literal
// token — the converter's keyword and punctuation convention — so the
// new syntax scans at once. It returns the rules applied, up to the
// first failure.
func (f *Front) UpdateRules(text string, add bool, apply func(*grammar.Rule) error) ([]*grammar.Rule, error) {
	tmp, err := grammar.Parse(text, f.g.Symbols())
	if err != nil {
		return nil, err
	}
	var done []*grammar.Rule
	for _, r := range tmp.Rules() {
		if f.g.Has(r) == add {
			continue
		}
		if add && f.scanner != nil {
			if err := f.extendScanner(r); err != nil {
				return done, err
			}
		}
		if err := apply(r); err != nil {
			return done, err
		}
		done = append(done, r)
	}
	return done, nil
}

// extendScanner teaches the scanner any terminal of r it cannot yet
// produce, as a literal token.
func (f *Front) extendScanner(r *grammar.Rule) error {
	f.scanMu.Lock()
	defer f.scanMu.Unlock()
	syms := f.g.Symbols()
	for _, sym := range r.Rhs {
		if syms.Kind(sym) != grammar.Terminal {
			continue
		}
		name := syms.Name(sym)
		if f.scanner.HasSort(name) {
			continue
		}
		if err := f.scanner.AddRule(isg.Rule{Sort: name, Pattern: isg.Lit(name)}); err != nil {
			return err
		}
	}
	return nil
}

// Disambiguate applies the SDF priority and associativity filters to
// res's forest, pruning forbidden derivations; when every derivation is
// forbidden, res becomes rejected. It is a no-op for grammars without
// priorities and for results without trees.
func (f *Front) Disambiguate(res *glr.Result) error {
	if f.rel == nil || res.Root == nil {
		return nil
	}
	filtered, err := f.rel.Filter(res.Forest, res.Root)
	switch {
	case errors.Is(err, priority.ErrNoValidParse):
		res.Accepted = false
		res.Root = nil
	case err != nil:
		return err
	default:
		res.Root = filtered
	}
	return nil
}
