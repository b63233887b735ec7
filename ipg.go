// Package ipg is a Go implementation of IPG, the lazy and incremental
// parser generator of J. Heering, P. Klint and J. Rekers, "Incremental
// Generation of Parsers" (CWI report CS-R8822, 1988; PLDI 1989), together
// with every substrate the paper builds on or compares against:
//
//   - a parallel (Tomita-style) LR parser for arbitrary context-free
//     grammars, in both the paper's copying formulation and a
//     graph-structured-stack formulation with shared parse forests;
//   - conventional LR(0) (the paper's "PG") and LALR(1) (the "Yacc"
//     baseline) table generators;
//   - Earley, LL(1)/recursive-descent, Cigale-trie and OBJ-backtracking
//     baseline parsers (the comparison matrix of Fig 2.1);
//   - ISG, the companion lazy/incremental scanner generator;
//   - a working subset of SDF, the Syntax Definition Formalism, so
//     grammars can be written the way the paper's users wrote them.
//
// The core promise of IPG: parsing can start immediately on a new or
// freshly modified grammar, the parse table is generated only as far as
// the input sentences need it, and a grammar modification invalidates
// only the table parts it affects.
//
// A Parser is that system: the lazily and incrementally generated LR(0)
// table driving the GSS (or copying) engine. It shares its grammar front
// end with the registry's entries — SDF loading, token resolution,
// rule-text updates that also teach an SDF scanner new literals, and the
// priority filters — so a text reads the same through both. The
// registry (NewRegistry) hosts the other backends, LALR(1), LL(1),
// Earley and auto-selection, per grammar.
//
// # Quick start
//
//	g, _ := ipg.ParseGrammar(`
//	    START ::= E
//	    E ::= E "+" E | "x"
//	`)
//	p, _ := ipg.NewParser(g, nil)
//	res, _ := p.Parse(p.MustTokens("x + x"))
//	fmt.Println(res.Accepted)
package ipg

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"ipg/internal/core"
	"ipg/internal/forest"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/isg"
	"ipg/internal/lang"
	"ipg/internal/lr"
)

// Re-exported grammar vocabulary. Symbols are interned integers; a
// Grammar owns (or shares) a SymbolTable and a modifiable rule set.
type (
	// Grammar is a modifiable context-free grammar.
	Grammar = grammar.Grammar
	// Rule is a single syntax rule A ::= α.
	Rule = grammar.Rule
	// Symbol is an interned terminal or nonterminal.
	Symbol = grammar.Symbol
	// SymbolTable interns symbol names.
	SymbolTable = grammar.SymbolTable
	// Forest is a shared parse forest.
	Forest = forest.Forest
	// Node is a parse forest node.
	Node = forest.Node
	// NodeKind discriminates forest nodes.
	NodeKind = forest.Kind
	// Token is a scanned token (SDF-loaded parsers).
	Token = isg.Token
	// LexRule is an ISG lexical rule, for extending an SDF-loaded
	// parser's scanner at run time.
	LexRule = isg.Rule
)

// LiteralTokenRule builds a lexical rule matching exactly text, emitting
// a token whose sort is the text itself — the convention the SDF
// converter uses for keywords and punctuation, so grammar rules can
// reference the new terminal by the same name.
func LiteralTokenRule(text string) LexRule {
	return isg.Rule{Sort: text, Pattern: isg.Lit(text)}
}

// Forest node kinds.
const (
	// LeafNode is a terminal occurrence.
	LeafNode = forest.Leaf
	// RuleNode is a rule application.
	RuleNode = forest.RuleNode
	// AmbNode packs alternative derivations.
	AmbNode = forest.Amb
)

// Engine selects the parsing algorithm; see the glr package constants
// re-exported below.
type Engine = glr.Engine

// Parsing engines.
const (
	// Copying is the paper's PAR-PARSE: parser copies with shared stacks.
	Copying = glr.Copying
	// GSS is the graph-structured-stack engine with packed forests.
	GSS = glr.GSS
	// Deterministic is plain LR-PARSE; it fails on table conflicts.
	Deterministic = glr.Deterministic
)

// Options configures NewParser. The zero value (nil) gives the paper's
// IPG: lazy incremental LR(0) generation driving the GSS engine.
type Options struct {
	// Eager generates the full table up front (the paper's PG) instead
	// of lazily during parsing.
	Eager bool
	// Engine selects the parse algorithm (default GSS).
	Engine Engine
	// DisableTrees skips parse forest construction.
	DisableTrees bool
}

// Parser couples a grammar's front end (internal/lang: token resolution,
// rule-text updates and, for SDF, the scanner and priority filters), the
// paper's lazily and incrementally generated LR(0) table and a parsing
// engine: NewParser returns immediately, table parts materialize during
// Parse, and AddRule/DeleteRule splice grammar changes into the existing
// table. For the LALR(1), LL(1) or Earley backends, register the grammar
// in a Registry instead.
type Parser struct {
	opts  Options
	front *lang.Front
	gen   *core.Generator

	// mu is the front end's symbol-table lock: the rule-text helpers
	// intern new symbols into the shared SymbolTable before taking the
	// generator's write lock, so parses, token resolution and the
	// renderers that read symbol names (readers) and rule updates
	// (writers) exclude each other here.
	mu sync.RWMutex
}

// NewParser builds a parser for g. With default options no table
// generation happens here — parsing can start immediately.
func NewParser(g *Grammar, opts *Options) (*Parser, error) {
	if g == nil {
		return nil, errors.New("ipg: nil grammar")
	}
	return build(lang.New(g), opts), nil
}

// build returns a parser over front's grammar with a fresh table,
// pregenerated under Options.Eager.
func build(front *lang.Front, opts *Options) *Parser {
	p := newParser(front, core.New(front.Grammar(), nil), opts)
	if p.opts.Eager {
		p.gen.Pregenerate()
	}
	return p
}

// newParser returns a parser over front's grammar driving gen.
func newParser(front *lang.Front, gen *core.Generator, opts *Options) *Parser {
	p := &Parser{front: front, gen: gen}
	if opts != nil {
		p.opts = *opts
	}
	return p
}

// ParseGrammar reads a grammar from the plain-text BNF format:
//
//	START ::= E
//	E ::= E "+" T | T      # alternatives and comments
//	T ::= "x" | ε          # quoted terminals, epsilon rules
//
// Bare names are nonterminals if defined anywhere in the text, terminals
// otherwise.
func ParseGrammar(text string) (*Grammar, error) {
	return grammar.Parse(text, nil)
}

// Grammar returns the parser's grammar. Modify it only through AddRule
// and DeleteRule.
func (p *Parser) Grammar() *Grammar { return p.front.Grammar() }

// Table exposes the underlying parse table (for dumps and diagnostics).
func (p *Parser) Table() lr.Table { return p.gen }

// Generator exposes the incremental generator.
func (p *Parser) Generator() *core.Generator { return p.gen }

// Result is the outcome of a parse.
type Result = glr.Result

// Parse parses a terminal stream (the end marker is appended
// automatically).
//
// Parse is safe for concurrent use: each call holds shared access to
// the lazily expanding table for its whole duration, so concurrent
// AddRule/DeleteRule/AddRulesText/DeleteRulesText calls never tear a
// running parse (see core.Generator). So are Recognize, Tokens,
// ScanText and ParseText.
func (p *Parser) Parse(input []Symbol) (Result, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.parseLocked(input)
}

func (p *Parser) parseLocked(input []Symbol) (Result, error) {
	p.gen.BeginParse()
	defer p.gen.EndParse()
	return glr.Parse(p.gen, input, &glr.Options{
		Engine:       p.opts.Engine,
		DisableTrees: p.opts.DisableTrees,
	})
}

// Recognize reports acceptance without building trees. Like Parse it is
// safe for concurrent use.
func (p *Parser) Recognize(input []Symbol) (bool, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.gen.BeginParse()
	defer p.gen.EndParse()
	return glr.Recognize(p.gen, input, p.opts.Engine)
}

// Tokens converts whitespace-separated terminal names into a token
// stream (without the end marker, which Parse appends). Unknown names
// are an error. Like Parse it may run concurrently with the rule-update
// methods, which intern new symbols.
func (p *Parser) Tokens(text string) ([]Symbol, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	toks, err := p.front.Tokens(text)
	if err != nil {
		return nil, err
	}
	return toks[:len(toks)-1], nil
}

// MustTokens is Tokens that panics on unknown names; convenient in
// examples and tests.
func (p *Parser) MustTokens(text string) []Symbol {
	toks, err := p.Tokens(text)
	if err != nil {
		panic(err)
	}
	return toks
}

// AddRule adds a rule and incrementally updates the parse table
// (ADD-RULE, section 6).
func (p *Parser) AddRule(r *Rule) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen.AddRule(r)
}

// DeleteRule removes a rule and incrementally updates the parse table
// (DELETE-RULE, section 6).
func (p *Parser) DeleteRule(r *Rule) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen.DeleteRule(r)
}

// AddRulesText parses BNF rule lines (sharing this parser's symbol
// table) and adds each rule not already present incrementally. On an
// SDF-loaded parser it first teaches the scanner the rule's new quoted
// terminals as literal tokens, so the new syntax scans at once — the
// paper's simultaneous editing of language definitions and programs. It
// returns the added rules.
func (p *Parser) AddRulesText(text string) ([]*Rule, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.front.UpdateRules(text, true, p.gen.AddRule)
}

// DeleteRulesText parses BNF rule lines and deletes each rule present
// incrementally.
func (p *Parser) DeleteRulesText(text string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.front.UpdateRules(text, false, p.gen.DeleteRule)
	return err
}

// Stats reports generation progress: how much of the parse table exists,
// and how much work generation has performed so far.
type Stats struct {
	// States is the number of states currently in the graph of item
	// sets; Complete of them are expanded, Initial and Dirty are not.
	States, Complete, Initial, Dirty int
	// Expansions counts EXPAND calls so far.
	Expansions int
	// StatesRemoved counts garbage-collected states.
	StatesRemoved int
}

// Stats returns generation statistics.
func (p *Parser) Stats() Stats {
	cov := p.gen.Coverage()
	return Stats{
		States:        cov.Initial + cov.Complete + cov.Dirty,
		Complete:      cov.Complete,
		Initial:       cov.Initial,
		Dirty:         cov.Dirty,
		Expansions:    cov.Expansions,
		StatesRemoved: cov.StatesRemoved,
	}
}

// TableString renders the tabular ACTION/GOTO form of the current graph
// of item sets (Fig 4.1b); ungenerated states render as '·'.
func (p *Parser) TableString() string { return p.gen.Automaton().FormatTable() }

// GraphString renders the graph of item sets as text.
func (p *Parser) GraphString() string { return p.gen.Automaton().Dump() }

// DOT renders the graph of item sets in Graphviz format.
func (p *Parser) DOT() string { return p.gen.Automaton().DOT() }

// SaveTable persists the current graph of item sets — including its lazy
// frontier, so a later session resumes exactly where this one stopped
// generating.
func (p *Parser) SaveTable(w io.Writer) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, err := p.gen.SaveTable(w)
	return err
}

// NewParserFromTable rebuilds a parser from a table saved by SaveTable.
// The grammar must still contain every rule the table references (use
// the same grammar text the table was generated from).
func NewParserFromTable(g *Grammar, r io.Reader, opts *Options) (*Parser, error) {
	auto, err := lr.Load(g, r)
	if err != nil {
		return nil, err
	}
	return newParser(lang.New(g), core.NewFromAutomaton(auto, nil), opts), nil
}

// ErrorMessage renders a human-readable diagnostic for a rejected parse:
// the failing token position and the terminals that would have been
// accepted there. It returns "" for accepted results.
func (p *Parser) ErrorMessage(res Result, input []Symbol) string {
	if res.Accepted || res.ErrorPos < 0 {
		return ""
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	syms := p.Grammar().Symbols()
	found := "end of input"
	if res.ErrorPos < len(input) {
		found = fmt.Sprintf("%q", syms.Name(input[res.ErrorPos]))
	}
	var expected []string
	for _, s := range res.Expected {
		if s == grammar.EOF {
			expected = append(expected, "end of input")
			continue
		}
		expected = append(expected, fmt.Sprintf("%q", syms.Name(s)))
	}
	msg := fmt.Sprintf("ipg: syntax error at token %d: found %s", res.ErrorPos, found)
	if len(expected) > 0 {
		msg += ", expected " + strings.Join(expected, " or ")
	}
	return msg
}

// TreeCount returns the number of parse trees in a result's forest.
func TreeCount(n *Node) (int64, error) { return forest.TreeCount(n) }

// TreeString renders a forest in bracketed form with {a | b} ambiguity
// groups.
func (p *Parser) TreeString(n *Node) string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return forest.String(n, p.Grammar().Symbols())
}

// Trees enumerates up to limit parse trees as bracketed strings.
func (p *Parser) Trees(n *Node, limit int) ([]string, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return forest.Trees(n, p.Grammar().Symbols(), limit)
}

// LoadSDF parses an SDF definition (the paper's Syntax Definition
// Formalism, Appendix B), generates its scanner with ISG and returns a
// parser for the defined language. startSort selects the start sort ("" =
// the result sort of the first context-free function).
func LoadSDF(src, startSort string, opts *Options) (*Parser, error) {
	front, err := lang.LoadSDF(src, startSort)
	if err != nil {
		return nil, err
	}
	return build(front, opts), nil
}

// Disambiguate applies the SDF priority and associativity filters of an
// SDF-loaded grammar to a parse result, pruning forbidden derivations
// from the forest. When every derivation is forbidden the result becomes
// rejected. It is a no-op for grammars without priorities and for
// results without trees.
func (p *Parser) Disambiguate(res *Result) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.front.Disambiguate(res)
}

// Scanner returns the ISG scanner of an SDF-loaded parser (nil
// otherwise). AddRulesText extends it as rules need; a caller that adds
// lexical rules itself must not scan concurrently.
func (p *Parser) Scanner() *isg.Scanner { return p.front.Scanner() }

// ScanText tokenizes src with the parser's ISG scanner. The symbol slice
// feeds Parse; the token slice carries the matched texts and positions
// (forest leaves index into it via Node.Pos). It requires an SDF-loaded
// parser.
func (p *Parser) ScanText(src string) ([]Symbol, []Token, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.front.ScanText(src)
}

// ParseText scans src with the parser's ISG scanner, parses the token
// stream, and applies the grammar's priority/associativity filters. It
// requires an SDF-loaded parser.
func (p *Parser) ParseText(src string) (Result, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	toks, _, err := p.front.ScanText(src)
	if err != nil {
		return Result{}, err
	}
	res, err := p.parseLocked(toks)
	if err == nil {
		err = p.front.Disambiguate(&res)
	}
	return res, err
}
