// Package grammar implements context-free grammars as used by the IPG
// parser generators: interned symbols, syntax rules, modifiable grammars
// with versioning, a plain-text BNF format, standard grammar analyses
// (reachability, productivity, NULLABLE/FIRST/FOLLOW), and deterministic
// random generators for property-based testing.
//
// The representation follows section 4 of Heering, Klint & Rekers,
// "Incremental Generation of Parsers" (CWI CS-R8822, 1988): a grammar is a
// set of syntax rules A ::= α with A a nonterminal and α a list of zero or
// more terminals and/or nonterminals. The nonterminal START is the start
// symbol and may not be used in the right-hand side of any rule.
package grammar

import (
	"fmt"
	"sort"
)

// Symbol is an interned grammar symbol. The zero Symbol is invalid; valid
// symbols are obtained from a SymbolTable. A Symbol is only meaningful
// together with the table that produced it.
type Symbol int32

// NoSymbol is the invalid zero symbol.
const NoSymbol Symbol = 0

// EOF is the end-of-input marker "$". Every SymbolTable interns it at
// creation time with this fixed value, so EOF is table-independent.
const EOF Symbol = 1

// Kind classifies a symbol as terminal or nonterminal. Kinds are fixed when
// a symbol is interned; a grammar rule may only have a nonterminal
// left-hand side.
type Kind uint8

const (
	// Terminal symbols appear in the input token stream.
	Terminal Kind = iota
	// Nonterminal symbols are defined by grammar rules.
	Nonterminal
)

// String returns "terminal" or "nonterminal".
func (k Kind) String() string {
	switch k {
	case Terminal:
		return "terminal"
	case Nonterminal:
		return "nonterminal"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// SymbolTable interns symbol names. It is the identity space for Symbols:
// two grammars sharing a table may exchange symbols and rules directly
// (this is what modular grammar composition relies on).
type SymbolTable struct {
	names  []string
	kinds  []Kind
	byName map[string]Symbol
	// ruleIDs interns rule values (Rule.Key) to rule IDs, from 1. An
	// entry outlives its rule's deletion from every grammar.
	ruleIDs map[string]uint32
}

// NewSymbolTable returns a table with the end-marker "$" pre-interned as
// the terminal EOF.
func NewSymbolTable() *SymbolTable {
	t := &SymbolTable{
		// Index 0 is reserved for NoSymbol.
		names:   []string{"", "$"},
		kinds:   []Kind{Terminal, Terminal},
		byName:  map[string]Symbol{"$": EOF},
		ruleIDs: map[string]uint32{},
	}
	return t
}

// Intern returns the symbol for name, creating it with the given kind if it
// does not exist. Interning an existing name with a different kind is an
// error: kinds are fixed for the lifetime of the table.
func (t *SymbolTable) Intern(name string, kind Kind) (Symbol, error) {
	if name == "" {
		return NoSymbol, fmt.Errorf("grammar: empty symbol name")
	}
	if s, ok := t.byName[name]; ok {
		if t.kinds[s] != kind {
			return NoSymbol, fmt.Errorf("grammar: symbol %q already interned as %s, cannot re-intern as %s",
				name, t.kinds[s], kind)
		}
		return s, nil
	}
	s := Symbol(len(t.names))
	t.names = append(t.names, name)
	t.kinds = append(t.kinds, kind)
	t.byName[name] = s
	return s, nil
}

// RuleID returns r's integer identity in t: the ID t gave r, or an
// equal rule, when it entered a grammar over t; 0 when no grammar over
// t ever held a rule equal to r. It only reads the table.
func (t *SymbolTable) RuleID(r *Rule) uint32 {
	if r.syms == t {
		return r.id
	}
	return t.ruleIDs[r.key]
}

// internRule gives r its ID in t, as the rule enters a grammar over t.
// A rule another table interned is copied first: its ID belongs to
// that table's grammars.
func (t *SymbolTable) internRule(r *Rule) *Rule {
	if r.syms == t {
		return r
	}
	if r.syms != nil {
		r = &Rule{Lhs: r.Lhs, Rhs: r.Rhs, key: r.key}
	}
	id, ok := t.ruleIDs[r.key]
	if !ok {
		id = uint32(len(t.ruleIDs) + 1)
		t.ruleIDs[r.key] = id
	}
	r.id, r.syms = id, t
	return r
}

// MustIntern is Intern that panics on error. Intended for tests and for
// statically known bootstrap grammars.
func (t *SymbolTable) MustIntern(name string, kind Kind) Symbol {
	s, err := t.Intern(name, kind)
	if err != nil {
		panic(err)
	}
	return s
}

// Terminal interns name as a terminal.
func (t *SymbolTable) Terminal(name string) (Symbol, error) { return t.Intern(name, Terminal) }

// Nonterminal interns name as a nonterminal.
func (t *SymbolTable) Nonterminal(name string) (Symbol, error) { return t.Intern(name, Nonterminal) }

// Lookup returns the symbol for name without creating it. The boolean
// reports whether the name is known.
func (t *SymbolTable) Lookup(name string) (Symbol, bool) {
	s, ok := t.byName[name]
	return s, ok
}

// Name returns the name of s, or "<invalid>" for symbols not in the table.
func (t *SymbolTable) Name(s Symbol) string {
	if s <= 0 || int(s) >= len(t.names) {
		return "<invalid>"
	}
	return t.names[s]
}

// Kind returns the kind of s. Kind panics if s is not a symbol of this
// table; a Symbol is only meaningful with the table that created it.
func (t *SymbolTable) Kind(s Symbol) Kind {
	if s <= 0 || int(s) >= len(t.names) {
		panic(fmt.Sprintf("grammar: Kind of invalid symbol %d", s))
	}
	return t.kinds[s]
}

// IsTerminal reports whether s is a terminal of this table.
func (t *SymbolTable) IsTerminal(s Symbol) bool { return t.Kind(s) == Terminal }

// IsNonterminal reports whether s is a nonterminal of this table.
func (t *SymbolTable) IsNonterminal(s Symbol) bool { return t.Kind(s) == Nonterminal }

// Len returns the number of interned symbols, including EOF.
func (t *SymbolTable) Len() int { return len(t.names) - 1 }

// Symbols returns all interned symbols in interning order.
func (t *SymbolTable) Symbols() []Symbol {
	out := make([]Symbol, 0, len(t.names)-1)
	for i := 1; i < len(t.names); i++ {
		out = append(out, Symbol(i))
	}
	return out
}

// Terminals returns all terminal symbols sorted by name, EOF included.
func (t *SymbolTable) Terminals() []Symbol { return t.byKind(Terminal) }

// Nonterminals returns all nonterminal symbols sorted by name.
func (t *SymbolTable) Nonterminals() []Symbol { return t.byKind(Nonterminal) }

func (t *SymbolTable) byKind(k Kind) []Symbol {
	var out []Symbol
	for i := 1; i < len(t.names); i++ {
		if t.kinds[i] == k {
			out = append(out, Symbol(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return t.names[out[i]] < t.names[out[j]] })
	return out
}

// NamesOf formats a symbol slice as space-separated names.
func (t *SymbolTable) NamesOf(syms []Symbol) string {
	b := make([]byte, 0, 8*len(syms))
	for i, s := range syms {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, t.Name(s)...)
	}
	return string(b)
}
