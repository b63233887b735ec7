package grammar

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// StartName is the distinguished start nonterminal. Following the paper,
// START may not occur in the right-hand side of any rule; parsing succeeds
// when a START rule has been recognized followed by the end marker.
const StartName = "START"

// Grammar is a modifiable set of syntax rules over a SymbolTable. A
// Grammar is the unit the incremental generator of the paper observes:
// AddRule and DeleteRule are its only mutators, and every successful
// mutation increments Version, which generators use to detect that their
// graph of item sets is out of date.
//
// A Grammar is not safe for concurrent mutation; the generated parsers
// read it only during table expansion.
type Grammar struct {
	syms  *SymbolTable
	start Symbol // the START nonterminal, interned eagerly

	rules []*Rule          // insertion order, live rules only
	byKey map[string]*Rule // value identity -> rule
	byLhs map[Symbol][]*Rule
	// uses[n] lists the rules whose right-hand side mentions
	// nonterminal n, in insertion order: the reverse-dependency index
	// the incremental analyses walk.
	uses    [][]*Rule
	version uint64
	// ana is the incremental analysis, nil until first asked for.
	ana *Analysis
}

// New returns an empty grammar over the given symbol table (a fresh table
// is created when syms is nil). The START nonterminal is interned
// immediately.
func New(syms *SymbolTable) *Grammar {
	if syms == nil {
		syms = NewSymbolTable()
	}
	start, err := syms.Intern(StartName, Nonterminal)
	if err != nil {
		// The name START was already interned as a terminal: the table is
		// unusable for a grammar.
		panic(fmt.Sprintf("grammar: symbol table unusable: %v", err))
	}
	return &Grammar{
		syms:  syms,
		start: start,
		byKey: make(map[string]*Rule),
		byLhs: make(map[Symbol][]*Rule),
	}
}

// Symbols returns the symbol table of the grammar.
func (g *Grammar) Symbols() *SymbolTable { return g.syms }

// Start returns the START nonterminal.
func (g *Grammar) Start() Symbol { return g.start }

// Version returns a counter that increments on every successful AddRule or
// DeleteRule. Parser generators record the version their tables were
// derived from.
func (g *Grammar) Version() uint64 { return g.version }

// Len returns the number of rules.
func (g *Grammar) Len() int { return len(g.rules) }

// Rules returns the live rules in insertion order. The returned slice is
// shared; callers must not modify it.
func (g *Grammar) Rules() []*Rule { return g.rules }

// RulesFor returns the rules whose left-hand side is lhs, in insertion
// order. The returned slice is shared; callers must not modify it.
func (g *Grammar) RulesFor(lhs Symbol) []*Rule { return g.byLhs[lhs] }

// RulesUsing returns the rules whose right-hand side mentions
// nonterminal n, in insertion order. The returned slice is shared;
// callers must not modify it.
func (g *Grammar) RulesUsing(n Symbol) []*Rule {
	if int(n) < len(g.uses) {
		return g.uses[n]
	}
	return nil
}

// LhsCount returns the number of nonterminals that have at least one
// rule.
func (g *Grammar) LhsCount() int { return len(g.byLhs) }

// Has reports whether an identical rule (same Lhs, same Rhs) is present.
func (g *Grammar) Has(r *Rule) bool {
	_, ok := g.byKey[r.Key()]
	return ok
}

// Lookup returns the grammar's own rule object equal to r, if present.
// The incremental generator relies on this to translate caller-constructed
// rules into the canonical instances stored in item kernels.
func (g *Grammar) Lookup(r *Rule) (*Rule, bool) {
	got, ok := g.byKey[r.Key()]
	return got, ok
}

// ErrDuplicateRule is returned by AddRule when an identical rule exists.
var ErrDuplicateRule = errors.New("grammar: rule already present")

// ErrUnknownRule is returned by DeleteRule when no identical rule exists.
var ErrUnknownRule = errors.New("grammar: no such rule")

// AddRule adds r to the grammar. It is an error if an identical rule is
// already present, if the left-hand side is not a nonterminal of this
// grammar's table, or if START occurs in the right-hand side. Here r
// gets its ID (Rule.ID) in the grammar's symbol table; the grammar
// stores a copy of a rule that a grammar over another table holds.
func (g *Grammar) AddRule(r *Rule) error {
	if err := g.checkRule(r); err != nil {
		return err
	}
	if g.Has(r) {
		return fmt.Errorf("%w: %s", ErrDuplicateRule, r.String(g.syms))
	}
	r = g.syms.internRule(r)
	g.rules = append(g.rules, r)
	g.byKey[r.Key()] = r
	g.byLhs[r.Lhs] = append(g.byLhs[r.Lhs], r)
	g.forUses(r, func(n Symbol) {
		for int(n) >= len(g.uses) {
			g.uses = append(g.uses, nil)
		}
		g.uses[n] = append(g.uses[n], r)
	})
	g.version++
	if g.ana != nil {
		g.ana.record(r, true)
	}
	return nil
}

// DeleteRule removes the rule equal to r. The rule object stored in the
// grammar (which item kernels may share) is returned.
func (g *Grammar) DeleteRule(r *Rule) (*Rule, error) {
	stored, ok := g.byKey[r.Key()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRule, r.String(g.syms))
	}
	delete(g.byKey, r.Key())
	g.rules = removeRule(g.rules, stored)
	if rest := removeRule(g.byLhs[stored.Lhs], stored); len(rest) > 0 {
		g.byLhs[stored.Lhs] = rest
	} else {
		delete(g.byLhs, stored.Lhs)
	}
	g.forUses(stored, func(n Symbol) { g.uses[n] = removeRule(g.uses[n], stored) })
	g.version++
	if g.ana != nil {
		g.ana.record(stored, false)
	}
	return stored, nil
}

// forUses calls fn once for each distinct nonterminal in r's
// right-hand side.
func (g *Grammar) forUses(r *Rule, fn func(Symbol)) {
	for i, s := range r.Rhs {
		if g.syms.Kind(s) == Nonterminal && !slices.Contains(r.Rhs[:i], s) {
			fn(s)
		}
	}
}

func removeRule(rs []*Rule, r *Rule) []*Rule {
	for i, x := range rs {
		if x == r {
			return append(rs[:i:i], rs[i+1:]...)
		}
	}
	return rs
}

func (g *Grammar) checkRule(r *Rule) error {
	if r == nil {
		return errors.New("grammar: nil rule")
	}
	if !g.validSymbol(r.Lhs) {
		return fmt.Errorf("grammar: rule left-hand side %d not in symbol table", r.Lhs)
	}
	if g.syms.Kind(r.Lhs) != Nonterminal {
		return fmt.Errorf("grammar: rule left-hand side %q is a terminal", g.syms.Name(r.Lhs))
	}
	for _, s := range r.Rhs {
		if !g.validSymbol(s) {
			return fmt.Errorf("grammar: rule %s uses symbol %d not in symbol table", r.String(g.syms), s)
		}
		if s == g.start {
			return fmt.Errorf("grammar: START may not occur in a right-hand side: %s", r.String(g.syms))
		}
		if s == EOF {
			return fmt.Errorf("grammar: end marker $ may not occur in a right-hand side: %s", r.String(g.syms))
		}
	}
	return nil
}

func (g *Grammar) validSymbol(s Symbol) bool {
	return s > 0 && int(s) < len(g.syms.names)
}

// Validate checks global well-formedness: at least one START rule exists.
// (Per-rule constraints are enforced by AddRule.)
func (g *Grammar) Validate() error {
	if len(g.byLhs[g.start]) == 0 {
		return errors.New("grammar: no rule for START")
	}
	return nil
}

// Clone returns a deep copy of the rule set sharing the symbol table and
// the (immutable) rule objects. The clone starts at version 0.
func (g *Grammar) Clone() *Grammar {
	c := New(g.syms)
	c.rules = append([]*Rule(nil), g.rules...)
	for k, v := range g.byKey {
		c.byKey[k] = v
	}
	for lhs, rs := range g.byLhs {
		c.byLhs[lhs] = append([]*Rule(nil), rs...)
	}
	c.uses = make([][]*Rule, len(g.uses))
	for n, rs := range g.uses {
		c.uses[n] = append([]*Rule(nil), rs...)
	}
	return c
}

// AddAll adds every rule of other (which must share this grammar's symbol
// table) that is not already present. It returns the number of rules
// added. This is the grammar half of "modular composition of parsers"
// (section 8 of the paper): the generator half reuses the existing graph
// via its incremental MODIFY.
func (g *Grammar) AddAll(other *Grammar) (int, error) {
	if other.syms != g.syms {
		return 0, errors.New("grammar: AddAll requires grammars sharing one symbol table")
	}
	n := 0
	for _, r := range other.rules {
		if g.Has(r) {
			continue
		}
		if err := g.AddRule(r); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// String formats the grammar in the plain-text BNF form understood by
// Parse, one rule per line in insertion order.
func (g *Grammar) String() string {
	var b strings.Builder
	for _, r := range g.rules {
		b.WriteString(formatRuleText(g.syms, r))
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedRuleStrings returns the formatted rules sorted lexicographically;
// useful for order-independent comparisons in tests.
func (g *Grammar) SortedRuleStrings() []string {
	out := make([]string, 0, len(g.rules))
	for _, r := range g.rules {
		out = append(out, r.String(g.syms))
	}
	sort.Strings(out)
	return out
}
