// Package lr implements the LR(0) machinery shared by the conventional
// parser generator PG (section 4 of the paper), the lazy generator
// (section 5) and the incremental generator IPG (section 6): dotted items,
// sets of items with kernel/transitions/reductions/type fields, CLOSURE,
// EXPAND, and the conventional eager GENERATE-PARSER.
//
// The package exposes the graph of item sets directly — the paper keeps
// the kernel fields at parse time ("we shall not use these [tabular]
// parse tables further, because the lazy parser generator also needs the
// kernel field of each set of items during parsing") — and additionally
// offers the classical tabular ACTION/GOTO rendering of Fig 4.1(b).
package lr

import (
	"sort"
	"strconv"
	"strings"

	"ipg/internal/grammar"
)

// Item is a dotted rule A ::= α • β: a rule plus a cursor position
// 0 ≤ Dot ≤ len(Rhs). Items are compared by rule value (not pointer), so
// kernels survive delete/re-add cycles of equal rules.
type Item struct {
	Rule *grammar.Rule
	Dot  int
}

// NewItem returns the item for rule with the dot at position dot.
func NewItem(rule *grammar.Rule, dot int) Item {
	if dot < 0 || dot > rule.Len() {
		panic("lr: item dot out of range")
	}
	return Item{Rule: rule, Dot: dot}
}

// AtEnd reports whether the dot is at the end of the rule (the rule has
// been recognized completely).
func (it Item) AtEnd() bool { return it.Dot == it.Rule.Len() }

// AfterDot returns the symbol immediately after the dot, or NoSymbol when
// the dot is at the end.
func (it Item) AfterDot() grammar.Symbol {
	if it.AtEnd() {
		return grammar.NoSymbol
	}
	return it.Rule.Rhs[it.Dot]
}

// Advance returns the item with the dot moved one symbol to the right.
func (it Item) Advance() Item {
	if it.AtEnd() {
		panic("lr: Advance past end of rule")
	}
	return Item{Rule: it.Rule, Dot: it.Dot + 1}
}

// Key is the item's value identity: rule value key plus dot. The LALR
// lookahead machinery keys its closure bookkeeping on it, so it is
// exported (and cheaper than String, which resolves symbol names).
func (it Item) Key() string {
	return it.Rule.Key() + "@" + strconv.Itoa(it.Dot)
}

// String renders the item with a '.' cursor, e.g. "B ::= B . or B".
func (it Item) String(t *grammar.SymbolTable) string {
	var b strings.Builder
	b.WriteString(t.Name(it.Rule.Lhs))
	b.WriteString(" ::=")
	for i, s := range it.Rule.Rhs {
		if i == it.Dot {
			b.WriteString(" .")
		}
		b.WriteByte(' ')
		b.WriteString(t.Name(s))
	}
	if it.AtEnd() {
		b.WriteString(" .")
	}
	return b.String()
}

// Kernel is a canonicalized set of items: sorted by item key, duplicates
// removed. Two kernels are equal iff their Key()s are equal.
type Kernel []Item

// NewKernel canonicalizes items into a Kernel.
func NewKernel(items []Item) Kernel {
	k := make(Kernel, len(items))
	copy(k, items)
	sort.Slice(k, func(i, j int) bool { return k[i].Key() < k[j].Key() })
	// Deduplicate (equal value keys).
	out := k[:0]
	prev := ""
	for _, it := range k {
		ik := it.Key()
		if ik == prev {
			continue
		}
		out = append(out, it)
		prev = ik
	}
	return out
}

// Key returns the canonical identity of the kernel, usable as a map key.
func (k Kernel) Key() string {
	var b strings.Builder
	for i, it := range k {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(it.Key())
	}
	return b.String()
}

// Contains reports whether the kernel contains an item value-equal to it.
func (k Kernel) Contains(it Item) bool {
	return k.Index(it) >= 0
}

// Index returns the position of the item value-equal to it in the
// canonical kernel order, or -1 when absent. The LALR propagation
// network addresses lookahead slots by (state, kernel index); since a
// state's kernel is its identity, those indices are stable for the
// state's whole lifetime.
func (k Kernel) Index(it Item) int {
	for i, x := range k {
		if x.Dot == it.Dot && x.Rule.Equal(it.Rule) {
			return i
		}
	}
	return -1
}

// String renders the kernel one item per line in canonical order.
func (k Kernel) String(t *grammar.SymbolTable) string {
	var b strings.Builder
	for i, it := range k {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(it.String(t))
	}
	return b.String()
}

// Closure extends kernel with all rules that may become applicable
// (CLOSURE, section 4): while some item A ::= α • B β is in the closure
// and B ::= γ is a rule of g, the item B ::= • γ is added. The result
// preserves first-appearance order: kernel items first (in the order
// given), then closure items in discovery order, which makes EXPAND's
// transition ordering — and therefore state numbering — deterministic.
func Closure(g *grammar.Grammar, kernel []Item) []Item {
	closure := make([]Item, 0, len(kernel)*2)
	seen := make(map[string]bool, len(kernel)*2)
	add := func(it Item) {
		k := it.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		closure = append(closure, it)
	}
	for _, it := range kernel {
		add(it)
	}
	for i := 0; i < len(closure); i++ {
		b := closure[i].AfterDot()
		if b == grammar.NoSymbol || g.Symbols().Kind(b) != grammar.Nonterminal {
			continue
		}
		for _, r := range g.RulesFor(b) {
			add(Item{Rule: r, Dot: 0})
		}
	}
	return closure
}
