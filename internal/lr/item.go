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
	"bytes"
	"cmp"
	"slices"
	"strconv"
	"strings"

	"ipg/internal/grammar"
)

// Item is a dotted rule A ::= α • β: a rule plus a cursor position
// 0 ≤ Dot ≤ len(Rhs). Items are compared by rule value (not pointer), so
// kernels survive delete/re-add cycles of equal rules. Within an
// Automaton an item's identity is the integer packing its rule's ID and
// its dot (see itemID).
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

// Key renders the item's value identity: rule value key plus dot. It is
// the unit of Kernel.Key, and its order is the canonical kernel order.
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
	k := slices.Clone(items)
	slices.SortFunc(k, compareItems)
	return slices.CompactFunc(k, func(a, b Item) bool { return compareItems(a, b) == 0 })
}

// compareItems orders items as their Key renderings compare, without
// building them: the canonical kernel order.
func compareItems(a, b Item) int {
	ka, kb := a.Rule.Key(), b.Rule.Key()
	if ka == kb {
		var da, db [20]byte
		return bytes.Compare(strconv.AppendInt(da[:0], int64(a.Dot), 10), strconv.AppendInt(db[:0], int64(b.Dot), 10))
	}
	n := min(len(ka), len(kb))
	if c := strings.Compare(ka[:n], kb[:n]); c != 0 {
		return c
	}
	// One rule key is a proper prefix of the other, and the shorter
	// rendering continues with the '@' before its dot.
	if len(ka) < len(kb) {
		return cmp.Compare('@', kb[n])
	}
	return cmp.Compare(ka[n], '@')
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
		if x.Dot == it.Dot && (x.Rule == it.Rule || x.Rule.Equal(it.Rule)) {
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
func Closure(g *grammar.Grammar, kernel Kernel) []Item {
	var c closer
	return slices.Clip(c.closure(g, kernel))
}

// closer is CLOSURE's working space; an Automaton keeps one for all
// its expansions.
type closer struct {
	items []Item
	// seen[b] == stamp marks nonterminal b's rules as in the closure.
	seen  []uint32
	stamp uint32
}

// closure computes CLOSURE(kernel) into c.items, valid until the next
// call. Closure items have their dot at 0, so they are deduplicated by
// nonterminal: the first item with the dot before B adds all of B's
// rules, and later ones add nothing.
func (c *closer) closure(g *grammar.Grammar, kernel Kernel) []Item {
	syms := g.Symbols()
	if n := syms.Len() + 1; len(c.seen) < n {
		c.seen = make([]uint32, 2*n)
		c.stamp = 0
	}
	c.stamp++
	if c.stamp == 0 {
		clear(c.seen)
		c.stamp = 1
	}
	items := append(c.items[:0], kernel...)
	// A kernel item with its dot at 0 is the start kernel's, whose START
	// no right-hand side mentions; any other must not be added twice.
	dot0 := false
	for _, it := range kernel {
		dot0 = dot0 || (it.Dot == 0 && it.Rule.Lhs != g.Start())
	}
	for i := 0; i < len(items); i++ {
		b := items[i].AfterDot()
		if b == grammar.NoSymbol || c.seen[b] == c.stamp || syms.Kind(b) != grammar.Nonterminal {
			continue
		}
		c.seen[b] = c.stamp
		for _, r := range g.RulesFor(b) {
			if dot0 && kernel.Index(Item{Rule: r}) >= 0 {
				continue
			}
			items = append(items, Item{Rule: r})
		}
	}
	c.items = items
	return items
}
