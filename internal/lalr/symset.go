package lalr

import (
	"math/bits"

	"ipg/internal/grammar"
)

// symset is a set of symbols: a bitset indexed by symbol ID. Bit 0
// (grammar.NoSymbol) is the dummy lookahead of the propagation analysis;
// it never stands for an input symbol. A set built before the symbol
// table grew is narrower than the current width; its missing words read
// as empty.
type symset []uint64

// wordsFor is the symset width, in words, that covers every symbol of
// syms.
func wordsFor(syms *grammar.SymbolTable) int { return (syms.Len() + 64) / 64 }

func (s symset) has(sym grammar.Symbol) bool {
	w := int(sym) >> 6
	return w < len(s) && s[w]&(1<<(uint(sym)&63)) != 0
}

func (s symset) add(sym grammar.Symbol) { s[int(sym)>>6] |= 1 << (uint(sym) & 63) }

// or adds src, which must be no wider than s, and reports whether s grew.
func (s symset) or(src symset) bool {
	var grew uint64
	for i, w := range src {
		grew |= w &^ s[i]
		s[i] |= w
	}
	return grew != 0
}

func (s symset) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// anyReal reports whether s holds a symbol other than the dummy lookahead.
func (s symset) anyReal() bool {
	return len(s) > 0 && (s[0]&^1 != 0 || !s[1:].empty())
}

// symbols lists the members of s in ascending ID order.
func (s symset) symbols() []grammar.Symbol {
	var out []grammar.Symbol
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, grammar.Symbol(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// sized returns s resized to the given width and cleared, reusing its
// storage when it is large enough.
func (s symset) sized(words int) symset {
	if cap(s) < words {
		return make(symset, words)
	}
	s = s[:words]
	clear(s)
	return s
}

// equalSets compares two sets of possibly different widths.
func equalSets(a, b symset) bool {
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range b {
		if a[i] != w {
			return false
		}
	}
	return a[len(b):].empty()
}
