package grammar

import "math/bits"

// Bitset is a set of symbols indexed by symbol ID, the representation
// the grammar analyses and the table generators share. A set built
// before the symbol table grew can be narrower than the table: its
// missing words read as empty.
type Bitset []uint64

// BitsetWords is the Bitset width, in words, that covers every symbol
// of t.
func BitsetWords(t *SymbolTable) int { return (t.Len() + 64) / 64 }

// Has reports whether s is in the set.
func (b Bitset) Has(s Symbol) bool {
	w := int(s) >> 6
	return w < len(b) && b[w]&(1<<(uint(s)&63)) != 0
}

// Add inserts s, which must fall within the set's width.
func (b Bitset) Add(s Symbol) { b[int(s)>>6] |= 1 << (uint(s) & 63) }

// Or adds src, which must be no wider than b, and reports whether b
// grew.
func (b Bitset) Or(src Bitset) bool {
	var grew uint64
	for i, w := range src {
		grew |= w &^ b[i]
		b[i] |= w
	}
	return grew != 0
}

// Empty reports whether the set has no members.
func (b Bitset) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Symbols lists the members in ascending ID order.
func (b Bitset) Symbols() []Symbol {
	var out []Symbol
	for i, w := range b {
		for ; w != 0; w &= w - 1 {
			out = append(out, Symbol(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// ForEach calls fn for each member in ascending ID order.
func (b Bitset) ForEach(fn func(Symbol)) {
	for i, w := range b {
		for ; w != 0; w &= w - 1 {
			fn(Symbol(i<<6 + bits.TrailingZeros64(w)))
		}
	}
}

// Equal compares two sets of possibly different widths.
func (b Bitset) Equal(o Bitset) bool {
	if len(b) < len(o) {
		b, o = o, b
	}
	for i, w := range o {
		if b[i] != w {
			return false
		}
	}
	return b[len(o):].Empty()
}

// Sized returns b resized to the given width and cleared, reusing its
// storage when it is large enough.
func (b Bitset) Sized(words int) Bitset {
	if cap(b) < words {
		return make(Bitset, words)
	}
	b = b[:words]
	clear(b)
	return b
}

// assign overwrites dst with src, growing dst when src is wider, and
// returns the result.
func assign(dst, src Bitset) Bitset {
	if cap(dst) < len(src) {
		dst = make(Bitset, len(src))
	}
	dst = dst[:max(len(dst), len(src))]
	n := copy(dst, src)
	clear(dst[n:])
	return dst
}
