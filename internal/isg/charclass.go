// Package isg implements ISG, the lazy and incremental lexical scanner
// generator that is IPG's companion ([HKR87a], cited in section 1: "In
// [HKR87a] a lazy/incremental lexical scanner generator ISG is described.
// The combination ISG/IPG is used in an interactive development
// environment for the ASF/SDF specification language").
//
// Lexical syntax is given as a set of named rules over regular patterns
// (character classes, literals, concatenation, alternation, iteration,
// references to other lexical sorts). A Thompson NFA is built eagerly —
// that is cheap — while the DFA driving the scanner is built lazily by
// subset construction, one state and one transition at a time, as input
// is scanned. Modifying the lexical syntax invalidates the materialized
// DFA, which is then rebuilt by need, mirroring IPG's treatment of parse
// tables.
//
// Scanning has one longest-match core, Scanner.Match, which returns the
// matched rule's index and the token's end. Scan builds tokens with
// texts and positions from it; a caller that only needs each token's
// grammar terminal (internal/lang) maps rule indices itself and computes
// no texts or positions.
package isg

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// MaxRune is the upper bound of the supported alphabet.
const MaxRune = utf8.MaxRune

// RuneRange is an inclusive range of runes.
type RuneRange struct {
	Lo, Hi rune
}

// CharClass is a set of runes, stored as sorted, non-overlapping,
// non-adjacent inclusive ranges.
type CharClass struct {
	ranges []RuneRange
}

// NewCharClass builds a class from arbitrary (possibly overlapping)
// ranges.
func NewCharClass(ranges ...RuneRange) CharClass {
	c := CharClass{ranges: append([]RuneRange(nil), ranges...)}
	c.normalize()
	return c
}

// ClassOf builds a class containing exactly the given runes.
func ClassOf(runes ...rune) CharClass {
	rs := make([]RuneRange, 0, len(runes))
	for _, r := range runes {
		rs = append(rs, RuneRange{r, r})
	}
	return NewCharClass(rs...)
}

func (c *CharClass) normalize() {
	if len(c.ranges) == 0 {
		return
	}
	sort.Slice(c.ranges, func(i, j int) bool { return c.ranges[i].Lo < c.ranges[j].Lo })
	out := c.ranges[:1]
	for _, r := range c.ranges[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	c.ranges = out
}

// Contains reports whether r is in the class.
func (c CharClass) Contains(r rune) bool {
	lo, hi := 0, len(c.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case r < c.ranges[mid].Lo:
			hi = mid
		case r > c.ranges[mid].Hi:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// Empty reports whether the class contains no runes.
func (c CharClass) Empty() bool { return len(c.ranges) == 0 }

// Negate returns the complement of the class within [0, MaxRune].
func (c CharClass) Negate() CharClass {
	var out []RuneRange
	next := rune(0)
	for _, r := range c.ranges {
		if r.Lo > next {
			out = append(out, RuneRange{next, r.Lo - 1})
		}
		next = r.Hi + 1
	}
	if next <= MaxRune {
		out = append(out, RuneRange{next, MaxRune})
	}
	return CharClass{ranges: out}
}

// Ranges returns the normalized ranges. Callers must not modify the
// slice.
func (c CharClass) Ranges() []RuneRange { return c.ranges }

// String renders the class in [a-z0-9] notation.
func (c CharClass) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for _, r := range c.ranges {
		if r.Lo == r.Hi {
			b.WriteString(escapeClassRune(r.Lo))
		} else {
			fmt.Fprintf(&b, "%s-%s", escapeClassRune(r.Lo), escapeClassRune(r.Hi))
		}
	}
	b.WriteByte(']')
	return b.String()
}

func escapeClassRune(r rune) string {
	switch r {
	case '\n':
		return `\n`
	case '\t':
		return `\t`
	case '\r':
		return `\r`
	case '-', '[', ']', '\\':
		return `\` + string(r)
	}
	if r < 32 || r > 126 {
		return fmt.Sprintf(`\x%02x`, r)
	}
	return string(r)
}

// ParseClass reads a character-class in the SDF notation used in
// Appendix B: "[a-zA-Z0-9]" with backslash escapes; a leading '~'
// (outside the brackets, SDF's complement operator) is handled by the
// caller via Negate.
func ParseClass(src string) (CharClass, error) {
	if len(src) < 2 || src[0] != '[' || src[len(src)-1] != ']' {
		return CharClass{}, fmt.Errorf("isg: class must be bracketed: %q", src)
	}
	body := []rune(src[1 : len(src)-1])
	var ranges []RuneRange
	read := func(i int) (rune, int, error) {
		if body[i] != '\\' {
			return body[i], i + 1, nil
		}
		if i+1 >= len(body) {
			return 0, 0, fmt.Errorf("isg: trailing backslash in class %q", src)
		}
		switch body[i+1] {
		case 'n':
			return '\n', i + 2, nil
		case 't':
			return '\t', i + 2, nil
		case 'r':
			return '\r', i + 2, nil
		case 'f':
			return '\f', i + 2, nil
		default:
			return body[i+1], i + 2, nil
		}
	}
	for i := 0; i < len(body); {
		lo, next, err := read(i)
		if err != nil {
			return CharClass{}, err
		}
		i = next
		hi := lo
		if i+1 < len(body)+1 && i < len(body) && body[i] == '-' && i+1 < len(body) {
			hi, next, err = read(i + 1)
			if err != nil {
				return CharClass{}, err
			}
			i = next
		}
		if hi < lo {
			return CharClass{}, fmt.Errorf("isg: inverted range %c-%c in class %q", lo, hi, src)
		}
		ranges = append(ranges, RuneRange{lo, hi})
	}
	return NewCharClass(ranges...), nil
}
