package earley

import "ipg/internal/grammar"

// Cursor is a prefix-completion reader: it maintains the chart of a
// viable prefix and answers "which terminals may come next" by scanning
// the final item set — the grammar-driven answer, no table required.
// Feeding a token extends the chart incrementally through the document
// machinery (every earlier item set is reused verbatim), so advancing
// by one token costs one item set; restoring to an earlier position
// truncates instead of reparsing.
//
// The Leo right-recursion memo only ever short-circuits items whose dot
// is at the end of their rule, so the scannable-terminal scan below is
// unaffected by it.
//
// A Cursor is not safe for concurrent use; the engine layer serializes
// access and guards against grammar changes.
type Cursor struct {
	d *Doc
	// seen is the generation-stamped dedup scratch of Accepts.
	seen []uint32
	gen  uint32
}

// OpenCursor opens a completion cursor at the empty prefix.
func (p *Parser) OpenCursor() *Cursor {
	d := p.OpenDoc(nil, false)
	d.Reparse(nil)
	return &Cursor{d: d}
}

// Pos returns the cursor position (tokens fed so far). Positions double
// as checkpoints: any earlier position can be restored.
func (c *Cursor) Pos() int { return c.d.Len() }

// complete reports whether the chart covers every prefix position with
// a nonempty final set (always true while the viable-prefix invariant
// holds; false only if the grammar derives no sentences at all).
func (c *Cursor) complete() bool {
	n := c.d.Len()
	w := c.d.w
	return len(w.bounds) == n+2 && w.bounds[n+1] > w.bounds[n]
}

// Accepts calls emit once for every terminal that can extend the
// current prefix to a longer viable prefix, plus the end marker when
// the prefix is already a complete sentence.
func (c *Cursor) Accepts(emit func(grammar.Symbol)) {
	d := c.d
	if d.res.Accepted {
		emit(grammar.EOF)
	}
	if !c.complete() {
		return
	}
	pr := d.prog
	if len(c.seen) < pr.numSyms {
		c.seen = make([]uint32, pr.numSyms)
	}
	c.gen++
	if c.gen == 0 {
		clear(c.seen)
		c.gen = 1
	}
	w := d.w
	start, end := w.setSpan(d.Len())
	for j := start; j < end; j++ {
		it := w.items[j]
		r := pr.rules[it.rule]
		if int(it.dot) >= len(r.Rhs) {
			continue
		}
		sym := r.Rhs[it.dot]
		if pr.isNT[sym] || c.seen[sym] == c.gen {
			continue
		}
		c.seen[sym] = c.gen
		emit(sym)
	}
}

// AtEnd reports whether the current prefix is a complete sentence (the
// end marker is acceptable).
func (c *Cursor) AtEnd() bool { return c.d.res.Accepted }

// scannable reports whether some item in the final set has t after its
// dot — the exact condition for prefix·t to remain a viable prefix.
func (c *Cursor) scannable(t grammar.Symbol) bool {
	if !c.complete() {
		return false
	}
	d := c.d
	pr := d.prog
	w := d.w
	start, end := w.setSpan(d.Len())
	for j := start; j < end; j++ {
		it := w.items[j]
		r := pr.rules[it.rule]
		if int(it.dot) < len(r.Rhs) && r.Rhs[it.dot] == t {
			return true
		}
	}
	return false
}

// Feed advances the cursor by one terminal, reporting false — and
// leaving the cursor unchanged — when t cannot extend the prefix. A
// successful feed re-drives exactly one item set.
func (c *Cursor) Feed(t grammar.Symbol) bool {
	if t == grammar.EOF || !c.scannable(t) {
		return false
	}
	n := c.d.Len()
	var one [1]grammar.Symbol
	one[0] = t
	if c.d.Splice(n, 0, one[:]) != nil {
		return false
	}
	c.d.Reparse(nil)
	return true
}

// Restore rewinds the cursor to an earlier position (a value previously
// returned by Pos): the chart is truncated, never reparsed. Reports
// false when pos is out of range.
func (c *Cursor) Restore(pos int) bool {
	n := c.d.Len()
	if pos < 0 || pos > n {
		return false
	}
	if pos == n {
		return true
	}
	if c.d.Splice(pos, n-pos, nil) != nil {
		return false
	}
	c.d.Reparse(nil)
	return true
}

// Stats exposes the underlying chart accounting (sets reused vs rebuilt
// across feeds and restores).
func (c *Cursor) Stats() DocStats { return c.d.Stats() }
