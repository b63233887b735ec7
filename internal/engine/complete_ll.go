package engine

import (
	"sync"

	"ipg/internal/grammar"
)

// The LL completion cursor keeps the predictive parser's symbol stack
// as a persistent (parent-pointer) structure: one arena of
// {symbol, parent} nodes, with the stack top recorded per position.
// Feeding a token replays exactly what the predictive driver would do —
// expand nonterminals through the prediction table until the token
// surfaces as the stack top — and commits the resulting stack as new
// arena nodes; earlier positions share their tails, so Checkpoint is
// the position and Restore a truncation.
//
// Accepts cannot just read the prediction row of the stack top: a cell
// M[A, t] may be filled through FOLLOW(A), which is a property of the
// grammar, not of this stack — the expansion chosen for t can dead-end
// against the symbol below. So each candidate terminal is answered by
// the same expansion simulation Feed uses, run against a scratch
// overlay stack held by the cursor: exact, and allocation-free when
// warm.

// llNode is one persistent stack cell.
type llNode struct {
	sym    grammar.Symbol
	parent int32
}

// llSimBudget bounds one expansion simulation. A conflict-free LL(1)
// table cannot loop (left recursion always conflicts), so the budget is
// a backstop against pathological tables, generously above any real
// expansion chain.
const llSimBudget = 1 << 16

type llCursor struct {
	e       *LL
	version uint64
	vocab   *Vocab
	stale   bool

	nodes []llNode
	// tops[p] is the stack top node at position p (-1: empty stack);
	// nodeLen[p] the arena length there, so Restore can truncate.
	tops    []int32
	nodeLen []int32

	// overlay is the simulation's virtual stack segment above the
	// persistent chain.
	overlay []grammar.Symbol
}

var llCursorPool = sync.Pool{New: func() any { return new(llCursor) }}

// OpenCursor implements Engine for the LL backend.
func (e *LL) OpenCursor() (Cursor, error) {
	c := llCursorPool.Get().(*llCursor)
	c.e = e
	c.stale = false
	e.mu.RLock()
	defer e.mu.RUnlock()
	c.version = e.g.Version()
	c.vocab = NewVocab(e.g)
	c.nodes = append(c.nodes[:0], llNode{sym: e.g.Start(), parent: -1})
	c.tops = append(c.tops[:0], 0)
	c.nodeLen = append(c.nodeLen[:0], 1)
	return c, nil
}

// use takes the engine lock for one operation and verifies the grammar
// has not moved; the caller must unlock unless an error is returned.
func (c *llCursor) use() error {
	if c.stale {
		return ErrCursorStale
	}
	c.e.mu.RLock()
	if c.e.g.Version() != c.version {
		c.e.mu.RUnlock()
		c.stale = true
		return ErrCursorStale
	}
	return nil
}

// Vocab implements Cursor.
func (c *llCursor) Vocab() *Vocab { return c.vocab }

// Pos implements Cursor.
func (c *llCursor) Pos() int { return len(c.tops) - 1 }

// Checkpoint implements Cursor.
func (c *llCursor) Checkpoint() int { return c.Pos() }

// sim reports whether the predictive parser, resumed from the current
// stack, would consume t (t == EOF asks whether the stack drains to
// empty). The walk pops through the cursor's persistent chain and
// pushes onto the reusable overlay; nothing is committed.
func (c *llCursor) sim(t grammar.Symbol) bool {
	syms := c.e.g.Symbols()
	over := c.overlay[:0]
	p := c.tops[len(c.tops)-1]
	defer func() { c.overlay = over }()
	for steps := 0; steps < llSimBudget; steps++ {
		var top grammar.Symbol
		switch {
		case len(over) > 0:
			top = over[len(over)-1]
		case p >= 0:
			top = c.nodes[p].sym
		default:
			return t == grammar.EOF
		}
		if syms.IsTerminal(top) {
			return top == t
		}
		r := c.e.tbl.Predict(top, t)
		if r == nil {
			return false
		}
		if len(over) > 0 {
			over = over[:len(over)-1]
		} else {
			p = c.nodes[p].parent
		}
		for k := len(r.Rhs) - 1; k >= 0; k-- {
			over = append(over, r.Rhs[k])
		}
	}
	return false
}

// Accepts implements Cursor: one expansion simulation per vocabulary
// terminal. Warm calls allocate nothing.
func (c *llCursor) Accepts(dst *TermSet) error {
	if err := c.use(); err != nil {
		return err
	}
	defer c.e.mu.RUnlock()
	dst.Reset(c.vocab)
	for _, t := range c.vocab.terms {
		if c.sim(t) {
			dst.Add(t)
		}
	}
	return nil
}

// Feed implements Cursor: validate with a simulation, then replay it
// committing the stack into the arena.
func (c *llCursor) Feed(t grammar.Symbol) error {
	if err := c.use(); err != nil {
		return err
	}
	defer c.e.mu.RUnlock()
	if t == grammar.EOF || c.vocab.Index(t) < 0 || !c.sim(t) {
		return ErrRejected
	}
	syms := c.e.g.Symbols()
	p := c.tops[len(c.tops)-1]
	for {
		if p < 0 {
			break // unreachable: sim validated t surfaces as a terminal
		}
		top := c.nodes[p].sym
		if syms.IsTerminal(top) {
			p = c.nodes[p].parent // consume t
			break
		}
		r := c.e.tbl.Predict(top, t)
		p = c.nodes[p].parent
		for k := len(r.Rhs) - 1; k >= 0; k-- {
			c.nodes = append(c.nodes, llNode{sym: r.Rhs[k], parent: p})
			p = int32(len(c.nodes) - 1)
		}
	}
	c.tops = append(c.tops, p)
	c.nodeLen = append(c.nodeLen, int32(len(c.nodes)))
	return nil
}

// Restore implements Cursor: truncate the arena back to the
// checkpointed position.
func (c *llCursor) Restore(cp int) error {
	if c.stale {
		return ErrCursorStale
	}
	pos := c.Pos()
	if cp < 0 || cp > pos {
		return badRestore(cp, pos)
	}
	if cp == pos {
		return nil
	}
	c.tops = c.tops[:cp+1]
	c.nodeLen = c.nodeLen[:cp+1]
	c.nodes = c.nodes[:c.nodeLen[cp]]
	return nil
}

// Close implements Cursor.
func (c *llCursor) Close() {
	c.nodes = c.nodes[:0]
	c.tops = c.tops[:0]
	c.nodeLen = c.nodeLen[:0]
	c.overlay = c.overlay[:0]
	c.vocab = nil
	c.e = nil
	c.stale = true
	llCursorPool.Put(c)
}
