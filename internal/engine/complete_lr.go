package engine

import (
	"sync"

	"ipg/internal/core"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// The LR completion cursor maintains the graph-structured stack of
// every viable LR(0) parse of the prefix — the same frontier the GSS
// parser would hold mid-input, frozen between tokens. Because LR(0)
// reductions are lookahead-independent, the reduce closure of the
// frontier can be committed once per position; after that, a terminal
// extends the prefix iff some frontier state shifts it, so Accepts is a
// read of the frontier states' transition rows — no simulation, no
// allocation. One implementation serves both LR backends: the lazy GLR
// generator (through a core.ParseSession view) and the eager LALR(1)
// table (through its LR(0) automaton — the LR(0) view is exact for
// acceptance, and reading it keeps the closure lookahead-free).
//
// Per-position node and edge spans live in one arena, so Checkpoint is
// the position and Restore is a truncation. The cursor captures the
// grammar version at open; any rule update, repair or regeneration
// makes every later operation fail with ErrCursorStale.

// gssNode is one frontier stack node: an automaton state plus the head
// of its predecessor-edge list (-1 for the start node).
type gssNode struct {
	state *lr.State
	edge  int32
}

// gssEdge links a node to one predecessor in the previous (or, after a
// reduce, the same) position's frontier.
type gssEdge struct {
	pred, next int32
}

// lrHost abstracts per-operation table access: the LALR engine hands
// out its automaton under the engine lock; the GLR engine opens a
// generator session (shared table access plus by-need expansion).
type lrHost interface {
	acquire() lr.Table
	release()
}

type lalrHost struct{ e *LALR }

func (h lalrHost) acquire() lr.Table {
	h.e.mu.RLock()
	return h.e.tbl.Automaton()
}

func (h lalrHost) release() { h.e.mu.RUnlock() }

// glrHost owns a ParseSession so lazy expansion and counter batching
// work exactly as in a parse. Each cursor operation is bracketed
// Begin/Release: it consults the table but serves no parse, so it
// counts none.
type glrHost struct {
	e    *GLR
	sess core.ParseSession
}

func (h *glrHost) acquire() lr.Table {
	h.sess.Begin(h.e.Generator())
	return &h.sess
}

func (h *glrHost) release() { h.sess.Release() }

// OpenCursor implements Engine for the lazy-GLR backend.
func (e *GLR) OpenCursor() (Cursor, error) { return openGSSCursor(&glrHost{e: e}) }

// OpenCursor implements Engine for the LALR backend.
func (e *LALR) OpenCursor() (Cursor, error) { return openGSSCursor(lalrHost{e: e}) }

type gssCursor struct {
	host    lrHost
	version uint64
	vocab   *Vocab
	stale   bool

	nodes []gssNode
	edges []gssEdge
	// posStart[p]/edgeStart[p] are the arena offsets where position p's
	// nodes/edges begin; the current position runs to the arena end.
	posStart  []int32
	edgeStart []int32

	// Reusable scratch: action buffers (scratch holds the reduce loop's
	// actions, probe backs step's expansion forcing), reduce-path DFS
	// stacks and endpoint list.
	scratch []lr.Action
	probe   []lr.Action
	walkN   []int32
	walkD   []int32
	ends    []int32
}

var gssCursorPool = sync.Pool{New: func() any { return new(gssCursor) }}

func openGSSCursor(host lrHost) (Cursor, error) {
	c := gssCursorPool.Get().(*gssCursor)
	c.host = host
	c.stale = false
	tbl := host.acquire()
	defer host.release()
	c.version = tbl.Grammar().Version()
	c.vocab = NewVocab(tbl.Grammar())
	c.nodes = append(c.nodes[:0], gssNode{state: tbl.Start(), edge: -1})
	c.edges = c.edges[:0]
	c.posStart = append(c.posStart[:0], 0)
	c.edgeStart = append(c.edgeStart[:0], 0)
	c.closure(tbl)
	return c, nil
}

// use takes table access for one operation and verifies the grammar has
// not moved; the caller must release the host unless an error is
// returned.
func (c *gssCursor) use() (lr.Table, error) {
	if c.stale {
		return nil, ErrCursorStale
	}
	tbl := c.host.acquire()
	if tbl.Grammar().Version() != c.version {
		c.host.release()
		c.stale = true
		return nil, ErrCursorStale
	}
	return tbl, nil
}

// Vocab implements Cursor.
func (c *gssCursor) Vocab() *Vocab { return c.vocab }

// Pos implements Cursor.
func (c *gssCursor) Pos() int { return len(c.posStart) - 1 }

// Checkpoint implements Cursor.
func (c *gssCursor) Checkpoint() int { return c.Pos() }

// closure runs the frontier's reduce fixpoint: every reduction fires
// (LR(0) reduces need no lookahead), pushing goto states as new
// frontier nodes, until no node or edge is added. Reprocessing is
// idempotent — addNodeEdge dedups — so a plain sweep-until-quiet loop
// is enough (the worklist subtlety of a full GLR reducer buys nothing
// at completion query rates).
func (c *gssCursor) closure(tbl lr.Table) {
	base := c.posStart[len(c.posStart)-1]
	for changed := true; changed; {
		changed = false
		for i := base; i < int32(len(c.nodes)); i++ {
			if c.reduceNode(tbl, i) {
				changed = true
			}
		}
	}
}

// step returns st's successor on sym, or nil when the transition is
// undefined. The table's Goto cannot serve as this probe — it treats a
// missing transition as corruption and panics — so step reads the
// transition map directly, first forcing lazy expansion (an action
// probe) when the state is not yet complete.
func (c *gssCursor) step(tbl lr.Table, st *lr.State, sym grammar.Symbol) *lr.State {
	if st.Type != lr.Complete {
		c.probe = tbl.AppendActions(c.probe[:0], st, grammar.EOF)
	}
	return st.Transitions[sym]
}

// reduceNode fires every reduction of one frontier node, reporting
// whether the frontier grew.
func (c *gssCursor) reduceNode(tbl lr.Table, i int32) bool {
	c.scratch = tbl.AppendActions(c.scratch[:0], c.nodes[i].state, grammar.EOF)
	changed := false
	for _, a := range c.scratch {
		if a.Kind != lr.Reduce {
			continue
		}
		c.pathEnds(i, len(a.Rule.Rhs))
		for _, u := range c.ends {
			nxt := c.step(tbl, c.nodes[u].state, a.Rule.Lhs)
			if nxt == nil {
				continue
			}
			if c.addNodeEdge(nxt, u) {
				changed = true
			}
		}
	}
	return changed
}

// pathEnds collects into c.ends every node reachable from `from` by
// exactly depth predecessor edges (the stacks a reduce of that length
// pops to).
func (c *gssCursor) pathEnds(from int32, depth int) {
	c.ends = c.ends[:0]
	c.walkN = append(c.walkN[:0], from)
	c.walkD = append(c.walkD[:0], int32(depth))
	for len(c.walkN) > 0 {
		n := c.walkN[len(c.walkN)-1]
		d := c.walkD[len(c.walkD)-1]
		c.walkN = c.walkN[:len(c.walkN)-1]
		c.walkD = c.walkD[:len(c.walkD)-1]
		if d == 0 {
			c.ends = append(c.ends, n)
			continue
		}
		for e := c.nodes[n].edge; e >= 0; e = c.edges[e].next {
			c.walkN = append(c.walkN, c.edges[e].pred)
			c.walkD = append(c.walkD, d-1)
		}
	}
}

// addNodeEdge merges (state st, predecessor pred) into the current
// position's frontier, reporting whether a node or edge was new.
func (c *gssCursor) addNodeEdge(st *lr.State, pred int32) bool {
	base := c.posStart[len(c.posStart)-1]
	for i := base; i < int32(len(c.nodes)); i++ {
		if c.nodes[i].state != st {
			continue
		}
		for e := c.nodes[i].edge; e >= 0; e = c.edges[e].next {
			if c.edges[e].pred == pred {
				return false
			}
		}
		c.edges = append(c.edges, gssEdge{pred: pred, next: c.nodes[i].edge})
		c.nodes[i].edge = int32(len(c.edges) - 1)
		return true
	}
	c.edges = append(c.edges, gssEdge{pred: pred, next: -1})
	c.nodes = append(c.nodes, gssNode{state: st, edge: int32(len(c.edges) - 1)})
	return true
}

// Accepts implements Cursor: with the closure already committed, the
// accept set is the union of the frontier states' terminal transitions,
// plus EOF when any frontier state accepts. Warm calls allocate
// nothing.
func (c *gssCursor) Accepts(dst *TermSet) error {
	if _, err := c.use(); err != nil {
		return err
	}
	defer c.host.release()
	dst.Reset(c.vocab)
	base := c.posStart[len(c.posStart)-1]
	for i := base; i < int32(len(c.nodes)); i++ {
		st := c.nodes[i].state
		if st.Accept {
			dst.Add(grammar.EOF)
		}
		for sym := range st.Transitions {
			dst.Add(sym) // nonterminal (goto) edges fall outside the vocab
		}
	}
	return nil
}

// Feed implements Cursor: shift the frontier over t, then close the new
// position. No shift target anywhere in the frontier means t cannot
// extend the prefix; the arena is untouched and ErrRejected returned.
func (c *gssCursor) Feed(t grammar.Symbol) error {
	tbl, err := c.use()
	if err != nil {
		return err
	}
	defer c.host.release()
	if t == grammar.EOF || c.vocab.Index(t) < 0 {
		return ErrRejected
	}
	prev := c.posStart[len(c.posStart)-1]
	base := int32(len(c.nodes))
	c.posStart = append(c.posStart, base)
	c.edgeStart = append(c.edgeStart, int32(len(c.edges)))
	for i := prev; i < base; i++ {
		if nxt := c.step(tbl, c.nodes[i].state, t); nxt != nil {
			c.addNodeEdge(nxt, i)
		}
	}
	if int32(len(c.nodes)) == base {
		c.posStart = c.posStart[:len(c.posStart)-1]
		c.edgeStart = c.edgeStart[:len(c.edgeStart)-1]
		return ErrRejected
	}
	c.closure(tbl)
	return nil
}

// Restore implements Cursor: truncate the arenas back to the
// checkpointed position.
func (c *gssCursor) Restore(cp int) error {
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
	c.nodes = c.nodes[:c.posStart[cp+1]]
	c.edges = c.edges[:c.edgeStart[cp+1]]
	c.posStart = c.posStart[:cp+1]
	c.edgeStart = c.edgeStart[:cp+1]
	return nil
}

// Close implements Cursor, scrubbing retained table pointers and
// returning the arenas to the pool.
func (c *gssCursor) Close() {
	c.nodes = c.nodes[:cap(c.nodes)]
	clear(c.nodes)
	c.nodes = c.nodes[:0]
	c.scratch = c.scratch[:cap(c.scratch)]
	clear(c.scratch)
	c.scratch = c.scratch[:0]
	c.probe = c.probe[:cap(c.probe)]
	clear(c.probe)
	c.probe = c.probe[:0]
	c.edges = c.edges[:0]
	c.posStart = c.posStart[:0]
	c.edgeStart = c.edgeStart[:0]
	c.vocab = nil
	c.host = nil
	c.stale = true
	gssCursorPool.Put(c)
}
