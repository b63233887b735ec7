package glr

import (
	"sort"
	"sync"

	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// Workspace is the reusable per-parse scratch of the parsing engines:
// GSS node and edge arenas, the dense state-indexed frontier pair, the
// pending-reduction stack, the GSS edge-label tables, path-enumeration
// buffers, the action buffer driven through lr.Table.AppendActions, and
// the deterministic driver's stack. On a warm (already-expanded) table a
// parse that reuses a Workspace does no heap allocation in its token
// loop.
//
// A Workspace may be used by one parse at a time. Callers either supply
// one through Options.Workspace (and own its lifetime — e.g. one per
// worker goroutine, or checked out of their own pool), or leave it nil
// and the engines borrow one from an internal sync.Pool.
type Workspace struct {
	front, next frontierBuf
	nodes       nodeArena
	edges       edgeArena

	// spans interns the labels of the current sweep's reduction edges
	// by (symbol, start); eps interns zero-width labels for the whole
	// parse (see gss.go).
	spans, eps labelTable

	work     []pendingReduce
	paths    []gssPath
	children []*forest.Node
	labels   []*forest.Node
	actions  []lr.Action

	lastStates  []*lr.State
	acceptNodes []*gssNode

	// detStack is the deterministic LR-PARSE driver's stack (states and
	// attached forest nodes), reused across parses.
	detStack []detEntry
	// stackIDs renders the deterministic driver's trace events.
	stackIDs []int
}

// detEntry is one cell of the deterministic driver's stack.
type detEntry struct {
	state *lr.State
	node  *forest.Node
}

// begin readies the workspace for one parse: arenas rewind, buffers
// truncate. Capacities are kept, so steady-state reuse allocates
// nothing.
func (w *Workspace) begin() {
	w.nodes.reset()
	w.edges.reset()
	w.spans.reset()
	w.eps.reset()
	w.work = w.work[:0]
	w.paths = w.paths[:0]
	w.children = w.children[:0]
	w.labels = w.labels[:0]
	w.actions = w.actions[:0]
	w.lastStates = w.lastStates[:0]
	w.acceptNodes = w.acceptNodes[:0]
	w.detStack = w.detStack[:0]
}

// scrub drops every reference to memory the workspace does not own
// (table states, forest nodes, grammar rules), so a pooled workspace
// cannot pin a forest or a retired table between parses. Internal
// capacities (arenas, buffers, per-node edge slices) are kept.
func (w *Workspace) scrub() {
	w.nodes.scrub()
	w.edges.scrub()
	clear(w.spans.slots)
	clear(w.eps.slots)
	clear(w.work[:cap(w.work)])
	clear(w.children[:cap(w.children)])
	clear(w.labels[:cap(w.labels)])
	clear(w.actions[:cap(w.actions)])
	clear(w.lastStates[:cap(w.lastStates)])
	clear(w.detStack[:cap(w.detStack)])
	w.work = w.work[:0]
	w.children = w.children[:0]
	w.labels = w.labels[:0]
	w.actions = w.actions[:0]
	w.lastStates = w.lastStates[:0]
	w.detStack = w.detStack[:0]
}

// wsPool recycles workspaces for callers that do not manage their own.
var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// workspaceFor resolves the workspace for one parse: the caller's, or a
// pooled one (pooled reports which; pooled workspaces are scrubbed and
// returned through releaseWorkspace).
func (o *Options) workspaceFor() (w *Workspace, pooled bool) {
	if o != nil && o.Workspace != nil {
		return o.Workspace, false
	}
	return wsPool.Get().(*Workspace), true
}

func releaseWorkspace(w *Workspace) {
	w.scrub()
	wsPool.Put(w)
}

// frontierBuf is a dense state-indexed frontier: membership is one
// bounds-checked load instead of a map probe, and the structure is
// reused across tokens and parses via a generation stamp (no clearing
// between sweeps). order keeps the deterministic iteration the engines
// rely on (ascending state ID), maintained by sorted insertion.
type frontierBuf struct {
	byState []*gssNode
	mark    []uint32
	gen     uint32
	order   []*gssNode
}

func (f *frontierBuf) reset() {
	f.gen++
	if f.gen == 0 {
		// Stamp wrapped: invalidate every slot once, then restart at 1.
		clear(f.mark)
		f.gen = 1
	}
	f.order = f.order[:0]
}

func (f *frontierBuf) get(s *lr.State) *gssNode {
	if id := s.ID; id < len(f.mark) && f.mark[id] == f.gen {
		return f.byState[id]
	}
	return nil
}

func (f *frontierBuf) add(n *gssNode) {
	id := n.state.ID
	if id >= len(f.mark) {
		f.grow(id + 1)
	}
	f.byState[id] = n
	f.mark[id] = f.gen
	// Insert keeping order sorted by state ID (IDs are unique within a
	// frontier, so strict search is enough).
	i := sort.Search(len(f.order), func(i int) bool { return f.order[i].state.ID > id })
	f.order = append(f.order, nil)
	copy(f.order[i+1:], f.order[i:])
	f.order[i] = n
}

func (f *frontierBuf) grow(n int) {
	size := 2 * len(f.mark)
	if size < n {
		size = n
	}
	if size < 64 {
		size = 64
	}
	byState := make([]*gssNode, size)
	mark := make([]uint32, size)
	copy(byState, f.byState)
	copy(mark, f.mark)
	f.byState, f.mark = byState, mark
}

func (f *frontierBuf) len() int { return len(f.order) }

// gssChunk is the GSS arena block size: blocks live for the workspace's
// lifetime and are rewound per parse, so block count tracks the peak
// frontier, not the input length.
const gssChunk = 64

// nodeArena hands out gssNodes from reusable fixed-size blocks. Element
// addresses are stable (blocks never reallocate), which the engines
// require: frontier entries and edges hold node pointers.
type nodeArena struct {
	chunks [][]gssNode
	n      int
}

func (a *nodeArena) get(s *lr.State, pos int) *gssNode {
	ci, off := a.n/gssChunk, a.n%gssChunk
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]gssNode, gssChunk))
	}
	a.n++
	nd := &a.chunks[ci][off]
	nd.state = s
	nd.pos = pos
	nd.edges = nd.edges[:0] // keep capacity: steady-state reuse is allocation-free
	return nd
}

func (a *nodeArena) reset() { a.n = 0 }

func (a *nodeArena) scrub() {
	for i := 0; i < a.n; i++ {
		nd := &a.chunks[i/gssChunk][i%gssChunk]
		nd.state = nil
		clear(nd.edges[:cap(nd.edges)])
		nd.edges = nd.edges[:0]
	}
}

// edgeArena is the same scheme for gssEdges; stable addresses matter
// because edge identity (the Nozohoor-Farshi mustUse restriction and
// ambiguity packing) is pointer identity.
type edgeArena struct {
	chunks [][]gssEdge
	n      int
}

func (a *edgeArena) get(to *gssNode, label *forest.Node) *gssEdge {
	ci, off := a.n/gssChunk, a.n%gssChunk
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]gssEdge, gssChunk))
	}
	a.n++
	e := &a.chunks[ci][off]
	e.to = to
	e.label = label
	return e
}

func (a *edgeArena) reset() { a.n = 0 }

func (a *edgeArena) scrub() {
	for i := 0; i < a.n; i++ {
		e := &a.chunks[i/gssChunk][i%gssChunk]
		e.to = nil
		e.label = nil
	}
}

// labelTable maps (symbol, start position) to the forest node labelling
// the GSS edges over that span: open addressing over slots stamped with
// a generation, so reset is one increment and the storage is kept
// across sweeps and parses.
type labelTable struct {
	slots []labelSlot
	gen   uint32
	live  int
}

type labelSlot struct {
	gen   uint32
	sym   grammar.Symbol
	start int32
	node  *forest.Node
}

func (t *labelTable) reset() {
	t.gen++
	if t.gen == 0 {
		// Stamp wrapped: invalidate every slot once, then restart at 1.
		clear(t.slots)
		t.gen = 1
	}
	t.live = 0
}

// slot returns the node slot of (sym, start), claiming an empty one (nil
// node) when the key is new.
func (t *labelTable) slot(sym grammar.Symbol, start int) **forest.Node {
	if 2*(t.live+1) > len(t.slots) {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := labelHash(sym, start) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = labelSlot{gen: t.gen, sym: sym, start: int32(start)}
			t.live++
			return &s.node
		}
		if s.sym == sym && s.start == int32(start) {
			return &s.node
		}
	}
}

func labelHash(sym grammar.Symbol, start int) uint32 {
	h := uint32(sym)*0x9e3779b1 ^ uint32(start)*0x85ebca77
	return h ^ h>>15
}

// grow doubles the table (at least 64 slots), moving the live entries.
func (t *labelTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < 64 {
		size = 64
	}
	t.slots = make([]labelSlot, size)
	mask := uint32(size - 1)
	for _, s := range old {
		if s.gen != t.gen {
			continue
		}
		i := labelHash(s.sym, int(s.start)) & mask
		for t.slots[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
