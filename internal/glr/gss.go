package glr

import (
	"ipg/internal/faultinject"
	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// The GSS engine replaces PAR-PARSE's parser copies with a graph-
// structured stack: all simple parsers that are in the same state in the
// same sweep share one stack node, and alternative derivations of the same
// substring are packed locally in the parse forest. This removes the
// exponential blowup of the copying engine on densely ambiguous inputs and
// handles cyclic grammars (the resulting forests are cyclic; traversals
// report them). It is the "more efficient style" alluded to in the
// section 7 footnote.
//
// The implementation follows Tomita's algorithm with the conservative
// Nozohoor-Farshi repair for edges added to already-processed nodes: when
// a reduction creates a new edge on an existing frontier node, all pending
// reductions of the frontier are re-examined, restricted to paths that
// traverse the new edge. Termination needs no budget: nodes per sweep are
// bounded by the number of states, edges by node pairs, and re-examination
// only triggers on new edges.
//
// Edge labels. An edge is labelled by its derivation itself: the sweep's
// leaf for a shift edge, and for a reduction edge the forest node of its
// symbol over its span. Every edge over one (symbol, span) carries the
// same node, found in a per-sweep table keyed by symbol and start
// position. A second derivation of the span arrives as another reduction
// in the same sweep; forest.Pack then promotes the label in place into an
// ambiguity node, so parents built earlier, which point at the label,
// see it, and a span with one derivation costs no ambiguity node. Leaf
// labels are never packed: every LR(0) state has a single accessing
// symbol, so a state entered by shifting a terminal is never the GOTO
// target of a nonterminal.
//
// The per-sweep table loses no sharing. Every node built in sweep k ends
// at k and has edge labels as children, so equal nodes can arise only
// within one sweep. Zero-width nodes (spans of ε derivations) are the
// exception: they are keyed by symbol alone, in a table that lives for
// the whole parse. Keying labels by span rather than by rule and children
// also keeps packing exact: two edges over one span never hold distinct
// nodes with the same derivations, whose later packing would count a
// derivation twice.
//
// All transient structures — GSS nodes and edges, the two frontiers, the
// pending-reduction stack, the label tables and the path/action buffers
// — live in a Workspace (workspace.go) that is rewound per parse and
// recycled across parses, so the steady-state token loop over an
// already-expanded table performs no heap allocation.

type gssNode struct {
	state *lr.State
	// pos is the sweep (token index) the node belongs to.
	pos   int
	edges []*gssEdge
}

type gssEdge struct {
	to *gssNode
	// label is the edge's derivation: a leaf, or the node of its symbol
	// over its span, which later derivations are packed into; nil when
	// tree building is off.
	label *forest.Node
}

func (n *gssNode) edgeTo(dest *gssNode) *gssEdge {
	for _, e := range n.edges {
		if e.to == dest {
			return e
		}
	}
	return nil
}

// pendingReduce is a deferred reduction: apply rule from node, considering
// only paths that traverse the mustUse edge (nil = all paths).
type pendingReduce struct {
	node    *gssNode
	rule    *grammar.Rule
	mustUse *gssEdge
}

// enqueueReduces appends n's reductions on symbol to the work stack and
// records accepts. For a state not yet expanded the AppendActions call
// performs the lazy expansion, so a brand-new GSS node examined here
// also meets the Appendix A invariant for later GOTOs through it.
func (w *Workspace) enqueueReduces(tbl lr.Table, n *gssNode, symbol grammar.Symbol, pos int, opts *Options, res *Result) {
	w.actions = tbl.AppendActions(w.actions[:0], n.state, symbol)
	for _, action := range w.actions {
		switch action.Kind {
		case lr.Reduce:
			w.work = append(w.work, pendingReduce{node: n, rule: action.Rule})
		case lr.Accept:
			res.Accepted = true
			res.Stats.Accepts++
			opts.trace(Event{Op: "accept", Token: symbol, Pos: pos})
			w.acceptNodes = append(w.acceptNodes, n)
		}
	}
}

func gssParse(tbl lr.Table, input []grammar.Symbol, opts *Options) (Result, error) {
	w, pooled := opts.workspaceFor()
	if pooled {
		defer releaseWorkspace(w)
	}
	buildTrees := opts.trees()
	res := Result{ErrorPos: -1}
	if buildTrees {
		// Recognition never touches a forest: it is only built when the
		// caller wants trees.
		res.Forest = forest.NewForest()
	}
	w.begin()

	front, next := &w.front, &w.next
	front.reset()
	startNode := w.nodes.get(tbl.Start(), 0)
	res.Stats.Nodes++
	front.add(startNode)

	// Failure diagnostics: the frontier of the last processed sweep.
	lastPos := 0

	fl := opts.cancelFlag()
	for pos := 0; pos < len(input); pos++ {
		// Per-sweep cancellation checkpoint; a second, masked check
		// sits inside the reduction fixpoint below for sweeps whose
		// reduction cascade dwarfs the token count.
		if fl.Hit() {
			return res, fl.Err(pos, len(input), uint64(res.Stats.Shifts+res.Stats.Reduces))
		}
		if faultinject.Armed() {
			faultinject.Step(faultinject.SiteDriveToken, pos, fl)
		}
		symbol := input[pos]
		res.Stats.Sweeps++
		if front.len() > res.Stats.MaxParsers {
			res.Stats.MaxParsers = front.len()
		}
		lastPos = pos

		// Phase 1: reductions (and accept detection) to fixpoint.
		w.spans.reset()
		w.work = w.work[:0]
		for _, n := range front.order {
			w.enqueueReduces(tbl, n, symbol, pos, opts, &res)
		}

		for len(w.work) > 0 {
			p := w.work[len(w.work)-1]
			w.work = w.work[:len(w.work)-1]
			res.Stats.Reduces++
			if res.Stats.Reduces&63 == 0 && fl.Hit() {
				return res, fl.Err(pos, len(input), uint64(res.Stats.Shifts+res.Stats.Reduces))
			}
			opts.trace(Event{Op: "reduce", Token: symbol, Pos: pos, Rule: p.rule})

			plen := p.rule.Len()
			w.paths = w.paths[:0]
			w.children = w.children[:0]
			w.collectPaths(p.node, plen, p.mustUse, buildTrees)
			for _, path := range w.paths {
				dest := path.dest
				goState := tbl.Goto(dest.state, p.rule.Lhs)
				opts.trace(Event{Op: "goto", Token: symbol, Pos: pos, State: goState})

				var label *forest.Node
				if buildTrees {
					label = w.label(res.Forest, p.rule, w.children[path.childOff:path.childOff+plen], dest.pos, pos)
				}

				m := front.get(goState)
				if m == nil {
					m = w.nodes.get(goState, pos)
					res.Stats.Nodes++
					front.add(m)
					m.edges = append(m.edges, w.edges.get(dest, label))
					res.Stats.Edges++
					// A brand-new node: examine its own reductions (this
					// also expands its state under the lazy generator, so
					// later GOTOs through it meet the Appendix A
					// invariant).
					w.enqueueReduces(tbl, m, symbol, pos, opts, &res)
					continue
				}
				if edge := m.edgeTo(dest); edge != nil {
					// Another derivation of an existing edge: label
					// packed it into the edge's label already.
					if edge.label != label {
						panic("glr: GOTO on a nonterminal reached a state entered by a shift")
					}
					continue
				}
				edge := w.edges.get(dest, label)
				m.edges = append(m.edges, edge)
				res.Stats.Edges++
				// New edge on an existing node: conservatively re-examine
				// every frontier node's reductions, restricted to paths
				// through the new edge (Nozohoor-Farshi).
				for _, n := range front.order {
					w.actions = tbl.AppendActions(w.actions[:0], n.state, symbol)
					for _, action := range w.actions {
						if action.Kind == lr.Reduce {
							w.work = append(w.work, pendingReduce{node: n, rule: action.Rule, mustUse: edge})
						}
					}
				}
			}
		}

		// Snapshot for failure diagnostics: every frontier state has been
		// expanded by the AppendActions calls above.
		w.lastStates = w.lastStates[:0]
		for _, n := range front.order {
			w.lastStates = append(w.lastStates, n.state)
		}

		// Phase 2: shifts, synchronized as in PAR-PARSE.
		next.reset()
		var leaf *forest.Node
		if buildTrees {
			leaf = res.Forest.Leaf(symbol, pos)
		}
		for _, n := range front.order {
			w.actions = tbl.AppendActions(w.actions[:0], n.state, symbol)
			for _, action := range w.actions {
				if action.Kind != lr.Shift {
					continue
				}
				res.Stats.Shifts++
				opts.trace(Event{Op: "shift", Token: symbol, Pos: pos, State: action.State})
				m := next.get(action.State)
				if m == nil {
					m = w.nodes.get(action.State, pos+1)
					res.Stats.Nodes++
					next.add(m)
				}
				m.edges = append(m.edges, w.edges.get(n, leaf))
				res.Stats.Edges++
			}
		}
		front, next = next, front
		if front.len() == 0 {
			break
		}
	}

	if res.Accepted && buildTrees {
		// The accepting edges' distinct labels are the roots; most
		// grammars have one.
		roots := w.labels[:0]
		for _, n := range w.acceptNodes {
			for _, e := range n.edges {
				roots = appendNew(roots, e.label)
			}
		}
		switch {
		case len(roots) == 1:
			res.Root = roots[0]
		case len(roots) > 1:
			res.Root = res.Forest.Ambiguity(roots...)
		}
		w.labels = roots
	}
	if !res.Accepted {
		res.ErrorPos = lastPos
		res.Expected = expectedOf(tbl.Grammar(), w.lastStates)
	}
	return res, nil
}

// gssPath is one reduction path: the destination node (where GOTO applies)
// and, when trees are built, the offset of the path's forest labels in
// the workspace's flat children buffer (left-to-right rule order).
type gssPath struct {
	dest     *gssNode
	childOff int
}

// collectPaths enumerates all paths of exactly length edges starting at
// n into w.paths/w.children, optionally restricted to paths traversing
// mustUse. Offsets (not sub-slices) index the flat children buffer, so
// its growth cannot invalidate earlier paths.
func (w *Workspace) collectPaths(n *gssNode, length int, mustUse *gssEdge, withChildren bool) {
	w.labels = w.labels[:0]
	w.walkPaths(n, length, false, mustUse, length, withChildren)
}

func (w *Workspace) walkPaths(cur *gssNode, remaining int, used bool, mustUse *gssEdge, length int, withChildren bool) {
	if remaining == 0 {
		if mustUse != nil && !used {
			return
		}
		off := len(w.children)
		if withChildren {
			// Labels were collected top-of-stack first, i.e. in reverse
			// rule order; emit them reversed.
			for i := length - 1; i >= 0; i-- {
				w.children = append(w.children, w.labels[i])
			}
		}
		w.paths = append(w.paths, gssPath{dest: cur, childOff: off})
		return
	}
	for _, e := range cur.edges {
		if withChildren {
			w.labels = append(w.labels, e.label)
		}
		w.walkPaths(e.to, remaining-1, used || e == mustUse, mustUse, length, withChildren)
		if withChildren {
			w.labels = w.labels[:len(w.labels)-1]
		}
	}
}

// label returns the forest node that labels every edge over r.Lhs's span
// input[start:pos] in this sweep, holding r's derivation over children:
// the span's first derivation becomes the node, later ones are packed
// into it.
func (w *Workspace) label(f *forest.Forest, r *grammar.Rule, children []*forest.Node, start, pos int) *forest.Node {
	var slot **forest.Node
	if start == pos {
		slot = w.eps.slot(r.Lhs, 0)
	} else {
		slot = w.spans.slot(r.Lhs, start)
	}
	switch n := *slot; {
	case n == nil:
		*slot = f.Apply(r, children)
	case !n.Holds(r, children):
		f.Pack(n, f.Apply(r, children))
	}
	return *slot
}

// appendNew appends n to nodes unless it is already there.
func appendNew(nodes []*forest.Node, n *forest.Node) []*forest.Node {
	for _, x := range nodes {
		if x == n {
			return nodes
		}
	}
	return append(nodes, n)
}
