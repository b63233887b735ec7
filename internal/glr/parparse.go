package glr

import (
	"ipg/internal/faultinject"
	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// stackNode is one cell of an LRparser's stack. Stacks are immutable
// singly-linked lists, so the copy operation for parsers makes "the parse
// stacks become different objects which share the states on them" (section
// 3.2) by copying nothing but the head pointer.
type stackNode struct {
	state *lr.State
	node  *forest.Node // tree attached to the grammar symbol that led here
	prev  *stackNode
}

// lrParser is the object of type 'LRparser' of the paper: a single field
// holding the parse stack.
type lrParser struct {
	stack *stackNode
}

// copyParser implements copy(parser): a new parser whose stack shares all
// nodes with the original.
func copyParser(p *lrParser) *lrParser { return &lrParser{stack: p.stack} }

// parParse is PAR-PARSE (section 3.2): a dynamically varying pool of
// simple LR parsers running in pseudo-parallel, synchronized on their
// shift actions through the this-sweep and next-sweep pools.
func parParse(tbl lr.Table, input []grammar.Symbol, opts *Options) (Result, error) {
	w, pooled := opts.workspaceFor()
	if pooled {
		defer releaseWorkspace(w)
	}
	res := Result{ErrorPos: -1}
	buildTrees := opts.trees()
	if buildTrees {
		res.Forest = forest.NewForest()
	}
	budget := opts.budget(len(input))
	w.begin()

	accepted := false
	var roots []*forest.Node
	// Failure diagnostics: the states consulted in the last sweep.
	var lastStates []*lr.State
	lastPos := 0

	startParser := &lrParser{stack: &stackNode{state: tbl.Start()}}
	nextSweep := []*lrParser{startParser}

	fl := opts.cancelFlag()
	pos := -1
	for len(nextSweep) > 0 {
		pos++
		// Per-sweep cancellation checkpoint (the inner reduce loop is
		// already bounded by the reduction budget).
		if fl.Hit() {
			return res, fl.Err(pos, len(input), uint64(res.Stats.Shifts+res.Stats.Reduces))
		}
		if faultinject.Armed() {
			faultinject.Step(faultinject.SiteDriveToken, pos, fl)
		}
		symbol := input[pos]
		res.Stats.Sweeps++
		thisSweep := nextSweep
		nextSweep = nil
		if len(thisSweep) > res.Stats.MaxParsers {
			res.Stats.MaxParsers = len(thisSweep)
		}
		reducesThisSweep := 0
		lastStates = lastStates[:0]
		lastPos = pos

		for len(thisSweep) > 0 {
			parser := thisSweep[len(thisSweep)-1]
			thisSweep = thisSweep[:len(thisSweep)-1]
			if len(thisSweep)+len(nextSweep)+1 > res.Stats.MaxParsers {
				res.Stats.MaxParsers = len(thisSweep) + len(nextSweep) + 1
			}

			state := parser.stack.state
			w.actions = tbl.AppendActions(w.actions[:0], state, symbol)
			lastStates = append(lastStates, state)
			// For each action a copy of the parser is made and the action
			// is performed on the copy; with no actions the parser just
			// disappears (the error action).
			for _, action := range w.actions {
				parser2 := copyParser(parser)
				res.Stats.Copies++
				switch action.Kind {
				case lr.Shift:
					var leaf *forest.Node
					if buildTrees {
						leaf = res.Forest.Leaf(symbol, pos)
					}
					parser2.stack = &stackNode{state: action.State, node: leaf, prev: parser2.stack}
					opts.trace(Event{Op: "shift", Token: symbol, Pos: pos, State: action.State})
					res.Stats.Shifts++
					nextSweep = append(nextSweep, parser2)
				case lr.Reduce:
					reducesThisSweep++
					if reducesThisSweep > budget {
						return res, ErrNotFinitelyAmbiguous
					}
					n := action.Rule.Len()
					var children []*forest.Node
					if buildTrees {
						children = make([]*forest.Node, n)
					}
					for i := n - 1; i >= 0; i-- {
						if buildTrees {
							children[i] = parser2.stack.node
						}
						parser2.stack = parser2.stack.prev
					}
					var node *forest.Node
					if buildTrees {
						node = res.Forest.Rule(action.Rule, children)
					}
					opts.trace(Event{Op: "reduce", Token: symbol, Pos: pos, Rule: action.Rule})
					goState := tbl.Goto(parser2.stack.state, action.Rule.Lhs)
					parser2.stack = &stackNode{state: goState, node: node, prev: parser2.stack}
					opts.trace(Event{Op: "goto", Token: symbol, Pos: pos, State: goState})
					res.Stats.Reduces++
					thisSweep = append(thisSweep, parser2)
				case lr.Accept:
					accepted = true
					res.Stats.Accepts++
					opts.trace(Event{Op: "accept", Token: symbol, Pos: pos})
					if buildTrees && parser2.stack.node != nil {
						roots = append(roots, parser2.stack.node)
					}
				}
			}
		}
	}

	res.Accepted = accepted
	if accepted && buildTrees && len(roots) > 0 {
		res.Root = res.Forest.Ambiguity(roots...)
	}
	if !accepted {
		res.ErrorPos = lastPos
		res.Expected = expectedOf(tbl.Grammar(), lastStates)
	}
	return res, nil
}
