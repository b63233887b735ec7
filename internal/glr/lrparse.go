package glr

import (
	"ipg/internal/faultinject"
	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// lrParse is LR-PARSE (section 3.1): a simple LR parser using a single
// stack of states. ACTION returning more than one action is an error for
// this engine. Tree building keeps a parallel stack of forest nodes —
// the paper omits trees from the pseudocode ("to keep things simple, we
// do not generate parse trees") but measures with tree building on.
//
// The stack and the action buffer live in the shared Workspace, and the
// action set is fetched through AppendActions, so the steady-state token
// loop of the deterministic driver allocates nothing.
func lrParse(tbl lr.Table, input []grammar.Symbol, opts *Options) (Result, error) {
	w, pooled := opts.workspaceFor()
	if pooled {
		defer releaseWorkspace(w)
	}
	buildTrees := opts.trees()
	res := Result{ErrorPos: -1}
	if buildTrees {
		res.Forest = forest.NewForest()
	}
	tracing := opts != nil && opts.Trace != nil

	w.begin()
	w.detStack = append(w.detStack, detEntry{state: tbl.Start()})

	// stackIDs renders the state stack for trace events only; the parse
	// itself never materializes it.
	stackIDs := func() []int {
		w.stackIDs = w.stackIDs[:0]
		for _, e := range w.detStack {
			w.stackIDs = append(w.stackIDs, e.state.ID)
		}
		return w.stackIDs
	}

	pos := 0
	symbol := input[pos]
	budget := opts.budget(len(input))
	fl := opts.cancelFlag()
	for {
		// Cancellation checkpoint: one nil check when unarmed, one
		// atomic load per action step when armed. Checking per step
		// (not per token) bounds abort latency even inside long reduce
		// chains.
		if fl.Hit() {
			return res, fl.Err(pos, len(input), uint64(res.Stats.Shifts+res.Stats.Reduces))
		}
		res.Stats.Sweeps++
		if res.Stats.Reduces > budget {
			return res, ErrNotFinitelyAmbiguous
		}
		state := w.detStack[len(w.detStack)-1].state
		w.actions = tbl.AppendActions(w.actions[:0], state, symbol)
		if len(w.actions) == 0 {
			// The error action: "the input read so far can never become
			// a sentence of the language any more."
			res.ErrorPos = pos
			res.Expected = expectedOf(tbl.Grammar(), []*lr.State{state})
			return res, nil
		}
		if len(w.actions) > 1 {
			return res, ErrNondeterministic
		}
		switch action := w.actions[0]; action.Kind {
		case lr.Shift:
			var leaf *forest.Node
			if buildTrees {
				leaf = res.Forest.Leaf(symbol, pos)
			}
			w.detStack = append(w.detStack, detEntry{state: action.State, node: leaf})
			if tracing {
				opts.trace(Event{Op: "shift", Token: symbol, Pos: pos, State: action.State, Stack: stackIDs()})
			}
			res.Stats.Shifts++
			pos++
			symbol = input[pos]
			if faultinject.Armed() {
				faultinject.Step(faultinject.SiteDriveToken, pos, fl)
			}
		case lr.Reduce:
			n := action.Rule.Len()
			var node *forest.Node
			if buildTrees {
				w.children = w.children[:0]
				for i := 0; i < n; i++ {
					w.children = append(w.children, w.detStack[len(w.detStack)-n+i].node)
				}
				node = res.Forest.Rule(action.Rule, w.children)
			}
			w.detStack = w.detStack[:len(w.detStack)-n]
			if tracing {
				opts.trace(Event{Op: "reduce", Token: symbol, Pos: pos, Rule: action.Rule, Stack: stackIDs()})
			}
			// GOTO is called on the uncovered stack top, which Appendix A
			// proves to be complete; lr.GotoOf checks the invariant.
			state = tbl.Goto(w.detStack[len(w.detStack)-1].state, action.Rule.Lhs)
			w.detStack = append(w.detStack, detEntry{state: state, node: node})
			if tracing {
				opts.trace(Event{Op: "goto", Token: symbol, Pos: pos, State: state, Stack: stackIDs()})
			}
			res.Stats.Reduces++
		case lr.Accept:
			res.Accepted = true
			res.Stats.Accepts++
			if buildTrees {
				res.Root = w.detStack[len(w.detStack)-1].node
			}
			if tracing {
				opts.trace(Event{Op: "accept", Token: symbol, Pos: pos, Stack: stackIDs()})
			}
			return res, nil
		}
	}
}
