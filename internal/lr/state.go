package lr

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"ipg/internal/grammar"
)

// StateType is the type field of a set of items (section 4 and 6.2).
type StateType uint8

const (
	// Initial states have a kernel but no transitions/reductions yet.
	Initial StateType = iota
	// Complete states have been expanded for the current grammar.
	Complete
	// Dirty states were complete but were invalidated by a grammar
	// modification; they keep their old transitions as history so that
	// re-expansion can adjust reference counts (section 6.2). A dirty
	// state is expanded exactly like an initial one.
	Dirty
)

// String returns "initial", "complete" or "dirty".
func (t StateType) String() string {
	switch t {
	case Initial:
		return "initial"
	case Complete:
		return "complete"
	case Dirty:
		return "dirty"
	default:
		return fmt.Sprintf("StateType(%d)", uint8(t))
	}
}

// State is a set of items: a node in the directed graph of item sets that
// underlies both the parse table and the parsing states. Its fields are
// exactly those of the paper (kernel, transitions, reductions, type) plus
// the ref-count machinery of section 6.2 and a numeric ID for display.
type State struct {
	// ID is a unique number within one Automaton, used in diagrams and
	// the tabular parse-table rendering.
	ID int
	// Kernel holds the rules potentially being recognized in this state,
	// with dots marking progress. It is canonical (sorted, deduplicated)
	// and immutable except for the start state under START-rule
	// modification.
	Kernel Kernel
	// Type is initial, complete, or dirty.
	Type StateType

	// ids is the kernel's identity in the automaton: its item ids,
	// sorted; hash hashes them, and hnext chains the states of the
	// automaton's table that share the hash.
	ids   []uint64
	hash  uint64
	hnext *State

	// Transitions maps a symbol to the successor state: shift actions for
	// terminals, GOTO transitions for nonterminals. Valid only when Type
	// is Complete (for Dirty states the last valid value is kept in
	// OldTransitions).
	Transitions map[grammar.Symbol]*State
	// Accept records the special transition ($ accept).
	Accept bool
	// Reductions holds the rules recognized completely in this state.
	Reductions []*grammar.Rule

	// RefCount counts how many states refer to this one through their
	// (current) Transitions, plus one permanent reference for the start
	// state. Maintained by Automaton; used by the incremental
	// generator's deferred garbage collection.
	RefCount int

	// OldTransitions/OldAccept preserve the state of Transitions/Accept
	// at the moment the state was marked Dirty, so RE-EXPAND can release
	// references the re-expansion no longer creates.
	OldTransitions map[grammar.Symbol]*State
	OldAccept      bool

	// published is the concurrent-read publication flag: stored (with
	// release semantics) after Expand has filled Transitions/Reductions/
	// Accept, and cleared when a modification invalidates the state. A
	// reader that observes it true may use those fields without holding
	// any lock; a reader that observes it false must fall back to the
	// generator's expansion path. Writers (expansion, modification,
	// garbage collection) must already exclude each other.
	published atomic.Bool
}

// Published reports, with acquire semantics, whether the state's
// expansion has been published for lock-free concurrent reads.
func (s *State) Published() bool { return s.published.Load() }

// Publish marks the state's expansion visible to concurrent readers.
// Call only after Transitions/Reductions/Accept are fully written.
func (s *State) Publish() { s.published.Store(true) }

// Unpublish retracts the publication before invalidating the state.
// Call only while writers exclude all readers.
func (s *State) Unpublish() { s.published.Store(false) }

// TransitionSymbols returns the symbols with outgoing transitions in a
// deterministic order (sorted by symbol ID, i.e. interning order).
func (s *State) TransitionSymbols() []grammar.Symbol {
	out := make([]grammar.Symbol, 0, len(s.Transitions))
	for sym := range s.Transitions {
		out = append(out, sym)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the state header and kernel for diagnostics.
func (s *State) String(t *grammar.SymbolTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state %d (%s)\n", s.ID, s.Type)
	for _, it := range s.Kernel {
		b.WriteString("  ")
		b.WriteString(it.String(t))
		b.WriteByte('\n')
	}
	return b.String()
}

// ActionKind discriminates parser actions.
type ActionKind uint8

const (
	// Shift advances over a terminal to Action.State.
	Shift ActionKind = iota
	// Reduce pops len(Action.Rule.Rhs) states and consults GOTO.
	Reduce
	// Accept reports that the whole input has been recognized.
	Accept
)

// String returns "shift", "reduce" or "accept".
func (k ActionKind) String() string {
	switch k {
	case Shift:
		return "shift"
	case Reduce:
		return "reduce"
	case Accept:
		return "accept"
	default:
		return fmt.Sprintf("ActionKind(%d)", uint8(k))
	}
}

// Action is one parser action. The error action is represented by an
// empty action set, as in the paper.
type Action struct {
	Kind  ActionKind
	State *State        // shift target, when Kind == Shift
	Rule  *grammar.Rule // reduced rule, when Kind == Reduce
}

// String renders the action like the parse-table cells of Fig 4.1(b):
// "s2", "r(B ::= true)", "acc".
func (a Action) String(t *grammar.SymbolTable) string {
	switch a.Kind {
	case Shift:
		return fmt.Sprintf("s%d", a.State.ID)
	case Reduce:
		return fmt.Sprintf("r(%s)", a.Rule.String(t))
	case Accept:
		return "acc"
	default:
		return "?"
	}
}
