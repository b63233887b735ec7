// Package glr implements the parsing layer of the system: the simple
// deterministic LR parser LR-PARSE (section 3.1), the (pseudo-)parallel
// parser PAR-PARSE of section 3.2 — a faithful transcription using parser
// copies whose stacks share structure — and a graph-structured-stack
// Tomita engine with local ambiguity packing (the "improved sharing"
// mentioned in the section 7 footnote).
//
// All engines are driven by an lr.Table, so they work unchanged with the
// conventional generator (internal/lr), the lazy generator and the
// incremental generator (internal/core): the parser is the
// grammar-independent part of Fig 2.2(c).
package glr

import (
	"errors"
	"fmt"
	"sort"

	"ipg/internal/cancel"
	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// Engine selects the parsing algorithm.
type Engine uint8

const (
	// Copying is PAR-PARSE as published (section 3.2): one simple LR
	// parser per nondeterministic choice, copied on each action, stacks
	// sharing their tails.
	Copying Engine = iota
	// GSS is the graph-structured-stack variant: parsers at the same
	// state share one stack node per sweep and local ambiguities are
	// packed in the forest.
	GSS
	// Deterministic is LR-PARSE (section 3.1): at most one action per
	// step; it fails with ErrNondeterministic on a conflict.
	Deterministic
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case Copying:
		return "copying"
	case GSS:
		return "gss"
	case Deterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// ErrNondeterministic is returned by the deterministic engine when ACTION
// returns more than one action ("LR-PARSE can only handle sets of at most
// one action correctly").
var ErrNondeterministic = errors.New("glr: parse table conflict (grammar not LR(0))")

// ErrNotFinitelyAmbiguous is returned when a sweep exceeds the reduction
// budget, which happens for cyclic grammars: PAR-PARSE is restricted to
// finitely ambiguous context-free grammars (section 2.1).
var ErrNotFinitelyAmbiguous = errors.New("glr: reduction budget exhausted (grammar not finitely ambiguous)")

// Event is a parser trace event; Fig 4.2's diagram of parser moves is a
// rendering of this stream.
type Event struct {
	// Op is "shift", "reduce", "goto", "accept" or "split".
	Op string
	// Token is the current input symbol.
	Token grammar.Symbol
	// Pos is the current token index.
	Pos int
	// State is the state acted upon (shift target for "shift", GOTO
	// target for "goto").
	State *lr.State
	// Rule is the reduced rule for "reduce".
	Rule *grammar.Rule
	// Stack is the state stack bottom-to-top after the event
	// (deterministic engine only). The slice is reused between events;
	// copy it if the trace callback retains it.
	Stack []int
}

// Stats counts parser work for the measurements of section 7.
type Stats struct {
	// Sweeps is the number of input symbols processed (including $).
	Sweeps int
	// Shifts, Reduces, Accepts count the actions performed.
	Shifts, Reduces, Accepts int
	// Copies counts parser copies (copying engine).
	Copies int
	// MaxParsers is the peak number of simultaneous parsers in a sweep
	// (copying engine) or GSS frontier size (GSS engine).
	MaxParsers int
	// Nodes and Edges count GSS allocation (GSS engine).
	Nodes, Edges int
}

// Result is the outcome of a parse.
type Result struct {
	// Accepted reports whether at least one simple parser accepted.
	Accepted bool
	// Root is the parse forest root (nil when !Accepted or tree building
	// is off). Multiple accepting parses are packed under one ambiguity
	// node.
	Root *forest.Node
	// Forest is the forest Root lives in. It is nil when tree building
	// is off: recognition never constructs a forest.
	Forest *forest.Forest
	// ErrorPos is the token index at which the last parser died, or -1
	// when the input was accepted. The end marker position signals
	// unexpected end of input.
	ErrorPos int
	// Expected lists the terminals that would have allowed progress at
	// ErrorPos (sorted by symbol).
	Expected []grammar.Symbol
	// Stats holds work counters.
	Stats Stats
}

// expectedOf collects the terminals the given states could have shifted
// (plus $ when one of them accepts) — the "expected here" diagnostic.
func expectedOf(g *grammar.Grammar, states []*lr.State) []grammar.Symbol {
	seen := map[grammar.Symbol]bool{}
	var out []grammar.Symbol
	add := func(s grammar.Symbol) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, st := range states {
		if st.Type != lr.Complete {
			continue
		}
		for sym := range st.Transitions {
			if g.Symbols().Kind(sym) == grammar.Terminal {
				add(sym)
			}
		}
		if st.Accept {
			add(grammar.EOF)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Options configures a parse. The zero value builds trees with the
// copying engine and a generous reduction budget.
type Options struct {
	// Engine selects the algorithm (default Copying).
	Engine Engine
	// DisableTrees skips forest construction (the paper's measurements
	// build trees; benchmarks can turn them off to isolate table costs).
	DisableTrees bool
	// Trace receives parser events when non-nil.
	Trace func(Event)
	// MaxReductions bounds reduce actions per sweep; 0 means
	// 1000 + 100×(input length). The bound only trips for grammars that
	// are not finitely ambiguous (cyclic grammars).
	MaxReductions int
	// Workspace supplies reusable per-parse scratch (GSS arenas,
	// frontiers, action buffers), making the steady-state token loop
	// allocation-free. Nil borrows one from an internal pool. A
	// workspace serves one parse at a time, so an Options value carrying
	// one must not be shared by concurrent parses.
	Workspace *Workspace
	// Cancel, when non-nil, is polled at drive-loop checkpoints (every
	// token sweep, and every action step in the deterministic driver);
	// a fired flag aborts the parse with a *cancel.Error carrying the
	// position reached and the work done. Nil costs one pointer check
	// per checkpoint.
	Cancel *cancel.Flag
}

func (o *Options) cancelFlag() *cancel.Flag {
	if o == nil {
		return nil
	}
	return o.Cancel
}

func (o *Options) budget(inputLen int) int {
	if o != nil && o.MaxReductions > 0 {
		return o.MaxReductions
	}
	return 1000 + 100*inputLen
}

func (o *Options) trees() bool { return o == nil || !o.DisableTrees }

func (o *Options) trace(ev Event) {
	if o != nil && o.Trace != nil {
		o.Trace(ev)
	}
}

// Parse runs the selected engine on input. The end marker $ is appended
// when absent. Input symbols must be terminals of the table's grammar.
func Parse(tbl lr.Table, input []grammar.Symbol, opts *Options) (Result, error) {
	in, err := prepare(tbl.Grammar(), input)
	if err != nil {
		return Result{}, err
	}
	engine := Copying
	if opts != nil {
		engine = opts.Engine
	}
	switch engine {
	case Deterministic:
		return lrParse(tbl, in, opts)
	case Copying:
		return parParse(tbl, in, opts)
	case GSS:
		return gssParse(tbl, in, opts)
	default:
		return Result{}, fmt.Errorf("glr: unknown engine %v", engine)
	}
}

// Recognize is Parse without tree building.
func Recognize(tbl lr.Table, input []grammar.Symbol, engine Engine) (bool, error) {
	res, err := Parse(tbl, input, &Options{Engine: engine, DisableTrees: true})
	if err != nil {
		return false, err
	}
	return res.Accepted, nil
}

func prepare(g *grammar.Grammar, input []grammar.Symbol) ([]grammar.Symbol, error) {
	syms := g.Symbols()
	for i, s := range input {
		if s == grammar.EOF {
			if i != len(input)-1 {
				return nil, fmt.Errorf("glr: end marker $ at position %d before end of input", i)
			}
			return input, nil
		}
		if syms.Kind(s) != grammar.Terminal {
			return nil, fmt.Errorf("glr: input symbol %q at position %d is not a terminal", syms.Name(s), i)
		}
	}
	out := make([]grammar.Symbol, len(input)+1)
	copy(out, input)
	out[len(input)] = grammar.EOF
	return out, nil
}
