// Package core implements IPG, the lazy and incremental parser generator
// that is the contribution of Heering, Klint & Rekers, "Incremental
// Generation of Parsers" (CWI CS-R8822, 1988 / PLDI 1989).
//
// A Generator wraps the LR(0) graph of item sets of internal/lr and
// drives it in two ways:
//
//   - Lazily (section 5): the graph starts with only the start state; the
//     ACTION function expands initial states to complete states by need
//     while the parser runs. Once all needed parts are generated, parsing
//     is exactly as fast as with a conventionally generated table.
//
//   - Incrementally (section 6): AddRule and DeleteRule update the grammar
//     and invalidate precisely the states whose closures are affected —
//     the complete states holding a transition on the modified rule's
//     left-hand side — by making them initial (or dirty) again. The lazy
//     machinery re-expands them by need; everything else is reused.
//
// Garbage collection (section 6.2) is selectable via Policy: retain all
// states forever, reference counting with deferred removal plus a
// mark-and-sweep fallback for cycles, or eager sweeping after every
// modification (the ablation the paper argues against).
package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// Policy selects the garbage-collection strategy of section 6.2.
type Policy uint8

const (
	// PolicyRefCount is the paper's compromise (default): modifications
	// mark states dirty (initial with history); re-expansion releases
	// references the new expansion no longer creates; states whose
	// reference count reaches zero are removed, cascading. Reference
	// cycles are reclaimed by an explicit or threshold-triggered
	// mark-and-sweep.
	PolicyRefCount Policy = iota
	// PolicyRetainAll is plain section 6.1 MODIFY: affected states are
	// made initial and nothing is ever removed. Repeated modification
	// accumulates garbage ("we end up with too much garbage in
	// Itemsets").
	PolicyRetainAll
	// PolicyEagerSweep removes all unreachable states immediately after
	// every modification — the other horn of the paper's dilemma ("it is
	// likely that too much is thrown away").
	PolicyEagerSweep
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyRefCount:
		return "refcount"
	case PolicyRetainAll:
		return "retain-all"
	case PolicyEagerSweep:
		return "eager-sweep"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Options configures a Generator.
type Options struct {
	// Policy is the garbage-collection strategy (default PolicyRefCount).
	Policy Policy
	// SweepThreshold triggers an automatic mark-and-sweep after a
	// modification when, under PolicyRefCount, the fraction of states
	// that are dirty or unreachable-suspect exceeds it. 0 means the
	// default of 0.5; negative disables automatic sweeps.
	SweepThreshold float64
}

func (o *Options) policy() Policy {
	if o == nil {
		return PolicyRefCount
	}
	return o.Policy
}

func (o *Options) sweepThreshold() float64 {
	if o == nil || o.SweepThreshold == 0 {
		return 0.5
	}
	return o.SweepThreshold
}

// Generator is the incremental parser generator IPG. It implements
// lr.Table, so any engine of internal/glr can be driven by it directly;
// table generation happens inside Actions, during parsing.
//
// All grammar modifications must go through AddRule/DeleteRule (or
// AddGrammar); mutating the grammar behind the generator's back is a
// programming error that the generator detects and reports by panicking
// at the next Start call (every parse begins with one) or lazy
// expansion. Already-expanded states serve actions without re-checking,
// so detection is per parse, not per action.
//
// # Concurrency
//
// One generator (and thus one lazily expanding table) may be shared by
// many goroutines under the following discipline:
//
//   - Every parse is bracketed by BeginParse/EndParse, which take shared
//     (read) access. Concurrent parses expand states cooperatively: the
//     already-expanded hot path is a single atomic load per state (the
//     state's publication flag), and expansion of a still-initial state
//     is double-checked under an internal expansion mutex so each state
//     is expanded exactly once no matter how many parses race to it.
//   - AddRule/DeleteRule/AddGrammar/MarkSweep/Pregenerate take exclusive
//     (write) access internally, so a modification never tears a running
//     parse: a parse sees the table either entirely before or entirely
//     after each modification.
//
// Single-goroutine use needs no bracketing; all methods remain safe to
// call unlocked when nothing runs concurrently.
type Generator struct {
	auto      *lr.Automaton
	g         *grammar.Grammar
	policy    Policy
	threshold float64
	version   uint64

	// mu is the table-wide reader/writer lock: parses (BeginParse/
	// EndParse) hold it shared, modifications and GC hold it exclusive.
	mu sync.RWMutex
	// expandMu serializes lazy state expansion among concurrent parses
	// (which only hold mu shared). Lock order: mu before expandMu.
	expandMu sync.Mutex

	// Atomic counters for the concurrent parse service.
	actionCalls       atomic.Uint64
	cacheHits         atomic.Uint64
	statesExpanded    atomic.Uint64
	statesInvalidated atomic.Uint64
	statesScanned     atomic.Uint64
	parsesServed      atomic.Uint64

	// affected is modifyGraph's scratch list (written under mu only).
	affected []*lr.State

	// Sweeps counts mark-and-sweep passes (for the GC ablation).
	Sweeps int
}

// New builds the first part of the graph of item sets for g — only the
// start state, as an initial set of items (GENERATE-PARSER, section 5.1) —
// and returns the generator ready for parsing. No table generation work
// happens until the first Actions call.
func New(g *grammar.Grammar, opts *Options) *Generator {
	return NewFromAutomaton(lr.New(g), opts)
}

// NewFromAutomaton wraps an existing graph of item sets — typically one
// reloaded with lr.Load — so a session can resume with the table parts an
// earlier session already generated. The automaton's grammar must not
// have been modified since the graph was built.
func NewFromAutomaton(a *lr.Automaton, opts *Options) *Generator {
	return &Generator{
		auto:      a,
		g:         a.Grammar(),
		policy:    opts.policy(),
		threshold: opts.sweepThreshold(),
		version:   a.Grammar().Version(),
	}
}

// Grammar returns the generator's grammar. Do not modify it directly; use
// AddRule/DeleteRule.
func (gen *Generator) Grammar() *grammar.Grammar { return gen.g }

// Automaton exposes the underlying graph of item sets for inspection
// (dump, table rendering, state counts).
func (gen *Generator) Automaton() *lr.Automaton { return gen.auto }

// Policy returns the garbage-collection policy.
func (gen *Generator) Policy() Policy { return gen.policy }

// Start implements lr.Table.
func (gen *Generator) Start() *lr.State {
	gen.checkVersion()
	return gen.auto.Start()
}

// Actions implements lr.Table: the lazy ACTION of section 5.1. When the
// state is still initial (or dirty after a modification) it is expanded
// first; the action set is then deduced from the transitions and
// reductions fields.
//
// The already-expanded path costs one atomic load (the state's
// publication flag) plus two counter increments; expansion of a fresh
// state is double-checked under the expansion mutex so concurrent parses
// expand each state exactly once. The shared counter increments put one
// cache line on the per-token hot path — a deliberate tradeoff for
// always-on service metrics; shard or batch them per parse if they ever
// show up in profiles on many-core machines.
func (gen *Generator) Actions(s *lr.State, sym grammar.Symbol) []lr.Action {
	gen.actionCalls.Add(1)
	if s.Published() {
		gen.cacheHits.Add(1)
	} else {
		gen.expandSlow(s)
	}
	return lr.ActionsOf(s, sym)
}

// AppendActions implements lr.Table: Actions into a caller-supplied
// buffer. The published-state path is one atomic load plus the two
// counter increments; ParseSession additionally batches the counters,
// leaving a single atomic load per call.
func (gen *Generator) AppendActions(dst []lr.Action, s *lr.State, sym grammar.Symbol) []lr.Action {
	gen.actionCalls.Add(1)
	if s.Published() {
		gen.cacheHits.Add(1)
	} else {
		gen.expandSlow(s)
	}
	return lr.AppendActionsOf(dst, s, sym)
}

// expandSlow is the cold half of Actions: it serializes racing parses on
// the expansion mutex and re-checks the publication flag, so the parse
// that loses the race reuses the winner's expansion.
func (gen *Generator) expandSlow(s *lr.State) {
	gen.expandMu.Lock()
	defer gen.expandMu.Unlock()
	if s.Published() {
		return
	}
	gen.checkVersion()
	gen.ensureComplete(s)
}

// Goto implements lr.Table. Appendix A proves GOTO is only called on
// complete states — also under lazy generation — so no expansion happens
// here; the invariant is checked by lr.GotoOf.
func (gen *Generator) Goto(s *lr.State, sym grammar.Symbol) *lr.State {
	return lr.GotoOf(s, sym)
}

// ensureComplete expands an initial or dirty state in place. Callers
// must hold either the expansion mutex (parse path) or exclusive access
// (modification path).
func (gen *Generator) ensureComplete(s *lr.State) {
	switch s.Type {
	case lr.Complete:
		// Already complete but not yet published (e.g. generated before
		// any concurrent machinery ran): publish so the fast path sticks.
		s.Publish()
	case lr.Initial:
		gen.auto.Expand(s)
		gen.statesExpanded.Add(1)
	case lr.Dirty:
		gen.reExpand(s)
		gen.statesExpanded.Add(1)
	}
}

// BeginParse takes shared access to the table for the duration of one
// parse. While any parse holds it, AddRule/DeleteRule/GC block, so the
// parse observes the table either entirely before or entirely after
// each modification — never a torn state. Always pair with EndParse.
func (gen *Generator) BeginParse() { gen.mu.RLock() }

// EndParse releases the shared access taken by BeginParse and counts the
// parse as served.
func (gen *Generator) EndParse() {
	gen.parsesServed.Add(1)
	gen.mu.RUnlock()
}

// Counters is a consistent-enough snapshot of the generator's atomic
// work counters (each field is individually exact; the set is sampled
// without a lock).
type Counters struct {
	// ActionCalls counts Actions invocations — the parse hot path.
	ActionCalls uint64
	// CacheHits counts Actions calls answered by an already-expanded
	// (published) state without taking any lock.
	CacheHits uint64
	// StatesExpanded counts lazy expansions, including re-expansions of
	// dirty states.
	StatesExpanded uint64
	// StatesInvalidated counts states made initial or dirty by grammar
	// modifications.
	StatesInvalidated uint64
	// StatesRepaired counts states spliced in place by an incremental
	// table repair (re-expanded affected states plus states the repair
	// created); only the eager table engines report it.
	StatesRepaired uint64
	// RepairFallbacks counts rule updates a table repair declined (or
	// disavowed), forcing a full regeneration.
	RepairFallbacks uint64
	// RepairScanned, RepairPropagated, RepairRulesDiffed and
	// RepairReanalysed count the work rule updates visited: states
	// looked at to find and reclaim the damage, LALR(1) lookahead slots
	// re-propagated, rules whose FIRST inputs were diffed, and
	// nonterminals whose FIRST/nullable/FOLLOW sets were recomputed. A
	// modification should cost what it damages, not what the grammar
	// holds; the lazy generator reports states scanned only.
	RepairScanned     uint64
	RepairPropagated  uint64
	RepairRulesDiffed uint64
	RepairReanalysed  uint64
	// ParsesServed counts BeginParse/EndParse pairs.
	ParsesServed uint64
}

// Plus returns the field-wise sum of two counter samples — used to
// aggregate counters across generations of a replaced engine.
func (c Counters) Plus(d Counters) Counters {
	return Counters{
		ActionCalls:       c.ActionCalls + d.ActionCalls,
		CacheHits:         c.CacheHits + d.CacheHits,
		StatesExpanded:    c.StatesExpanded + d.StatesExpanded,
		StatesInvalidated: c.StatesInvalidated + d.StatesInvalidated,
		StatesRepaired:    c.StatesRepaired + d.StatesRepaired,
		RepairFallbacks:   c.RepairFallbacks + d.RepairFallbacks,
		RepairScanned:     c.RepairScanned + d.RepairScanned,
		RepairPropagated:  c.RepairPropagated + d.RepairPropagated,
		RepairRulesDiffed: c.RepairRulesDiffed + d.RepairRulesDiffed,
		RepairReanalysed:  c.RepairReanalysed + d.RepairReanalysed,
		ParsesServed:      c.ParsesServed + d.ParsesServed,
	}
}

// HitRate is the fraction of Actions calls served from already-expanded
// states (0 when no actions have been requested yet).
func (c Counters) HitRate() float64 {
	if c.ActionCalls == 0 {
		return 0
	}
	return float64(c.CacheHits) / float64(c.ActionCalls)
}

// Counters samples the generator's work counters.
func (gen *Generator) Counters() Counters {
	return Counters{
		ActionCalls:       gen.actionCalls.Load(),
		CacheHits:         gen.cacheHits.Load(),
		StatesExpanded:    gen.statesExpanded.Load(),
		StatesInvalidated: gen.statesInvalidated.Load(),
		RepairScanned:     gen.statesScanned.Load(),
		ParsesServed:      gen.parsesServed.Load(),
	}
}

func (gen *Generator) checkVersion() {
	if gen.g.Version() != gen.version {
		panic(fmt.Sprintf("core: grammar modified behind the generator's back (version %d, generator saw %d); use Generator.AddRule/DeleteRule",
			gen.g.Version(), gen.version))
	}
}

// SaveTable serializes the graph of item sets, including the lazy
// frontier, dirty-state history and publication flags (lr.Save format
// v2), so a later session resumes exactly where this one stopped
// generating. It holds shared table access plus the expansion mutex:
// concurrent parses on already-published states continue unimpeded
// while the snapshot is taken; lazy expansions and modifications wait.
// The returned coverage describes exactly the serialized table — it is
// sampled inside the same critical section, so a racing parse cannot
// make the description drift from the payload.
func (gen *Generator) SaveTable(w io.Writer) (CoverageStats, error) {
	gen.mu.RLock()
	defer gen.mu.RUnlock()
	gen.expandMu.Lock()
	defer gen.expandMu.Unlock()
	if err := gen.auto.Save(w); err != nil {
		return CoverageStats{}, err
	}
	i, c, d := gen.auto.TypeCounts()
	return CoverageStats{
		Initial:       i,
		Complete:      c,
		Dirty:         d,
		Expansions:    gen.auto.Stats.Expansions,
		StatesCreated: gen.auto.Stats.StatesCreated,
		StatesRemoved: gen.auto.Stats.StatesRemoved,
	}, nil
}

// Pregenerate expands every state reachable from the start state,
// producing the same table a conventional generator would (useful for
// measuring lazy coverage and for warm-start comparisons). Unreachable
// garbage retained by the GC policy is not expanded. It takes exclusive
// access; do not call while holding BeginParse.
func (gen *Generator) Pregenerate() {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	gen.checkVersion()
	seen := map[*lr.State]bool{}
	queue := []*lr.State{gen.auto.Start()}
	seen[gen.auto.Start()] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		gen.ensureComplete(s)
		for _, sym := range s.TransitionSymbols() {
			succ := s.Transitions[sym]
			if !seen[succ] {
				seen[succ] = true
				queue = append(queue, succ)
			}
		}
	}
}

// CoverageStats describes how much of the parse table has been generated —
// the measurement behind the section 5.2 claim that parsing the SDF
// definition of SDF needs only ~60% of the SDF table.
type CoverageStats struct {
	// Initial, Complete, Dirty count current states by type.
	Initial, Complete, Dirty int
	// Expansions is the total number of EXPAND calls so far.
	Expansions int
	// StatesCreated / StatesRemoved track graph churn.
	StatesCreated, StatesRemoved int
}

// Coverage reports generation progress. It takes shared access plus the
// expansion mutex, so it may be called while other goroutines parse.
func (gen *Generator) Coverage() CoverageStats {
	gen.mu.RLock()
	defer gen.mu.RUnlock()
	gen.expandMu.Lock()
	defer gen.expandMu.Unlock()
	i, c, d := gen.auto.TypeCounts()
	return CoverageStats{
		Initial:       i,
		Complete:      c,
		Dirty:         d,
		Expansions:    gen.auto.Stats.Expansions,
		StatesCreated: gen.auto.Stats.StatesCreated,
		StatesRemoved: gen.auto.Stats.StatesRemoved,
	}
}
