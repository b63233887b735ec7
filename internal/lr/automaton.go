package lr

import (
	"fmt"
	"iter"
	"slices"
	"sort"

	"ipg/internal/grammar"
)

// Table is the parser-facing view of a generated parser: the control
// structure PAR-PARSE is driven by (section 3.2). The conventional
// Automaton implements it directly; the lazy/incremental generator in
// internal/core implements it by expanding states on demand inside
// Actions.
type Table interface {
	// Grammar returns the grammar the table was generated from.
	Grammar() *grammar.Grammar
	// Start returns the state in which parsing starts.
	Start() *State
	// Actions returns the set of possible actions in state s on terminal
	// sym (ACTION, section 4/5). An empty result is the error action.
	Actions(s *State, sym grammar.Symbol) []Action
	// AppendActions appends the same action set to dst and returns the
	// extended slice. It is the allocation-free form of Actions: the
	// parse engines call it with a reused buffer, so the steady-state
	// token loop does no per-call heap allocation.
	AppendActions(dst []Action, s *State, sym grammar.Symbol) []Action
	// Goto returns the successor of s on nonterminal sym (GOTO,
	// section 4). Per Appendix A it must only be called on complete
	// states; implementations check this invariant.
	Goto(s *State, sym grammar.Symbol) *State
}

// Stats counts generator work, for the measurements of section 7.
type Stats struct {
	// Expansions is the number of EXPAND calls (initial/dirty state →
	// complete state), including re-expansions.
	Expansions int
	// StatesCreated is the total number of states ever created,
	// including states later removed by garbage collection.
	StatesCreated int
	// StatesRemoved is the number of states removed by garbage
	// collection.
	StatesRemoved int
	// ClosureItems is the total number of items produced by all CLOSURE
	// computations, a proxy for generator work.
	ClosureItems int
}

// Automaton is the graph of item sets for a grammar, together with the
// bookkeeping table Itemsets. A state's identity there is its kernel's
// item ids, sorted (see itemID): the table hashes them and compares
// them exactly. It provides the mechanisms — state creation, CLOSURE,
// EXPAND — shared by every generation strategy; the strategies
// themselves are:
//
//   - conventional (PG, section 4): GenerateAll, then use as a Table;
//   - lazy / incremental (IPG, sections 5–6): internal/core drives the
//     same automaton, expanding by need and invalidating on modification.
type Automaton struct {
	g *grammar.Grammar
	// states maps a kernel hash to the states with that hash, chained
	// through State.hnext; n counts them.
	states map[uint64]*State
	n      int
	start  *State
	nextID int
	// onSym[n] lists the complete states with a transition on
	// nonterminal n: the states a modification of n's rules damages
	// (section 6.1). Expand, Invalidate and Remove keep it current.
	onSym [][]*State
	// types counts the states by type.
	types [3]int
	// tmp is Expand's working space, reused by every expansion.
	tmp expandScratch

	// Stats accumulates generator work counters.
	Stats Stats
}

// expandScratch holds the buffers one expansion fills: the closure, the
// closure items advanced past each symbol (moved[sym], in
// first-appearance order of sym), and a successor kernel's item ids.
type expandScratch struct {
	closer
	moved [][]Item
	order []grammar.Symbol
	ids   []uint64
}

// itemID packs an item's identity: its rule's ID (grammar.Rule.ID) in
// the high 32 bits, its dot in the low 32. It is 0 when the symbol table
// never interned the rule.
func itemID(syms *grammar.SymbolTable, it Item) uint64 {
	id := syms.RuleID(it.Rule)
	if id == 0 {
		return 0
	}
	return uint64(id)<<32 | uint64(it.Dot)
}

// kernelIDs appends the item ids of items to dst, sorted and
// deduplicated: the kernel's identity. It reports false when the symbol
// table never interned one of the rules, so no state can hold it.
func (a *Automaton) kernelIDs(dst []uint64, items []Item) ([]uint64, bool) {
	syms := a.g.Symbols()
	for _, it := range items {
		id := itemID(syms, it)
		if id == 0 {
			return dst, false
		}
		dst = append(dst, id)
	}
	slices.Sort(dst)
	return slices.Compact(dst), true
}

// mustKernelIDs is kernelIDs for a kernel that must have an identity:
// one built from the grammar's rules.
func (a *Automaton) mustKernelIDs(dst []uint64, items []Item) []uint64 {
	ids, ok := a.kernelIDs(dst, items)
	if !ok {
		panic(fmt.Sprintf("lr: kernel item of a rule no grammar over this symbol table holds:\n%s",
			Kernel(items).String(a.g.Symbols())))
	}
	return ids
}

// hashIDs hashes a kernel's item ids for the state table.
func hashIDs(ids []uint64) uint64 {
	h := uint64(len(ids))
	for _, x := range ids {
		h = (h ^ x) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// find returns the state whose kernel has the item ids ids, hashed to
// h, or nil.
func (a *Automaton) find(ids []uint64, h uint64) *State {
	for s := a.states[h]; s != nil; s = s.hnext {
		if slices.Equal(s.ids, ids) {
			return s
		}
	}
	return nil
}

// insert enters s, whose ids and hash are set, in the state table.
func (a *Automaton) insert(s *State) {
	s.hnext = a.states[s.hash]
	a.states[s.hash] = s
	a.n++
}

// unlink takes s out of the state table, reporting whether it was in.
func (a *Automaton) unlink(s *State) bool {
	head := a.states[s.hash]
	switch {
	case head == s && s.hnext == nil:
		delete(a.states, s.hash)
	case head == s:
		a.states[s.hash] = s.hnext
	default:
		p := head
		for p != nil && p.hnext != s {
			p = p.hnext
		}
		if p == nil {
			return false
		}
		p.hnext = s.hnext
	}
	s.hnext = nil
	a.n--
	return true
}

// member reports whether s is in the state table.
func (a *Automaton) member(s *State) bool {
	for x := a.states[s.hash]; x != nil; x = x.hnext {
		if x == s {
			return true
		}
	}
	return false
}

// all iterates the states in no particular order.
func (a *Automaton) all() iter.Seq[*State] {
	return func(yield func(*State) bool) {
		for _, s := range a.states {
			for ; s != nil; s = s.hnext {
				if !yield(s) {
					return
				}
			}
		}
	}
}

// add creates an initial state with kernel k, whose item ids (copied)
// are ids, hashed to h.
func (a *Automaton) add(k Kernel, ids []uint64, h uint64) *State {
	s := &State{ID: a.nextID, Kernel: k, Type: Initial, ids: slices.Clone(ids), hash: h}
	a.nextID++
	a.insert(s)
	a.types[Initial]++
	a.Stats.StatesCreated++
	return s
}

// New builds the first part of the graph of item sets: only the start
// state, with kernel {START ::= • β | START ::= β ∈ Grammar}, of type
// initial (GENERATE-PARSER, section 5.1). No expansion happens here.
func New(g *grammar.Grammar) *Automaton {
	a := &Automaton{
		g:      g,
		states: make(map[uint64]*State),
	}
	a.start = a.Intern(StartKernel(g))
	a.start.RefCount++ // permanent root reference
	return a
}

// StartKernel computes the start state's kernel for the current rule set
// of g.
func StartKernel(g *grammar.Grammar) Kernel {
	var items []Item
	for _, r := range g.RulesFor(g.Start()) {
		items = append(items, Item{Rule: r, Dot: 0})
	}
	return NewKernel(items)
}

// Grammar returns the automaton's grammar.
func (a *Automaton) Grammar() *grammar.Grammar { return a.g }

// Start returns the start state.
func (a *Automaton) Start() *State { return a.start }

// Len returns the number of states currently in the graph.
func (a *Automaton) Len() int { return a.n }

// States returns all states sorted by ID. The slice is fresh; the states
// are shared.
func (a *Automaton) States() []*State {
	out := slices.AppendSeq(make([]*State, 0, a.n), a.all())
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the state with the given kernel, if present.
func (a *Automaton) Lookup(k Kernel) (*State, bool) {
	var buf [16]uint64
	ids, ok := a.kernelIDs(buf[:0], k)
	if !ok {
		return nil, false
	}
	s := a.find(ids, hashIDs(ids))
	return s, s != nil
}

// Intern returns the state with kernel k, creating it as an initial state
// if necessary. Every rule of k must be one a grammar over the
// automaton's symbol table holds or held.
func (a *Automaton) Intern(k Kernel) *State {
	ids := a.mustKernelIDs(a.tmp.ids[:0], k)
	a.tmp.ids = ids
	h := hashIDs(ids)
	if s := a.find(ids, h); s != nil {
		return s
	}
	return a.add(k, ids, h)
}

// Remove deletes s from the bookkeeping table. Used by the incremental
// generator's garbage collector; the caller is responsible for reference
// counts.
func (a *Automaton) Remove(s *State) {
	if a.unlink(s) {
		a.types[s.Type]--
		if s.Type == Complete {
			a.unindex(s)
		}
		a.Stats.StatesRemoved++
	}
}

// AppendStatesOn appends to dst the complete states with a transition
// on nonterminal n — the states whose closures held n's rules — in no
// particular order, and returns the extended slice. It reads the
// index, so it costs what it returns.
func (a *Automaton) AppendStatesOn(dst []*State, n grammar.Symbol) []*State {
	if int(n) < len(a.onSym) {
		dst = append(dst, a.onSym[n]...)
	}
	return dst
}

// index records a complete state's transition on sym, when sym is a
// nonterminal.
func (a *Automaton) index(s *State, sym grammar.Symbol) {
	if a.g.Symbols().Kind(sym) != grammar.Nonterminal {
		return
	}
	for int(sym) >= len(a.onSym) {
		a.onSym = append(a.onSym, nil)
	}
	a.onSym[sym] = append(a.onSym[sym], s)
}

// unindex drops a complete state from the index before its
// transitions change or it leaves the graph.
func (a *Automaton) unindex(s *State) {
	syms := a.g.Symbols()
	for sym := range s.Transitions {
		if syms.Kind(sym) != grammar.Nonterminal {
			continue
		}
		list := a.onSym[sym]
		for i, x := range list {
			if x == s {
				last := len(list) - 1
				list[i] = list[last]
				list[last] = nil
				a.onSym[sym] = list[:last]
				break
			}
		}
	}
}

// Invalidate makes a complete state initial, or dirty when
// keepHistory is set (section 6.2: a dirty state keeps its transitions
// as history, so RE-EXPAND can release the references its re-expansion
// no longer makes). The state is unpublished first; callers exclude
// concurrent readers.
func (a *Automaton) Invalidate(s *State, keepHistory bool) {
	s.Unpublish()
	a.unindex(s)
	a.types[Complete]--
	if keepHistory {
		s.OldTransitions = s.Transitions
		s.OldAccept = s.Accept
		s.Type = Dirty
	} else {
		s.Type = Initial
	}
	a.types[s.Type]++
	s.Transitions = nil
	s.Reductions = nil
	s.Accept = false
}

// ResetStartKernel recomputes the start state's kernel after a START-rule
// modification (MODIFY's A = START case) and re-keys the bookkeeping
// table. The start state object keeps its identity.
func (a *Automaton) ResetStartKernel() {
	a.unlink(a.start)
	k := StartKernel(a.g)
	ids := a.mustKernelIDs(a.tmp.ids[:0], k)
	a.tmp.ids = ids
	h := hashIDs(ids)
	// A distinct state with the new kernel may already exist (e.g. the
	// modification re-added rules of an earlier grammar). The start state
	// wins the identity; the other state becomes unreachable garbage,
	// out of the table, the counts and the index.
	if other := a.find(ids, h); other != nil {
		a.unlink(other)
		a.types[other.Type]--
		if other.Type == Complete {
			a.unindex(other)
		}
	}
	a.start.Kernel, a.start.ids, a.start.hash = k, slices.Clone(ids), h
	a.insert(a.start)
}

// Expand transforms an initial (or dirty) set of items into a complete one
// (EXPAND, section 4): it computes the transitions and reductions fields
// from the closure of the kernel under the current grammar. Newly created
// successor states are returned in deterministic (first-appearance) order.
// Reference counts of all new transition targets are incremented; callers
// re-expanding a dirty state release the old references afterwards
// (RE-EXPAND, section 6.2).
func (a *Automaton) Expand(s *State) []*State {
	tmp := &a.tmp
	cl := tmp.closure(a.g, s.Kernel)
	a.Stats.ClosureItems += len(cl)
	a.Stats.Expansions++

	if s.Type == Complete {
		a.unindex(s)
	}
	a.types[s.Type]--
	a.types[Complete]++
	s.Reductions = nil
	s.Accept = false

	// Partition the closure by the symbol after the dot, preserving
	// first-appearance order for deterministic state numbering.
	if n := a.g.Symbols().Len() + 1; len(tmp.moved) < n {
		tmp.moved = append(tmp.moved, make([][]Item, 2*n-len(tmp.moved))...)
	}
	order := tmp.order[:0]
	for _, it := range cl {
		sym := it.AfterDot()
		if sym == grammar.NoSymbol {
			// Dot at the end: accept for START, reduce otherwise.
			if it.Rule.Lhs == a.g.Start() {
				s.Accept = true
			} else {
				s.Reductions = append(s.Reductions, it.Rule)
			}
			continue
		}
		if len(tmp.moved[sym]) == 0 {
			order = append(order, sym)
		}
		tmp.moved[sym] = append(tmp.moved[sym], Item{Rule: it.Rule, Dot: it.Dot + 1})
	}

	s.Transitions = make(map[grammar.Symbol]*State, len(order))
	var created []*State
	for _, sym := range order {
		items := tmp.moved[sym]
		ids := a.mustKernelIDs(tmp.ids[:0], items)
		tmp.ids = ids
		h := hashIDs(ids)
		succ := a.find(ids, h)
		if succ == nil {
			succ = a.add(NewKernel(items), ids, h)
			created = append(created, succ)
		}
		s.Transitions[sym] = succ
		succ.RefCount++
		a.index(s, sym)
		tmp.moved[sym] = items[:0]
	}
	tmp.order = order[:0]
	s.Type = Complete
	s.Publish()
	return created
}

// GenerateAll is the conventional GENERATE-PARSER of section 4: it expands
// initial sets of items until none remain, building the complete graph up
// front. States are processed in creation order, so numbering is
// deterministic (breadth-first from the start state).
func (a *Automaton) GenerateAll() {
	queue := make([]*State, 0, len(a.states))
	for _, s := range a.States() {
		if s.Type != Complete {
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s.Type == Complete {
			continue
		}
		queue = append(queue, a.Expand(s)...)
	}
}

// ActionsOf deduces the parser actions available in a complete state from
// its transitions and reductions fields (ACTION, section 4): reduces for
// every completely recognized rule, a shift if a transition on sym exists,
// and accept if the special ($ accept) transition exists and sym is $.
func ActionsOf(s *State, sym grammar.Symbol) []Action {
	return AppendActionsOf(make([]Action, 0, len(s.Reductions)+1), s, sym)
}

// AppendActionsOf is ActionsOf into a caller-supplied buffer: the shared
// allocation-free ACTION implementation behind Table.AppendActions.
func AppendActionsOf(dst []Action, s *State, sym grammar.Symbol) []Action {
	if s.Type != Complete {
		panic(fmt.Sprintf("lr: ActionsOf on %s state %d", s.Type, s.ID))
	}
	for _, r := range s.Reductions {
		dst = append(dst, Action{Kind: Reduce, Rule: r})
	}
	if succ, ok := s.Transitions[sym]; ok {
		dst = append(dst, Action{Kind: Shift, State: succ})
	}
	if sym == grammar.EOF && s.Accept {
		dst = append(dst, Action{Kind: Accept})
	}
	return dst
}

// Actions implements Table for the conventional (fully generated)
// automaton. The state must already be complete; use the lazy generator
// in internal/core for by-need expansion.
func (a *Automaton) Actions(s *State, sym grammar.Symbol) []Action {
	return ActionsOf(s, sym)
}

// AppendActions implements Table; see AppendActionsOf.
func (a *Automaton) AppendActions(dst []Action, s *State, sym grammar.Symbol) []Action {
	return AppendActionsOf(dst, s, sym)
}

// Goto implements Table: the successor of s on nonterminal sym after a
// reduction. Appendix A proves GOTO is only called on complete states;
// Goto checks that invariant on every call, so the proof is exercised by
// the entire test suite.
func (a *Automaton) Goto(s *State, sym grammar.Symbol) *State {
	return GotoOf(s, sym)
}

// GotoOf is the shared GOTO implementation; see Automaton.Goto.
func GotoOf(s *State, sym grammar.Symbol) *State {
	if s.Type != Complete {
		panic(fmt.Sprintf("lr: GOTO called on %s state %d (violates Appendix A invariant)", s.Type, s.ID))
	}
	succ, ok := s.Transitions[sym]
	if !ok {
		panic(fmt.Sprintf("lr: GOTO(%d, sym %d) undefined (graph of item sets corrupt)", s.ID, sym))
	}
	return succ
}

// SweepUnreachable removes every state unreachable from the start state
// and recomputes the reference counts of the survivors. Reachability
// follows current transitions of complete states and the history of
// dirty states (which may be re-linked by later re-expansions). This is
// the "conventional mark-and-sweep garbage collector" the paper proposes
// for cyclic garbage, which reference counting admittedly cannot
// reclaim; the incremental table-repair paths also use it to reclaim
// orphan chains after splicing. The removed states are returned (order
// unspecified); the caller owns any synchronization.
func (a *Automaton) SweepUnreachable() []*State {
	reachable := map[*State]bool{a.start: true}
	queue := []*State{a.start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		visit := func(succ *State) {
			if !reachable[succ] {
				reachable[succ] = true
				queue = append(queue, succ)
			}
		}
		for _, succ := range s.Transitions {
			visit(succ)
		}
		for _, succ := range s.OldTransitions {
			visit(succ)
		}
	}

	var removed []*State
	for s := range a.all() {
		if !reachable[s] {
			removed = append(removed, s)
		}
	}
	for _, s := range removed {
		a.Remove(s)
	}
	// Recompute reference counts of the survivors (this also repairs any
	// drift from cycles the counts could not see).
	for s := range reachable {
		s.RefCount = 0
	}
	a.start.RefCount = 1 // permanent root reference
	for s := range reachable {
		for _, succ := range s.Transitions {
			succ.RefCount++
		}
		for _, succ := range s.OldTransitions {
			succ.RefCount++
		}
	}
	return removed
}

// Release drops the references that re-expanded states no longer hold
// — released lists, once per lost transition, the old successors a
// re-expansion replaced — and removes the states that became garbage,
// returning them with the number of states the check visited. Garbage
// is found by trial deletion (Bacon & Rajan's synchronous cycle
// collection) over the subgraph reachable from the released states
// only: within it, a state keeps its place when references from
// outside the subgraph remain (the start state's permanent reference
// counts as one), as does everything it reaches; the rest — counts that
// reached zero, and cycles of states that only reference each other —
// is removed, and the survivors' counts lose the removed states'
// references. The repair paths of the eager tables use it instead of a
// global sweep, so reclamation costs what the damage reached.
func (a *Automaton) Release(released []*State) (removed []*State, visited int) {
	if len(released) == 0 {
		return nil, 0
	}
	succs := func(s *State, fn func(*State)) {
		for _, t := range s.Transitions {
			fn(t)
		}
		for _, t := range s.OldTransitions {
			fn(t)
		}
	}
	// The subgraph and, per state, its references from outside it.
	outside := make(map[*State]int, len(released))
	var sub []*State
	visit := func(t *State) {
		if _, ok := outside[t]; !ok {
			outside[t] = t.RefCount
			sub = append(sub, t)
		}
	}
	for _, t := range released {
		t.RefCount--
	}
	for _, t := range released {
		visit(t)
	}
	for i := 0; i < len(sub); i++ {
		succs(sub[i], visit)
	}
	for _, s := range sub {
		succs(s, func(t *State) { outside[t]-- })
	}
	// Whatever an outside reference keeps, and everything it reaches,
	// stays.
	live := make(map[*State]bool, len(sub))
	var work []*State
	for _, s := range sub {
		if outside[s] > 0 && a.member(s) {
			live[s] = true
			work = append(work, s)
		}
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		succs(s, func(t *State) {
			if !live[t] {
				live[t] = true
				work = append(work, t)
			}
		})
	}
	for _, s := range sub {
		if !live[s] {
			removed = append(removed, s)
		}
	}
	for _, s := range removed {
		a.Remove(s)
		succs(s, func(t *State) {
			if live[t] {
				t.RefCount--
			}
		})
	}
	return removed, len(sub)
}

// TypeCounts returns how many states are initial, complete and dirty —
// the lazy-coverage measurement of section 5.2 reads these.
func (a *Automaton) TypeCounts() (initial, complete, dirty int) {
	return a.types[Initial], a.types[Complete], a.types[Dirty]
}

// reindex rebuilds the type counts and the nonterminal index from the
// states, after a load.
func (a *Automaton) reindex() {
	a.types = [3]int{}
	a.onSym = nil
	for s := range a.all() {
		a.types[s.Type]++
		if s.Type == Complete {
			for sym := range s.Transitions {
				a.index(s, sym)
			}
		}
	}
}
