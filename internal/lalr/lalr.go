// Package lalr implements an LALR(1) parse-table generator — the stand-in
// for Yacc in the section 7 measurements ("Yacc uses LALR(1) tables ...
// PG and IPG use LR(0) tables"). Lookahead sets are computed over the
// LR(0) graph of item sets by the classical spontaneous-generation /
// propagation algorithm (Aho, Sethi & Ullman, Compilers, alg. 4.63),
// which is also what Yacc does. The sets are bitsets indexed by symbol
// ID, and each kernel slot is closed once, under a dummy lookahead: that
// one closure yields the slot's propagation edges, its spontaneous
// lookaheads and the reductions it reaches, so the reduce lookaheads are
// unions of bitsets rather than a second LR(1) closure.
//
// The generated Table implements lr.Table by filtering the LR(0)
// reductions through the computed lookahead sets, so every engine in
// internal/glr can be driven by it: the deterministic engine gives a
// Yacc-like parser (and reports conflicts up front, like Yacc), while the
// parallel engines simply split less often than with LR(0) tables.
//
// Unlike Yacc — and in the spirit of the paper's incremental generator —
// the table retains the propagation network it was generated from, so a
// rule modification can be Repaired in place: only the states whose
// closures contained the modified nonterminal are re-expanded, only the
// states whose lookahead fixpoint moved are re-derived, and the rest of
// the automaton (including its published state pointers) is kept
// verbatim.
package lalr

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// FallbackFraction is the damage-frontier threshold of Repair: when more
// than this fraction of the automaton's states transition on the modified
// nonterminal, splicing would rebuild most of the table anyway, so Repair
// declines and the caller regenerates from scratch.
const FallbackFraction = 0.5

// symset is a set of symbols indexed by symbol ID. Bit 0
// (grammar.NoSymbol) is the dummy lookahead of the propagation analysis;
// it never stands for an input symbol.
type symset = grammar.Bitset

// anyReal reports whether s holds a symbol other than the dummy lookahead.
func anyReal(s symset) bool {
	return len(s) > 0 && (s[0]&^1 != 0 || !s[1:].Empty())
}

// Table is an LALR(1) parse table: the LR(0) graph of item sets, a
// lookahead set per (state, reducible rule), and the cached
// spontaneous/propagation network that lets Repair splice rule updates
// into the existing automaton instead of regenerating it.
type Table struct {
	auto      *lr.Automaton
	conflicts []Conflict

	// ana is the grammar's FIRST/nullable analysis and version the
	// grammar version the network was built at: Repair asks the analysis
	// which nonterminals moved since. words is the symset width of the
	// current symbol table; sets built before it grew are narrower.
	ana     *grammar.Analysis
	version uint64
	words   int
	// net is the retained propagation network, one entry per state.
	net map[*lr.State]*stateLA
	// epoch stamps the slots and entries one repair visits.
	epoch uint64
	// tmp is working space reused by every closure and derivation.
	tmp scratch
}

// stateLA is the per-state slice of the lookahead propagation network.
// Lookahead slots are addressed by kernel index; a state's kernel is its
// identity in the automaton, so slot indices never move.
type stateLA struct {
	state *lr.State
	// slots[i] is the lookahead slot of kernel item i.
	slots []slot
	// gen are the lookaheads the state's slot closures generate
	// spontaneously into successor slots.
	gen []contrib
	// spont holds the spontaneous lookahead sets gen and the slots' reach
	// point into, spontWords words each.
	spont      []uint64
	spontWords int
	// la[j] is the lookahead set of reducing state.Reductions[j].
	la []symset
	// conflicts are this state's parse-table conflicts; the table-wide
	// list is their concatenation in state-ID order.
	conflicts []Conflict
	// built is set once the entry's network has been built.
	built bool
	mark  uint64
}

// slot is the lookahead slot of one kernel item.
type slot struct {
	sl *stateLA
	// The slot's closure under the dummy lookahead gives edges, the slots
	// its own lookaheads propagate to, and reach, the reductions it
	// completes.
	edges []*slot
	reach []reduceRef
	// in and gens are the reverse of the network: the slots whose edges
	// lead here, and the spontaneous contributions made here. They bound
	// a repair's re-propagation by the cone it damaged.
	in   []*slot
	gens []spontRef
	// set is the current lookahead fixpoint; base is the buffer
	// propagation fills, then swaps with set. Keeping both lets Repair
	// detect exactly which states' lookaheads moved.
	set, base symset
	mark      uint64
}

// contrib is one spontaneous generation: the lookaheads at offset off of
// the contributing state's spont appear in slot dst because of a closure
// computed in that state.
type contrib struct {
	dst *slot
	off int
}

// spontRef is a contrib seen from its destination slot.
type spontRef struct {
	src *stateLA
	off int
}

// reduceRef is one reduction a kernel slot's closure completes: the
// lookaheads of Reductions[red] include those at offset off of spont
// (none when off is negative) and, when flow is set, the slot's own.
type reduceRef struct {
	red  int
	off  int
	flow bool
}

// scratch is the working space of closeSlot, derive and Repair, kept
// with the table so repairs reuse it.
type scratch struct {
	// la[b] holds the lookaheads of nonterminal b's rules in the current
	// slot closure; it is valid where stamp[b] == cur.
	la     []symset
	stamp  []uint64
	cur    uint64
	queued []bool
	// order lists the closure's nonterminals in discovery order.
	order []grammar.Symbol
	work  []grammar.Symbol
	// suffix, any, multi and shift are derive's and closeSlot's
	// one-set temporaries.
	suffix, any, multi, shift symset
	conflicts                 []Conflict
	// oldEdges and oldGen hold a rebuilt entry's previous network;
	// byDst, dsts and unions group its contributions by destination.
	oldEdges []edgeRef
	oldGen   []contrib
	byDst    map[*slot]int
	dsts     []*slot
	unions   []symset
	// seeds, cone and queue are the re-propagation's slot lists.
	seeds, cone, queue []*slot
}

// Conflict is a parse-table cell with more than one action, as Yacc would
// report it.
type Conflict struct {
	// State is the conflicted state.
	State *lr.State
	// Symbol is the lookahead terminal.
	Symbol grammar.Symbol
	// Kind is "shift/reduce" or "reduce/reduce".
	Kind string
}

// Generate builds the LALR(1) table for g, retaining the propagation
// network so later rule updates can be spliced in with Repair instead of
// regenerating (the asymmetry Fig 7.1 measures is thereby removed for
// the Yacc baseline too).
func Generate(g *grammar.Grammar) *Table {
	auto := lr.New(g)
	auto.GenerateAll()
	t := &Table{
		auto: auto,
		net:  make(map[*lr.State]*stateLA, auto.Len()),
		ana:  g.Analysis(),
		tmp:  scratch{byDst: map[*slot]int{}},
	}
	t.version = t.ana.Version()
	t.fit()
	states := auto.States()
	t.addStates(states)
	var seeds []*slot
	for _, s := range states {
		sl := t.net[s]
		t.buildNetFor(sl)
		for i := range sl.slots {
			seeds = append(seeds, &sl.slots[i])
		}
	}
	t.linkAll(states)
	t.repropagate(seeds, 0)
	for _, s := range states {
		t.derive(t.net[s])
	}
	return t
}

// Grammar implements lr.Table.
func (t *Table) Grammar() *grammar.Grammar { return t.auto.Grammar() }

// Start implements lr.Table.
func (t *Table) Start() *lr.State { return t.auto.Start() }

// Automaton exposes the underlying LR(0) graph.
func (t *Table) Automaton() *lr.Automaton { return t.auto }

// Actions implements lr.Table: as the LR(0) automaton, but a reduce is
// only offered when the current symbol is in the rule's lookahead set.
func (t *Table) Actions(s *lr.State, sym grammar.Symbol) []lr.Action {
	return t.AppendActions(make([]lr.Action, 0, 2), s, sym)
}

// AppendActions implements lr.Table: Actions into a caller-supplied
// buffer, the allocation-free form the parse engines drive.
func (t *Table) AppendActions(dst []lr.Action, s *lr.State, sym grammar.Symbol) []lr.Action {
	if s.Type != lr.Complete {
		panic(fmt.Sprintf("lalr: Actions on %s state %d", s.Type, s.ID))
	}
	if sl := t.net[s]; sl != nil {
		for j, r := range s.Reductions {
			if sl.la[j].Has(sym) {
				dst = append(dst, lr.Action{Kind: lr.Reduce, Rule: r})
			}
		}
	}
	if succ, ok := s.Transitions[sym]; ok {
		dst = append(dst, lr.Action{Kind: lr.Shift, State: succ})
	}
	if sym == grammar.EOF && s.Accept {
		dst = append(dst, lr.Action{Kind: lr.Accept})
	}
	return dst
}

// Goto implements lr.Table.
func (t *Table) Goto(s *lr.State, sym grammar.Symbol) *lr.State {
	return lr.GotoOf(s, sym)
}

// Conflicts returns the LALR(1) conflicts; an empty result means the
// grammar is LALR(1) and the deterministic engine can drive the table.
func (t *Table) Conflicts() []Conflict { return t.conflicts }

// RepairStats reports what one Repair did, in the units of the paper's
// section 7 measurements: how much of the table the damage touched and
// how much was kept verbatim, and how much work finding and repairing
// the damage visited.
type RepairStats struct {
	// Affected counts the states whose closures contained the modified
	// nonterminal's rules — the states MODIFY invalidates (section 6.1).
	Affected int
	// Created/Removed count states added by re-expansion and orphans
	// reclaimed by reference counting.
	Created int
	Removed int
	// Rederived counts states whose reduce lookaheads were recomputed;
	// Kept is the rest — their lookaheads, conflicts and actions survive
	// by pointer.
	Rederived int
	Kept      int
	// FellBack reports that the update was not (or should not be)
	// spliced: the caller must regenerate from scratch. Reason says why.
	FellBack bool
	Reason   string
	// ConflictsChanged reports that the splice completed but moved the
	// conflict set. The table is then correct, and FellBack is set by
	// policy only; a FellBack without ConflictsChanged leaves the table
	// stale.
	ConflictsChanged bool
	// The work the repair visited, which bounds its cost by the damage:
	// Scanned counts the states looked at to find and reclaim it (the
	// affected set, the states a moved FIRST set reaches, the subgraph
	// the orphan cycle check walks); Propagated the lookahead slots
	// re-propagated (the cone downstream of the rebuilt slots);
	// RulesDiffed the rules whose suffix FIRST sets were checked; and
	// Reanalysed the nonterminals whose FIRST/nullable sets the grammar's
	// analysis recomputed for this update.
	Scanned     int
	Propagated  int
	RulesDiffed int
	Reanalysed  int
}

// Stale reports whether the repair left the table out of date with the
// grammar — a START-rule edit or an oversized damage frontier — so only
// a regeneration can serve the updated grammar.
func (st RepairStats) Stale() bool { return st.FellBack && !st.ConflictsChanged }

// Repair splices a single rule update into the table after the grammar
// has already been mutated (AddRule or DeleteRule of rule). Every step
// costs what the update damaged, not what the grammar holds:
//
//   - the affected states — the complete states with a transition on the
//     rule's left-hand side, exactly the set MODIFY invalidates in the
//     lazy generator — come from the automaton's index and are
//     re-expanded in place;
//   - the successors they no longer reference are released, and orphans
//     are reclaimed by reference count, with a cycle check over the
//     subgraph the released states reach;
//   - the grammar's analysis reports which FIRST sets moved, and only the
//     states whose closures read a moved suffix are rebuilt;
//   - lookaheads are re-propagated over the cone downstream of the
//     rebuilt slots only, seeded from its boundary;
//   - reduce lookaheads and conflicts are re-derived for the rebuilt
//     states and those whose fixpoint moved, and the conflict set is
//     diffed over those states alone.
//
// State identity is preserved: surviving states keep their pointers, so
// published tables stay valid under the engines' locking discipline.
//
// Repair declines (FellBack=true) when the update touches a START rule,
// when the damage frontier exceeds FallbackFraction of the automaton, or
// when the splice changed the conflict set. In the first two cases the
// table is untouched and stale (RepairStats.Stale); in the last it is
// fully repaired and correct, and ConflictsChanged says so, so a caller
// that reads the new conflict set can keep it.
func (t *Table) Repair(rule *grammar.Rule) RepairStats {
	g := t.auto.Grammar()
	a := rule.Lhs
	if a == g.Start() {
		return RepairStats{FellBack: true, Reason: "start rule modified"}
	}

	// The affected set (section 6.1): every complete state whose closure
	// contained a rule of the modified nonterminal has a transition on it
	// (the dot-before-A item creates Transitions[A] even when A had no
	// rules), and no other state's closure is structurally damaged.
	// Expanding them in ID order numbers the created states
	// deterministically.
	affected := t.auto.AppendStatesOn(nil, a)
	sort.Slice(affected, func(i, j int) bool { return affected[i].ID < affected[j].ID })
	st := RepairStats{Affected: len(affected), Scanned: len(affected)}
	if n := t.auto.Len(); n > 0 && float64(len(affected)) > FallbackFraction*float64(n) {
		st.FellBack = true
		st.Reason = fmt.Sprintf("damage frontier %d/%d states exceeds %.0f%%",
			len(affected), n, FallbackFraction*100)
		return st
	}
	t.fit()
	t.epoch++
	mark := t.epoch

	// Structural splice: re-expand the affected states in place (their
	// kernels — their identity — are untouched; only transitions and
	// reductions change), then expand any newly created states to
	// completion, exactly like GENERATE-PARSER would. A successor an
	// affected state no longer reaches on the same symbol loses a
	// reference.
	var created, released []*lr.State
	for _, s := range affected {
		s.Unpublish()
		old := s.Transitions
		created = append(created, t.auto.Expand(s)...)
		for sym, succ := range old {
			if s.Transitions[sym] == succ {
				succ.RefCount-- // Expand counted the kept reference again
			} else {
				released = append(released, succ)
			}
		}
	}
	for i := 0; i < len(created); i++ {
		if created[i].Type != lr.Complete {
			created = append(created, t.auto.Expand(created[i])...)
		}
	}
	removed, visited := t.auto.Release(released)
	st.Scanned += visited
	st.Removed = len(removed)
	gone := make(map[*lr.State]bool, len(removed))
	seeds := t.tmp.seeds[:0]
	for _, s := range removed {
		gone[s] = true
		sl := t.net[s]
		if sl == nil {
			continue
		}
		// Its destinations lose an input, so they seed the cone.
		seeds = appendTargets(seeds, sl)
		t.unlink(sl)
		if len(sl.conflicts) > 0 {
			st.ConflictsChanged = true
			t.spliceConflicts(s, len(sl.conflicts), nil)
		}
		// An entry can share its allocation with live ones; clearing it
		// keeps its edges from holding other garbage alive.
		clear(sl.slots)
		*sl = stateLA{}
		delete(t.net, s)
	}

	// The states to rebuild: the re-expanded and created ones, and those
	// whose slot closures read a FIRST(β) that moved.
	var damaged []*stateLA
	damage := func(s *lr.State) {
		if sl := t.netOf(s); sl.mark != mark {
			sl.mark = mark
			damaged = append(damaged, sl)
		}
	}
	for _, s := range affected {
		if !gone[s] {
			damage(s)
		}
	}
	for _, s := range created {
		if !gone[s] {
			damage(s)
			st.Created++
		}
	}
	work := t.ana.Work()
	ana := g.Analysis()
	st.Reanalysed = ana.Work() - work
	t.lookaheadDamage(ana, damage, &st)
	t.version = ana.Version()

	// Rebuild the damaged states' network, then re-propagate the cone
	// downstream of the slots whose inputs changed.
	for _, sl := range damaged {
		seeds = t.rebuild(sl, seeds)
	}
	moved, cone := t.repropagate(seeds, mark)
	clear(seeds)
	t.tmp.seeds = seeds[:0]
	st.Propagated = cone
	damaged = append(damaged, moved...)
	for _, sl := range damaged {
		if t.derive(sl) {
			st.ConflictsChanged = true
		}
	}
	st.Rederived = len(damaged)
	st.Kept = t.auto.Len() - st.Rederived

	// A moved conflict set changes engine viability, so the caller hears
	// of it; the table itself is already consistent.
	if st.ConflictsChanged {
		st.FellBack = true
		st.Reason = "conflict set changed"
	}
	return st
}

// lookaheadDamage marks, through damage, the surviving states whose slot
// closures compute a FIRST(β) that moved since the table's version: a
// rule whose suffix after a nonterminal position can read a
// nonterminal whose FIRST or nullability moved is damaged, and so are
// the states whose closures hold it — those with a transition on its
// left-hand side (its dot-0 item) and those its items reach along its
// right-hand side (its kernel items). Only the rules that mention a
// moved nonterminal are checked; st counts them and the states looked
// at.
func (t *Table) lookaheadDamage(ana *grammar.Analysis, damage func(*lr.State), st *RepairStats) {
	g := t.auto.Grammar()
	moved := ana.FirstMovedSince(t.version, nil)
	if len(moved) == 0 {
		return
	}
	isMoved := make(map[grammar.Symbol]bool, len(moved))
	for _, n := range moved {
		isMoved[n] = true
	}
	var roots []*lr.State
	seen := map[*grammar.Rule]bool{}
	for _, y := range moved {
		for _, r := range g.RulesUsing(y) {
			if seen[r] {
				continue
			}
			seen[r] = true
			st.RulesDiffed++
			if !t.suffixMoved(ana, r, isMoved) {
				continue
			}
			if r.Lhs == g.Start() {
				roots = append(roots[:0], t.auto.Start())
			} else {
				roots = t.auto.AppendStatesOn(roots[:0], r.Lhs)
			}
			for _, s := range roots {
				damage(s)
				st.Scanned++
				for _, x := range r.Rhs[:len(r.Rhs)-1] {
					if s = s.Transitions[x]; s == nil {
						break
					}
					damage(s)
					st.Scanned++
				}
			}
		}
	}
}

// suffixMoved reports whether a FIRST(β) computation closeSlot performs
// for r — the suffix after a nonterminal position — can read a moved
// nonterminal: one occurs in the suffix before its first symbol that is
// non-nullable now (a nonterminal whose nullability moved is itself
// moved, so the stretch is the same under the old analysis).
func (t *Table) suffixMoved(ana *grammar.Analysis, r *grammar.Rule, moved map[grammar.Symbol]bool) bool {
	syms := t.auto.Grammar().Symbols()
	for i, x := range r.Rhs {
		if syms.Kind(x) != grammar.Nonterminal {
			continue
		}
		for _, s := range r.Rhs[i+1:] {
			if moved[s] {
				return true
			}
			if syms.Kind(s) == grammar.Terminal || !ana.Nullable(s) {
				break
			}
		}
	}
	return false
}

// fit sizes the table's width and scratch for the current symbol table.
func (t *Table) fit() {
	syms := t.auto.Grammar().Symbols()
	t.words = grammar.BitsetWords(syms)
	n := syms.Len() + 1
	tmp := &t.tmp
	if len(tmp.la) >= n && len(tmp.suffix) == t.words {
		return
	}
	n = max(n, 2*len(tmp.la))
	w := t.words
	backing := make([]uint64, n*w)
	tmp.la = make([]symset, n)
	for b := range tmp.la {
		tmp.la[b] = backing[b*w : (b+1)*w : (b+1)*w]
	}
	tmp.stamp = make([]uint64, n)
	tmp.queued = make([]bool, n)
	tmp.suffix = make(symset, w)
}

// netOf returns the state's network entry, creating it on first sight.
func (t *Table) netOf(s *lr.State) *stateLA {
	if _, ok := t.net[s]; !ok {
		t.addStates([]*lr.State{s})
	}
	return t.net[s]
}

// addStates creates the network entries of states, with empty slots,
// in one allocation per kind.
func (t *Table) addStates(states []*lr.State) {
	n, w := 0, t.words
	for _, s := range states {
		n += len(s.Kernel)
	}
	las := make([]stateLA, len(states))
	slots := make([]slot, n)
	backing := make([]uint64, 2*n*w)
	for i, s := range states {
		sl := &las[i]
		k := len(s.Kernel)
		sl.state, sl.slots, slots = s, slots[:k:k], slots[k:]
		for j := range sl.slots {
			sl.slots[j].sl = sl
			sl.slots[j].set, sl.slots[j].base = backing[:w:w], backing[w:2*w:2*w]
			backing = backing[2*w:]
		}
		t.net[s] = sl
	}
}

// spontAt is the spontaneous lookahead set at offset off of sl.spont.
func (sl *stateLA) spontAt(off int) symset {
	return sl.spont[off : off+sl.spontWords]
}

// rebuild recomputes sl's network and appends to seeds the slots whose
// propagation inputs it changed: the destinations of edges it gained or
// lost, and those whose spontaneous lookaheads from sl moved. The
// network's other equations are unchanged, so only those slots and
// what they reach need re-propagating. A new entry's own slots are
// seeds too: they have no fixpoint yet.
func (t *Table) rebuild(sl *stateLA, seeds []*slot) []*slot {
	tmp := &t.tmp
	fresh := !sl.built
	oldEdges := tmp.oldEdges[:0]
	for i := range sl.slots {
		for _, d := range sl.slots[i].edges {
			oldEdges = append(oldEdges, edgeRef{from: i, to: d})
		}
	}
	oldGen := append(tmp.oldGen[:0], sl.gen...)
	oldSpont, oldWords := sl.spont, sl.spontWords
	t.unlink(sl)   // the diff below finds the destinations that matter
	sl.spont = nil // the old contributions still read the old slab
	t.buildNetFor(sl)
	t.link(sl)
	if fresh {
		for i := range sl.slots {
			seeds = append(seeds, &sl.slots[i])
		}
	}

	// Edges gained or lost, slot by slot: mark one list's targets, check
	// the other's.
	k := 0
	for i := range sl.slots {
		start := k
		for k < len(oldEdges) && oldEdges[k].from == i {
			k++
		}
		old, cur := oldEdges[start:k], sl.slots[i].edges
		t.epoch++
		for _, e := range old {
			e.to.mark = t.epoch
		}
		for _, d := range cur {
			if d.mark != t.epoch {
				seeds = append(seeds, d)
			}
		}
		t.epoch++
		for _, d := range cur {
			d.mark = t.epoch
		}
		for _, e := range old {
			if e.to.mark != t.epoch {
				seeds = append(seeds, e.to)
			}
		}
	}

	// Spontaneous lookaheads, per destination: the union sl contributed
	// before and after.
	w := t.words
	byDst := tmp.byDst
	dsts := tmp.dsts[:0]
	union := func(dst *slot, which int, bits symset) {
		i, ok := byDst[dst]
		if !ok {
			i = len(dsts)
			byDst[dst] = i
			dsts = append(dsts, dst)
			if len(tmp.unions) < 2*len(dsts) {
				tmp.unions = append(tmp.unions, nil, nil)
			}
			tmp.unions[2*i] = tmp.unions[2*i].Sized(w)
			tmp.unions[2*i+1] = tmp.unions[2*i+1].Sized(w)
		}
		tmp.unions[2*i+which].Or(bits)
	}
	for _, c := range oldGen {
		union(c.dst, 0, oldSpont[c.off:c.off+oldWords])
	}
	for _, c := range sl.gen {
		union(c.dst, 1, sl.spontAt(c.off))
	}
	for i, dst := range dsts {
		if !tmp.unions[2*i].Equal(tmp.unions[2*i+1]) {
			seeds = append(seeds, dst)
		}
	}
	clear(byDst)
	clear(dsts)
	clear(oldEdges)
	clear(oldGen)
	tmp.oldEdges, tmp.oldGen, tmp.dsts = oldEdges[:0], oldGen[:0], dsts[:0]
	return seeds
}

// edgeRef is a propagation edge from kernel slot from of one entry.
type edgeRef struct {
	from int
	to   *slot
}

// unlink withdraws sl's propagation edges and spontaneous contributions
// from their destinations' reverse lists.
func (t *Table) unlink(sl *stateLA) {
	for i := range sl.slots {
		p := &sl.slots[i]
		for _, d := range p.edges {
			d.in = removeSlot(d.in, p)
		}
	}
	for _, c := range sl.gen {
		c.dst.gens = removeSpont(c.dst.gens, sl)
	}
}

// appendTargets appends the destinations of sl's edges and spontaneous
// contributions to seeds.
func appendTargets(seeds []*slot, sl *stateLA) []*slot {
	for i := range sl.slots {
		seeds = append(seeds, sl.slots[i].edges...)
	}
	for _, c := range sl.gen {
		seeds = append(seeds, c.dst)
	}
	return seeds
}

func removeSlot(list []*slot, p *slot) []*slot {
	for i := 0; i < len(list); {
		if list[i] == p {
			list[i] = list[len(list)-1]
			list[len(list)-1] = nil
			list = list[:len(list)-1]
			continue
		}
		i++
	}
	return list
}

func removeSpont(list []spontRef, src *stateLA) []spontRef {
	for i := 0; i < len(list); {
		if list[i].src == src {
			list[i] = list[len(list)-1]
			list[len(list)-1] = spontRef{}
			list = list[:len(list)-1]
			continue
		}
		i++
	}
	return list
}

// link enters sl's propagation edges and spontaneous contributions in
// their destinations' reverse lists.
func (t *Table) link(sl *stateLA) {
	for i := range sl.slots {
		p := &sl.slots[i]
		for _, d := range p.edges {
			d.in = append(d.in, p)
		}
	}
	for _, c := range sl.gen {
		c.dst.gens = append(c.dst.gens, spontRef{src: sl, off: c.off})
	}
}

// linkAll is link for a whole generated network: it sizes every
// reverse list first (counting in the slots' marks, which are zero on
// fresh slots and zero again after), so the lists share two
// allocations.
func (t *Table) linkAll(states []*lr.State) {
	var edges, gens int
	for _, s := range states {
		sl := t.net[s]
		for i := range sl.slots {
			for _, d := range sl.slots[i].edges {
				d.mark++
				edges++
			}
		}
		gens += len(sl.gen)
	}
	in := make([]*slot, edges)
	for _, s := range states {
		for i := range t.net[s].slots {
			p := &t.net[s].slots[i]
			p.in, in = in[:0:p.mark], in[p.mark:]
			p.mark = 0
		}
	}
	for _, s := range states {
		for _, c := range t.net[s].gen {
			c.dst.mark++
		}
	}
	refs := make([]spontRef, gens)
	for _, s := range states {
		for i := range t.net[s].slots {
			p := &t.net[s].slots[i]
			p.gens, refs = refs[:0:p.mark], refs[p.mark:]
			p.mark = 0
		}
	}
	for _, s := range states {
		t.link(t.net[s])
	}
}

// buildNetFor recomputes a state's slice of the propagation network. It
// closes each kernel slot once under the dummy lookahead
// (grammar.NoSymbol): a closure item advancing with real lookaheads
// contributes them spontaneously to the successor slot, one advancing
// with the dummy is a propagation edge from this slot, and a completed
// item is a reduction that takes the item's real lookaheads, plus the
// slot's own when the dummy reaches it. The state's old edges must
// already be unlinked; link enters the new ones in the reverse lists.
func (t *Table) buildNetFor(sl *stateLA) {
	g := t.auto.Grammar()
	s := sl.state
	sl.built = true
	sl.gen = sl.gen[:0]
	sl.spont = sl.spont[:0]
	sl.spontWords = t.words
	for i, kit := range s.Kernel {
		p := &sl.slots[i]
		edges, reach := p.edges[:0], p.reach[:0]
		// The kernel item itself carries the dummy lookahead only.
		if !kit.AtEnd() {
			edges = append(edges, t.slotAfter(s, kit))
		} else if kit.Rule.Lhs != g.Start() {
			reach = append(reach, reduceRef{red: reductionIndex(s, kit.Rule), off: -1, flow: true})
		}
		t.closeSlot(kit)
		for _, b := range t.tmp.order {
			la := t.tmp.la[b]
			flow := la.Has(grammar.NoSymbol)
			off := -1
			if anyReal(la) {
				off = len(sl.spont)
				sl.spont = append(sl.spont, la...)
				sl.spont[off] &^= 1 // drop the dummy
			}
			for _, r := range g.RulesFor(b) {
				if len(r.Rhs) == 0 {
					reach = append(reach, reduceRef{red: reductionIndex(s, r), off: off, flow: flow})
					continue
				}
				dst := t.slotAfter(s, lr.Item{Rule: r})
				if off >= 0 {
					sl.gen = append(sl.gen, contrib{dst: dst, off: off})
				}
				if flow {
					edges = append(edges, dst)
				}
			}
		}
		p.edges, p.reach = edges, reach
	}
}

// closeSlot computes the LR(1) closure of [kit, dummy] into t.tmp, one
// set per nonterminal: every rule of a closure nonterminal B carries the
// same lookaheads, the union over the items with the dot before B of
// FIRST(β), plus the item's own lookaheads when β is nullable. B enters
// the closure only when that union is non-empty — with FIRST(β) empty
// and β not nullable, an item pulls in no rules of B.
func (t *Table) closeSlot(kit lr.Item) {
	g := t.auto.Grammar()
	syms := g.Symbols()
	tmp := &t.tmp
	tmp.cur++
	tmp.order = tmp.order[:0]
	if b := kit.AfterDot(); b != grammar.NoSymbol && syms.Kind(b) == grammar.Nonterminal {
		clear(tmp.suffix)
		if t.ana.FirstOf(tmp.suffix, kit.Rule.Rhs[kit.Dot+1:]) {
			tmp.suffix.Add(grammar.NoSymbol)
		}
		tmp.push(b, tmp.suffix)
	}
	for len(tmp.work) > 0 {
		b := tmp.work[len(tmp.work)-1]
		tmp.work = tmp.work[:len(tmp.work)-1]
		tmp.queued[b] = false
		for _, r := range g.RulesFor(b) {
			if len(r.Rhs) == 0 || syms.Kind(r.Rhs[0]) != grammar.Nonterminal {
				continue
			}
			clear(tmp.suffix)
			if t.ana.FirstOf(tmp.suffix, r.Rhs[1:]) {
				tmp.suffix.Or(tmp.la[b])
			}
			tmp.push(r.Rhs[0], tmp.suffix)
		}
	}
}

// push adds la to nonterminal b's closure lookaheads, queueing b when
// they grew.
func (tmp *scratch) push(b grammar.Symbol, la symset) {
	if la.Empty() {
		return
	}
	if tmp.stamp[b] != tmp.cur {
		tmp.stamp[b] = tmp.cur
		clear(tmp.la[b])
		tmp.order = append(tmp.order, b)
	}
	if tmp.la[b].Or(la) && !tmp.queued[b] {
		tmp.queued[b] = true
		tmp.work = append(tmp.work, b)
	}
}

// slotAfter addresses the slot that it, advanced over the symbol after
// its dot, occupies in the successor of s.
func (t *Table) slotAfter(s *lr.State, it lr.Item) *slot {
	x := it.AfterDot()
	succ, ok := s.Transitions[x]
	if !ok {
		panic(fmt.Sprintf("lalr: state %d closure reaches %q without a transition", s.ID, t.Grammar().Symbols().Name(x)))
	}
	idx := succ.Kernel.Index(it.Advance())
	if idx < 0 {
		panic(fmt.Sprintf("lalr: advanced item missing from successor kernel (state %d -> %d)", s.ID, succ.ID))
	}
	return &t.netOf(succ).slots[idx]
}

// reductionIndex is the position of r among s's reductions. Every item
// an LR(1) closure completes is in the LR(0) closure too, so r is there.
func reductionIndex(s *lr.State, r *grammar.Rule) int {
	for j, x := range s.Reductions {
		if x == r || x.Equal(r) {
			return j
		}
	}
	panic(fmt.Sprintf("lalr: state %d closure completes a rule it does not reduce", s.ID))
}

// repropagate re-runs the lookahead fixpoint over the cone downstream of
// seeds: every slot the seeds' propagation edges reach is reset to its
// spontaneous lookaheads (plus EOF for the start state's slots) and the
// sets flowing in from slots outside the cone, which keep their
// fixpoint, and the edges inside the cone are iterated to fixpoint.
// Outside the cone no input moved — the cone is closed under edges, and
// every slot that lost or gained an input is a seed — so its fixpoint
// stands. Propagation is not monotone under rule deletion, which is why
// the cone is reset rather than grown. It returns the entries whose
// slots' final sets moved, except those already marked with skip, and
// the cone's size.
func (t *Table) repropagate(seeds []*slot, skip uint64) ([]*stateLA, int) {
	t.epoch++
	mark := t.epoch
	tmp := &t.tmp
	cone := tmp.cone[:0]
	for _, p := range seeds {
		if p.sl != nil && p.mark != mark {
			p.mark = mark
			cone = append(cone, p)
		}
	}
	for i := 0; i < len(cone); i++ {
		for _, d := range cone[i].edges {
			if d.mark != mark {
				d.mark = mark
				cone = append(cone, d)
			}
		}
	}
	start := t.net[t.auto.Start()]
	work := tmp.queue[:0]
	for _, p := range cone {
		p.base = p.base.Sized(t.words)
		if p.sl == start {
			p.base.Add(grammar.EOF)
		}
		for _, c := range p.gens {
			p.base.Or(c.src.spontAt(c.off))
		}
		for _, q := range p.in {
			if q.mark != mark {
				p.base.Or(q.set)
			}
		}
		if len(p.edges) > 0 && !p.base.Empty() {
			work = append(work, p)
		}
	}
	// Worklist fixpoint: a slot is (re)visited only when its set grew.
	for len(work) > 0 {
		src := work[len(work)-1]
		work = work[:len(work)-1]
		for _, d := range src.edges {
			if d.base.Or(src.base) && len(d.edges) > 0 {
				work = append(work, d)
			}
		}
	}

	var moved []*stateLA
	t.epoch++
	for _, p := range cone {
		if !p.base.Equal(p.set) && p.sl.mark != skip && p.sl.mark != t.epoch {
			p.sl.mark = t.epoch
			moved = append(moved, p.sl)
		}
		p.set, p.base = p.base, p.set
	}
	clear(cone)
	tmp.cone, tmp.queue = cone[:0], work[:0]
	return moved, len(cone)
}

// derive recomputes one state's reduce lookaheads and conflicts from the
// current fixpoint, and reports whether its conflicts changed. A
// reduction takes, from every kernel slot whose closure completes it,
// the spontaneous lookaheads of that closure and, where the dummy
// reached it, the slot's own set. A slot whose set is empty contributes
// nothing: no lookahead reaches its closure items.
func (t *Table) derive(sl *stateLA) bool {
	s := sl.state
	w := t.words
	n := len(s.Reductions)
	backing := make([]uint64, n*w)
	sl.la = sl.la[:0]
	for j := 0; j < n; j++ {
		sl.la = append(sl.la, backing[j*w:(j+1)*w:(j+1)*w])
	}
	for i := range sl.slots {
		p := &sl.slots[i]
		if p.set.Empty() {
			continue
		}
		for _, r := range p.reach {
			if r.off >= 0 {
				sl.la[r.red].Or(sl.spontAt(r.off))
			}
			if r.flow {
				sl.la[r.red].Or(p.set)
			}
		}
	}

	// A conflict is a lookahead two reductions share, or one reduction
	// shares with a shift. They are reported in terminal-name order.
	tmp := &t.tmp
	cs := tmp.conflicts[:0]
	if n > 0 {
		tmp.any, tmp.multi, tmp.shift = tmp.any.Sized(w), tmp.multi.Sized(w), tmp.shift.Sized(w)
		for _, la := range sl.la {
			for k, x := range la {
				tmp.multi[k] |= tmp.any[k] & x
				tmp.any[k] |= x
			}
		}
		for sym := range s.Transitions {
			tmp.shift.Add(sym)
		}
		for k := range tmp.any {
			for c := tmp.multi[k] | tmp.any[k]&tmp.shift[k]; c != 0; c &= c - 1 {
				sym := grammar.Symbol(k<<6 + bits.TrailingZeros64(c))
				kind := "shift/reduce"
				if tmp.multi.Has(sym) {
					kind = "reduce/reduce"
				}
				cs = append(cs, Conflict{State: s, Symbol: sym, Kind: kind})
			}
		}
		if len(cs) > 1 {
			syms := t.Grammar().Symbols()
			sort.Slice(cs, func(a, b int) bool {
				return syms.Name(cs[a].Symbol) < syms.Name(cs[b].Symbol)
			})
		}
	}
	tmp.conflicts = cs[:0]
	if slices.Equal(cs, sl.conflicts) {
		return false
	}
	t.spliceConflicts(s, len(sl.conflicts), cs)
	sl.conflicts = append(sl.conflicts[:0], cs...)
	return true
}

// spliceConflicts replaces state s's n conflicts in the table-wide
// list, which is kept in state-ID order (matching what a from-scratch
// generation reports), with cs.
func (t *Table) spliceConflicts(s *lr.State, n int, cs []Conflict) {
	lo := sort.Search(len(t.conflicts), func(i int) bool { return t.conflicts[i].State.ID >= s.ID })
	t.conflicts = slices.Replace(t.conflicts, lo, lo+n, cs...)
}

// conflictKeys renders the conflict set in a state-identity-independent
// canonical form (kernel key, symbol, kind), sorted — the comparison unit
// of Signature.
func (t *Table) conflictKeys() []string {
	out := make([]string, 0, len(t.conflicts))
	for _, c := range t.conflicts {
		out = append(out, fmt.Sprintf("%s|%d|%s", c.State.Kernel.Key(), c.Symbol, c.Kind))
	}
	sort.Strings(out)
	return out
}

// lookaheads is the lookahead set of reducing rule in state s (nil when
// s does not reduce it).
func (t *Table) lookaheads(s *lr.State, rule *grammar.Rule) symset {
	sl := t.net[s]
	if sl == nil {
		return nil
	}
	for j, r := range s.Reductions {
		if r == rule || r.Equal(rule) {
			return sl.la[j]
		}
	}
	return nil
}

// Signature renders the whole parse table — states, transitions,
// reductions with lookaheads, accepts, conflicts — in a canonical form
// that does not depend on state numbering, so a repaired table can be
// compared action-for-action against a from-scratch regeneration.
func (t *Table) Signature() string {
	states := t.auto.States()
	sort.Slice(states, func(i, j int) bool {
		return states[i].Kernel.Key() < states[j].Kernel.Key()
	})
	var b strings.Builder
	for _, s := range states {
		b.WriteString(s.Kernel.Key())
		if s.Accept {
			b.WriteString(" accept")
		}
		b.WriteByte('\n')
		syms := make([]grammar.Symbol, 0, len(s.Transitions))
		for sym := range s.Transitions {
			syms = append(syms, sym)
		}
		sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
		for _, sym := range syms {
			fmt.Fprintf(&b, "  %d -> %s\n", sym, s.Transitions[sym].Kernel.Key())
		}
		rules := append([]*grammar.Rule(nil), s.Reductions...)
		sort.Slice(rules, func(i, j int) bool { return rules[i].Key() < rules[j].Key() })
		for _, r := range rules {
			la := []int{}
			for _, sym := range t.lookaheads(s, r).Symbols() {
				la = append(la, int(sym))
			}
			fmt.Fprintf(&b, "  reduce %s on %v\n", r.Key(), la)
		}
	}
	b.WriteString("conflicts:\n")
	for _, k := range t.conflictKeys() {
		b.WriteString("  " + k + "\n")
	}
	return b.String()
}

// Lookaheads returns the lookahead set for reducing rule in state s,
// formatted for diagnostics.
func (t *Table) Lookaheads(s *lr.State, rule *grammar.Rule) []string {
	set := t.lookaheads(s, rule).Symbols()
	out := make([]string, 0, len(set))
	for _, sym := range set {
		out = append(out, t.Grammar().Symbols().Name(sym))
	}
	sort.Strings(out)
	return out
}

// String summarizes the table: state count and conflicts.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "LALR(1) table: %d states", t.auto.Len())
	if len(t.conflicts) > 0 {
		fmt.Fprintf(&b, ", %d conflicts", len(t.conflicts))
		for _, c := range t.conflicts {
			fmt.Fprintf(&b, "\n  state %d on %q: %s", c.State.ID,
				t.Grammar().Symbols().Name(c.Symbol), c.Kind)
		}
	}
	return b.String()
}
