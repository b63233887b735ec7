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

// Table is an LALR(1) parse table: the LR(0) graph of item sets, a
// lookahead set per (state, reducible rule), and the cached
// spontaneous/propagation network that lets Repair splice rule updates
// into the existing automaton instead of regenerating it.
type Table struct {
	auto      *lr.Automaton
	conflicts []Conflict

	// Cached analyses of the grammar the table currently reflects, packed
	// by symbol ID: first holds the FIRST set of each nonterminal (a
	// terminal's is itself), null the nullable nonterminals. Repair diffs
	// fresh analyses against them to find lookahead damage. words is the
	// symset width they were packed at; every set built since fits in it.
	first []symset
	null  symset
	words int
	// net is the retained propagation network, one entry per state.
	net map[*lr.State]*stateLA
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
}

// slot is the lookahead slot of one kernel item.
type slot struct {
	// The slot's closure under the dummy lookahead gives edges, the slots
	// its own lookaheads propagate to, and reach, the reductions it
	// completes.
	edges []*slot
	reach []reduceRef
	// set is the current lookahead fixpoint; base is the buffer
	// propagation fills, then swaps with set. Keeping both lets Repair
	// detect exactly which states' lookaheads moved.
	set, base symset
}

// contrib is one spontaneous generation: the lookaheads at offset off of
// the contributing state's spont appear in slot dst because of a closure
// computed in that state.
type contrib struct {
	dst *slot
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

// scratch is the working space of closeSlot and derive, kept with the
// table so repairs reuse it.
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
	}
	t.adopt(pack(g))
	states := auto.States()
	t.addStates(states)
	for _, s := range states {
		t.buildNetFor(t.net[s])
	}
	t.propagate()
	for _, s := range states {
		t.derive(t.net[s])
	}
	t.assembleConflicts()
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
			if sl.la[j].has(sym) {
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
// how much was kept verbatim.
type RepairStats struct {
	// Affected counts the states whose closures contained the modified
	// nonterminal's rules — the states MODIFY invalidates (section 6.1).
	Affected int
	// Created/Removed count states added by re-expansion and orphans
	// reclaimed by the reachability sweep.
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
}

// Stale reports whether the repair left the table out of date with the
// grammar — a START-rule edit or an oversized damage frontier — so only
// a regeneration can serve the updated grammar.
func (st RepairStats) Stale() bool { return st.FellBack && !st.ConflictsChanged }

// Repair splices a single rule update into the table after the grammar
// has already been mutated (AddRule or DeleteRule of rule). It re-expands
// only the affected states — the complete states with a transition on the
// rule's left-hand side, exactly the set MODIFY invalidates in the lazy
// generator — sweeps orphaned states, re-runs lookahead propagation over
// the whole retained network, and re-derives reduce lookaheads only for
// states whose network was rebuilt or whose fixpoint moved. State
// identity is preserved: surviving states keep their pointers, so
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

	before := t.conflictKeys()

	// The affected set (section 6.1): every complete state whose closure
	// contained a rule of the modified nonterminal has a transition on it
	// (the dot-before-A item creates Transitions[A] even when A had no
	// rules), and no other state's closure is structurally damaged.
	var affected []*lr.State
	for s := range t.net {
		if s.Transitions[a] != nil {
			affected = append(affected, s)
		}
	}
	// Expanding them in ID order numbers the created states
	// deterministically.
	sort.Slice(affected, func(i, j int) bool { return affected[i].ID < affected[j].ID })
	st := RepairStats{Affected: len(affected)}
	if n := t.auto.Len(); n > 0 && float64(len(affected)) > FallbackFraction*float64(n) {
		st.FellBack = true
		st.Reason = fmt.Sprintf("damage frontier %d/%d states exceeds %.0f%%",
			len(affected), n, FallbackFraction*100)
		return st
	}

	// Structural splice: re-expand the affected states in place (their
	// kernels — their identity — are untouched; only transitions and
	// reductions change), then expand any newly created states to
	// completion, exactly like GENERATE-PARSER would.
	created := make([]*lr.State, 0, 8)
	for _, s := range affected {
		s.Unpublish()
		created = append(created, t.auto.Expand(s)...)
	}
	for i := 0; i < len(created); i++ {
		if created[i].Type != lr.Complete {
			created = append(created, t.auto.Expand(created[i])...)
		}
	}

	// Orphan chains (dot>=1 states of a deleted rule, and states only the
	// old closures referenced) are reclaimed by reachability, which also
	// rebuilds the survivors' reference counts.
	removed := t.auto.SweepUnreachable()
	removedSet := make(map[*lr.State]bool, len(removed))
	for _, s := range removed {
		removedSet[s] = true
		// An entry can share its allocation with live ones; clearing it
		// keeps its edges from holding other garbage alive.
		if sl := t.net[s]; sl != nil {
			clear(sl.slots)
			*sl = stateLA{}
			delete(t.net, s)
		}
	}
	st.Removed = len(removed)

	// Lookahead damage: a surviving state's slot closures change only
	// when, for some rule they close over, the FIRST computation of a
	// suffix after a nonterminal position moved — those are exactly the
	// FIRST(β) inputs closeSlot reads. Diff each such suffix under the
	// cached vs fresh analyses; only a suffix over a nonterminal whose
	// FIRST or nullability moved can differ, so only rules mentioning one
	// are diffed.
	first, null, words := pack(g)
	syms := g.Symbols()
	moved := make(symset, words)
	for n := grammar.Symbol(1); int(n) <= syms.Len(); n++ {
		if syms.Kind(n) == grammar.Nonterminal &&
			(t.null.has(n) != null.has(n) || !equalSets(firstAt(t.first, n), first[n])) {
			moved.add(n)
		}
	}
	ruleDamaged := make(map[*grammar.Rule]bool)
	ntDamaged := make(symset, words)
	for _, r := range g.Rules() {
		if mentionsAny(r.Rhs, moved) && t.suffixFirstsMoved(r, first, null, words) {
			ruleDamaged[r] = true
			ntDamaged.add(r.Lhs)
		}
	}
	t.adopt(first, null, words)

	damaged := make(map[*lr.State]bool, len(affected)+len(created))
	for _, s := range affected {
		if !removedSet[s] {
			damaged[s] = true
		}
	}
	for _, s := range created {
		if !removedSet[s] {
			damaged[s] = true
			st.Created++
		}
	}
	if len(ruleDamaged) > 0 {
		for s := range t.net {
			if !damaged[s] && t.laDamaged(s, ruleDamaged, ntDamaged) {
				damaged[s] = true
			}
		}
	}

	// Rebuild the network only where damaged, then re-run propagation
	// globally (it is not monotone under deletion) on the retained edges.
	for s := range damaged {
		t.buildNetFor(t.netOf(s))
	}
	for _, sl := range t.propagate() {
		damaged[sl.state] = true
	}
	for s := range damaged {
		t.derive(t.net[s])
	}
	st.Rederived = len(damaged)
	st.Kept = t.auto.Len() - st.Rederived
	t.assembleConflicts()

	// A moved conflict set changes engine viability, so the caller hears
	// of it; the table itself is already consistent.
	if after := t.conflictKeys(); !equalStrings(before, after) {
		st.FellBack = true
		st.ConflictsChanged = true
		st.Reason = "conflict set changed"
	}
	return st
}

// laDamaged reports whether a surviving, structurally untouched state's
// lookahead closure must be recomputed: one of its kernel rules, or a
// rule of a nonterminal it closes over (equivalently: it transitions on,
// since the dot-before-B item both pulls in B's rules and creates the
// transition), had a suffix FIRST computation move.
func (t *Table) laDamaged(s *lr.State, ruleDamaged map[*grammar.Rule]bool, ntDamaged symset) bool {
	for _, it := range s.Kernel {
		if ruleDamaged[it.Rule] {
			return true
		}
	}
	for sym := range s.Transitions {
		if ntDamaged.has(sym) {
			return true
		}
	}
	return false
}

// suffixFirstsMoved reports whether any FIRST(β) computation closeSlot
// performs for the rule — the suffix after each nonterminal position —
// differs between the table's cached analyses and the fresh ones.
func (t *Table) suffixFirstsMoved(r *grammar.Rule, first []symset, null symset, words int) bool {
	syms := t.auto.Grammar().Symbols()
	oldFs, newFs := make(symset, words), make(symset, words)
	for i, sym := range r.Rhs {
		if syms.Kind(sym) != grammar.Nonterminal {
			continue
		}
		suffix := r.Rhs[i+1:]
		clear(oldFs)
		clear(newFs)
		oldNullable := firstOf(syms, oldFs, suffix, t.first, t.null)
		newNullable := firstOf(syms, newFs, suffix, first, null)
		if oldNullable != newNullable || !equalSets(oldFs, newFs) {
			return true
		}
	}
	return false
}

func mentionsAny(syms []grammar.Symbol, set symset) bool {
	for _, s := range syms {
		if set.has(s) {
			return true
		}
	}
	return false
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pack computes the grammar's FIRST sets and nullable nonterminals and
// packs them into symsets of the width the current symbol table needs.
func pack(g *grammar.Grammar) (first []symset, null symset, words int) {
	n := g.Symbols().Len() + 1
	words = wordsFor(g.Symbols())
	first = make([]symset, n)
	backing := make([]uint64, n*words)
	for sym, set := range g.FirstSets() {
		f := symset(backing[int(sym)*words : (int(sym)+1)*words : (int(sym)+1)*words])
		for x := range set {
			f.add(x)
		}
		first[sym] = f
	}
	null = make(symset, words)
	for x := range g.Nullable() {
		null.add(x)
	}
	return first, null, words
}

// adopt installs packed analyses as the table's current ones and sizes
// the scratch space for them.
func (t *Table) adopt(first []symset, null symset, words int) {
	t.first, t.null, t.words = first, null, words
	tmp := &t.tmp
	if n := len(first); len(tmp.la) != n || len(tmp.suffix) != words {
		backing := make([]uint64, n*words)
		tmp.la = make([]symset, n)
		for b := range tmp.la {
			tmp.la[b] = backing[b*words : (b+1)*words : (b+1)*words]
		}
		tmp.stamp = make([]uint64, n)
		tmp.queued = make([]bool, n)
		tmp.suffix = make(symset, words)
	}
}

// firstAt is FIRST(n) under packed analyses that may predate n.
func firstAt(first []symset, n grammar.Symbol) symset {
	if int(n) < len(first) {
		return first[n]
	}
	return nil
}

// firstOf adds FIRST(alpha) under the given packed analyses to dst and
// reports whether alpha is nullable, like grammar.FirstOfString.
func firstOf(syms *grammar.SymbolTable, dst symset, alpha []grammar.Symbol, first []symset, null symset) bool {
	for _, s := range alpha {
		if syms.Kind(s) == grammar.Terminal {
			dst.add(s)
			return false
		}
		dst.or(firstAt(first, s))
		if !null.has(s) {
			return false
		}
	}
	return true
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

// buildNetFor recomputes a state's slice of the propagation network. It
// closes each kernel slot once under the dummy lookahead
// (grammar.NoSymbol): a closure item advancing with real lookaheads
// contributes them spontaneously to the successor slot, one advancing
// with the dummy is a propagation edge from this slot, and a completed
// item is a reduction that takes the item's real lookaheads, plus the
// slot's own when the dummy reaches it.
func (t *Table) buildNetFor(sl *stateLA) {
	g := t.auto.Grammar()
	s := sl.state
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
			flow := la.has(grammar.NoSymbol)
			off := -1
			if la.anyReal() {
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
		if firstOf(syms, tmp.suffix, kit.Rule.Rhs[kit.Dot+1:], t.first, t.null) {
			tmp.suffix.add(grammar.NoSymbol)
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
			if firstOf(syms, tmp.suffix, r.Rhs[1:], t.first, t.null) {
				tmp.suffix.or(tmp.la[b])
			}
			tmp.push(r.Rhs[0], tmp.suffix)
		}
	}
}

// push adds la to nonterminal b's closure lookaheads, queueing b when
// they grew.
func (tmp *scratch) push(b grammar.Symbol, la symset) {
	if la.empty() {
		return
	}
	if tmp.stamp[b] != tmp.cur {
		tmp.stamp[b] = tmp.cur
		clear(tmp.la[b])
		tmp.order = append(tmp.order, b)
	}
	if tmp.la[b].or(la) && !tmp.queued[b] {
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

// propagate re-runs the lookahead fixpoint over the whole retained
// network: every slot is reset to its spontaneous lookaheads (plus EOF
// for the start state's slots), the propagation edges are iterated to
// fixpoint, and the states whose final sets moved against the previous
// fixpoint are returned. Propagation is not monotone under rule deletion,
// which is why the reset is global; the per-state work (closures and
// derivations) is confined to the damaged and returned states.
func (t *Table) propagate() []*stateLA {
	for _, sl := range t.net {
		for i := range sl.slots {
			p := &sl.slots[i]
			p.base = p.base.sized(t.words)
		}
	}
	start := t.net[t.auto.Start()]
	for i := range start.slots {
		start.slots[i].base.add(grammar.EOF)
	}
	for _, sl := range t.net {
		for _, c := range sl.gen {
			c.dst.base.or(sl.spontAt(c.off))
		}
	}
	// Worklist fixpoint: a slot is (re)visited only when its set grew.
	var work []*slot
	for _, sl := range t.net {
		for i := range sl.slots {
			if p := &sl.slots[i]; len(p.edges) > 0 && !p.base.empty() {
				work = append(work, p)
			}
		}
	}
	for len(work) > 0 {
		src := work[len(work)-1]
		work = work[:len(work)-1]
		for _, d := range src.edges {
			if d.base.or(src.base) && len(d.edges) > 0 {
				work = append(work, d)
			}
		}
	}

	var moved []*stateLA
	for _, sl := range t.net {
		changed := false
		for i := range sl.slots {
			p := &sl.slots[i]
			changed = changed || !equalSets(p.base, p.set)
			p.set, p.base = p.base, p.set
		}
		if changed {
			moved = append(moved, sl)
		}
	}
	return moved
}

// derive recomputes one state's reduce lookaheads and conflicts from the
// current fixpoint. A reduction takes, from every kernel slot whose
// closure completes it, the spontaneous lookaheads of that closure and,
// where the dummy reached it, the slot's own set. A slot whose set is
// empty contributes nothing: no lookahead reaches its closure items.
func (t *Table) derive(sl *stateLA) {
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
		if p.set.empty() {
			continue
		}
		for _, r := range p.reach {
			if r.off >= 0 {
				sl.la[r.red].or(sl.spontAt(r.off))
			}
			if r.flow {
				sl.la[r.red].or(p.set)
			}
		}
	}

	// A conflict is a lookahead two reductions share, or one reduction
	// shares with a shift. They are reported in terminal-name order.
	sl.conflicts = sl.conflicts[:0]
	if n == 0 {
		return
	}
	tmp := &t.tmp
	tmp.any, tmp.multi, tmp.shift = tmp.any.sized(w), tmp.multi.sized(w), tmp.shift.sized(w)
	for _, la := range sl.la {
		for k, x := range la {
			tmp.multi[k] |= tmp.any[k] & x
			tmp.any[k] |= x
		}
	}
	for sym := range s.Transitions {
		tmp.shift.add(sym)
	}
	for k := range tmp.any {
		for c := tmp.multi[k] | tmp.any[k]&tmp.shift[k]; c != 0; c &= c - 1 {
			sym := grammar.Symbol(k<<6 + bits.TrailingZeros64(c))
			kind := "shift/reduce"
			if tmp.multi.has(sym) {
				kind = "reduce/reduce"
			}
			sl.conflicts = append(sl.conflicts, Conflict{State: s, Symbol: sym, Kind: kind})
		}
	}
	if len(sl.conflicts) > 1 {
		syms := t.Grammar().Symbols()
		sort.Slice(sl.conflicts, func(a, b int) bool {
			return syms.Name(sl.conflicts[a].Symbol) < syms.Name(sl.conflicts[b].Symbol)
		})
	}
}

// assembleConflicts rebuilds the table-wide conflict list from the
// per-state lists, in state-ID order (matching what a from-scratch
// generation reports).
func (t *Table) assembleConflicts() {
	var conflicted []*stateLA
	for _, sl := range t.net {
		if len(sl.conflicts) > 0 {
			conflicted = append(conflicted, sl)
		}
	}
	sort.Slice(conflicted, func(i, j int) bool { return conflicted[i].state.ID < conflicted[j].state.ID })
	t.conflicts = t.conflicts[:0]
	for _, sl := range conflicted {
		t.conflicts = append(t.conflicts, sl.conflicts...)
	}
}

// conflictKeys renders the conflict set in a state-identity-independent
// canonical form (kernel key, symbol, kind), sorted — the comparison unit
// of Repair's conflict-change policy and of Signature.
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
			for _, sym := range t.lookaheads(s, r).symbols() {
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
	set := t.lookaheads(s, rule).symbols()
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
