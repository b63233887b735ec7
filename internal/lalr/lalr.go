// Package lalr implements an LALR(1) parse-table generator — the stand-in
// for Yacc in the section 7 measurements ("Yacc uses LALR(1) tables ...
// PG and IPG use LR(0) tables"). Lookahead sets are computed over the
// LR(0) graph of item sets by the classical spontaneous-generation /
// propagation algorithm (Aho, Sethi & Ullman, Compilers, alg. 4.63),
// which is also what Yacc does.
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
// lookahead slots whose fixpoint actually moved are re-derived, and the
// rest of the automaton (including its published state pointers) is kept
// verbatim.
package lalr

import (
	"fmt"
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
	auto *lr.Automaton
	// la maps state -> rule key -> lookahead terminals for the reduce.
	la        map[*lr.State]map[string]grammar.SymbolSet
	conflicts []Conflict

	// Cached analyses of the grammar the table currently reflects; Repair
	// diffs fresh analyses against them to find lookahead damage.
	first map[grammar.Symbol]grammar.SymbolSet
	null  grammar.SymbolSet
	// net is the retained propagation network, one entry per state.
	net map[*lr.State]*stateLA
}

// stateLA is the per-state slice of the lookahead propagation network.
// Lookahead slots are addressed by kernel index; a state's kernel is its
// identity in the automaton, so slot indices never move.
type stateLA struct {
	state *lr.State
	// edges[i] are the propagation targets of kernel slot i (the dummy-
	// lookahead closure discovered them); gen are the spontaneous
	// lookaheads this state's closures generate into successor slots.
	edges [][]slotRef
	gen   []contrib
	// sets[i] is the current lookahead fixpoint of slot i; base[i] is the
	// scratch buffer propagation fills, then swaps with sets. Keeping both
	// per slot lets Repair detect exactly which states' lookaheads moved.
	sets []grammar.SymbolSet
	base []grammar.SymbolSet
	// conflicts are this state's parse-table conflicts; the table-wide
	// list is their concatenation in state-ID order.
	conflicts []Conflict
}

// slotRef addresses one lookahead slot: kernel item idx of a state.
type slotRef struct {
	st  *stateLA
	idx int
}

// contrib is one spontaneously generated lookahead: sym appears in slot
// dst because of a closure computed in the contributing state.
type contrib struct {
	dst slotRef
	sym grammar.Symbol
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
		la:   make(map[*lr.State]map[string]grammar.SymbolSet),
		net:  make(map[*lr.State]*stateLA),
	}
	t.first = g.FirstSets()
	t.null = g.Nullable()
	for _, s := range auto.States() {
		t.buildNetFor(t.netOf(s))
	}
	t.propagate()
	terminals := g.Symbols().Terminals()
	for _, s := range auto.States() {
		t.derive(t.net[s], terminals)
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
	if las := t.la[s]; las != nil {
		for _, r := range s.Reductions {
			if las[r.Key()].Has(sym) {
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
// generator — sweeps orphaned states, re-runs lookahead propagation on
// the retained network, and re-derives reduce lookaheads only for states
// whose fixpoint moved. State identity is preserved: surviving states
// keep their pointers, so published tables stay valid under the engines'
// locking discipline.
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
	for _, s := range t.auto.States() {
		if s.Transitions[a] != nil {
			affected = append(affected, s)
		}
	}
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
		delete(t.la, s)
		delete(t.net, s)
	}
	st.Removed = len(removed)

	// Lookahead damage: a surviving state's LR(1) closure arithmetic
	// changes only when, for some rule it closes over, the FIRST
	// computation of a suffix after a nonterminal position moved — those
	// are exactly the inputs closure1 feeds FirstOfString. Diff each such
	// suffix under the cached vs fresh analyses; only a suffix over a
	// nonterminal whose FIRST or nullability moved can differ, so only
	// rules mentioning one are diffed.
	newFirst, newNull := g.FirstSets(), g.Nullable()
	moved := make(map[grammar.Symbol]bool)
	for _, n := range g.Symbols().Nonterminals() {
		if t.null.Has(n) != newNull.Has(n) || !equalSets(t.first[n], newFirst[n]) {
			moved[n] = true
		}
	}
	ruleDamaged := make(map[*grammar.Rule]bool)
	ntDamaged := make(map[grammar.Symbol]bool)
	for _, r := range g.Rules() {
		if mentionsAny(r.Rhs, moved) && t.suffixFirstsMoved(r, newFirst, newNull) {
			ruleDamaged[r] = true
			ntDamaged[r.Lhs] = true
		}
	}
	t.first, t.null = newFirst, newNull

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
		for _, s := range t.auto.States() {
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
	dirty := t.propagate()
	for s := range damaged {
		dirty[s] = true
	}

	terminals := g.Symbols().Terminals()
	for s := range dirty {
		t.derive(t.net[s], terminals)
	}
	st.Rederived = len(dirty)
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
func (t *Table) laDamaged(s *lr.State, ruleDamaged map[*grammar.Rule]bool, ntDamaged map[grammar.Symbol]bool) bool {
	for _, it := range s.Kernel {
		if ruleDamaged[it.Rule] {
			return true
		}
	}
	g := t.auto.Grammar()
	for sym := range s.Transitions {
		if g.Symbols().Kind(sym) == grammar.Nonterminal && ntDamaged[sym] {
			return true
		}
	}
	return false
}

// suffixFirstsMoved reports whether any FIRST(β) computation closure1
// performs for the rule — the suffix after each nonterminal position —
// differs between the table's cached analyses and the fresh ones.
func (t *Table) suffixFirstsMoved(r *grammar.Rule, newFirst map[grammar.Symbol]grammar.SymbolSet, newNull grammar.SymbolSet) bool {
	g := t.auto.Grammar()
	for i, sym := range r.Rhs {
		if g.Symbols().Kind(sym) != grammar.Nonterminal {
			continue
		}
		suffix := r.Rhs[i+1:]
		oldFs, oldNullable := g.FirstOfString(suffix, t.first, t.null)
		newFs, newNullable := g.FirstOfString(suffix, newFirst, newNull)
		if oldNullable != newNullable || !equalSets(oldFs, newFs) {
			return true
		}
	}
	return false
}

func mentionsAny(syms []grammar.Symbol, set map[grammar.Symbol]bool) bool {
	for _, s := range syms {
		if set[s] {
			return true
		}
	}
	return false
}

func equalSets(a, b grammar.SymbolSet) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if !b.Has(s) {
			return false
		}
	}
	return true
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

// netOf returns the state's network entry, allocating slot buffers (one
// per kernel item) on first sight.
func (t *Table) netOf(s *lr.State) *stateLA {
	sl, ok := t.net[s]
	if !ok {
		n := len(s.Kernel)
		sl = &stateLA{
			state: s,
			edges: make([][]slotRef, n),
			sets:  make([]grammar.SymbolSet, n),
			base:  make([]grammar.SymbolSet, n),
		}
		for i := 0; i < n; i++ {
			sl.sets[i] = grammar.SymbolSet{}
			sl.base[i] = grammar.SymbolSet{}
		}
		t.net[s] = sl
	}
	return sl
}

// buildNetFor recomputes a state's slice of the propagation network by
// closing each kernel slot under the dummy lookahead (grammar.NoSymbol):
// closure items advancing with a real lookahead are spontaneous
// contributions to the successor slot; those advancing with the dummy are
// propagation edges from this slot.
func (t *Table) buildNetFor(sl *stateLA) {
	g := t.auto.Grammar()
	s := sl.state
	sl.gen = sl.gen[:0]
	for i, kit := range s.Kernel {
		sl.edges[i] = sl.edges[i][:0]
		cl := closure1(g, []laItem{{item: kit, la: grammar.NoSymbol}}, t.first, t.null)
		for _, cit := range cl {
			x := cit.item.AfterDot()
			if x == grammar.NoSymbol {
				continue
			}
			succ, ok := s.Transitions[x]
			if !ok {
				panic(fmt.Sprintf("lalr: state %d closure reaches %q without a transition", s.ID, g.Symbols().Name(x)))
			}
			adv := cit.item.Advance()
			dst := slotRef{st: t.netOf(succ), idx: succ.Kernel.Index(adv)}
			if dst.idx < 0 {
				panic(fmt.Sprintf("lalr: advanced item missing from successor kernel (state %d -> %d)", s.ID, succ.ID))
			}
			if cit.la == grammar.NoSymbol {
				sl.edges[i] = append(sl.edges[i], dst)
			} else {
				sl.gen = append(sl.gen, contrib{dst: dst, sym: cit.la})
			}
		}
	}
}

// propagate re-runs the lookahead fixpoint over the whole retained
// network: every slot is reset to its spontaneous lookaheads (plus EOF
// for the start state's slots), the propagation edges are iterated to
// fixpoint, and the states whose final sets moved against the previous
// fixpoint are returned. Propagation is not monotone under rule deletion,
// which is why the reset is global; the expensive per-state work (the
// LR(1) closures) is confined to the damaged and returned states.
func (t *Table) propagate() map[*lr.State]bool {
	for _, sl := range t.net {
		for i := range sl.base {
			clear(sl.base[i])
		}
	}
	start := t.net[t.auto.Start()]
	for i := range start.base {
		start.base[i][grammar.EOF] = true
	}
	for _, sl := range t.net {
		for _, c := range sl.gen {
			c.dst.st.base[c.dst.idx][c.sym] = true
		}
	}
	// Worklist fixpoint: a slot is (re)visited only when its set grew.
	var work []slotRef
	for _, sl := range t.net {
		for i, dsts := range sl.edges {
			if len(dsts) > 0 && len(sl.base[i]) > 0 {
				work = append(work, slotRef{st: sl, idx: i})
			}
		}
	}
	for len(work) > 0 {
		src := work[len(work)-1]
		work = work[:len(work)-1]
		from := src.st.base[src.idx]
		for _, d := range src.st.edges[src.idx] {
			set := d.st.base[d.idx]
			grew := false
			for sym := range from {
				if !set[sym] {
					set[sym] = true
					grew = true
				}
			}
			if grew && len(d.st.edges[d.idx]) > 0 {
				work = append(work, d)
			}
		}
	}

	dirty := make(map[*lr.State]bool)
	for _, sl := range t.net {
		for i := range sl.base {
			if !equalSets(sl.base[i], sl.sets[i]) {
				dirty[sl.state] = true
				break
			}
		}
		sl.sets, sl.base = sl.base, sl.sets
	}
	return dirty
}

// derive recomputes one state's reduce lookaheads and conflicts from the
// current fixpoint: the LR(1) closure of the kernel under its final
// lookaheads, collecting completed items (this also covers epsilon
// reductions, whose items never appear in any kernel).
func (t *Table) derive(sl *stateLA, terminals []grammar.Symbol) {
	g := t.auto.Grammar()
	s := sl.state
	items := make([]laItem, 0, len(s.Kernel)*2)
	for i, kit := range s.Kernel {
		for sym := range sl.sets[i] {
			items = append(items, laItem{item: kit, la: sym})
		}
	}
	las := map[string]grammar.SymbolSet{}
	for _, cit := range closure1(g, items, t.first, t.null) {
		if !cit.item.AtEnd() || cit.item.Rule.Lhs == g.Start() {
			continue
		}
		set, ok := las[cit.item.Rule.Key()]
		if !ok {
			set = grammar.SymbolSet{}
			las[cit.item.Rule.Key()] = set
		}
		set[cit.la] = true
	}
	t.la[s] = las

	sl.conflicts = sl.conflicts[:0]
	for _, sym := range terminals {
		var reduces int
		for _, r := range s.Reductions {
			if las[r.Key()].Has(sym) {
				reduces++
			}
		}
		_, shift := s.Transitions[sym]
		switch {
		case reduces > 1:
			sl.conflicts = append(sl.conflicts, Conflict{State: s, Symbol: sym, Kind: "reduce/reduce"})
		case reduces == 1 && shift:
			sl.conflicts = append(sl.conflicts, Conflict{State: s, Symbol: sym, Kind: "shift/reduce"})
		}
	}
}

// assembleConflicts rebuilds the table-wide conflict list from the
// per-state lists, in state-ID order (matching what a from-scratch
// generation reports).
func (t *Table) assembleConflicts() {
	t.conflicts = t.conflicts[:0]
	for _, s := range t.auto.States() {
		if sl := t.net[s]; sl != nil {
			t.conflicts = append(t.conflicts, sl.conflicts...)
		}
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
		las := t.la[s]
		rkeys := make([]string, 0, len(s.Reductions))
		for _, r := range s.Reductions {
			rkeys = append(rkeys, r.Key())
		}
		sort.Strings(rkeys)
		for _, rk := range rkeys {
			set := las[rk]
			la := make([]int, 0, len(set))
			for sym := range set {
				la = append(la, int(sym))
			}
			sort.Ints(la)
			fmt.Fprintf(&b, "  reduce %s on %v\n", rk, la)
		}
	}
	b.WriteString("conflicts:\n")
	for _, k := range t.conflictKeys() {
		b.WriteString("  " + k + "\n")
	}
	return b.String()
}

// laItem is an LR(1) item: an LR(0) item plus one lookahead terminal. The
// dummy lookahead used during propagation analysis is grammar.NoSymbol.
type laItem struct {
	item lr.Item
	la   grammar.Symbol
}

// closure1 computes the LR(1) closure of items: for [A ::= α • B β, a]
// and rule B ::= γ, add [B ::= • γ, b] for every b in FIRST(βa). Callers
// use the result as a set, so its order carries no meaning.
func closure1(g *grammar.Grammar, items []laItem,
	first map[grammar.Symbol]grammar.SymbolSet, null grammar.SymbolSet) []laItem {

	// Items are keyed by rule value (not pointer, like lr.Item.Key) without
	// building a string per item.
	type core struct {
		rule string
		dot  int
	}
	type key struct {
		core
		la grammar.Symbol
	}
	seen := make(map[key]bool, 4*len(items))
	out := make([]laItem, 0, 4*len(items))
	add := func(it laItem) {
		k := key{core{it.item.Rule.Key(), it.item.Dot}, it.la}
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, it)
	}
	for _, it := range items {
		add(it)
	}
	// FIRST(β) depends on the item, not on its lookahead: compute it once
	// per item core.
	type betaFirst struct {
		fs       grammar.SymbolSet
		nullable bool
	}
	firsts := map[core]betaFirst{}
	for i := 0; i < len(out); i++ {
		it := out[i]
		b := it.item.AfterDot()
		if b == grammar.NoSymbol || g.Symbols().Kind(b) != grammar.Nonterminal {
			continue
		}
		c := core{it.item.Rule.Key(), it.item.Dot}
		bf, ok := firsts[c]
		if !ok {
			bf.fs, bf.nullable = g.FirstOfString(it.item.Rule.Rhs[it.item.Dot+1:], first, null)
			firsts[c] = bf
		}
		for _, r := range g.RulesFor(b) {
			ni := lr.NewItem(r, 0)
			for la := range bf.fs {
				add(laItem{item: ni, la: la})
			}
			if bf.nullable {
				add(laItem{item: ni, la: it.la})
			}
		}
	}
	return out
}

// Lookaheads returns the lookahead set for reducing rule in state s,
// formatted for diagnostics.
func (t *Table) Lookaheads(s *lr.State, rule *grammar.Rule) []string {
	set := t.la[s][rule.Key()]
	out := make([]string, 0, len(set))
	for sym := range set {
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
