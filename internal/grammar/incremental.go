package grammar

import "sort"

// Analysis holds the grammar's FIRST, nullable and FOLLOW sets as
// bitsets, for one grammar version at a time. Grammar.Analysis builds
// it on first use; after that the grammar records every AddRule and
// DeleteRule, and the next Analysis call updates the sets from the
// modified left-hand sides over the reverse-dependency index
// (RulesUsing) instead of re-running the global fixpoints:
//
//   - an update that only adds rules only grows sets, so a worklist
//     seeded with the modified nonterminals grows them in place;
//   - an update that deletes a rule can shrink sets, so the cone of
//     nonterminals that depend on the modified ones is reset and
//     recomputed, with everything outside the cone held constant.
//
// FIRST and nullable depend on a nonterminal's rules and on the
// nonterminals they mention; FOLLOW on the rules that mention a
// nonterminal, the FIRST sets after it, and the FOLLOW of their
// left-hand sides. FOLLOW joins the upkeep once a caller asks for it.
//
// Tables derived from the sets (the LALR(1) lookahead network, the
// LL(1) prediction rows) repair themselves by asking which
// nonterminals' sets moved since the grammar version they reflect
// (FirstMovedSince, FollowMovedSince). An Analysis is owned by its
// grammar and, like it, not safe for concurrent mutation: callers that
// read it hold the same exclusion they hold for rule updates.
type Analysis struct {
	g       *Grammar
	version uint64
	pending []change

	// first[n] and follow[n] are indexed by symbol ID (nil reads as
	// empty); null holds the nullable nonterminals.
	first, follow []Bitset
	null          Bitset
	hasFollow     bool

	// firstLog and followLog record which nonterminals' sets moved at
	// which grammar version.
	firstLog, followLog moveLog
	// work counts nonterminals re-analysed, cumulatively.
	work int

	// Scratch: stamp/epoch mark symbols per pass, queued the worklist
	// members; tmp is one set of the current width.
	stamp []uint32
	epoch uint32
	// movedAt[n] == movedMark marks n as moved in the current pass.
	movedAt   []uint32
	movedMark uint32
	queued    []bool
	queue     []Symbol
	cone      []Symbol
	moved     []Symbol
	tmp       Bitset
}

// change is one recorded rule modification.
type change struct {
	rule  *Rule
	added bool
}

// Analysis returns the grammar's analysis, brought up to date with
// every rule modification since it was last asked for. The first call
// builds it from scratch.
func (g *Grammar) Analysis() *Analysis {
	if g.ana == nil {
		a := &Analysis{g: g}
		a.build()
		g.ana = a
		return a
	}
	if len(g.ana.pending) > 0 {
		g.ana.update()
	}
	return g.ana
}

// maxPending bounds the modifications an analysis may hold unapplied:
// a grammar whose tables stopped reading it (a table-free backend
// serves it) folds them in every maxPending updates rather than keep
// an unbounded list.
const maxPending = 64

// record notes one rule modification for the next update.
func (a *Analysis) record(r *Rule, added bool) {
	a.pending = append(a.pending, change{rule: r, added: added})
	if len(a.pending) >= maxPending {
		a.update()
	}
}

// Version is the grammar version the sets reflect.
func (a *Analysis) Version() uint64 { return a.version }

// Work is the cumulative number of nonterminals whose sets were
// (re)computed, by the first build and by every update since: a
// repair reports the difference across its own call.
func (a *Analysis) Work() int { return a.work }

// First is FIRST(n) for nonterminal n (the terminals that can begin a
// string it derives; epsilon is reported by Nullable). The set is
// shared and may be narrower than the symbol table.
func (a *Analysis) First(n Symbol) Bitset {
	if int(n) < len(a.first) {
		return a.first[n]
	}
	return nil
}

// Nullable reports whether nonterminal n derives the empty string.
func (a *Analysis) Nullable(n Symbol) bool { return a.null.Has(n) }

// FirstOf adds FIRST(alpha) to dst, which must be BitsetWords wide for
// the current symbol table, and reports whether alpha is nullable.
func (a *Analysis) FirstOf(dst Bitset, alpha []Symbol) bool {
	syms := a.g.syms
	for _, s := range alpha {
		if syms.kinds[s] == Terminal {
			dst.Add(s)
			return false
		}
		dst.Or(a.First(s))
		if !a.null.Has(s) {
			return false
		}
	}
	return true
}

// Follow is FOLLOW(n) for nonterminal n (FOLLOW(START) holds EOF). The
// first call computes FOLLOW for the whole grammar; later updates keep
// it current.
func (a *Analysis) Follow(n Symbol) Bitset {
	a.ensureFollow()
	if int(n) < len(a.follow) {
		return a.follow[n]
	}
	return nil
}

// FirstMovedSince appends to dst the nonterminals whose FIRST set or
// nullability moved after grammar version v, each once, and returns
// the extended slice.
func (a *Analysis) FirstMovedSince(v uint64, dst []Symbol) []Symbol {
	return a.movedSince(&a.firstLog, v, dst)
}

// FollowMovedSince appends to dst the nonterminals whose FOLLOW set
// moved after grammar version v, each once, and returns the extended
// slice.
func (a *Analysis) FollowMovedSince(v uint64, dst []Symbol) []Symbol {
	a.ensureFollow()
	return a.movedSince(&a.followLog, v, dst)
}

// movedSince appends the distinct nonterminals l logged after version
// v to dst.
func (a *Analysis) movedSince(l *moveLog, v uint64, dst []Symbol) []Symbol {
	mark := a.nextEpoch()
	for _, s := range l.since(v) {
		if a.stamp[s] != mark {
			a.stamp[s] = mark
			dst = append(dst, s)
		}
	}
	return dst
}

// build computes FIRST and nullable from scratch: every nonterminal
// with rules is one reset cone.
func (a *Analysis) build() {
	a.version = a.g.version
	a.fit()
	defined := a.definedNonterminals()
	a.slab(a.first, defined)
	a.updateFirst(defined, growFrom, false)
}

func (a *Analysis) ensureFollow() {
	if a.hasFollow {
		return
	}
	a.hasFollow = true
	all := a.allNonterminals()
	a.slab(a.follow, all)
	a.updateFollow(all, false, false)
}

// slab gives each listed set empty storage of the current width, from
// one allocation: a build grows every set from empty.
func (a *Analysis) slab(sets []Bitset, ns []Symbol) {
	w := BitsetWords(a.g.syms)
	buf := make([]uint64, len(ns)*w)
	for i, n := range ns {
		sets[n] = buf[i*w : i*w : (i+1)*w]
	}
}

// update applies the recorded modifications.
func (a *Analysis) update() {
	a.fit()
	adds, dels := false, false
	var seeds []Symbol
	for _, c := range a.pending {
		adds, dels = adds || c.added, dels || !c.added
		seeds = append(seeds, c.rule.Lhs)
	}
	a.version = a.g.version
	mode := growFrom
	switch {
	case dels && !adds:
		mode = resetWindow
	case dels:
		mode = resetAll
	}
	moved := a.updateFirst(seeds, mode, true)
	if a.hasFollow {
		// FOLLOW moves for the nonterminals a modified rule mentions, and
		// for those a nonterminal whose FIRST or nullability moved can
		// follow through a (possibly formerly) nullable stretch.
		var fseeds []Symbol
		syms := a.g.syms
		for _, c := range a.pending {
			for _, s := range c.rule.Rhs {
				if syms.kinds[s] == Nonterminal {
					fseeds = append(fseeds, s)
				}
			}
		}
		for _, y := range moved {
			for _, r := range a.g.RulesUsing(y) {
				for j, s := range r.Rhs {
					if s != y {
						continue
					}
					for i := j - 1; i >= 0; i-- {
						if x := r.Rhs[i]; syms.kinds[x] == Nonterminal {
							fseeds = append(fseeds, x)
						}
						if !a.maybeNullable(r.Rhs[i : i+1]) {
							break
						}
					}
				}
			}
		}
		a.updateFollow(fseeds, mode != growFrom, true)
	}
	clear(a.pending)
	a.pending = a.pending[:0]
}

// updateMode is how updateFirst treats its seeds.
type updateMode uint8

const (
	// growFrom recomputes from the seeds, growing sets in place: the
	// batch only added rules, so no set can shrink.
	growFrom updateMode = iota
	// resetWindow clears and recomputes the seeds' dependent cone,
	// closed over the rules whose FIRST window — the prefix up to the
	// first non-nullable symbol — reaches a cone member. The batch only
	// deleted rules, so nullability only shrank and the windows
	// computed before the reset cover the new ones.
	resetWindow
	// resetAll is resetWindow closed over every rule that mentions a
	// cone member, for batches that both add and delete.
	resetAll
)

// updateFirst brings FIRST and nullable up to date from seeds (see
// updateMode). The nonterminals whose sets moved are logged (when log
// is set) and returned.
func (a *Analysis) updateFirst(seeds []Symbol, mode updateMode, log bool) []Symbol {
	g := a.g
	reset := mode != growFrom
	var old []Bitset
	var oldNull []bool
	a.moved = a.moved[:0]
	a.movedMark++
	if reset {
		a.closeCone(seeds, func(n Symbol, push func(Symbol)) {
			for _, r := range g.RulesUsing(n) {
				if mode == resetAll || a.inFirstWindow(r, n) {
					push(r.Lhs)
				}
			}
		})
		old = make([]Bitset, len(a.cone))
		oldNull = make([]bool, len(a.cone))
		for i, n := range a.cone {
			old[i], oldNull[i] = a.first[n], a.null.Has(n)
			a.first[n] = nil
			a.setNull(n, false)
		}
		seeds = a.cone
	}
	mark := a.nextEpoch()
	for _, n := range seeds {
		a.push(n)
	}
	for len(a.queue) > 0 {
		n := a.pop()
		if a.stamp[n] != mark {
			a.stamp[n] = mark
			a.work++
		}
		tmp := a.scratch()
		nullable := false
		for _, r := range g.RulesFor(n) {
			if a.FirstOf(tmp, r.Rhs) {
				nullable = true
			}
		}
		if tmp.Equal(a.first[n]) && nullable == a.null.Has(n) {
			continue
		}
		if !reset && log {
			a.noteMoved(n)
		}
		a.first[n] = assign(a.first[n], tmp)
		a.setNull(n, nullable)
		// Sets only grow from here on, so a rule whose current window
		// does not reach n cannot read it until the window grows — and
		// the growth queues the rule's left-hand side itself.
		for _, r := range g.RulesUsing(n) {
			if mode == resetAll || a.inFirstWindow(r, n) {
				a.push(r.Lhs)
			}
		}
	}
	if reset {
		for i, n := range a.cone {
			if oldNull[i] != a.null.Has(n) || !old[i].Equal(a.first[n]) {
				a.noteMoved(n)
			}
		}
	}
	if log {
		for _, n := range a.moved {
			a.firstLog.add(a.version, n)
		}
	}
	return a.moved
}

// inFirstWindow reports whether n occurs in r's FIRST window: after a
// prefix of nullable nonterminals.
func (a *Analysis) inFirstWindow(r *Rule, n Symbol) bool {
	for _, s := range r.Rhs {
		if s == n {
			return true
		}
		if !a.null.Has(s) {
			return false
		}
	}
	return false
}

// maybeNullable reports whether alpha is nullable now or was before
// the current update: its nonterminals are nullable or had their
// nullability move.
func (a *Analysis) maybeNullable(alpha []Symbol) bool {
	for _, s := range alpha {
		if a.g.syms.kinds[s] == Terminal || !a.null.Has(s) && a.movedAt[s] != a.movedMark {
			return false
		}
	}
	return true
}

// updateFollow brings FOLLOW up to date from seeds, like updateFirst.
// A reset cone is closed downstream: FOLLOW(X) flows into every
// nonterminal of X's rules followed by a suffix that is, or was,
// nullable (FIRST moves were already applied, so a suffix over a
// nonterminal whose nullability moved counts as nullable).
func (a *Analysis) updateFollow(seeds []Symbol, reset, log bool) {
	g := a.g
	syms := g.syms
	var old []Bitset
	if reset {
		a.closeCone(seeds, func(x Symbol, push func(Symbol)) {
			for _, r := range g.RulesFor(x) {
				for i, s := range r.Rhs {
					if syms.kinds[s] == Nonterminal && a.maybeNullable(r.Rhs[i+1:]) {
						push(s)
					}
				}
			}
		})
		old = make([]Bitset, len(a.cone))
		for i, n := range a.cone {
			old[i] = a.follow[n]
			a.follow[n] = nil
		}
		seeds = a.cone
	}
	var movedFollow []Symbol
	mark := a.nextEpoch()
	for _, n := range seeds {
		a.push(n)
	}
	for len(a.queue) > 0 {
		x := a.pop()
		if a.stamp[x] != mark {
			a.stamp[x] = mark
			a.work++
		}
		tmp := a.scratch()
		if x == g.start {
			tmp.Add(EOF)
		}
		for _, r := range g.RulesUsing(x) {
			for i, s := range r.Rhs {
				if s == x && a.FirstOf(tmp, r.Rhs[i+1:]) && r.Lhs != x {
					tmp.Or(a.follow[r.Lhs])
				}
			}
		}
		if tmp.Equal(a.follow[x]) {
			continue
		}
		if !reset && log {
			movedFollow = append(movedFollow, x) // readers dedupe
		}
		a.follow[x] = assign(a.follow[x], tmp)
		for _, r := range g.RulesFor(x) {
			for i, s := range r.Rhs {
				if syms.kinds[s] == Nonterminal && a.nullableString(r.Rhs[i+1:]) {
					a.push(s)
				}
			}
		}
	}
	if reset {
		for i, n := range a.cone {
			if !old[i].Equal(a.follow[n]) {
				movedFollow = append(movedFollow, n)
			}
		}
	}
	if log {
		for _, n := range movedFollow {
			a.followLog.add(a.version, n)
		}
	}
}

func (a *Analysis) nullableString(alpha []Symbol) bool {
	for _, s := range alpha {
		if !a.null.Has(s) {
			return false
		}
	}
	return true
}

// closeCone sets a.cone to seeds closed under next, each nonterminal
// once.
func (a *Analysis) closeCone(seeds []Symbol, next func(Symbol, func(Symbol))) {
	mark := a.nextEpoch()
	a.cone = a.cone[:0]
	push := func(n Symbol) {
		if a.stamp[n] != mark {
			a.stamp[n] = mark
			a.cone = append(a.cone, n)
		}
	}
	for _, n := range seeds {
		push(n)
	}
	for i := 0; i < len(a.cone); i++ {
		next(a.cone[i], push)
	}
}

func (a *Analysis) noteMoved(n Symbol) {
	if a.movedAt[n] != a.movedMark {
		a.movedAt[n] = a.movedMark
		a.moved = append(a.moved, n)
	}
}

// fit sizes the per-symbol storage for the current symbol table.
func (a *Analysis) fit() {
	if w := BitsetWords(a.g.syms); len(a.null) < w {
		a.null = append(a.null, make(Bitset, w-len(a.null))...)
	}
	n := a.g.syms.Len() + 1
	if len(a.first) < n {
		grow := max(n, 2*len(a.first))
		a.first = append(a.first, make([]Bitset, grow-len(a.first))...)
		a.follow = append(a.follow, make([]Bitset, grow-len(a.follow))...)
		a.stamp = append(a.stamp, make([]uint32, grow-len(a.stamp))...)
		a.movedAt = append(a.movedAt, make([]uint32, grow-len(a.movedAt))...)
		a.queued = append(a.queued, make([]bool, grow-len(a.queued))...)
	}
}

func (a *Analysis) nextEpoch() uint32 {
	a.epoch++
	if a.epoch == 0 {
		clear(a.stamp)
		a.epoch = 1
	}
	return a.epoch
}

func (a *Analysis) push(n Symbol) {
	if !a.queued[n] {
		a.queued[n] = true
		a.queue = append(a.queue, n)
	}
}

func (a *Analysis) pop() Symbol {
	n := a.queue[len(a.queue)-1]
	a.queue = a.queue[:len(a.queue)-1]
	a.queued[n] = false
	return n
}

// scratch returns the cleared one-set temporary at the current width.
func (a *Analysis) scratch() Bitset {
	a.tmp = a.tmp.Sized(BitsetWords(a.g.syms))
	return a.tmp
}

func (a *Analysis) setNull(n Symbol, on bool) {
	if on {
		a.null.Add(n)
	} else {
		a.null[int(n)>>6] &^= 1 << (uint(n) & 63)
	}
}

// definedNonterminals lists the nonterminals that have rules.
func (a *Analysis) definedNonterminals() []Symbol {
	out := make([]Symbol, 0, len(a.g.byLhs))
	for n := range a.g.byLhs {
		out = append(out, n)
	}
	return out
}

// allNonterminals lists every nonterminal of the symbol table.
func (a *Analysis) allNonterminals() []Symbol {
	syms := a.g.syms
	var out []Symbol
	for s := 1; s < len(syms.kinds); s++ {
		if syms.kinds[s] == Nonterminal {
			out = append(out, Symbol(s))
		}
	}
	return out
}

// moveLog records (version, nonterminal) moves in version order. It
// answers "which nonterminals moved after version v"; once it grows
// past a bound it keeps only the latest move of each nonterminal, which
// answers the same question for every v.
type moveLog struct {
	vers []uint64
	syms []Symbol
	// limit is the length that triggers the next compaction.
	limit int
}

func (l *moveLog) add(v uint64, s Symbol) {
	l.vers = append(l.vers, v)
	l.syms = append(l.syms, s)
	if len(l.syms) > max(l.limit, 256) {
		l.compact()
		l.limit = 2 * len(l.syms)
	}
}

// since returns the entries logged after version v (a nonterminal may
// repeat).
func (l *moveLog) since(v uint64) []Symbol {
	i := sort.Search(len(l.vers), func(i int) bool { return l.vers[i] > v })
	return l.syms[i:]
}

// compact keeps the latest entry of each nonterminal, in order.
func (l *moveLog) compact() {
	seen := map[Symbol]bool{}
	keep := len(l.syms)
	for i := len(l.syms) - 1; i >= 0; i-- {
		if s := l.syms[i]; !seen[s] {
			seen[s] = true
			keep--
			l.syms[keep], l.vers[keep] = s, l.vers[i]
		}
	}
	l.syms = append(l.syms[:0], l.syms[keep:]...)
	l.vers = append(l.vers[:0], l.vers[keep:]...)
}
