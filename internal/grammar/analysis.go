package grammar

// This file implements the classical grammar analyses: reachability,
// productivity, NULLABLE, FIRST and FOLLOW. The functions below compute
// them from scratch, to fixpoint over the current rule set, as maps;
// they are the reference the incremental Analysis (incremental.go) is
// tested against, and what one-off callers use. The table generators
// read the Analysis instead, which the grammar keeps up to date across
// rule modifications at a cost bounded by what the modification moved.

// SymbolSet is a set of symbols.
type SymbolSet map[Symbol]bool

// Has reports membership of s.
func (ss SymbolSet) Has(s Symbol) bool { return ss[s] }

// add inserts s and reports whether the set changed.
func (ss SymbolSet) add(s Symbol) bool {
	if ss[s] {
		return false
	}
	ss[s] = true
	return true
}

// addAll inserts all of other and reports whether the set changed.
func (ss SymbolSet) addAll(other SymbolSet) bool {
	changed := false
	for s := range other {
		if ss.add(s) {
			changed = true
		}
	}
	return changed
}

// Reachable returns the symbols reachable from START through the rules.
// START itself is always reachable.
func (g *Grammar) Reachable() SymbolSet {
	seen := SymbolSet{g.start: true}
	work := []Symbol{g.start}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range g.byLhs[n] {
			for _, s := range r.Rhs {
				if seen.add(s) && g.syms.Kind(s) == Nonterminal {
					work = append(work, s)
				}
			}
		}
	}
	return seen
}

// Productive returns the nonterminals that derive at least one terminal
// string (terminals are trivially productive and are not included).
func (g *Grammar) Productive() SymbolSet {
	prod := SymbolSet{}
	for changed := true; changed; {
		changed = false
		for _, r := range g.rules {
			if prod.Has(r.Lhs) {
				continue
			}
			ok := true
			for _, s := range r.Rhs {
				if g.syms.Kind(s) == Nonterminal && !prod.Has(s) {
					ok = false
					break
				}
			}
			if ok && prod.add(r.Lhs) {
				changed = true
			}
		}
	}
	return prod
}

// Nullable returns the nonterminals that derive the empty string.
func (g *Grammar) Nullable() SymbolSet {
	null := SymbolSet{}
	for changed := true; changed; {
		changed = false
		for _, r := range g.rules {
			if null.Has(r.Lhs) {
				continue
			}
			ok := true
			for _, s := range r.Rhs {
				if !null.Has(s) {
					ok = false
					break
				}
			}
			if ok && null.add(r.Lhs) {
				changed = true
			}
		}
	}
	return null
}

// FirstSets computes FIRST for every nonterminal: the terminals that can
// begin a string derived from it. Epsilon membership is reported
// separately by Nullable.
func (g *Grammar) FirstSets() map[Symbol]SymbolSet {
	null := g.Nullable()
	first := map[Symbol]SymbolSet{}
	for _, n := range g.syms.Nonterminals() {
		first[n] = SymbolSet{}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range g.rules {
			fs := first[r.Lhs]
			for _, s := range r.Rhs {
				if g.syms.Kind(s) == Terminal {
					if fs.add(s) {
						changed = true
					}
					break
				}
				if fs.addAll(first[s]) {
					changed = true
				}
				if !null.Has(s) {
					break
				}
			}
		}
	}
	return first
}

// FirstOfString computes FIRST(α) for a symbol string using precomputed
// FIRST sets and the nullable set. The boolean result reports whether α is
// nullable.
func (g *Grammar) FirstOfString(alpha []Symbol, first map[Symbol]SymbolSet, null SymbolSet) (SymbolSet, bool) {
	out := SymbolSet{}
	for _, s := range alpha {
		if g.syms.Kind(s) == Terminal {
			out.add(s)
			return out, false
		}
		out.addAll(first[s])
		if !null.Has(s) {
			return out, false
		}
	}
	return out, true
}

// FollowSets computes FOLLOW for every nonterminal: the terminals that can
// appear immediately after it in a sentential form. FOLLOW(START)
// contains EOF.
func (g *Grammar) FollowSets() map[Symbol]SymbolSet {
	first, null := g.FirstSets(), g.Nullable()
	follow := map[Symbol]SymbolSet{}
	for _, n := range g.syms.Nonterminals() {
		follow[n] = SymbolSet{}
	}
	follow[g.start].add(EOF)
	// FIRST of the rest of a rule does not depend on FOLLOW: add it once,
	// and iterate only FOLLOW(A) ⊆ FOLLOW(B) for rules A ::= α B β with β
	// nullable.
	type inclusion struct{ from, to Symbol }
	var incs []inclusion
	for _, r := range g.rules {
		for i, s := range r.Rhs {
			if g.syms.Kind(s) != Nonterminal {
				continue
			}
			fs, restNullable := g.FirstOfString(r.Rhs[i+1:], first, null)
			follow[s].addAll(fs)
			if restNullable && r.Lhs != s {
				incs = append(incs, inclusion{from: r.Lhs, to: s})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, in := range incs {
			if follow[in.to].addAll(follow[in.from]) {
				changed = true
			}
		}
	}
	return follow
}

// Reduced reports whether every symbol is reachable and every reachable
// nonterminal is productive, i.e. the grammar has no useless parts.
func (g *Grammar) Reduced() bool {
	reach := g.Reachable()
	prod := g.Productive()
	for _, n := range g.syms.Nonterminals() {
		if !reach.Has(n) && n != g.start {
			// Unreachable nonterminals may exist in the symbol table without
			// rules; only count those that actually have rules.
			if len(g.byLhs[n]) > 0 {
				return false
			}
			continue
		}
		if len(g.byLhs[n]) > 0 && !prod.Has(n) {
			return false
		}
	}
	return true
}
