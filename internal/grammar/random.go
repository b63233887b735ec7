package grammar

import (
	"fmt"
	"math/rand"
)

// RandConfig parametrizes Random. Zero fields get small defaults, so the
// zero value is usable in quick-check generators.
type RandConfig struct {
	// Nonterminals is the number of nonterminals besides START (default 4).
	Nonterminals int
	// Terminals is the number of terminals (default 4).
	Terminals int
	// Rules is the number of non-START rules to attempt (default 8).
	// Duplicates are skipped, so the result may have fewer.
	Rules int
	// MaxRHS bounds the right-hand-side length (default 4).
	MaxRHS int
	// StartRules is the number of START alternatives (default 1).
	StartRules int
	// EpsilonProb is the probability of an empty right-hand side.
	EpsilonProb float64
}

func (c RandConfig) withDefaults() RandConfig {
	if c.Nonterminals <= 0 {
		c.Nonterminals = 4
	}
	if c.Terminals <= 0 {
		c.Terminals = 4
	}
	if c.Rules <= 0 {
		c.Rules = 8
	}
	if c.MaxRHS <= 0 {
		c.MaxRHS = 4
	}
	if c.StartRules <= 0 {
		c.StartRules = 1
	}
	return c
}

// Random generates a deterministic pseudo-random grammar from rng.
// Nonterminals are named N0..Nk, terminals t0..tk. The grammar always has
// at least one START rule. It is not guaranteed to be reduced; property
// tests that need productive grammars should retry or use Reduced.
func Random(cfg RandConfig, rng *rand.Rand) *Grammar {
	cfg = cfg.withDefaults()
	g := New(nil)
	nts := make([]Symbol, cfg.Nonterminals)
	for i := range nts {
		nts[i] = g.syms.MustIntern(fmt.Sprintf("N%d", i), Nonterminal)
	}
	ts := make([]Symbol, cfg.Terminals)
	for i := range ts {
		ts[i] = g.syms.MustIntern(fmt.Sprintf("t%d", i), Terminal)
	}
	all := append(append([]Symbol{}, nts...), ts...)

	for i := 0; i < cfg.StartRules; i++ {
		// START alternatives are single nonterminals, as in the paper's
		// examples (START ::= B, START ::= E, ...).
		r := NewRule(g.start, nts[rng.Intn(len(nts))])
		if !g.Has(r) {
			mustAdd(g, r)
		}
	}
	for i := 0; i < cfg.Rules; i++ {
		lhs := nts[rng.Intn(len(nts))]
		var rhs []Symbol
		if rng.Float64() >= cfg.EpsilonProb {
			n := 1 + rng.Intn(cfg.MaxRHS)
			rhs = make([]Symbol, n)
			for j := range rhs {
				rhs[j] = all[rng.Intn(len(all))]
			}
		}
		r := NewRule(lhs, rhs...)
		if !g.Has(r) {
			mustAdd(g, r)
		}
	}
	return g
}

func mustAdd(g *Grammar, r *Rule) {
	if err := g.AddRule(r); err != nil {
		panic(err)
	}
}

// minHeights returns, per nonterminal, the minimum derivation height to a
// terminal string, or -1 if the nonterminal is unproductive.
func (g *Grammar) minHeights() map[Symbol]int {
	h := map[Symbol]int{}
	for changed := true; changed; {
		changed = false
		for _, r := range g.rules {
			max := 0
			ok := true
			for _, s := range r.Rhs {
				if g.syms.Kind(s) == Terminal {
					continue
				}
				hs, seen := h[s]
				if !seen {
					ok = false
					break
				}
				if hs+1 > max {
					max = hs + 1
				}
			}
			if !ok {
				continue
			}
			if cur, seen := h[r.Lhs]; !seen || max < cur {
				h[r.Lhs] = max
				changed = true
			}
		}
	}
	return h
}

// RandomSentence derives a random terminal string from START, bounding the
// derivation height by maxDepth. It returns ok=false when START is
// unproductive or no derivation fits the bound. The result excludes the
// end marker.
func (g *Grammar) RandomSentence(rng *rand.Rand, maxDepth int) ([]Symbol, bool) {
	heights := g.minHeights()
	if _, ok := heights[g.start]; !ok {
		return nil, false
	}
	var out []Symbol
	var expand func(s Symbol, budget int) bool
	expand = func(s Symbol, budget int) bool {
		if g.syms.Kind(s) == Terminal {
			out = append(out, s)
			return true
		}
		minH, ok := heights[s]
		if !ok || minH > budget {
			return false
		}
		// Candidate rules that still fit the budget.
		var fit []*Rule
		for _, r := range g.byLhs[s] {
			ok := true
			for _, x := range r.Rhs {
				if g.syms.Kind(x) == Nonterminal {
					hx, seen := heights[x]
					if !seen || hx+1 > budget {
						ok = false
						break
					}
				}
			}
			if ok {
				fit = append(fit, r)
			}
		}
		if len(fit) == 0 {
			return false
		}
		r := fit[rng.Intn(len(fit))]
		for _, x := range r.Rhs {
			if !expand(x, budget-1) {
				return false
			}
		}
		return true
	}
	if !expand(g.start, maxDepth) {
		return nil, false
	}
	return out, true
}

// Replicate returns k disjoint copies of g's rules over a fresh symbol
// table: copy 0 keeps g's nonterminal names, copy i renames every
// nonterminal but START to "X~i", and every copy's START rules join one
// START. Terminals are shared. It builds the fixed-damage grammars of
// the scaling measurements: an edit inside one copy damages the same
// states at every k, while the grammar grows k-fold.
func Replicate(g *Grammar, k int) *Grammar {
	out := New(nil)
	rename := func(s Symbol, i int) Symbol {
		name := g.syms.Name(s)
		if g.syms.Kind(s) == Terminal || s == g.start {
			return out.syms.MustIntern(name, g.syms.Kind(s))
		}
		if i > 0 {
			name = fmt.Sprintf("%s~%d", name, i)
		}
		return out.syms.MustIntern(name, Nonterminal)
	}
	for i := 0; i < k; i++ {
		for _, r := range g.rules {
			rhs := make([]Symbol, len(r.Rhs))
			for j, s := range r.Rhs {
				rhs[j] = rename(s, i)
			}
			if nr := NewRule(rename(r.Lhs, i), rhs...); !out.Has(nr) {
				mustAdd(out, nr)
			}
		}
	}
	return out
}
