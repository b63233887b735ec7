package core

import (
	"math/rand"
	"testing"

	"ipg/internal/earley"
	"ipg/internal/glr"
	"ipg/internal/grammar"
)

// TestTortureSession simulates a long interactive language-definition
// session (the paper's motivating application): dozens of interleaved
// rule additions, deletions, parses and occasional garbage-collection
// sweeps. After every step the incrementally maintained parser must
// agree with an Earley oracle over the same live grammar — Earley is
// grammar-driven, so a Refresh of its grammar view follows every
// modification.
func TestTortureSession(t *testing.T) {
	for _, policy := range []Policy{PolicyRefCount, PolicyRetainAll, PolicyEagerSweep} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := grammar.Random(grammar.RandConfig{
					Nonterminals: 3, Terminals: 3, Rules: 5, EpsilonProb: 0.1,
				}, rng)
				gen := New(g, &Options{Policy: policy, SweepThreshold: 0.6})
				oracle := earley.New(g)

				syms := g.Symbols()
				var nts, pool []grammar.Symbol
				for _, s := range syms.Nonterminals() {
					if s != g.Start() {
						nts = append(nts, s)
					}
				}
				pool = append(pool, nts...)
				for _, s := range syms.Terminals() {
					if s != grammar.EOF {
						pool = append(pool, s)
					}
				}

				checkParses := func(step int) {
					oracle.Refresh() // the generator's updates moved the grammar
					for i := 0; i < 4; i++ {
						var input []grammar.Symbol
						if sent, ok := g.RandomSentence(rng, 6); ok && rng.Intn(2) == 0 {
							input = sent
						} else {
							for j := 0; j < rng.Intn(5); j++ {
								s := pool[rng.Intn(len(pool))]
								if syms.Kind(s) == grammar.Terminal {
									input = append(input, s)
								}
							}
						}
						got, err := glr.Recognize(gen, input, glr.GSS)
						if err != nil {
							t.Fatalf("seed %d step %d: %v", seed, step, err)
						}
						want := oracle.Recognize(input)
						if got != want {
							t.Fatalf("seed %d step %d: ipg=%v earley=%v on %s\ngrammar:\n%s",
								seed, step, got, want, syms.NamesOf(input), g.String())
						}
					}
				}

				checkParses(-1)
				for step := 0; step < 40; step++ {
					switch op := rng.Intn(10); {
					case op < 4: // add a rule
						lhs := nts[rng.Intn(len(nts))]
						rhs := make([]grammar.Symbol, rng.Intn(4))
						for j := range rhs {
							rhs[j] = pool[rng.Intn(len(pool))]
						}
						r := grammar.NewRule(lhs, rhs...)
						if g.Has(r) {
							continue
						}
						if err := gen.AddRule(r); err != nil {
							t.Fatalf("seed %d step %d add: %v", seed, step, err)
						}
					case op < 6: // delete a random non-START rule
						rules := g.Rules()
						if len(rules) == 0 {
							continue
						}
						r := rules[rng.Intn(len(rules))]
						if r.Lhs == g.Start() {
							continue
						}
						if err := gen.DeleteRule(r); err != nil {
							t.Fatalf("seed %d step %d delete: %v", seed, step, err)
						}
					case op < 7: // explicit sweep
						gen.MarkSweep()
					default: // parse a few sentences
						checkParses(step)
					}
				}
				checkParses(40)

				// After the session the graph still matches from-scratch
				// generation.
				gen.Pregenerate()
				eager := New(g.Clone(), nil)
				eager.Pregenerate()
				assertEquivalentReachable(t, gen.Automaton(), eager.Automaton())
			}
		})
	}
}
