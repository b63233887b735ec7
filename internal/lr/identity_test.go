package lr

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipg/internal/grammar"
	"ipg/internal/sdf"
)

// identityGrammars returns the testdata grammars and seeded random ones.
func identityGrammars(t *testing.T) ([]string, []*grammar.Grammar) {
	t.Helper()
	var names []string
	var gs []*grammar.Grammar
	for _, name := range []string{"exp.sdf", "Exam.sdf", "Calc.sdf", "SDF.sdf", "ASF.sdf", "CalcDet.bnf", "CalcLL.bnf"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var g *grammar.Grammar
		if strings.HasSuffix(name, ".bnf") {
			g, err = grammar.Parse(string(src), nil)
		} else {
			var def *sdf.Definition
			if def, err = sdf.ParseDefinition(string(src)); err == nil {
				var conv *sdf.Converted
				conv, err = sdf.Convert(def, "")
				if err == nil {
					g = conv.Grammar
				}
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, gs = append(names, name), append(gs, g)
	}
	for seed := int64(1); seed <= 20; seed++ {
		names = append(names, fmt.Sprintf("random-%d", seed))
		gs = append(gs, grammar.Random(grammar.RandConfig{
			Nonterminals: 3 + int(seed%4),
			Terminals:    2 + int(seed%3),
			Rules:        6 + int(seed%7),
			StartRules:   1 + int(seed%2),
			EpsilonProb:  0.2,
		}, rand.New(rand.NewSource(seed))))
	}
	return names, gs
}

// TestStateIdentity checks the automaton's integer state identity (the
// sorted item ids of a kernel) against the kernel's string rendering,
// Kernel.Key: two states share an identity iff their keys are equal,
// within one automaton, across rule delete/re-add cycles that use
// fresh rule objects, across a START-rule modification, and in a fresh
// automaton over the same symbol table. Lookup must find every state
// from a kernel freshly built of fresh rule objects, and Len must count
// the states.
func TestStateIdentity(t *testing.T) {
	names, gs := identityGrammars(t)
	for i, g := range gs {
		t.Run(names[i], func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i)))
			// Identities and keys of every state ever checked, both ways.
			idsOf, keyOf := map[string]string{}, map[string]string{}
			check := func(a *Automaton, when string) {
				t.Helper()
				states := a.States()
				if a.Len() != len(states) {
					t.Fatalf("%s: Len %d, %d states", when, a.Len(), len(states))
				}
				inAutomaton := map[string]int{}
				for _, s := range states {
					key, ids := s.Kernel.Key(), fmt.Sprint(s.ids)
					if other, dup := inAutomaton[ids]; dup {
						t.Fatalf("%s: states %d and %d share identity %s", when, other, s.ID, ids)
					}
					inAutomaton[ids] = s.ID
					if want, ok := idsOf[key]; ok && want != ids {
						t.Fatalf("%s: state %d has identity %s, an equal kernel %s had %s", when, s.ID, ids, key, want)
					}
					if want, ok := keyOf[ids]; ok && want != key {
						t.Fatalf("%s: state %d (%s) has kernel %s, the same identity had %s", when, s.ID, ids, key, want)
					}
					idsOf[key], keyOf[ids] = ids, key
					if h := hashIDs(s.ids); h != s.hash {
						t.Fatalf("%s: state %d hash %x, its ids hash to %x", when, s.ID, s.hash, h)
					}
					fresh := make([]Item, len(s.Kernel))
					for j, it := range s.Kernel {
						fresh[j] = Item{Rule: grammar.NewRule(it.Rule.Lhs, it.Rule.Rhs...), Dot: it.Dot}
					}
					rng.Shuffle(len(fresh), func(x, y int) { fresh[x], fresh[y] = fresh[y], fresh[x] })
					if got, ok := a.Lookup(NewKernel(fresh)); !ok || got != s {
						t.Fatalf("%s: Lookup of a fresh kernel of state %d found %v (ok %v)", when, s.ID, got, ok)
					}
					// Each successor has the kernel the closure advances to.
					if s.Type != Complete {
						continue
					}
					for sym, succ := range s.Transitions {
						var moved []Item
						for _, it := range Closure(g, s.Kernel) {
							if it.AfterDot() == sym {
								moved = append(moved, it.Advance())
							}
						}
						k := NewKernel(moved)
						if got, ok := a.Lookup(k); !ok || got != succ || succ.Kernel.Key() != k.Key() {
							t.Fatalf("%s: state %d on %s goes to state %d, kernel %s, want kernel %s (Lookup: %v, %v)",
								when, s.ID, g.Symbols().Name(sym), succ.ID, succ.Kernel.Key(), k.Key(), got, ok)
						}
					}
				}
			}
			// modify brings a up to date after a change of lhs's rules, as
			// the incremental generator does, and regenerates the rest.
			modify := func(a *Automaton, lhs grammar.Symbol) {
				if lhs == g.Start() {
					if a.Start().Type == Complete {
						a.Invalidate(a.Start(), false)
					}
					a.ResetStartKernel()
				} else {
					for _, s := range a.AppendStatesOn(nil, lhs) {
						a.Invalidate(s, false)
					}
				}
				a.GenerateAll()
			}

			a := New(g)
			a.GenerateAll()
			check(a, "generated")
			for cycle := 0; cycle < 8; cycle++ {
				rules := g.Rules()
				r := rules[rng.Intn(len(rules))]
				if _, err := g.DeleteRule(grammar.NewRule(r.Lhs, r.Rhs...)); err != nil {
					t.Fatal(err)
				}
				modify(a, r.Lhs)
				check(a, fmt.Sprintf("cycle %d, deleted %s", cycle, r.String(g.Symbols())))
				again := grammar.NewRule(r.Lhs, r.Rhs...)
				if err := g.AddRule(again); err != nil {
					t.Fatal(err)
				}
				if again.ID() != r.ID() {
					t.Fatalf("re-added %s got ID %d, was %d", r.String(g.Symbols()), again.ID(), r.ID())
				}
				modify(a, r.Lhs)
				check(a, fmt.Sprintf("cycle %d, re-added %s", cycle, r.String(g.Symbols())))
			}

			// A new START alternative changes the start kernel in place.
			first := g.RulesFor(g.Start())[0]
			extra := grammar.NewRule(g.Start(), append(append([]grammar.Symbol{}, first.Rhs...), first.Rhs...)...)
			if !g.Has(extra) {
				if err := g.AddRule(extra); err != nil {
					t.Fatal(err)
				}
				modify(a, g.Start())
				check(a, "START rule added")
				if _, err := g.DeleteRule(extra); err != nil {
					t.Fatal(err)
				}
				modify(a, g.Start())
				check(a, "START rule deleted")
			}

			fresh := New(g)
			fresh.GenerateAll()
			check(fresh, "fresh automaton")
		})
	}
}
