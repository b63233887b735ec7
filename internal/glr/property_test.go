package glr

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// Property: the copying engine (the paper's PAR-PARSE) and the GSS engine
// accept the same sentences and represent the same number of parse trees,
// whenever the copying engine terminates within budget. Where there are
// few trees, both forests enumerate the same ones; and every ambiguity
// node of a GSS forest packs at least two alternatives.
func TestEnginesEquivalentOnRandomGrammars(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := grammar.Random(grammar.RandConfig{
			Nonterminals: 3, Terminals: 3, Rules: 6, EpsilonProb: 0.1,
		}, rng)
		auto := lr.New(g)
		auto.GenerateAll()
		for i := 0; i < 6; i++ {
			var input []grammar.Symbol
			if sent, ok := g.RandomSentence(rng, 6); ok && rng.Intn(2) == 0 {
				input = sent
			} else {
				terms := g.Symbols().Terminals()
				for j := 0; j < rng.Intn(5); j++ {
					s := terms[rng.Intn(len(terms))]
					if s != grammar.EOF {
						input = append(input, s)
					}
				}
			}
			resC, err := Parse(auto, input, &Options{Engine: Copying, MaxReductions: 1 << 16})
			if errors.Is(err, ErrNotFinitelyAmbiguous) {
				continue // cyclic grammar: outside the copying class
			}
			if err != nil {
				t.Fatalf("seed %d copying: %v", seed, err)
			}
			resG, err := Parse(auto, input, &Options{Engine: GSS})
			if err != nil {
				t.Fatalf("seed %d gss: %v", seed, err)
			}
			if resC.Accepted != resG.Accepted {
				t.Fatalf("seed %d: copying=%v gss=%v on %s\n%s",
					seed, resC.Accepted, resG.Accepted,
					g.Symbols().NamesOf(input), g.String())
			}
			if !resC.Accepted {
				continue
			}
			nc, errC := forest.TreeCount(resC.Root)
			ng, errG := forest.TreeCount(resG.Root)
			if errC != nil || errG != nil {
				continue // cyclic forests have no finite count
			}
			if nc != ng {
				t.Fatalf("seed %d: tree counts differ: copying=%d gss=%d on %s\n%s",
					seed, nc, ng, g.Symbols().NamesOf(input), g.String())
			}
			if n := thinAmbiguity(resG.Root); n != nil {
				t.Fatalf("seed %d: gss ambiguity node #%d has %d alternatives on %s\n%s",
					seed, n.ID(), len(n.Alts()), g.Symbols().NamesOf(input), g.String())
			}
			if nc > treeLimit {
				continue
			}
			tc, errC := forest.Trees(resC.Root, g.Symbols(), treeLimit)
			tg, errG := forest.Trees(resG.Root, g.Symbols(), treeLimit)
			if errC != nil || errG != nil || strings.Join(tc, "\n") != strings.Join(tg, "\n") {
				t.Fatalf("seed %d: trees differ on %s (%v, %v):\ncopying %q\ngss     %q\n%s",
					seed, g.Symbols().NamesOf(input), errC, errG, tc, tg, g.String())
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// treeLimit bounds the forest.Trees enumerations the engine property
// compares.
const treeLimit = 64

// thinAmbiguity returns an ambiguity node reachable from root with fewer
// than two alternatives, or nil.
func thinAmbiguity(root *forest.Node) *forest.Node {
	seen := map[*forest.Node]bool{}
	var walk func(n *forest.Node) *forest.Node
	walk = func(n *forest.Node) *forest.Node {
		if seen[n] {
			return nil
		}
		seen[n] = true
		if n.Kind() == forest.Amb && len(n.Alts()) < 2 {
			return n
		}
		for _, k := range append(n.Children(), n.Alts()...) {
			if bad := walk(k); bad != nil {
				return bad
			}
		}
		return nil
	}
	return walk(root)
}

// Property: every accepted parse's forest yields the input sentence.
func TestYieldProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := grammar.Random(grammar.RandConfig{
			Nonterminals: 3, Terminals: 3, Rules: 6,
		}, rng)
		auto := lr.New(g)
		auto.GenerateAll()
		sent, ok := g.RandomSentence(rng, 7)
		if !ok {
			return true
		}
		res, err := Parse(auto, sent, &Options{Engine: GSS})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Accepted {
			t.Fatalf("seed %d: generated sentence rejected: %s\n%s",
				seed, g.Symbols().NamesOf(sent), g.String())
		}
		if res.Root == nil {
			return true // empty sentence of a nullable start: no tree root
		}
		y, err := forest.Yield(res.Root)
		if err != nil {
			return true // cyclic forest
		}
		if len(y) != len(sent) {
			t.Fatalf("seed %d: yield %s != input %s",
				seed, g.Symbols().NamesOf(y), g.Symbols().NamesOf(sent))
		}
		for i := range y {
			if y[i] != sent[i] {
				t.Fatalf("seed %d: yield %s != input %s",
					seed, g.Symbols().NamesOf(y), g.Symbols().NamesOf(sent))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: error positions are meaningful — rejected inputs report a
// position no later than the input length (the $ slot) and, for inputs
// with a valid prefix, at least the length of that prefix.
func TestErrorPosProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := grammar.Random(grammar.RandConfig{
			Nonterminals: 3, Terminals: 3, Rules: 6,
		}, rng)
		auto := lr.New(g)
		auto.GenerateAll()
		terms := g.Symbols().Terminals()
		var input []grammar.Symbol
		for j := 0; j < rng.Intn(6); j++ {
			s := terms[rng.Intn(len(terms))]
			if s != grammar.EOF {
				input = append(input, s)
			}
		}
		res, err := Parse(auto, input, &Options{Engine: GSS})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Accepted {
			return res.ErrorPos == -1
		}
		return res.ErrorPos >= 0 && res.ErrorPos <= len(input)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
