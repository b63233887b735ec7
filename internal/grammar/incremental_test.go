package grammar_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ipg/internal/grammar"
	"ipg/internal/sdf"
)

// analysisFixtures are the testdata grammars the analysis fuzzer edits.
var analysisFixtures = []string{"CalcDet.bnf", "CalcLL.bnf", "exp.sdf", "Exam.sdf", "Calc.sdf", "SDF.sdf", "ASF.sdf"}

var (
	fixtureOnce     sync.Once
	fixtureGrammars []*grammar.Grammar
	fixtureErr      error
)

// loadFixtures parses every analysis fixture once; callers Clone.
func loadFixtures(tb testing.TB) []*grammar.Grammar {
	tb.Helper()
	fixtureOnce.Do(func() {
		for _, name := range analysisFixtures {
			src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
			if err != nil {
				fixtureErr = err
				return
			}
			if strings.HasSuffix(name, ".bnf") {
				g, err := grammar.Parse(string(src), nil)
				if err != nil {
					fixtureErr = fmt.Errorf("%s: %w", name, err)
					return
				}
				fixtureGrammars = append(fixtureGrammars, g)
				continue
			}
			def, err := sdf.ParseDefinition(string(src))
			if err == nil {
				var conv *sdf.Converted
				if conv, err = sdf.Convert(def, ""); err == nil {
					fixtureGrammars = append(fixtureGrammars, conv.Grammar)
				}
			}
			if err != nil {
				fixtureErr = fmt.Errorf("%s: %w", name, err)
				return
			}
		}
	})
	if fixtureErr != nil {
		tb.Fatal(fixtureErr)
	}
	return fixtureGrammars
}

// snapshot is a from-scratch analysis: the map fixpoints, as bitsets.
type snapshot struct {
	first, follow map[grammar.Symbol]grammar.Bitset
	null          grammar.SymbolSet
}

func scratchAnalysis(g *grammar.Grammar) snapshot {
	toBits := func(set grammar.SymbolSet) grammar.Bitset {
		b := make(grammar.Bitset, grammar.BitsetWords(g.Symbols()))
		for s := range set {
			b.Add(s)
		}
		return b
	}
	s := snapshot{first: map[grammar.Symbol]grammar.Bitset{}, follow: map[grammar.Symbol]grammar.Bitset{}, null: g.Nullable()}
	for n, set := range g.FirstSets() {
		s.first[n] = toBits(set)
	}
	for n, set := range g.FollowSets() {
		s.follow[n] = toBits(set)
	}
	return s
}

// checkAnalysis asserts g's incremental analysis equals a from-scratch
// fixpoint, and that every nonterminal whose sets differ from prev (the
// from-scratch analysis at version since) is reported as moved.
func checkAnalysis(t *testing.T, g *grammar.Grammar, prev snapshot, since uint64, step string) snapshot {
	t.Helper()
	a := g.Analysis()
	want := scratchAnalysis(g)
	if a.Version() != g.Version() {
		t.Fatalf("%s: analysis at version %d, grammar at %d", step, a.Version(), g.Version())
	}
	movedFirst := map[grammar.Symbol]bool{}
	for _, n := range a.FirstMovedSince(since, nil) {
		movedFirst[n] = true
	}
	movedFollow := map[grammar.Symbol]bool{}
	for _, n := range a.FollowMovedSince(since, nil) {
		movedFollow[n] = true
	}
	syms := g.Symbols()
	for _, n := range syms.Nonterminals() {
		name := syms.Name(n)
		if !a.First(n).Equal(want.first[n]) {
			t.Fatalf("%s: FIRST(%s) = %v, want %v", step, name, names(syms, a.First(n)), names(syms, want.first[n]))
		}
		if a.Nullable(n) != want.null.Has(n) {
			t.Fatalf("%s: nullable(%s) = %v, want %v", step, name, a.Nullable(n), want.null.Has(n))
		}
		if !a.Follow(n).Equal(want.follow[n]) {
			t.Fatalf("%s: FOLLOW(%s) = %v, want %v", step, name, names(syms, a.Follow(n)), names(syms, want.follow[n]))
		}
		if prev.first == nil {
			continue
		}
		if (!prev.first[n].Equal(want.first[n]) || prev.null.Has(n) != want.null.Has(n)) && !movedFirst[n] {
			t.Fatalf("%s: FIRST/nullable of %s moved but is not reported", step, name)
		}
		if !prev.follow[n].Equal(want.follow[n]) && !movedFollow[n] {
			t.Fatalf("%s: FOLLOW(%s) moved but is not reported", step, name)
		}
	}
	return want
}

func names(syms *grammar.SymbolTable, b grammar.Bitset) []string {
	var out []string
	for _, s := range b.Symbols() {
		out = append(out, syms.Name(s))
	}
	return out
}

// editGrammar applies one random rule modification: a deletion of an
// existing rule, or an addition over the grammar's symbols plus a few
// fresh ones, epsilon rules included. It reports the modification.
func editGrammar(g *grammar.Grammar, rng *rand.Rand) string {
	syms := g.Symbols()
	rules := g.Rules()
	if len(rules) > 1 && rng.Intn(2) == 0 {
		r := rules[rng.Intn(len(rules))]
		if _, err := g.DeleteRule(r); err != nil {
			panic(err)
		}
		return "delete " + r.String(syms)
	}
	var nts, all []grammar.Symbol
	for _, s := range syms.Symbols() {
		if s == grammar.EOF || s == g.Start() {
			continue
		}
		all = append(all, s)
		if syms.Kind(s) == grammar.Nonterminal {
			nts = append(nts, s)
		}
	}
	fresh := rng.Intn(4)
	nts = append(nts, syms.MustIntern(fmt.Sprintf("FZ%d", fresh), grammar.Nonterminal))
	all = append(all, nts[len(nts)-1], syms.MustIntern(fmt.Sprintf("fz%d", fresh), grammar.Terminal))
	lhs := nts[rng.Intn(len(nts))]
	if rng.Intn(8) == 0 {
		lhs = g.Start()
	}
	var rhs []grammar.Symbol
	if rng.Intn(6) != 0 {
		rhs = make([]grammar.Symbol, 1+rng.Intn(3))
		for i := range rhs {
			rhs[i] = all[rng.Intn(len(all))]
		}
	}
	r := grammar.NewRule(lhs, rhs...)
	if g.Has(r) {
		return "no-op"
	}
	if err := g.AddRule(r); err != nil {
		panic(err)
	}
	return "add " + r.String(syms)
}

// runAnalysisEdits drives a random edit sequence on g, checking the
// analysis after every step, or with batched set after batches of one
// to three steps (the analysis then folds several modifications, adds
// and deletes mixed, into one update).
func runAnalysisEdits(t *testing.T, g *grammar.Grammar, rng *rand.Rand, steps int, batched bool) {
	t.Helper()
	prev := checkAnalysis(t, g, snapshot{}, 0, "initial")
	since := g.Version()
	for i := 0; i < steps; {
		batch := 1
		if batched {
			batch += rng.Intn(3)
		}
		var did []string
		for j := 0; j < batch && i < steps; j++ {
			did = append(did, editGrammar(g, rng))
			i++
		}
		prev = checkAnalysis(t, g, prev, since, strings.Join(did, "; "))
		since = g.Version()
	}
}

// FuzzGrammarAnalysis checks the incremental FIRST/nullable/FOLLOW
// analysis against a from-scratch fixpoint after every step of random
// add/delete sequences, on the testdata grammars and on random ones,
// and checks that every set that moved is reported to the tables that
// repair from it.
func FuzzGrammarAnalysis(f *testing.F) {
	for i := range analysisFixtures {
		f.Add(int64(i), uint8(i), uint8(12))
	}
	f.Add(int64(7), uint8(200), uint8(30))
	f.Add(int64(99), uint8(255), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, pick, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		var g *grammar.Grammar
		if fx := loadFixtures(t); int(pick) < len(fx) {
			g = fx[pick].Clone()
		} else {
			g = grammar.Random(grammar.RandConfig{
				Nonterminals: 2 + rng.Intn(5),
				Terminals:    1 + rng.Intn(4),
				Rules:        3 + rng.Intn(10),
				StartRules:   1 + rng.Intn(2),
				EpsilonProb:  0.25,
			}, rng)
		}
		runAnalysisEdits(t, g, rng, int(steps%48), false)
	})
}

// TestAnalysisRandomEdits is the fuzzer's deterministic sweep: every
// fixture and a spread of random grammars through seeded edit runs,
// checked after every step and after batches of steps.
func TestAnalysisRandomEdits(t *testing.T) {
	fx := loadFixtures(t)
	for i, g := range fx {
		t.Run(analysisFixtures[i], func(t *testing.T) {
			runAnalysisEdits(t, g.Clone(), rand.New(rand.NewSource(int64(i))), 24, false)
			runAnalysisEdits(t, g.Clone(), rand.New(rand.NewSource(int64(i))), 24, true)
		})
	}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := grammar.Random(grammar.RandConfig{
			Nonterminals: 2 + int(seed%5),
			Terminals:    1 + int(seed%4),
			Rules:        3 + int(seed%9),
			StartRules:   1 + int(seed%2),
			EpsilonProb:  0.25,
		}, rng)
		runAnalysisEdits(t, g, rng, 30, seed%2 == 0)
	}
}

// TestAnalysisUpdateIsLocal pins the cost property: a rule added to one
// of two disjoint sub-grammars re-analyses only that half.
func TestAnalysisUpdateIsLocal(t *testing.T) {
	var b strings.Builder
	b.WriteString("START ::= A0 | B0\n")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "A%d ::= \"a\" A%d | \"x\"\nB%d ::= \"b\" B%d | \"y\"\n", i, i+1, i, i+1)
	}
	b.WriteString("A20 ::= \"x\"\nB20 ::= \"y\"\n")
	g := grammar.MustParse(b.String())
	a := g.Analysis()
	a.Follow(g.Start())
	syms := g.Symbols()
	a20 := syms.MustIntern("A20", grammar.Nonterminal)
	before := a.Work()
	if err := g.AddRule(grammar.NewRule(a20, syms.MustIntern("z", grammar.Terminal))); err != nil {
		t.Fatal(err)
	}
	work := g.Analysis().Work() - before
	if work == 0 || work > 4 {
		t.Fatalf("adding A20 ::= z re-analysed %d nonterminals, want 1..4", work)
	}
	before = a.Work()
	if _, err := g.DeleteRule(grammar.NewRule(a20, syms.MustIntern("z", grammar.Terminal))); err != nil {
		t.Fatal(err)
	}
	if work := g.Analysis().Work() - before; work == 0 || work > 4 {
		t.Fatalf("deleting A20 ::= z re-analysed %d nonterminals, want 1..4", work)
	}
	checkAnalysis(t, g, snapshot{}, 0, "after edits")
}
