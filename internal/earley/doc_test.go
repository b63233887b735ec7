package earley

import (
	"math/rand"
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/grammar"
)

// docChartEqual asserts the doc's retained chart is byte-identical to
// the chart a from-scratch parse of the same tokens builds.
func docChartEqual(t *testing.T, d *Doc, p *Parser) {
	t.Helper()
	w := new(Workspace)
	pr := p.program()
	p.run(pr, d.tokens, w, d.buildTrees, 0, nil)
	if len(w.items) != len(d.w.items) || len(w.bounds) != len(d.w.bounds) {
		t.Fatalf("chart shape diverged: doc %d items/%d bounds, fresh %d/%d",
			len(d.w.items), len(d.w.bounds), len(w.items), len(w.bounds))
	}
	for i := range w.items {
		if w.items[i] != d.w.items[i] {
			t.Fatalf("item %d diverged: doc %+v, fresh %+v", i, d.w.items[i], w.items[i])
		}
	}
	for i := range w.bounds {
		if w.bounds[i] != d.w.bounds[i] {
			t.Fatalf("bound %d diverged: doc %d, fresh %d", i, d.w.bounds[i], w.bounds[i])
		}
	}
}

// TestDocSpliceMatchesFresh drives random splices through a document
// session and checks every reparse — result, diagnostics, chart and
// rendered forest — against a from-scratch parse of the edited text.
// parenBooleans extends the Fig 4.1(a) booleans with grouping, giving
// edits a nested constituent structure to damage.
func parenBooleans() *grammar.Grammar {
	return grammar.MustParse(`
B ::= "true"
B ::= "false"
B ::= B "or" B
B ::= B "and" B
B ::= "(" B ")"
START ::= B
`)
}

func TestDocSpliceMatchesFresh(t *testing.T) {
	g := parenBooleans()
	p := New(g)
	vocab := []grammar.Symbol{}
	for _, name := range []string{"true", "false", "and", "or", "(", ")"} {
		s, ok := g.Symbols().Lookup(name)
		if !ok {
			t.Fatalf("missing terminal %q", name)
		}
		vocab = append(vocab, s)
	}
	rng := rand.New(rand.NewSource(7))
	d := p.OpenDoc(fixtures.Tokens(g, "true or false and true"), true)
	for step := 0; step < 200; step++ {
		at := rng.Intn(d.Len() + 1)
		remove := 0
		if at < d.Len() {
			remove = rng.Intn(d.Len() - at + 1)
		}
		insert := make([]grammar.Symbol, rng.Intn(4))
		for i := range insert {
			insert[i] = vocab[rng.Intn(len(vocab))]
		}
		if d.Len()-remove+len(insert) > 64 {
			insert = insert[:0]
		}
		if err := d.Splice(at, remove, insert); err != nil {
			t.Fatalf("step %d: splice(%d,%d,%d tokens): %v", step, at, remove, len(insert), err)
		}
		got, _ := d.Reparse(nil)
		want, err := p.Parse(d.Tokens(), &Options{BuildTrees: true})
		if err != nil {
			t.Fatalf("step %d: fresh parse: %v", step, err)
		}
		if got.Accepted != want.Accepted || got.ErrorPos != want.ErrorPos ||
			got.Stats.Items != want.Stats.Items {
			t.Fatalf("step %d (at=%d remove=%d ins=%d): doc %+v, fresh %+v",
				step, at, remove, len(insert), got, want)
		}
		docChartEqual(t, d, p)
		if want.Accepted {
			tree, err := d.Tree(nil)
			if err != nil {
				t.Fatalf("step %d: doc tree: %v", step, err)
			}
			dc, err1 := forest.TreeCount(tree.Root)
			fc, err2 := forest.TreeCount(want.Root)
			if err1 != nil || err2 != nil || dc != fc {
				t.Fatalf("step %d: tree counts %v (%v) vs %v (%v)", step, dc, err1, fc, err2)
			}
			if ds, fs := forest.String(tree.Root, g.Symbols()), forest.String(want.Root, g.Symbols()); ds != fs {
				t.Fatalf("step %d: forests diverge:\ndoc:   %s\nfresh: %s", step, ds, fs)
			}
		}
	}
}

// TestDocPrefixReuseAccounting pins the damage/reuse invariant: after a
// splice at token k, every item set strictly left of the resume point
// is kept verbatim (not re-expanded), and the reuse counters say so.
func TestDocPrefixReuseAccounting(t *testing.T) {
	g := parenBooleans()
	p := New(g)
	toks := fixtures.Tokens(g, "true or false and true or ( false ) and true")
	trueSym, _ := g.Symbols().Lookup("true")
	falseSym, _ := g.Symbols().Lookup("false")

	for k := 0; k < len(toks); k++ {
		d := p.OpenDoc(toks, false)
		d.Reparse(nil)
		prevSets := d.Stats().Sets
		prefix := append([]item(nil), d.w.items[:d.w.bounds[min(k+1, prevSets)]]...)

		repl := trueSym
		if toks[k] == trueSym {
			repl = falseSym
		}
		if err := d.Splice(k, 1, []grammar.Symbol{repl}); err != nil {
			t.Fatal(err)
		}
		d.Reparse(nil)
		st := d.Stats()
		wantReused := min(k, prevSets-1) + 1
		if st.LastReused != wantReused {
			t.Fatalf("k=%d: LastReused = %d, want %d", k, st.LastReused, wantReused)
		}
		if st.LastRebuilt != st.Sets-wantReused {
			t.Fatalf("k=%d: LastRebuilt = %d, want %d", k, st.LastRebuilt, st.Sets-wantReused)
		}
		for i, it := range prefix {
			if d.w.items[i] != it {
				t.Fatalf("k=%d: reused item %d was rewritten: %+v vs %+v", k, i, d.w.items[i], it)
			}
		}
		docChartEqual(t, d, p)
	}
}

// TestDocCleanReparseExpandsNothing: two consecutive reparses with no
// edit in between must not re-expand any set.
func TestDocCleanReparseExpandsNothing(t *testing.T) {
	g := fixtures.Booleans()
	p := New(g)
	d := p.OpenDoc(fixtures.Tokens(g, "true or false and true"), false)
	first, _ := d.Reparse(nil)
	rebuilt := d.Stats().SetsRebuilt
	second, _ := d.Reparse(nil)
	st := d.Stats()
	if st.SetsRebuilt != rebuilt {
		t.Fatalf("clean reparse rebuilt %d sets", st.SetsRebuilt-rebuilt)
	}
	if st.LastRebuilt != 0 || st.LastReused != st.Sets {
		t.Fatalf("clean reparse accounting: LastReused=%d LastRebuilt=%d (sets=%d)",
			st.LastReused, st.LastRebuilt, st.Sets)
	}
	if first.Accepted != second.Accepted || first.Stats != second.Stats {
		t.Fatalf("clean reparse changed the result: %+v vs %+v", first, second)
	}
}

// TestDocEditReparseAllocFree: a warm same-length edit plus reparse on
// a warm session performs no heap allocation.
func TestDocEditReparseAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	g := parenBooleans()
	p := New(g)
	toks := fixtures.Tokens(g, "true or false and true or ( false ) and true")
	trueSym, _ := g.Symbols().Lookup("true")
	falseSym, _ := g.Symbols().Lookup("false")
	d := p.OpenDoc(toks, false)
	d.Reparse(nil)
	at := len(toks) - 1
	repl := [2][]grammar.Symbol{{trueSym}, {falseSym}}
	i := 0
	// Warm both replacement charts before measuring.
	for ; i < 4; i++ {
		if err := d.Splice(at, 1, repl[i%2]); err != nil {
			t.Fatal(err)
		}
		d.Reparse(nil)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.Splice(at, 1, repl[i%2]); err != nil {
			t.Fatal(err)
		}
		if res, _ := d.Reparse(nil); !res.Accepted {
			t.Fatal("edited document rejected")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm 1-token edit reparse: %.1f allocs/op, want 0", allocs)
	}
}

// TestDocGrammarChangeForcesFullReparse: a rule update invalidates the
// retained chart; the next reparse starts from set 0 and reflects the
// new grammar.
func TestDocGrammarChangeForcesFullReparse(t *testing.T) {
	g := grammar.MustParse(`
START ::= E
E ::= E "+" "x" | "x"
`)
	p := New(g)
	d := p.OpenDoc(fixtures.Tokens(g, "x + x"), false)
	if res, _ := d.Reparse(nil); !res.Accepted {
		t.Fatal("baseline rejected")
	}
	g.Symbols().MustIntern("y", grammar.Terminal)
	mod, err := grammar.Parse(`E ::= "y"`, g.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddAll(mod); err != nil {
		t.Fatal(err)
	}
	p.Refresh()
	ySym, _ := g.Symbols().Lookup("y")
	if err := d.Splice(0, 1, []grammar.Symbol{ySym}); err != nil {
		t.Fatal(err)
	}
	full := d.Stats().FullReparses
	if res, _ := d.Reparse(nil); !res.Accepted {
		t.Fatal("'y + x' rejected after rule update")
	}
	if d.Stats().FullReparses != full+1 {
		t.Fatal("grammar change did not force a full reparse")
	}
	docChartEqual(t, d, p)
}

// TestDocTreePrefixNodesShared: an edit right of a constituent must
// hand back the very same forest node for it (pointer identity), the
// incremental analogue of SPPF sharing.
func TestDocTreePrefixNodesShared(t *testing.T) {
	g := parenBooleans()
	p := New(g)
	toks := fixtures.Tokens(g, "( true or false ) and true or true")
	falseSym, _ := g.Symbols().Lookup("false")
	d := p.OpenDoc(toks, true)
	res, err := d.Tree(nil)
	if err != nil || !res.Accepted {
		t.Fatalf("baseline: %v accepted=%v", err, res.Accepted)
	}
	// The parenthesized group spans tokens [0,5): find its memo node.
	var before *forest.Node
	var key span
	for k, n := range d.b.memo {
		if k.i == 0 && k.j == 5 {
			before, key = n, k
			break
		}
	}
	if before == nil {
		t.Fatal("no memoized node spans the parenthesized prefix")
	}
	if err := d.Splice(len(toks)-1, 1, []grammar.Symbol{falseSym}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Tree(nil); err != nil {
		t.Fatal(err)
	}
	if after := d.b.memo[key]; after != before {
		t.Fatalf("prefix node rebuilt: %p -> %p", before, after)
	}
}

// TestDocSpliceRejectsBadOffsets pins the validation surface.
func TestDocSpliceRejectsBadOffsets(t *testing.T) {
	g := fixtures.Booleans()
	p := New(g)
	d := p.OpenDoc(fixtures.Tokens(g, "true or false"), false)
	for _, tc := range []struct{ at, remove int }{
		{-1, 0}, {0, -1}, {4, 0}, {0, 4}, {2, 2},
	} {
		if err := d.Splice(tc.at, tc.remove, nil); err == nil {
			t.Errorf("Splice(%d,%d) accepted out-of-range edit", tc.at, tc.remove)
		}
	}
	if err := d.Splice(0, 0, []grammar.Symbol{grammar.EOF}); err == nil {
		t.Error("Splice accepted an end-marker insertion")
	}
	if d.Len() != 3 {
		t.Fatalf("failed splices mutated the document: len=%d", d.Len())
	}
}
