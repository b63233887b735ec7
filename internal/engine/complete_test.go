// Completion-engine tests: cross-engine accept-set parity (the four
// backends must answer identical "what may come next" sets, since all
// four recognize the same language), checkpoint/restore semantics,
// staleness on grammar modification, and the Earley-vs-LALR fuzz
// differential. The allocation pins live in complete_alloc_test.go.
package engine_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipg/internal/engine"
	"ipg/internal/fixtures"
	"ipg/internal/grammar"
	"ipg/internal/harness"
	"ipg/internal/sdf"
)

// completeEngines builds one engine per kind on the shared grammar.
func completeEngines(t testing.TB, g *grammar.Grammar, kinds ...engine.Kind) map[string]engine.Engine {
	t.Helper()
	out := make(map[string]engine.Engine, len(kinds))
	for _, k := range kinds {
		e, err := engine.New(k, g)
		if err != nil {
			t.Fatalf("engine %v: %v", k, err)
		}
		out[k.String()] = e
	}
	return out
}

// feedStep feeds tokens to c as one guarded cursor step, returning the
// index of the token that failed, or -1.
func feedStep(c engine.Cursor, tokens []grammar.Symbol) (int, error) {
	res, err := engine.ParseGuarded(&engine.CursorStep{Cursor: c, Restore: -1}, tokens, false, nil, nil)
	return res.ErrorPos, err
}

// acceptNames renders c's accept set as a deterministic string (names in
// bit order), failing the test on cursor errors.
func acceptNames(t testing.TB, name string, c engine.Cursor, set *engine.TermSet) string {
	t.Helper()
	if err := c.Accepts(set); err != nil {
		t.Fatalf("%s: Accepts at pos %d: %v", name, c.Pos(), err)
	}
	return strings.Join(set.AppendNames(nil), " ")
}

// parityStep asserts every open cursor answers the same accept set and
// returns it (as the name string plus one representative TermSet).
func parityStep(t *testing.T, cursors map[string]engine.Cursor, sets map[string]*engine.TermSet) string {
	t.Helper()
	want, ref := "", ""
	for name, c := range cursors {
		got := acceptNames(t, name, c, sets[name])
		if ref == "" {
			want, ref = got, name
			continue
		}
		if got != want {
			t.Fatalf("accept-set divergence at pos %d:\n  %s: {%s}\n  %s: {%s}",
				c.Pos(), ref, want, name, got)
		}
	}
	return want
}

// parityWalk feeds tokens through cursors on every engine, asserting
// accept-set parity before each step and that each fed token was in the
// predicted set.
func parityWalk(t *testing.T, engines map[string]engine.Engine, tokens []grammar.Symbol) {
	t.Helper()
	cursors := map[string]engine.Cursor{}
	sets := map[string]*engine.TermSet{}
	for name, e := range engines {
		c, rej, err := engine.OpenCursor(e, nil)
		if err != nil {
			t.Fatalf("%s: OpenCursor: rej=%d %v", name, rej, err)
		}
		defer c.Close()
		cursors[name] = c
		sets[name] = new(engine.TermSet)
	}
	for i, tok := range tokens {
		if tok == grammar.EOF && i == len(tokens)-1 {
			break
		}
		parityStep(t, cursors, sets)
		for name, c := range cursors {
			if !sets[name].Has(tok) {
				t.Fatalf("%s: token %d not in accept set but sentence is valid", name, i)
			}
			if err := c.Feed(tok); err != nil {
				t.Fatalf("%s: Feed token %d: %v", name, i, err)
			}
		}
	}
	// The full sentence is in the language: EOF must be accepted.
	for name, c := range cursors {
		acceptNames(t, name, c, sets[name])
		if !sets[name].Has(grammar.EOF) {
			t.Errorf("%s: EOF not accepted after complete sentence", name)
		}
	}
}

func TestCompleteCaps(t *testing.T) {
	for _, k := range engine.Kinds() {
		if !engine.CapsOf(k).Complete {
			t.Errorf("CapsOf(%v).Complete = false", k)
		}
	}
	g := guardFixture(t, "CalcLL.bnf")
	for name, e := range completeEngines(t, g, engine.KindGLR, engine.KindLALR, engine.KindLL, engine.KindEarley, engine.KindAuto) {
		if !e.Caps().Complete {
			t.Errorf("%s: Caps().Complete = false", name)
		}
	}
}

func TestAcceptSetParityDeterministic(t *testing.T) {
	sentences := []string{
		"n",
		"( ( n ) )",
		"n + n * ( n - n ) / n",
		"n * n * n + n",
	}
	// The factored grammar is in every backend's scope.
	ll := guardFixture(t, "CalcLL.bnf")
	llEngines := completeEngines(t, ll, engine.KindGLR, engine.KindLALR, engine.KindLL, engine.KindEarley)
	// The left-recursive variant excludes LL but adds the auto path.
	det := guardFixture(t, "CalcDet.bnf")
	detEngines := completeEngines(t, det, engine.KindGLR, engine.KindLALR, engine.KindEarley, engine.KindAuto)
	for _, s := range sentences {
		parityWalk(t, llEngines, fixtures.Tokens(ll, s))
		parityWalk(t, detEngines, fixtures.Tokens(det, s))
	}
}

// TestAcceptSetParityCrossGrammar pins the language-level claim: the
// stratified and the factored calculator accept the same language, so
// at every prefix position their accept sets must agree by name even
// though the grammars (and engines) differ.
func TestAcceptSetParityCrossGrammar(t *testing.T) {
	det := guardFixture(t, "CalcDet.bnf")
	ll := guardFixture(t, "CalcLL.bnf")
	detEng := completeEngines(t, det, engine.KindLALR)["lalr"]
	llEng := completeEngines(t, ll, engine.KindLL)["ll"]
	sentence := "n + n * ( n - n ) / n"
	detC, _, err := engine.OpenCursor(detEng, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer detC.Close()
	llC, _, err := engine.OpenCursor(llEng, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer llC.Close()
	var detSet, llSet engine.TermSet
	detToks, llToks := fixtures.Tokens(det, sentence), fixtures.Tokens(ll, sentence)
	for i := range detToks {
		a := acceptNames(t, "lalr/CalcDet", detC, &detSet)
		b := acceptNames(t, "ll/CalcLL", llC, &llSet)
		if a != b {
			t.Fatalf("cross-grammar divergence at pos %d: det {%s} vs ll {%s}", i, a, b)
		}
		if err := detC.Feed(detToks[i]); err != nil {
			t.Fatal(err)
		}
		if err := llC.Feed(llToks[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAcceptSetParityRandomWalks drives all four backends down random
// viable prefixes chosen from the accept sets themselves, probing one
// rejected terminal per step for rejection parity.
func TestAcceptSetParityRandomWalks(t *testing.T) {
	g := guardFixture(t, "CalcLL.bnf")
	engines := completeEngines(t, g, engine.KindGLR, engine.KindLALR, engine.KindLL, engine.KindEarley)
	vocab := engine.NewVocab(g)
	const walks, depth = 8, 24
	for w := 0; w < walks; w++ {
		cursors := map[string]engine.Cursor{}
		sets := map[string]*engine.TermSet{}
		for name, e := range engines {
			c, _, err := engine.OpenCursor(e, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cursors[name] = c
			sets[name] = new(engine.TermSet)
		}
		rng := uint32(w*2654435761 + 12345)
		next := func(n int) int {
			rng = rng*1664525 + 1013904223
			return int(rng>>16) % n
		}
		for step := 0; step < depth; step++ {
			parityStep(t, cursors, sets)
			ref := sets["glr"]
			var in, out []grammar.Symbol
			for _, term := range vocab.Terms() {
				if term == grammar.EOF {
					continue
				}
				if ref.Has(term) {
					in = append(in, term)
				} else {
					out = append(out, term)
				}
			}
			// Rejection parity: a terminal outside the set must be
			// refused by every backend without moving the cursor.
			if len(out) > 0 {
				bad := out[next(len(out))]
				for name, c := range cursors {
					pos := c.Pos()
					if err := c.Feed(bad); !errors.Is(err, engine.ErrRejected) {
						t.Fatalf("%s: Feed(rejected %q) err = %v, want ErrRejected",
							name, g.Symbols().Name(bad), err)
					}
					if c.Pos() != pos {
						t.Fatalf("%s: rejected Feed moved cursor %d -> %d", name, pos, c.Pos())
					}
				}
			}
			if len(in) == 0 {
				break // only EOF remains; the walk is a complete sentence
			}
			tok := in[next(len(in))]
			for name, c := range cursors {
				if err := c.Feed(tok); err != nil {
					t.Fatalf("%s: Feed accepted token: %v", name, err)
				}
			}
		}
		for _, c := range cursors {
			c.Close()
		}
	}
}

// TestAcceptSetParityAmbiguous runs parity on an ambiguous grammar: the
// GSS frontier (GLR and the LALR automaton view) and the Earley chart
// must agree even when the prefix has many derivations.
func TestAcceptSetParityAmbiguous(t *testing.T) {
	g, err := grammar.Parse("START ::= E\nE ::= E \"+\" E | \"n\"", nil)
	if err != nil {
		t.Fatal(err)
	}
	engines := completeEngines(t, g, engine.KindGLR, engine.KindLALR, engine.KindEarley)
	parityWalk(t, engines, fixtures.Tokens(g, "n + n + n + n"))
}

// TestAcceptSetParitySDF walks a prefix of the paper's own workload —
// an SDF definition under the bootstrap grammar — through the three
// general backends.
func TestAcceptSetParitySDF(t *testing.T) {
	g := sdf.MustBootstrapGrammar()
	inputs, err := harness.LoadInputs("../../testdata", g)
	if err != nil {
		t.Fatal(err)
	}
	tokens := inputs[0].Tokens // exp.sdf, the smallest of Fig 7.1
	if len(tokens) > 48 {
		tokens = tokens[:48]
	}
	engines := completeEngines(t, g, engine.KindGLR, engine.KindLALR, engine.KindEarley)
	cursors := map[string]engine.Cursor{}
	sets := map[string]*engine.TermSet{}
	for name, e := range engines {
		c, _, err := engine.OpenCursor(e, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer c.Close()
		cursors[name] = c
		sets[name] = new(engine.TermSet)
	}
	for i, tok := range tokens {
		if tok == grammar.EOF {
			break
		}
		parityStep(t, cursors, sets)
		for name, c := range cursors {
			if !sets[name].Has(tok) {
				t.Fatalf("%s: exp.sdf token %d not in accept set", name, i)
			}
			if err := c.Feed(tok); err != nil {
				t.Fatalf("%s: Feed exp.sdf token %d: %v", name, i, err)
			}
		}
	}
}

func TestCursorCheckpointRestore(t *testing.T) {
	g := guardFixture(t, "CalcLL.bnf")
	for name, e := range completeEngines(t, g, engine.KindGLR, engine.KindLALR, engine.KindLL, engine.KindEarley) {
		t.Run(name, func(t *testing.T) {
			c, rej, err := engine.OpenCursor(e, fixtures.Tokens(g, "n +"))
			if err != nil {
				t.Fatalf("OpenCursor: rej=%d %v", rej, err)
			}
			defer c.Close()
			var set engine.TermSet
			atMark := acceptNames(t, name, c, &set)
			cp := c.Checkpoint()
			if cp != 2 {
				t.Fatalf("Checkpoint = %d, want 2", cp)
			}
			if n, err := feedStep(c, fixtures.Tokens(g, "n * n")); err != nil {
				t.Fatalf("feed: token %d: %v", n, err)
			}
			if c.Pos() != 5 {
				t.Fatalf("Pos = %d, want 5", c.Pos())
			}
			if got := acceptNames(t, name, c, &set); got == atMark {
				t.Fatalf("accept set unchanged after feeding — {%s}", got)
			}
			if err := c.Restore(cp); err != nil {
				t.Fatalf("Restore(%d): %v", cp, err)
			}
			if got := acceptNames(t, name, c, &set); got != atMark {
				t.Fatalf("after Restore: {%s}, want {%s}", got, atMark)
			}
			// The restored cursor must advance again.
			if n, err := feedStep(c, fixtures.Tokens(g, "n")); err != nil {
				t.Fatalf("re-feed after Restore: token %d: %v", n, err)
			}
			// Rewind to the empty prefix, then out-of-range restores.
			if err := c.Restore(0); err != nil {
				t.Fatalf("Restore(0): %v", err)
			}
			if c.Pos() != 0 {
				t.Fatalf("Pos after Restore(0) = %d", c.Pos())
			}
			if err := c.Restore(5); err == nil || errors.Is(err, engine.ErrCursorStale) {
				t.Fatalf("Restore(future) err = %v, want out-of-range error", err)
			}
			if err := c.Restore(-1); err == nil {
				t.Fatal("Restore(-1) succeeded")
			}
		})
	}
}

func TestCursorStaleAfterRuleUpdate(t *testing.T) {
	for name, kind := range map[string]engine.Kind{
		"glr": engine.KindGLR, "lalr": engine.KindLALR,
		"ll": engine.KindLL, "earley": engine.KindEarley,
	} {
		t.Run(name, func(t *testing.T) {
			g := guardFixture(t, "CalcLL.bnf")
			e, err := engine.New(kind, g)
			if err != nil {
				t.Fatal(err)
			}
			c, _, err := engine.OpenCursor(e, fixtures.Tokens(g, "n +"))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// F ::= "id" keeps the grammar LL(1): the new alternative
			// starts with a fresh terminal.
			mod, err := grammar.Parse(`F ::= "id"`, g.Symbols())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddRule(mod.Rules()[0]); err != nil {
				t.Fatal(err)
			}
			var set engine.TermSet
			if err := c.Accepts(&set); !errors.Is(err, engine.ErrCursorStale) {
				t.Fatalf("Accepts after AddRule err = %v, want ErrCursorStale", err)
			}
			if err := c.Feed(fixtures.Tokens(g, "n")[0]); !errors.Is(err, engine.ErrCursorStale) {
				t.Fatalf("Feed after AddRule err = %v, want ErrCursorStale", err)
			}
			// A fresh cursor sees the new grammar: "id" is now viable.
			c2, _, err := engine.OpenCursor(e, fixtures.Tokens(g, "n +"))
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if err := c2.Feed(fixtures.Tokens(g, "id")[0]); err != nil {
				t.Fatalf("fresh cursor Feed(id): %v", err)
			}
		})
	}
}

// TestAutoCursorKeepsBackendAcrossUpdates is the verdict-crossing case
// of the staleness contract. Each case names how a rule update moves a
// fresh probe's verdict across the LALR(1) boundary; auto's engine
// keeps the backend it was built on, a cursor opened before the update
// refuses with ErrCursorStale, and a fresh cursor opens and feeds.
func TestAutoCursorKeepsBackendAcrossUpdates(t *testing.T) {
	for _, c := range []struct {
		name string
		kind engine.Kind
		add  bool
	}{
		{"lalr to glr", engine.KindLALR, true},
		{"glr to lalr", engine.KindGLR, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := guardFixture(t, "CalcDet.bnf")
			mod, err := grammar.Parse(`E ::= E "+" E`, g.Symbols())
			if err != nil {
				t.Fatal(err)
			}
			ambiguous := mod.Rules()[0]
			if !c.add {
				if err := g.AddRule(ambiguous); err != nil {
					t.Fatal(err)
				}
			}
			e := engine.NewAuto(g)
			if e.Kind() != c.kind {
				t.Fatalf("auto serves %v, want %v", e.Kind(), c.kind)
			}
			cur, _, err := engine.OpenCursor(e, fixtures.Tokens(g, "n +"))
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			if c.add {
				err = e.AddRule(ambiguous)
			} else {
				err = e.DeleteRule(ambiguous)
			}
			if err != nil {
				t.Fatal(err)
			}
			if e.Kind() != c.kind {
				t.Fatalf("auto serves %v after the update, want %v still", e.Kind(), c.kind)
			}
			var set engine.TermSet
			if err := cur.Accepts(&set); !errors.Is(err, engine.ErrCursorStale) {
				t.Fatalf("Accepts after the update err = %v, want ErrCursorStale", err)
			}
			if err := cur.Feed(fixtures.Tokens(g, "n")[0]); !errors.Is(err, engine.ErrCursorStale) {
				t.Fatalf("Feed after the update err = %v, want ErrCursorStale", err)
			}
			fresh, _, err := engine.OpenCursor(e, fixtures.Tokens(g, "n +"))
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if err := fresh.Feed(fixtures.Tokens(g, "n")[0]); err != nil {
				t.Fatalf("fresh cursor Feed(n): %v", err)
			}
		})
	}
}

// TestCursorStepMaxPos pins where a cursor step checks its position
// bound: after the restore, before the feed. A feed that would pass
// MaxPos feeds nothing and leaves the cursor at the restored position.
func TestCursorStepMaxPos(t *testing.T) {
	g := guardFixture(t, "CalcLL.bnf")
	for name, e := range completeEngines(t, g, engine.KindGLR, engine.KindLALR, engine.KindLL, engine.KindEarley) {
		c, _, err := engine.OpenCursor(e, fixtures.Tokens(g, "n +"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		step := &engine.CursorStep{Cursor: c, Restore: 1, MaxPos: 3}
		if _, err := engine.ParseGuarded(step, fixtures.Tokens(g, "* n"), false, nil, nil); err != nil || c.Pos() != 3 {
			t.Fatalf("%s: restore to 1 and feed 2 under MaxPos 3: %v at pos %d", name, err, c.Pos())
		}
		_, err = engine.ParseGuarded(step, fixtures.Tokens(g, "* n *"), false, nil, nil)
		if !errors.Is(err, engine.ErrPrefixTooLong) || step.Fed != 0 || c.Pos() != 1 {
			t.Fatalf("%s: restore to 1 and feed 3 under MaxPos 3: %v, fed %d at pos %d; want ErrPrefixTooLong, nothing fed at pos 1",
				name, err, step.Fed, c.Pos())
		}
		c.Close()
	}
}

func TestOneShotAccepts(t *testing.T) {
	g := guardFixture(t, "CalcDet.bnf")
	e, err := engine.New(engine.KindLALR, g)
	if err != nil {
		t.Fatal(err)
	}
	var set engine.TermSet
	accepts := func(prefix []grammar.Symbol) (int, error) {
		c, rej, err := engine.OpenCursor(e, prefix)
		if err != nil {
			return rej, err
		}
		defer c.Close()
		return -1, c.Accepts(&set)
	}
	if rej, err := accepts(fixtures.Tokens(g, "n + ( n")); err != nil || rej != -1 {
		t.Fatalf("Accepts(viable) = %d, %v", rej, err)
	}
	for _, want := range []string{")", "+", "*"} {
		sym, _ := g.Symbols().Lookup(want)
		if !set.Has(sym) {
			t.Errorf("accept set after 'n + ( n' misses %q: {%s}", want, strings.Join(set.AppendNames(nil), " "))
		}
	}
	if set.Has(grammar.EOF) {
		t.Error("EOF accepted inside parentheses")
	}
	// A trailing end marker in the prefix is tolerated.
	if rej, err := accepts(append(fixtures.Tokens(g, "n"), grammar.EOF)); err != nil || rej != -1 {
		t.Fatalf("Accepts(with end marker) = %d, %v", rej, err)
	}
	if !set.Has(grammar.EOF) {
		t.Error("EOF not accepted after complete sentence")
	}
	// Non-viable prefix: the reject position indexes the offending token.
	if rej, err := accepts(fixtures.Tokens(g, "n + ) n")); !errors.Is(err, engine.ErrRejected) || rej != 2 {
		t.Fatalf("Accepts(non-viable) = %d, %v; want 2, ErrRejected", rej, err)
	}
}

func TestTermSetEncoding(t *testing.T) {
	g := guardFixture(t, "CalcDet.bnf")
	v := engine.NewVocab(g)
	// Terminals sorted by name: $ ( ) * + - / n — eight bits, one byte.
	wantNames := []string{"$", "(", ")", "*", "+", "-", "/", "n"}
	if got := strings.Join(v.Names(), " "); got != strings.Join(wantNames, " ") {
		t.Fatalf("vocab = %q", got)
	}
	var set engine.TermSet
	set.Reset(v)
	if set.Count() != 0 || set.Hex() != "00" {
		t.Fatalf("empty set: count=%d hex=%q", set.Count(), set.Hex())
	}
	n, _ := g.Symbols().Lookup("n")
	set.Add(n)
	set.Add(grammar.EOF)
	if set.Count() != 2 || !set.Has(n) || !set.Has(grammar.EOF) {
		t.Fatalf("set after adds: count=%d", set.Count())
	}
	// "n" is bit 7, "$" bit 0: byte 0x81.
	if got := set.Hex(); got != "81" {
		t.Fatalf("Hex = %q, want 81", got)
	}
	if got := strings.Join(set.AppendNames(nil), " "); got != "$ n" {
		t.Fatalf("AppendNames = %q", got)
	}
}

// FuzzAccepts is the Earley-vs-LALR differential: arbitrary byte
// strings map to token streams, and at every step the chart-driven and
// the table-driven accept sets (and accept/reject verdicts) must agree.
func FuzzAccepts(f *testing.F) {
	src, err := grammar.Parse(mustReadFixture(f, "CalcDet.bnf"), nil)
	if err != nil {
		f.Fatal(err)
	}
	vocab := engine.NewVocab(src)
	lalrEng, err := engine.New(engine.KindLALR, src)
	if err != nil {
		f.Fatal(err)
	}
	earleyEng, err := engine.New(engine.KindEarley, src)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("n+n*n"))
	f.Add([]byte("((n))"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("))((nn"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		lc, _, err := engine.OpenCursor(lalrEng, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer lc.Close()
		ec, _, err := engine.OpenCursor(earleyEng, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ec.Close()
		var ls, es engine.TermSet
		terms := vocab.Terms()
		for i, b := range data {
			if err := lc.Accepts(&ls); err != nil {
				t.Fatal(err)
			}
			if err := ec.Accepts(&es); err != nil {
				t.Fatal(err)
			}
			if !ls.Equal(&es) {
				t.Fatalf("step %d: lalr {%s} vs earley {%s}",
					i, strings.Join(ls.AppendNames(nil), " "), strings.Join(es.AppendNames(nil), " "))
			}
			tok := terms[int(b)%len(terms)]
			lerr, eerr := lc.Feed(tok), ec.Feed(tok)
			if (lerr == nil) != (eerr == nil) {
				t.Fatalf("step %d feeding %q: lalr err %v, earley err %v",
					i, src.Symbols().Name(tok), lerr, eerr)
			}
			if lerr != nil {
				if !errors.Is(lerr, engine.ErrRejected) || !errors.Is(eerr, engine.ErrRejected) {
					t.Fatalf("step %d: non-rejection errors %v / %v", i, lerr, eerr)
				}
			}
			if lc.Pos() != ec.Pos() {
				t.Fatalf("step %d: positions diverged %d vs %d", i, lc.Pos(), ec.Pos())
			}
		}
	})
}

// mustReadFixture reads a testdata grammar source for fuzz setup
// (guardFixture wants a full *grammar.Grammar; fuzz setup parses
// against its own symbol table).
func mustReadFixture(f *testing.F, name string) string {
	f.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	return string(src)
}
