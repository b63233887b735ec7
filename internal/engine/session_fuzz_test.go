package engine

import (
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/grammar"
)

// sessionFuzzCtx is one grammar's differential-fuzz setup: a document
// to edit, a splice vocabulary, and the engines whose sessions must
// track a from-scratch parse of the mirror text.
type sessionFuzzCtx struct {
	g       *grammar.Grammar
	engines []Engine
	doc     []grammar.Symbol
	vocab   []grammar.Symbol
	maxLen  int
}

func newSessionFuzzCtxs(tb testing.TB) []sessionFuzzCtx {
	gB := fixtures.Booleans()
	vocabB := make([]grammar.Symbol, 0, 4)
	for _, name := range []string{"true", "false", "or", "and"} {
		vocabB = append(vocabB, gB.Symbols().MustIntern(name, grammar.Terminal))
	}
	gC := loadFixture(tb, "CalcDet.bnf")
	vocabC := make([]grammar.Symbol, 0, 7)
	for _, name := range []string{"n", "+", "-", "*", "/", "(", ")"} {
		vocabC = append(vocabC, gC.Symbols().MustIntern(name, grammar.Terminal))
	}
	mk := func(k Kind, g *grammar.Grammar) Engine {
		e, err := New(k, g)
		if err != nil {
			tb.Fatalf("New(%v): %v", k, err)
		}
		return e
	}
	return []sessionFuzzCtx{
		{
			g:       gB,
			engines: []Engine{mk(KindEarley, gB), mk(KindGLR, gB), mk(KindLALR, gB)},
			doc:     fixtures.Tokens(gB, "true or false and true or true"),
			vocab:   vocabB,
			maxLen:  24,
		},
		{
			g:       gC,
			engines: []Engine{mk(KindEarley, gC), mk(KindLALR, gC), mk(KindGLR, gC)},
			doc:     fixtures.Tokens(gC, "n + n * ( n - n ) / n"),
			vocab:   vocabC,
			maxLen:  40,
		},
	}
}

// spliceMirror applies the splice to the reference token stream.
func spliceMirror(mirror []grammar.Symbol, at, remove int, insert []grammar.Symbol) []grammar.Symbol {
	out := make([]grammar.Symbol, 0, len(mirror)-remove+len(insert))
	out = append(out, mirror[:at]...)
	out = append(out, insert...)
	out = append(out, mirror[at+remove:]...)
	return out
}

// FuzzSessionSplice differentially fuzzes document sessions: byte
// strings decode to splice sequences applied both to a session on every
// engine (incremental Earley, full-reparse GLR/LALR fallbacks) and to a
// plain mirror slice. After every edit, each session's reparse and tree
// must be byte-identical — acceptance, error position, derivation
// count, rendered forest, yield — to a from-scratch parse of the mirror
// by the same engine. CI runs this for 60s and uploads crashers.
func FuzzSessionSplice(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 5})
	f.Add([]byte{9, 2, 0, 1, 1, 1, 4, 0, 2, 250, 3, 3})
	f.Add([]byte{30, 0, 1, 0, 0, 0, 7, 7, 7, 2, 9, 0})

	ctxs := newSessionFuzzCtxs(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		for ci := range ctxs {
			c := &ctxs[ci]
			mirror := append([]grammar.Symbol(nil), c.doc...)
			sessions := make([]Session, len(c.engines))
			for i, e := range c.engines {
				s, err := OpenSession(e, c.doc)
				if err != nil {
					t.Fatalf("open session on %v: %v", e.Kind(), err)
				}
				sessions[i] = s
			}
			ops := data
			for step := 0; len(ops) >= 3 && step < 8; step++ {
				at := int(ops[0]) % (len(mirror) + 1)
				remove := int(ops[1]) % (len(mirror) - at + 1)
				insLen := int(ops[2]) % 4
				if len(mirror)-remove+insLen > c.maxLen {
					insLen = 0
				}
				insert := make([]grammar.Symbol, insLen)
				for k := range insert {
					insert[k] = c.vocab[(int(ops[2])+k*7)%len(c.vocab)]
				}
				ops = ops[3:]
				mirror = spliceMirror(mirror, at, remove, insert)

				for i, s := range sessions {
					e := c.engines[i]
					if err := s.Splice(at, remove, insert); err != nil {
						t.Fatalf("step %d: %v splice(%d,%d,%d): %v", step, e.Kind(), at, remove, insLen, err)
					}
					if got := s.Len(); got != len(mirror) {
						t.Fatalf("step %d: %v session length %d, mirror %d", step, e.Kind(), got, len(mirror))
					}
					got, err := s.Reparse()
					if err != nil {
						t.Fatalf("step %d: %v reparse: %v", step, e.Kind(), err)
					}
					want, err := e.Parse(mirror, false)
					if err != nil {
						t.Fatalf("step %d: %v fresh parse: %v", step, e.Kind(), err)
					}
					if got.Accepted != want.Accepted || got.ErrorPos != want.ErrorPos {
						t.Fatalf("step %d: %v session (accepted=%v pos=%d) vs fresh (accepted=%v pos=%d) on %s",
							step, e.Kind(), got.Accepted, got.ErrorPos, want.Accepted, want.ErrorPos,
							c.g.Symbols().NamesOf(mirror))
					}
					if !want.Accepted {
						continue
					}
					tree, err := s.drive(nil, true, nil, nil)
					if err != nil {
						t.Fatalf("step %d: %v session tree: %v", step, e.Kind(), err)
					}
					fresh, err := e.Parse(mirror, true)
					if err != nil {
						t.Fatalf("step %d: %v fresh tree: %v", step, e.Kind(), err)
					}
					sc, err1 := forest.TreeCount(tree.Root)
					fc, err2 := forest.TreeCount(fresh.Root)
					if err1 != nil || err2 != nil || sc != fc {
						t.Fatalf("step %d: %v derivation counts diverge: session %d (%v) vs fresh %d (%v)",
							step, e.Kind(), sc, err1, fc, err2)
					}
					if ss, fs := forest.String(tree.Root, c.g.Symbols()), forest.String(fresh.Root, c.g.Symbols()); ss != fs {
						t.Fatalf("step %d: %v forests diverge:\nsession: %s\nfresh:   %s", step, e.Kind(), ss, fs)
					}
					yield, err := forest.Yield(tree.Root)
					if err != nil {
						t.Fatalf("step %d: %v yield: %v", step, e.Kind(), err)
					}
					if len(yield) != len(mirror) {
						t.Fatalf("step %d: %v yield length %d != %d", step, e.Kind(), len(yield), len(mirror))
					}
					for k := range yield {
						if yield[k] != mirror[k] {
							t.Fatalf("step %d: %v yield diverges at %d", step, e.Kind(), k)
						}
					}
				}
			}
			for _, s := range sessions {
				s.Close()
			}
		}
	})
}
