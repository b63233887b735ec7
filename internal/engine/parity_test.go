package engine

import (
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/grammar"
)

// Cross-engine parity: the engines disagree about speed and capability,
// never about the language. For deterministic fixtures all tree-building
// engines — since the chart overhaul that includes Earley — must produce
// the identical (unique) tree; on ambiguous grammars the packed forests
// must represent the same derivations, including the SDF fixtures.

var paritySentences = []string{
	"n",
	"n + n",
	"n + n * n",
	"n * n + n",
	"( n + n ) * n",
	"n - n - n",
	"n / n / n * n",
	"( ( n ) )",
	"n + ( n - n ) * n",
	// rejections
	"",
	"n +",
	"+ n",
	"n n",
	"( n + n",
	"n )",
}

func treeOf(t *testing.T, e Engine, g *grammar.Grammar, input string) (bool, string) {
	t.Helper()
	res, err := e.Parse(fixtures.Tokens(g, input), true)
	if err != nil {
		t.Fatalf("%v.Parse(%q): %v", e.Kind(), input, err)
	}
	if res.Root == nil {
		return res.Accepted, ""
	}
	return res.Accepted, forest.String(res.Root, g.Symbols())
}

func TestParityDeterministicFixturesIdenticalTrees(t *testing.T) {
	for _, fixture := range []string{"CalcDet.bnf", "CalcLL.bnf"} {
		g := loadFixture(t, fixture)
		glrEng, err := New(KindGLR, g)
		if err != nil {
			t.Fatal(err)
		}
		lalrEng, err := New(KindLALR, g)
		if err != nil {
			t.Fatal(err)
		}
		earleyEng, err := New(KindEarley, g)
		if err != nil {
			t.Fatal(err)
		}
		var llEng Engine
		if e, err := NewLL(g, "requested"); err == nil {
			llEng = e
		} else if fixture == "CalcLL.bnf" {
			t.Fatalf("CalcLL.bnf must be LL(1): %v", err)
		}

		for _, input := range paritySentences {
			glrOK, glrTree := treeOf(t, glrEng, g, input)
			lalrOK, lalrTree := treeOf(t, lalrEng, g, input)
			if glrOK != lalrOK || glrTree != lalrTree {
				t.Errorf("%s %q: GLR (ok=%v %s) != LALR (ok=%v %s)",
					fixture, input, glrOK, glrTree, lalrOK, lalrTree)
			}
			if llEng != nil {
				llOK, llTree := treeOf(t, llEng, g, input)
				if llOK != glrOK || llTree != glrTree {
					t.Errorf("%s %q: LL (ok=%v %s) != GLR (ok=%v %s)",
						fixture, input, llOK, llTree, glrOK, glrTree)
				}
			}
			// Earley is tree-capable since the chart overhaul: full tree
			// identity, not just accept/reject agreement.
			earleyOK, earleyTree := treeOf(t, earleyEng, g, input)
			if earleyOK != glrOK || earleyTree != glrTree {
				t.Errorf("%s %q: Earley (ok=%v %s) != GLR (ok=%v %s)",
					fixture, input, earleyOK, earleyTree, glrOK, glrTree)
			}
		}
	}
}

func TestParityAmbiguousGrammarAcceptance(t *testing.T) {
	g := grammar.MustParse(ambiguousText)
	glrEng, _ := New(KindGLR, g)
	lalrEng, _ := New(KindLALR, g) // conflicted table drives GSS
	earleyEng, _ := New(KindEarley, g)

	for _, input := range []string{"n", "n + n", "n + n + n", "n + n + n + n", "", "+ n", "n +"} {
		toks := fixtures.Tokens(g, input)
		glrRes, err := glrEng.Parse(toks, true)
		if err != nil {
			t.Fatal(err)
		}
		lalrRes, err := lalrEng.Parse(toks, true)
		if err != nil {
			t.Fatal(err)
		}
		earleyRes, err := earleyEng.Parse(toks, true)
		if err != nil {
			t.Fatal(err)
		}
		if glrRes.Accepted != lalrRes.Accepted || glrRes.Accepted != earleyRes.Accepted {
			t.Errorf("%q: GLR=%v LALR=%v Earley=%v", input, glrRes.Accepted, lalrRes.Accepted, earleyRes.Accepted)
		}
		if glrRes.Root != nil && lalrRes.Root != nil {
			nGLR, _ := forest.TreeCount(glrRes.Root)
			nLALR, _ := forest.TreeCount(lalrRes.Root)
			if nGLR != nLALR {
				t.Errorf("%q: GLR counts %d derivations, LALR-over-GSS %d", input, nGLR, nLALR)
			}
			// The packed Earley forest must represent exactly the same
			// derivations, and render identically (alternatives sort).
			if earleyRes.Root == nil {
				t.Errorf("%q: Earley accepted without a forest", input)
			} else {
				nEarley, _ := forest.TreeCount(earleyRes.Root)
				if nEarley != nGLR {
					t.Errorf("%q: Earley packs %d derivations, GLR %d", input, nEarley, nGLR)
				}
				eStr := forest.String(earleyRes.Root, g.Symbols())
				gStr := forest.String(glrRes.Root, g.Symbols())
				if eStr != gStr {
					t.Errorf("%q: packed forests render differently\nearley: %s\nglr:    %s", input, eStr, gStr)
				}
			}
		}
	}
}
