// The SDF parity tests live in the external test package: the harness
// imports engine for the cross-engine benchmark procedure, so importing
// it back from engine's internal tests would be a cycle.
package engine_test

import (
	"testing"

	"ipg/internal/engine"
	"ipg/internal/forest"
	"ipg/internal/harness"
	"ipg/internal/sdf"
)

func TestParitySDFFixturesAcceptance(t *testing.T) {
	// The SDF bootstrap grammar is the paper's own workload — left
	// recursion puts LL out of scope, and GLR/LALR must agree on all
	// five fixture files. Earley gets the two small ones (it is O(n³)
	// by design), where it now also has to agree on the packed forest,
	// not just acceptance.
	g := sdf.MustBootstrapGrammar()
	inputs, err := harness.LoadInputs("../../testdata", g)
	if err != nil {
		t.Fatal(err)
	}
	glrEng, err := engine.New(engine.KindGLR, g)
	if err != nil {
		t.Fatal(err)
	}
	lalrEng, err := engine.New(engine.KindLALR, g)
	if err != nil {
		t.Fatal(err)
	}
	earleyEng, err := engine.New(engine.KindEarley, g)
	if err != nil {
		t.Fatal(err)
	}

	for _, input := range inputs {
		glrOK, err := glrEng.Recognize(input.Tokens)
		if err != nil {
			t.Fatal(err)
		}
		lalrOK, err := lalrEng.Recognize(input.Tokens)
		if err != nil {
			t.Fatal(err)
		}
		if !glrOK || glrOK != lalrOK {
			t.Errorf("%s: GLR=%v LALR=%v, want both accepted", input.Name, glrOK, lalrOK)
		}
		if len(input.Tokens) <= 200 {
			earleyRes, err := earleyEng.Parse(input.Tokens, true)
			if err != nil {
				t.Fatal(err)
			}
			if earleyRes.Accepted != glrOK {
				t.Errorf("%s: Earley=%v GLR=%v", input.Name, earleyRes.Accepted, glrOK)
				continue
			}
			glrRes, err := glrEng.Parse(input.Tokens, true)
			if err != nil {
				t.Fatal(err)
			}
			nEarley, err1 := forest.TreeCount(earleyRes.Root)
			nGLR, err2 := forest.TreeCount(glrRes.Root)
			if err1 != nil || err2 != nil || nEarley != nGLR {
				t.Errorf("%s: packed-forest derivation counts diverge: Earley %d (%v), GLR %d (%v)",
					input.Name, nEarley, err1, nGLR, err2)
			}
		}
	}
}

// TestParitySDFAmbiguousPackedForests drives the genuinely ambiguous
// SDF calculator (flat `EXP op EXP` rules, disambiguated only by
// priority filters that parity deliberately does not apply) through
// Earley and GLR: every sentence's packed forest must count the same
// derivations and render identically.
func TestParitySDFAmbiguousPackedForests(t *testing.T) {
	workloads, err := harness.EngineWorkloads("../../testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.Name != "calc-sdf-ambiguous" {
			continue
		}
		glrEng, err := engine.New(engine.KindGLR, w.Grammar)
		if err != nil {
			t.Fatal(err)
		}
		earleyEng, err := engine.New(engine.KindEarley, w.Grammar)
		if err != nil {
			t.Fatal(err)
		}
		ambiguous := 0
		for i, toks := range w.Sentences {
			glrRes, err := glrEng.Parse(toks, true)
			if err != nil {
				t.Fatal(err)
			}
			earleyRes, err := earleyEng.Parse(toks, true)
			if err != nil {
				t.Fatal(err)
			}
			if !glrRes.Accepted || !earleyRes.Accepted {
				t.Fatalf("sentence %d rejected: GLR=%v Earley=%v", i, glrRes.Accepted, earleyRes.Accepted)
			}
			nGLR, err1 := forest.TreeCount(glrRes.Root)
			nEarley, err2 := forest.TreeCount(earleyRes.Root)
			if err1 != nil || err2 != nil || nGLR != nEarley {
				t.Errorf("sentence %d: Earley packs %d derivations (%v), GLR %d (%v)",
					i, nEarley, err2, nGLR, err1)
			}
			if nGLR > 1 {
				ambiguous++
			}
			eStr := forest.String(earleyRes.Root, w.Grammar.Symbols())
			gStr := forest.String(glrRes.Root, w.Grammar.Symbols())
			if eStr != gStr {
				t.Errorf("sentence %d: packed forests render differently\nearley: %s\nglr:    %s", i, eStr, gStr)
			}
		}
		if ambiguous == 0 {
			t.Error("the ambiguous workload produced no ambiguous sentence — the packing check never fired")
		}
		return
	}
	t.Fatal("no calc-sdf-ambiguous workload")
}
