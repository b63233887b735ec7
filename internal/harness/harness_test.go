package harness

import (
	"testing"
	"time"

	"ipg/internal/sdf"
)

func loadAll(t *testing.T) []Input {
	t.Helper()
	g := sdf.MustBootstrapGrammar()
	inputs, err := LoadInputs("../../testdata", g)
	if err != nil {
		t.Fatal(err)
	}
	return inputs
}

func TestLoadInputs(t *testing.T) {
	inputs := loadAll(t)
	if len(inputs) != 4 {
		t.Fatalf("%d inputs, want 4", len(inputs))
	}
	// The Fig 7.1 sizes (37/166/342/475) plus the end marker: inputs are
	// EOF-terminated so warm parses pass them through without copying.
	want := map[string]int{"exp.sdf": 37 + 1, "Exam.sdf": 166 + 1, "SDF.sdf": 342 + 1, "ASF.sdf": 475 + 1}
	for _, in := range inputs {
		if len(in.Tokens) != want[in.Name] {
			t.Errorf("%s: %d tokens, want %d", in.Name, len(in.Tokens), want[in.Name])
		}
	}
}

func TestRunAllSystems(t *testing.T) {
	inputs := loadAll(t)
	for _, sys := range Systems {
		timings, err := Run(sys, inputs[0])
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		for i, d := range timings.ByPhase() {
			if d < 0 {
				t.Errorf("%s phase %s negative: %v", sys, Phases[i], d)
			}
		}
		// Parses take measurable time; constructs may be ~0 for IPG.
		if timings.Parse1 == 0 || timings.Reparse1 == 0 {
			t.Errorf("%s: zero parse timings: %+v", sys, timings)
		}
	}
}

func TestRunShapes(t *testing.T) {
	// The headline Fig 7.1 shapes, asserted as inequalities on one
	// medium input (timings are noisy; keep the margins generous).
	inputs := loadAll(t)
	in := inputs[2] // SDF.sdf

	ipgT, err := RunBest(IPG, in, 3)
	if err != nil {
		t.Fatal(err)
	}
	yaccT, err := RunBest(Yacc, in, 3)
	if err != nil {
		t.Fatal(err)
	}
	// IPG constructs in (near) zero time; Yacc pays LALR generation.
	if ipgT.Construct*10 > yaccT.Construct {
		t.Errorf("IPG construct %v should be well under Yacc construct %v",
			ipgT.Construct, yaccT.Construct)
	}
	// IPG modification is incremental; Yacc regenerates.
	if ipgT.Modify*10 > yaccT.Modify {
		t.Errorf("IPG modify %v should be well under Yacc modify %v",
			ipgT.Modify, yaccT.Modify)
	}
}

func TestRunBestKeepsMinimum(t *testing.T) {
	inputs := loadAll(t)
	one, err := Run(IPG, inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	best, err := RunBest(IPG, inputs[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = one
	if best.Parse1 <= 0 || best.Parse1 > time.Second {
		t.Errorf("implausible best parse1: %v", best.Parse1)
	}
}

func TestRunUnknownSystem(t *testing.T) {
	inputs := loadAll(t)
	if _, err := Run(System("nope"), inputs[0]); err == nil {
		t.Fatal("unknown system should error")
	}
}
