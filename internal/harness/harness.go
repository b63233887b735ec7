// Package harness implements the measurement procedure of section 7: for
// each parser generator (Yacc→LALR(1), PG→conventional LR(0), IPG→lazy
// incremental LR(0)) and each input, it measures
//
//	construct table → parse twice → modify grammar → parse twice
//
// with parse trees built but not printed, on token streams already in
// memory — reproducing the experimental controls of the paper.
package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ipg/internal/core"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/lalr"
	"ipg/internal/lang"
	"ipg/internal/lr"
	"ipg/internal/sdf"
)

// Input is one measured sentence: a named, pre-tokenized SDF definition.
type Input struct {
	// Name is the file name (exp.sdf, Exam.sdf, SDF.sdf, ASF.sdf).
	Name string
	// Tokens is the in-memory token stream, EOF-terminated so a warm
	// parse passes it to the engines without copying (glr.prepare
	// appends nothing — the last steady-state allocation of the parse
	// path).
	Tokens []grammar.Symbol
}

// InputNames are the four inputs of Fig 7.1 in measurement order.
var InputNames = []string{"exp.sdf", "Exam.sdf", "SDF.sdf", "ASF.sdf"}

// LoadInputs tokenizes the four SDF definitions of Fig 7.1 from dir into
// terminals of g, the bootstrap SDF grammar, through its front end with
// the SDF scanner.
func LoadInputs(dir string, g *grammar.Grammar) ([]Input, error) {
	sc, err := sdf.NewScanner()
	if err != nil {
		return nil, err
	}
	front := lang.WithScanner(g, sc)
	var out []Input
	for _, name := range InputNames {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		toks, err := front.InputTokens(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, Input{Name: name, Tokens: toks})
	}
	return out, nil
}

// System identifies a measured parser generator.
type System string

// The three systems of Fig 7.1.
const (
	// Yacc is the LALR(1) baseline. The paper's Yacc additionally
	// compiled and linked C code per change; that cost is not simulated
	// here.
	Yacc System = "Yacc"
	// PG is the conventional LR(0) generator of section 4.
	PG System = "PG"
	// IPG is the lazy incremental generator of sections 5-6.
	IPG System = "IPG"
)

// Systems lists the measured systems in the paper's order.
var Systems = []System{Yacc, PG, IPG}

// Phases of one measurement run, in order.
var Phases = []string{"construct", "parse1", "parse2", "modify", "parse1'", "parse2'"}

// Timings holds one wall-clock duration per phase.
type Timings struct {
	Construct, Parse1, Parse2, Modify, Reparse1, Reparse2 time.Duration
}

// ByPhase returns the durations in Phases order.
func (t Timings) ByPhase() []time.Duration {
	return []time.Duration{t.Construct, t.Parse1, t.Parse2, t.Modify, t.Reparse1, t.Reparse2}
}

// Run measures one (system, input) cell of Fig 7.1. Fresh grammars are
// built per run so lazily accumulated state never leaks between runs.
// The modification adds the Fig 7.1 rule <CF-ELEM> ::= "(" CF-ELEM+ ")?":
// IPG's MODIFY repairs its table in place, while Yacc and PG regenerate
// theirs from scratch.
func Run(sys System, input Input) (Timings, error) {
	var t Timings
	if sys != Yacc && sys != PG && sys != IPG {
		return t, fmt.Errorf("harness: unknown system %q", sys)
	}
	g := sdf.MustBootstrapGrammar()
	mod, err := sdf.ModificationRule(g)
	if err != nil {
		return t, err
	}
	build := func() lr.Table {
		switch sys {
		case Yacc:
			return lalr.Generate(g)
		case PG:
			auto := lr.New(g)
			auto.GenerateAll()
			return auto
		}
		return core.New(g, nil)
	}
	parseTwice := func(tbl lr.Table) (d1, d2 time.Duration, err error) {
		for _, d := range []*time.Duration{&d1, &d2} {
			start := time.Now()
			res, err := glr.Parse(tbl, input.Tokens, &glr.Options{Engine: glr.GSS})
			if err != nil {
				return 0, 0, err
			}
			if !res.Accepted {
				return 0, 0, fmt.Errorf("%s rejected %s", sys, input.Name)
			}
			*d = time.Since(start)
		}
		return d1, d2, nil
	}

	start := time.Now()
	tbl := build()
	t.Construct = time.Since(start)
	if t.Parse1, t.Parse2, err = parseTwice(tbl); err != nil {
		return t, err
	}
	start = time.Now()
	if gen, ok := tbl.(*core.Generator); ok {
		err = gen.AddRule(mod)
	} else if err = g.AddRule(mod); err == nil {
		tbl = build()
	}
	t.Modify = time.Since(start)
	if err != nil {
		return t, err
	}
	t.Reparse1, t.Reparse2, err = parseTwice(tbl)
	return t, err
}

// RunBest runs Run repeat times and keeps the per-phase minimum, damping
// scheduler noise (the paper ran "under low workload" on a SUN 3/60).
func RunBest(sys System, input Input, repeat int) (Timings, error) {
	var best Timings
	for i := 0; i < repeat; i++ {
		t, err := Run(sys, input)
		if err != nil {
			return best, err
		}
		if i == 0 {
			best = t
			continue
		}
		best = Timings{
			min(best.Construct, t.Construct), min(best.Parse1, t.Parse1), min(best.Parse2, t.Parse2),
			min(best.Modify, t.Modify), min(best.Reparse1, t.Reparse1), min(best.Reparse2, t.Reparse2),
		}
	}
	return best, nil
}
