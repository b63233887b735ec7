package engine

import (
	"fmt"

	"ipg/internal/grammar"
	"ipg/internal/lalr"
)

// NewAuto probes g's LALR(1) table once and returns the backend the
// grammar fits, with the verdict as its reason:
//
//   - LALR(1) when the table is conflict-free — deterministic tenant
//     grammars get the fast Yacc-style path, which adopts the probe
//     table, so the probe is never wasted work;
//   - lazy GLR otherwise — ambiguous or conflicted grammars keep the
//     paper's machinery, including incremental updates and snapshots.
//
// The choice holds for the engine's life, as a grammar modification
// never changes the parsing algorithm (MODIFY, section 6): rule updates
// go straight to the chosen backend. Both parse every grammar after any
// update, since LALR drives the GSS parser over its own table once that
// table has conflicts (its reason then counts them). Re-registering a
// grammar probes it again.
func NewAuto(g *grammar.Grammar) Engine {
	tbl := lalr.Generate(g)
	k, reason := verdict(g, tbl)
	if k == KindLALR {
		return newLALRFromTable(g, tbl, reason)
	}
	return NewGLR(g, reason)
}

// Probe reports the backend auto-selection would pick for g and why,
// without keeping the built table — for diagnostics and docs.
func Probe(g *grammar.Grammar) (Kind, string) { return verdict(g, lalr.Generate(g)) }

// verdict reads the selection and its reason from an LALR(1) table that
// reflects g: conflict-free ⇒ LALR(1), else lazy GLR.
func verdict(g *grammar.Grammar, tbl *lalr.Table) (Kind, string) {
	conflicts := tbl.Conflicts()
	if len(conflicts) == 0 {
		return KindLALR, fmt.Sprintf("auto: LALR(1) — conflict-free (%d states, deterministic LR driver)",
			tbl.Automaton().Len())
	}
	c := conflicts[0]
	return KindGLR, fmt.Sprintf("auto: lazy GLR — %d LALR(1) conflicts (first: %s on %q in state %d)",
		len(conflicts), c.Kind, g.Symbols().Name(c.Symbol), c.State.ID)
}
