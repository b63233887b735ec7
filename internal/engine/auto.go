package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ipg/internal/cancel"
	"ipg/internal/core"
	"ipg/internal/grammar"
	"ipg/internal/lalr"
	"ipg/internal/obs"
)

// Auto probes the grammar's LALR(1) table and delegates to the backend
// the grammar fits, recording why:
//
//   - LALR(1) when the table is conflict-free — deterministic tenant
//     grammars get the fast Yacc-style path;
//   - lazy GLR otherwise — ambiguous or conflicted grammars keep the
//     paper's machinery, including incremental updates and snapshots.
//
// A rule update can move a grammar across the determinism boundary in
// either direction, and the engine follows it (an already-warm lazy GLR
// table is kept when the verdict does not change), but no update
// regenerates a table just to re-read the verdict. LALR repairs its own
// table and reads the verdict from it. While lazy GLR serves, auto keeps
// the conflicted LALR(1) table its probe built and repairs it by need:
// an update only logs its rule, and the next verdict read settles the
// log. A verdict read is anything that goes through current: Kind,
// Reason, Caps, TableInfo, a drive, a session, a cursor or a snapshot.
// The settle repairs the kept table once with the log's net diff and
// re-reads the verdict from it; a conflict-free table swaps the backend
// to LALR, which adopts it. A full probe runs only when no kept table
// can decide the verdict (see Reprobes). Counters and ServingKind only
// count or label, and do not settle.
type Auto struct {
	mu  sync.RWMutex
	g   *grammar.Grammar
	cur Engine
	// retired accumulates the counters of replaced backends, so the
	// entry's counters stay monotonic across reselections (a rule
	// update must not reset parses_served to zero).
	retired core.Counters

	// lrTbl is the conflicted probe table that lost the verdict, kept
	// while lazy GLR serves (nil while LALR serves). It reflects the
	// grammar up to the rule updates in pending, the log the next settle
	// repairs it with (see logUpdate).
	lrTbl   *lalr.Table
	pending []*grammar.Rule
	// keptWork accumulates the work counts of the kept table's repairs,
	// so an entry served by lazy GLR reports all its updates cost.
	keptWork core.Counters

	// dirty marks that rule updates have outdated the selection; the
	// next verdict read settles them once for the whole batch. reprobes
	// counts the settles that ran a full table probe — the reprobe
	// counter /metrics exposes per grammar.
	dirty    atomic.Bool
	reprobes atomic.Uint64
}

// NewAuto probes g and returns the auto engine with its selection made.
func NewAuto(g *grammar.Grammar) *Auto {
	a := &Auto{g: g, lrTbl: lalr.Generate(g)}
	a.adoptLocked(verdict(g, a.lrTbl))
	return a
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

// adoptLocked serves verdict k, read from lrTbl. LALR adopts the table
// that decided the verdict, so it is never wasted work on the path that
// needs it; under lazy GLR the table stays kept. A lazy GLR backend that
// already serves stays, with its warm table (every update was spliced
// into it), and takes the new reason. Any other replaced backend's
// counters are banked, and its table counts as invalidated, so an auto
// entry reports the same regeneration cost an explicit LALR entry would.
func (a *Auto) adoptLocked(k Kind, reason string) {
	var next Engine
	if k == KindLALR {
		next = newLALRFromTable(a.g, a.lrTbl, reason)
		a.lrTbl = nil
	} else if cur, ok := a.cur.(*GLR); ok {
		cur.setReason(reason)
		return
	} else {
		next = NewGLR(a.g, reason)
	}
	if a.cur != nil {
		a.retired = a.retired.Plus(a.cur.Counters())
		a.retired.StatesInvalidated += uint64(a.cur.TableInfo().States)
	}
	a.cur = next
}

// current returns the selected backend, settling pending rule updates
// first: every verdict read goes through it.
func (a *Auto) current() Engine {
	if !a.dirty.Load() {
		a.mu.RLock()
		cur := a.cur
		a.mu.RUnlock()
		return cur
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dirty.Swap(false) {
		a.settleLocked()
	}
	return a.cur
}

// ServingKind reports the backend serving e now. For an auto engine it
// reads the selection without settling pending rule updates, so a span
// label does not force the kept-table repairs a verdict read would
// fold.
func ServingKind(e Engine) Kind {
	if a, ok := e.(*Auto); ok {
		a.mu.RLock()
		defer a.mu.RUnlock()
		return a.cur.Kind()
	}
	return e.Kind()
}

// Kind implements Engine, reporting the selected backend's kind.
func (a *Auto) Kind() Kind { return a.current().Kind() }

// Reason implements Engine: the prober's verdict.
func (a *Auto) Reason() string { return a.current().Reason() }

// Caps implements Engine: the selected backend's capabilities.
func (a *Auto) Caps() Caps { return a.current().Caps() }

// Parse implements Engine by forwarding to drive.
func (a *Auto) Parse(input []grammar.Symbol, buildTrees bool) (Result, error) {
	return a.drive(input, buildTrees, nil, nil)
}

// Recognize implements Engine by forwarding to drive.
func (a *Auto) Recognize(input []grammar.Symbol) (bool, error) {
	return accepted(a.drive(input, false, nil, nil))
}

// drive implements Driver. Selection, which settles any pending rule
// updates, is its own stage; then the chosen backend records its
// phases and the span is attributed to it.
func (a *Auto) drive(input []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace, fl *cancel.Flag) (Result, error) {
	tr.BeginStage(obs.StageSelect)
	cur := a.current()
	tr.EndStage(obs.StageSelect)
	tr.SetEngine(cur.Kind().String())
	return cur.drive(input, buildTrees, tr, fl)
}

// Counters implements Engine: the live backend's counters plus those
// banked from retired backends and the kept table's repair work. It
// does not settle pending updates.
func (a *Auto) Counters() core.Counters {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.cur.Counters().Plus(a.retired).Plus(a.keptWork)
}

// TableInfo implements Engine.
func (a *Auto) TableInfo() TableInfo { return a.current().TableInfo() }

// OpenCursor implements Engine on the selected backend. A reselection
// moves the grammar, so it leaves the cursor stale.
func (a *Auto) OpenCursor() (Cursor, error) { return a.current().OpenCursor() }

// AddRule implements Engine: the rule is applied through the selected
// backend. LALR repairs its own table and reads the verdict from it; a
// new conflict schedules a full probe. Under lazy GLR the rule is
// logged for the kept table and the next verdict read settles it.
func (a *Auto) AddRule(r *grammar.Rule) error { return a.update(r, true) }

// DeleteRule implements Engine; see AddRule.
func (a *Auto) DeleteRule(r *grammar.Rule) error { return a.update(r, false) }

func (a *Auto) update(r *grammar.Rule, added bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var err error
	if added {
		err = a.cur.AddRule(r)
	} else {
		err = a.cur.DeleteRule(r)
	}
	if err != nil {
		return err
	}
	if cur, ok := a.cur.(*LALR); ok {
		if len(cur.Table().Conflicts()) > 0 {
			a.dirty.Store(true)
		}
		return nil
	}
	a.pending = logUpdate(a.pending, r, added)
	a.dirty.Store(true)
	return nil
}

// logUpdate appends a rule update to a pending log, which it keeps
// folded to its net diff. Only an add followed by a delete of the same
// rule cancels: the grammar is then as it was, rule order included, so
// a log that folds to nothing lets the settle re-stamp the kept table
// (lalr.Table.Restamp). A delete followed by a re-add does not cancel,
// since the re-added rule moves to the end of its left-hand side's
// rules. A delete that finds its rule in the log therefore finds it
// last as an add: a pending delete of a rule is always followed by its
// re-add.
func logUpdate(log []*grammar.Rule, r *grammar.Rule, added bool) []*grammar.Rule {
	if !added {
		for i := len(log) - 1; i >= 0; i-- {
			if log[i].Equal(r) {
				return slices.Delete(log, i, i+1)
			}
		}
	}
	return append(log, r)
}

// settleLocked brings the selection up to date with the grammar. Under
// lazy GLR the kept table is repaired once with the pending log's net
// diff, and a net-empty diff only re-stamps it; the repair's work counts
// in keptWork. The verdict is then re-read from the table, or from a
// full probe when no kept table can decide it: the repair left the
// table stale, or the LALR backend's own table gained a conflict.
func (a *Auto) settleLocked() {
	switch {
	case a.lrTbl == nil: // LALR serves
	case len(a.pending) == 0:
		a.lrTbl.Restamp()
	default:
		st := a.lrTbl.Repair(a.pending...)
		a.keptWork = a.keptWork.Plus(repairWork(st))
		if st.Stale() {
			a.lrTbl = nil
		}
	}
	clear(a.pending)
	a.pending = a.pending[:0]
	if a.lrTbl == nil {
		a.reprobes.Add(1)
		a.lrTbl = lalr.Generate(a.g)
	}
	a.adoptLocked(verdict(a.g, a.lrTbl))
}

// Reprobes counts the settles that ran a full table probe
// (lalr.Generate). One runs only when no kept table can decide the
// verdict: a repair left the kept table stale, or the LALR backend's
// table gained a conflict. Verdicts re-read from the repaired table do
// not count. Exposed as the ipg_engine_reprobes_total metric.
func (a *Auto) Reprobes() uint64 { return a.reprobes.Load() }

// snapshotter resolves the selected backend's snapshot capability (nil
// when it has none — only the lazy-GLR table persists).
func (a *Auto) snapshotter() Snapshotter {
	if s, ok := a.current().(Snapshotter); ok {
		return s
	}
	return nil
}
