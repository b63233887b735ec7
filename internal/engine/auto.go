package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ipg/internal/cancel"
	"ipg/internal/core"
	"ipg/internal/grammar"
	"ipg/internal/lalr"
	"ipg/internal/ll"
	"ipg/internal/obs"
)

// Auto probes the grammar and delegates to the cheapest adequate
// backend, recording why:
//
//   - LALR(1) when the table is conflict-free — deterministic tenant
//     grammars get the fast Yacc-style path;
//   - LL(1) when LALR(1) conflicts but the prediction table is clean (a
//     rare corner, present for symmetry with Fig 2.1);
//   - lazy GLR otherwise — ambiguous or conflicted grammars keep the
//     paper's machinery, including incremental updates and snapshots.
//
// A rule update can move a grammar across the determinism boundary in
// either direction, and the engine follows it (an already-warm lazy GLR
// table is kept when the verdict does not change), but no update
// regenerates a table just to re-read the verdict. LALR and LL repair
// their own tables and read the verdict from them. Auto keeps the
// conflicted tables its probe built — the LALR(1) table while LL or
// lazy GLR serves, the LL(1) table too under lazy GLR — and repairs
// them by need: an update only logs its rule, and the next verdict read
// settles the log. A verdict read is anything that goes through
// current: Kind, Reason, Caps, TableInfo, a drive, a session, a cursor
// or a snapshot. The settle repairs both kept tables once with the
// log's net diff and re-reads the verdict from them; a verdict that
// moved swaps the backend, adopting the repaired table. A full probe
// runs only when no kept table can decide the verdict (see Reprobes).
// Counters and ServingKind only count or label, and do not settle.
type Auto struct {
	opts Options

	mu  sync.RWMutex
	g   *grammar.Grammar
	cur Engine
	// retired accumulates the counters of replaced backends, so the
	// entry's counters stay monotonic across reselections (a rule
	// update must not reset parses_served to zero).
	retired core.Counters

	// lrTbl and llTbl are the conflicted probe tables that lost the
	// verdict: lrTbl is kept while LL or lazy GLR serves, llTbl while
	// lazy GLR serves (nil otherwise). They reflect the grammar up to
	// the rule updates in pending, the log the next settle repairs them
	// with (see logUpdate).
	lrTbl   *lalr.Table
	llTbl   *ll.Table
	pending []*grammar.Rule
	// keptWork accumulates the work counts of the kept tables' repairs,
	// so an entry served by lazy GLR or LL reports all its updates cost.
	keptWork core.Counters

	// dirty marks that rule updates have outdated the selection; the
	// next verdict read settles them once for the whole batch. reprobes
	// counts the settles that ran a full table probe — the reprobe
	// counter /metrics exposes per grammar.
	dirty    atomic.Bool
	reprobes atomic.Uint64
}

// NewAuto probes g and returns the auto engine with its selection made.
func NewAuto(g *grammar.Grammar, opts *Options) *Auto {
	a := &Auto{g: g}
	if opts != nil {
		a.opts = *opts
	}
	a.lrTbl, a.llTbl = probe(g)
	a.adoptLocked(verdict(g, a.lrTbl, a.llTbl))
	return a
}

// Probe reports the backend auto-selection would pick for g and why,
// without keeping the built tables — for diagnostics and docs.
func Probe(g *grammar.Grammar) (Kind, string) {
	tbl, lt := probe(g)
	return verdict(g, tbl, lt)
}

// probe generates the LALR(1) table and, when it conflicts, the LL(1)
// table: the tables verdict reads.
func probe(g *grammar.Grammar) (*lalr.Table, *ll.Table) {
	tbl := lalr.Generate(g)
	if len(tbl.Conflicts()) == 0 {
		return tbl, nil
	}
	return tbl, ll.Generate(g)
}

// verdict reads the selection and its reason from tables that reflect
// g: conflict-free ⇒ LALR(1); LL(1)-able ⇒ LL; else lazy GLR. lt may be
// nil when tbl is conflict-free.
func verdict(g *grammar.Grammar, tbl *lalr.Table, lt *ll.Table) (Kind, string) {
	if len(tbl.Conflicts()) == 0 {
		return KindLALR, fmt.Sprintf("auto: LALR(1) — conflict-free (%d states, deterministic LR driver)",
			tbl.Automaton().Len())
	}
	if len(lt.Conflicts()) == 0 {
		return KindLL, fmt.Sprintf("auto: LL(1) — %d LALR(1) conflicts but a clean prediction table", len(tbl.Conflicts()))
	}
	c := tbl.Conflicts()[0]
	return KindGLR, fmt.Sprintf("auto: lazy GLR — %d LALR(1) conflicts (first: %s on %q in state %d)",
		len(tbl.Conflicts()), c.Kind, g.Symbols().Name(c.Symbol), c.State.ID)
}

// adoptLocked serves verdict k, read from lrTbl and llTbl. The winning
// table is adopted by its engine, so the table that decided the verdict
// is never wasted work on the path that needs it, and the tables that
// lost stay kept. A lazy GLR backend that already serves stays, with
// its warm table (every update was spliced into it), and takes the new
// reason. Any other replaced backend's counters are banked, and its
// table counts as invalidated, so an auto entry reports the same
// regeneration cost an explicit LALR/LL entry would.
func (a *Auto) adoptLocked(k Kind, reason string) {
	var next Engine
	switch k {
	case KindLALR:
		next = newLALRFromTable(a.g, a.lrTbl, reason)
		a.lrTbl, a.llTbl = nil, nil
	case KindLL:
		next = &LL{reason: reason, g: a.g, tbl: a.llTbl}
		a.llTbl = nil
	default:
		if cur, ok := a.cur.(*GLR); ok {
			cur.setReason(reason)
			return
		}
		next = NewGLR(a.g, &a.opts, reason)
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
// banked from retired backends and the kept tables' repair work. It
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
// new conflict schedules a full probe. LL repairs its own table too,
// and refuses a rule that makes the grammar non-LL(1): auto then applies
// the rule directly and schedules a full probe. Otherwise, under LL and
// lazy GLR, the rule is logged for the kept tables and the next verdict
// read settles it.
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
	switch cur := a.cur.(type) {
	case *LALR:
		if err == nil && len(cur.Table().Conflicts()) > 0 {
			a.dirty.Store(true)
		}
		return err
	case *LL:
		if errors.Is(err, ll.ErrNotLL1) {
			// The backend rolled the rule back to keep its table clean,
			// but the auto contract is to apply the rule and follow the
			// grammar wherever it goes: no LL(1) table reflects it any
			// more, so a full probe picks the backend that now fits.
			if err := a.g.AddRule(r); err != nil {
				return err
			}
			a.lrTbl, a.llTbl, a.pending = nil, nil, nil
			a.dirty.Store(true)
			return nil
		}
	}
	if err != nil {
		return err
	}
	if a.lrTbl != nil {
		a.pending = logUpdate(a.pending, r, added)
	}
	a.dirty.Store(true)
	return nil
}

// logUpdate appends a rule update to a pending log, which it keeps
// folded to its net diff. Only an add followed by a delete of the same
// rule cancels: the grammar is then as it was. A delete followed by a
// re-add does not, since the re-added rule moves to the end of its
// left-hand side's rules, and that order decides which rule a
// conflicted LL(1) cell lists first. A delete that finds its rule in
// the log therefore finds it last as an add: a pending delete of a rule
// is always followed by its re-add.
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

// settleLocked brings the selection up to date with the grammar. The
// kept tables are repaired once with the pending log's net diff; a
// net-empty diff only re-stamps them. The verdict is then re-read from
// them, or from a full probe when no kept table can decide it: a repair
// left its table stale, the LALR backend's table gained a conflict, or
// the LL backend refused a rule. LL keeps serving while the LALR(1)
// table still conflicts, since its own table stays clean.
func (a *Auto) settleLocked() {
	if a.lrTbl != nil {
		a.repairKeptLocked()
	}
	clear(a.pending)
	a.pending = a.pending[:0]
	if a.lrTbl == nil {
		a.reprobes.Add(1)
		a.lrTbl, a.llTbl = probe(a.g)
	} else if _, isLL := a.cur.(*LL); isLL && len(a.lrTbl.Conflicts()) > 0 {
		return
	}
	a.adoptLocked(verdict(a.g, a.lrTbl, a.llTbl))
}

// repairKeptLocked repairs the kept tables with the pending log and
// counts the work in keptWork. A table the repair leaves stale is
// dropped with its partner.
func (a *Auto) repairKeptLocked() {
	if len(a.pending) == 0 {
		a.lrTbl.Restamp()
		if a.llTbl != nil {
			a.llTbl.Restamp()
		}
		return
	}
	st := a.lrTbl.Repair(a.pending...)
	a.keptWork = a.keptWork.Plus(repairWork(st))
	if st.Stale() {
		a.lrTbl, a.llTbl = nil, nil
		return
	}
	if a.llTbl != nil {
		lst := a.llTbl.Repair(a.pending...)
		a.keptWork.RepairRulesDiffed += uint64(lst.RulesDiffed)
		a.keptWork.RepairReanalysed += uint64(lst.Reanalysed)
	}
}

// Reprobes counts the settles that ran a full table probe
// (lalr.Generate and, on conflicts, ll.Generate). One runs only when no
// kept table can decide the verdict: a repair left its table stale, the
// LALR backend's table gained a conflict, or the LL backend refused a
// rule. Verdicts re-read from repaired tables do not count. Exposed as
// the ipg_engine_reprobes_total metric.
func (a *Auto) Reprobes() uint64 { return a.reprobes.Load() }

// snapshotter resolves the selected backend's snapshot capability (nil
// when it has none — only the lazy-GLR table persists).
func (a *Auto) snapshotter() Snapshotter {
	if s, ok := a.current().(Snapshotter); ok {
		return s
	}
	return nil
}
