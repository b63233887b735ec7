package engine

import (
	"errors"
	"fmt"
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
//     paper's machinery, including incremental updates and snapshots;
//   - Earley when the entry's recent update-rate/parse-rate ratio
//     crosses the churn threshold *and* lazy GLR serves: a tenant
//     editing its grammar faster than it parses pays nothing per update
//     on the table-free backend, and rejoins a table-driven one once
//     parse traffic dominates again (hysteresis keeps the selection from
//     flapping). LALR and LL repair their tables in place, so churn
//     never evicts them from their fast deterministic drivers.
//
// A rule update can move a grammar across the determinism boundary in
// either direction, and the engine follows it (an already-warm lazy GLR
// table is kept when the verdict does not change), but no update
// regenerates a table just to re-read the verdict. LALR and LL repair
// their own tables and read the verdict from them. Auto keeps the
// conflicted tables its probe built — the LALR(1) table while LL or
// lazy GLR serves, the LL(1) table too under lazy GLR — and splices
// every update into them, so the verdict costs what the damage costs,
// not what the grammar costs. Each update is settled on the next
// engine use — the registry makes one right after every update — where
// the churn heuristic is consulted and a verdict that moved swaps the
// backend, adopting the repaired table. A full probe runs only when no
// kept table can decide the verdict (see Reprobes).
type Auto struct {
	opts Options

	mu  sync.RWMutex
	g   *grammar.Grammar
	cur Engine
	// lastEarley is the most recent churn-selected Earley backend. A
	// parse that fetched it via current() just before a reselection may
	// still be reading the rule set (its compiled view is rebuilt from
	// the grammar per version), so grammar mutations keep taking its
	// write lock after it is retired.
	lastEarley *Earley
	// probeVersion is the grammar version the current selection is known
	// to be right for; a reselection at the same version is a no-op
	// (same grammar ⇒ same verdict ⇒ same table).
	probeVersion uint64
	// retired accumulates the counters of replaced backends, so the
	// entry's counters stay monotonic across reselections (a rule
	// update must not reset parses_served to zero).
	retired core.Counters

	// lrTbl and llTbl are the conflicted probe tables that lost the
	// verdict: lrTbl is kept while LL or lazy GLR serves, llTbl while
	// lazy GLR serves (nil otherwise). Every update in those modes is
	// spliced into lrTbl, so a non-nil lrTbl always reflects the current
	// grammar. llTbl is repaired on deletions only, since LL(1) conflicts
	// are monotone under rule addition (FIRST, NULLABLE and FOLLOW only
	// grow): llPending holds the additions it has not seen, and is
	// non-empty only while llTbl has conflicts.
	lrTbl     *lalr.Table
	llTbl     *ll.Table
	llPending []*grammar.Rule

	// reprobe marks that rule updates (or a churn-window shift) have
	// outdated the selection; the next access reselects once for the
	// whole batch. reprobes counts the reselections that ran a full
	// table probe — the reprobe counter /metrics exposes per grammar.
	reprobe  atomic.Bool
	reprobes atomic.Uint64
	// churnSelected records that cur was selected by the churn
	// heuristic, not a table probe. Written only under mu (reselect);
	// read lock-free by the exit check in noteParse.
	churnSelected atomic.Bool
	// winUpdates/winParses are the decayed event window behind the
	// churn heuristic: both halve when their sum crosses the window
	// bound, so the ratio tracks recent traffic, not lifetime totals.
	// The updates are racy by design — the window is a heuristic, and a
	// smeared decay only shifts the crossing by a few events.
	winUpdates atomic.Uint64
	winParses  atomic.Uint64
}

const (
	// churnWindow bounds the update/parse event window; crossing it
	// halves both counters (an exponential decay in batches).
	churnWindow = 256
	// churnMinUpdates is the fewest windowed updates that can trigger
	// the churn verdict, so a burst of two edits cannot flap the engine.
	churnMinUpdates = 8
	// churnEnterRatio switches to Earley when updates/(updates+parses)
	// reaches it; churnExitRatio re-probes the tables once parse
	// traffic pushes the ratio back down. The gap is the hysteresis.
	churnEnterRatio = 0.5
	churnExitRatio  = 0.25
)

// NewAuto probes g and returns the auto engine with its selection made.
func NewAuto(g *grammar.Grammar, opts *Options) *Auto {
	a := &Auto{g: g}
	if opts != nil {
		a.opts = *opts
	}
	a.cur, a.lrTbl, a.llTbl = probe(g, &a.opts)
	a.probeVersion = g.Version()
	return a
}

// Probe reports the backend auto-selection would pick for g and why,
// without keeping the built engine — for diagnostics and docs. The
// verdict is the table probe's; the churn heuristic needs live traffic
// and never applies to a fresh engine.
func Probe(g *grammar.Grammar) (Kind, string) {
	e, _, _ := probe(g, nil)
	return e.Kind(), e.Reason()
}

// probe generates the LALR(1) table (and, when it conflicts, the LL(1)
// table) and selects from them. The tables that lost the verdict are
// returned too, for Auto to keep and repair.
func probe(g *grammar.Grammar, opts *Options) (Engine, *lalr.Table, *ll.Table) {
	tbl := lalr.Generate(g)
	var lt *ll.Table
	if len(tbl.Conflicts()) > 0 {
		lt = ll.Generate(g)
	}
	e := selectFrom(g, opts, tbl, lt)
	tbl, lt = losers(e, tbl, lt)
	return e, tbl, lt
}

// losers returns the tables e was not built from — the ones Auto keeps
// beside it — out of the pair it was selected from.
func losers(e Engine, tbl *lalr.Table, lt *ll.Table) (*lalr.Table, *ll.Table) {
	switch e.Kind() {
	case KindLALR:
		return nil, nil
	case KindLL:
		return tbl, nil
	default:
		return tbl, lt
	}
}

// selectFrom reads the verdict from tables that reflect g:
// conflict-free ⇒ LALR(1); LL(1)-able ⇒ LL; else lazy GLR. The winning
// table is adopted by its engine, so the table that decided the verdict
// is never wasted work on the path that needs it. lt may be nil when tbl
// is conflict-free; it may also lag g by rule additions, provided it has
// conflicts (which additions cannot remove).
func selectFrom(g *grammar.Grammar, opts *Options, tbl *lalr.Table, lt *ll.Table) Engine {
	if len(tbl.Conflicts()) == 0 {
		reason := fmt.Sprintf("auto: LALR(1) — conflict-free (%d states, deterministic LR driver)",
			tbl.Automaton().Len())
		return newLALRFromTable(g, tbl, reason)
	}
	if len(lt.Conflicts()) == 0 {
		reason := fmt.Sprintf("auto: LL(1) — %d LALR(1) conflicts but a clean prediction table", len(tbl.Conflicts()))
		return &LL{reason: reason, g: g, tbl: lt}
	}
	c := tbl.Conflicts()[0]
	reason := fmt.Sprintf("auto: lazy GLR — %d LALR(1) conflicts (first: %s on %q in state %d)",
		len(tbl.Conflicts()), c.Kind, g.Symbols().Name(c.Symbol), c.State.ID)
	return NewGLR(g, opts, reason)
}

// current returns the selected backend, reselecting first when rule
// updates or a churn-window shift have outdated the selection.
func (a *Auto) current() Engine {
	if !a.reprobe.Load() {
		a.mu.RLock()
		cur := a.cur
		a.mu.RUnlock()
		return cur
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.reprobe.Swap(false) {
		a.reselectLocked()
	}
	return a.cur
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

// drive implements Driver. Every parse feeds the churn window; while
// the churn verdict holds, parse traffic pushing the window ratio under
// the exit threshold schedules a table re-probe. Selection (including
// any deferred re-probe) is its own stage, then the chosen backend
// records its phases and the span is attributed to it.
func (a *Auto) drive(input []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace, fl *cancel.Flag) (Result, error) {
	a.noteParse()
	tr.BeginStage(obs.StageSelect)
	cur := a.current()
	tr.EndStage(obs.StageSelect)
	tr.SetEngine(cur.Kind().String())
	return cur.drive(input, buildTrees, tr, fl)
}

func (a *Auto) noteParse() {
	p := a.winParses.Add(1)
	u := a.winUpdates.Load()
	if u+p >= churnWindow {
		// Best-effort exponential decay; racing halvings only smear the
		// window by a few events.
		a.winUpdates.Store(u / 2)
		a.winParses.Store(p / 2)
	}
	if a.churnSelected.Load() && float64(u) < churnExitRatio*float64(u+p) {
		a.reprobe.Store(true)
	}
}

func (a *Auto) noteUpdate() {
	u := a.winUpdates.Add(1)
	p := a.winParses.Load()
	if u+p >= churnWindow {
		a.winUpdates.Store(u / 2)
		a.winParses.Store(p / 2)
	}
}

// Counters implements Engine: the live backend's counters plus those
// accumulated by backends retired at reselection.
func (a *Auto) Counters() core.Counters {
	a.current() // settle any pending reselection first
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.cur.Counters().Plus(a.retired)
}

// TableInfo implements Engine.
func (a *Auto) TableInfo() TableInfo { return a.current().TableInfo() }

// AddRule implements Engine: the rule is applied through the selected
// backend, and the verdict is re-read from a repaired table. Every
// backend absorbs updates incrementally — GLR splices through its
// generator, Earley updates its rule view, LALR repairs the affected
// states in place, LL refills the damaged prediction rows — so as long
// as the verdict visibly holds (LALR still conflict-free, LL still
// accepting, the retained tables of a GLR selection still conflicted)
// the selection is stamped current and nothing is regenerated. A
// repaired update that does move the verdict (a conflict appears in the
// LALR table, a rule is rolled back as non-LL(1), a GLR selection's
// tables lose their conflicts) schedules the reselection.
func (a *Auto) AddRule(r *grammar.Rule) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	defer a.lockRetiredEarley()()
	switch cur := a.cur.(type) {
	case *GLR:
		if err := cur.AddRule(r); err != nil {
			return err
		}
		a.noteUpdate()
		a.repairVerdictLocked(r, true)
	case *Earley:
		if err := cur.AddRule(r); err != nil {
			return err
		}
		a.noteUpdate()
		a.reprobe.Store(true)
	case *LALR:
		if err := cur.AddRule(r); err != nil {
			return err
		}
		a.noteUpdate()
		if len(cur.Table().Conflicts()) > 0 {
			a.reprobe.Store(true)
		} else {
			// Verdict unchanged: the repaired table is the one a probe
			// would build, so stamp the selection current.
			a.probeVersion = a.g.Version()
		}
	case *LL:
		err := cur.AddRule(r)
		if errors.Is(err, ll.ErrNotLL1) {
			// The backend rolled the rule back to keep its table clean,
			// but the auto contract is to apply the rule and follow the
			// grammar wherever it goes: reapply directly and let a full
			// probe pick the backend that now fits (no LL(1) table
			// reflects the grammar any more).
			if aerr := a.g.AddRule(r); aerr != nil {
				return aerr
			}
			a.noteUpdate()
			a.dropTablesLocked()
			a.reprobe.Store(true)
			return nil
		}
		if err != nil {
			return err
		}
		a.noteUpdate()
		a.repairVerdictLocked(r, true)
	default:
		if err := a.g.AddRule(r); err != nil {
			return err
		}
		a.noteUpdate()
		a.reprobe.Store(true)
	}
	return nil
}

// lockRetiredEarley excludes in-flight parses on a churn-retired Earley
// backend for the duration of a grammar mutation: such a parse may
// recompile its grammar view at any moment, and the table-driven
// current backend's own locking cannot see it. Returns the unlock (a
// no-op when there is no retired Earley, or when the Earley backend is
// current — its AddRule/DeleteRule takes the same lock itself).
func (a *Auto) lockRetiredEarley() func() {
	if e := a.lastEarley; e != nil && Engine(e) != a.cur {
		e.mu.Lock()
		return e.mu.Unlock
	}
	return func() {}
}

// DeleteRule implements Engine; see AddRule for the per-backend
// application strategy.
func (a *Auto) DeleteRule(r *grammar.Rule) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	defer a.lockRetiredEarley()()
	switch cur := a.cur.(type) {
	case *GLR:
		if err := cur.DeleteRule(r); err != nil {
			return err
		}
		a.noteUpdate()
		a.repairVerdictLocked(r, false)
	case *Earley:
		if err := cur.DeleteRule(r); err != nil {
			return err
		}
		a.noteUpdate()
		a.reprobe.Store(true)
	case *LALR:
		if err := cur.DeleteRule(r); err != nil {
			return err
		}
		a.noteUpdate()
		if len(cur.Table().Conflicts()) > 0 {
			a.reprobe.Store(true)
		} else {
			a.probeVersion = a.g.Version()
		}
	case *LL:
		if err := cur.DeleteRule(r); err != nil {
			return err
		}
		a.noteUpdate()
		a.repairVerdictLocked(r, false)
	default:
		if _, err := a.g.DeleteRule(r); err != nil {
			return err
		}
		a.noteUpdate()
		a.reprobe.Store(true)
	}
	return nil
}

// repairVerdictLocked splices one rule update, already applied by the LL
// or lazy-GLR backend, into the retained probe tables and re-reads the
// verdict from them. While it holds — the LALR(1) table still
// conflicted, and the LL(1) table still clean under LL (the LL backend
// accepted the update) or still conflicted under lazy GLR — the
// selection is stamped current: the next access consults the churn
// heuristic but regenerates nothing. When the verdict moves, the stamp
// is left behind and the reselection adopts the repaired table. A table
// Repair reports stale is dropped, and the reselection probes in full.
func (a *Auto) repairVerdictLocked(r *grammar.Rule, added bool) {
	a.reprobe.Store(true)
	if a.lrTbl == nil {
		return
	}
	if a.lrTbl.Repair(r).Stale() {
		a.dropTablesLocked()
		return
	}
	if a.llTbl != nil {
		if added && len(a.llTbl.Conflicts()) > 0 {
			a.llPending = append(a.llPending, r)
		} else {
			a.llTbl.Repair(append(a.llPending, r)...)
			a.llPending = a.llPending[:0]
		}
	}
	if len(a.lrTbl.Conflicts()) > 0 && (a.llTbl == nil || len(a.llTbl.Conflicts()) > 0) {
		a.probeVersion = a.g.Version()
	}
}

// dropTablesLocked releases the retained probe tables.
func (a *Auto) dropTablesLocked() {
	a.lrTbl, a.llTbl, a.llPending = nil, nil, nil
}

// reselectLocked settles one or more modifications (or a churn shift).
// The churn heuristic is consulted first: while recent updates
// outnumber the enter threshold, the table-free Earley backend serves
// the entry and no table is (re)generated at all. Otherwise the verdict
// is re-read; nothing happens when the grammar version has not moved
// since the selection was last known right (nothing to relearn — and
// nothing to regenerate: the current backend still holds its table).
// The verdict comes from the retained tables when they can decide it
// (they already reflect the grammar), and from a full probe otherwise.
// A warm lazy-GLR table survives a GLR→GLR verdict (the incremental
// splice already updated it); every other verdict adopts the new
// engine, whose table reflects the updated grammar, and banks the
// replaced backend's counters so the entry's totals stay monotonic.
func (a *Auto) reselectLocked() {
	v := a.g.Version()
	u, p := a.winUpdates.Load(), a.winParses.Load()
	if a.churnJustifiesEarleyLocked() && u >= churnMinUpdates && float64(u) >= churnEnterRatio*float64(u+p) {
		a.probeVersion = v
		if _, isEarley := a.cur.(*Earley); !isEarley {
			reason := fmt.Sprintf("auto: Earley — heavy rule churn (%d updates vs %d parses in window; table-free updates are free)", u, p)
			e := NewEarley(a.g, reason)
			a.retireTo(e)
			a.lastEarley = e
			// Earley updates do not repair the tables; the exit probe
			// rebuilds them.
			a.dropTablesLocked()
		}
		a.churnSelected.Store(true)
		return
	}
	wasChurn := a.churnSelected.Load()
	a.churnSelected.Store(false)
	if v == a.probeVersion && !wasChurn {
		return
	}
	a.probeVersion = v
	var next Engine
	if a.lrTbl != nil && (a.llTbl != nil || len(a.lrTbl.Conflicts()) == 0) {
		next = selectFrom(a.g, &a.opts, a.lrTbl, a.llTbl)
		a.lrTbl, a.llTbl = losers(next, a.lrTbl, a.llTbl)
		if a.llTbl == nil {
			a.llPending = nil
		}
	} else {
		a.reprobes.Add(1)
		next, a.lrTbl, a.llTbl = probe(a.g, &a.opts)
		a.llPending = nil
	}
	if _, stayGLR := a.cur.(*GLR); stayGLR && next.Kind() == KindGLR {
		return
	}
	a.retireTo(next)
}

// churnJustifiesEarleyLocked reports whether heavy rule churn is worth
// a switch to the table-free backend. LALR and LL absorb an update by
// repairing their table in place, at a cost bounded by the damage, so
// churn never forces them off their fast drivers. Lazy GLR trades up to
// Earley under churn: each update splices its generator and repairs the
// retained probe table, and re-expands the invalidated states on the
// next parses, while Earley pays nothing per update.
func (a *Auto) churnJustifiesEarleyLocked() bool {
	switch a.cur.(type) {
	case *LALR, *LL:
		return false
	default:
		return true
	}
}

// retireTo banks the replaced backend's counters and installs next.
// Replacing a backend discards its table wholesale; count those states
// as invalidated so an auto entry reports the same regeneration cost an
// explicit LALR/LL entry would.
func (a *Auto) retireTo(next Engine) {
	a.retired = a.retired.Plus(a.cur.Counters())
	a.retired.StatesInvalidated += uint64(a.cur.TableInfo().States)
	a.cur = next
}

// Reprobes counts the reselections that ran a full table probe
// (lalr.Generate and, on conflicts, ll.Generate). One runs only when no
// kept table can decide the verdict: a repair left its table stale, the
// LALR backend's table gained a conflict, the LL backend refused a
// rule, or the entry leaves the churn-selected Earley backend. Verdicts
// re-read from repaired tables do not count. Exposed as the
// ipg_engine_reprobes_total metric.
func (a *Auto) Reprobes() uint64 { return a.reprobes.Load() }

// snapshotter resolves the selected backend's snapshot capability (nil
// when it has none — only the lazy-GLR table persists).
func (a *Auto) snapshotter() Snapshotter {
	if s, ok := a.current().(Snapshotter); ok {
		return s
	}
	return nil
}
