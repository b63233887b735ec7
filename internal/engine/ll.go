package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ipg/internal/cancel"
	"ipg/internal/core"
	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/ll"
	"ipg/internal/obs"
)

// LL is LL(1) predictive parsing behind the Engine interface: the
// second row of Fig 2.1. The accepted grammar class is the narrowest of
// the backends — construction fails on non-LL(1) grammars, and a rule
// update that introduces a conflict is rolled back — but within that
// class the parser is table-driven, deterministic, and builds the same
// unique tree the LR engines build.
type LL struct {
	reason string

	mu  sync.RWMutex
	g   *grammar.Grammar
	tbl *ll.Table

	parsesServed atomic.Uint64
	// Rule updates are spliced by ll.Table.Repair: only damaged rows are
	// refilled. rowsRepaired maps onto the repaired/expanded counter
	// vocabulary; updates feeds the Reason diagnostic.
	rowsRepaired atomic.Uint64
	updates      atomic.Uint64
	// rulesDiffed and reanalysed accumulate the repairs' work counts.
	rulesDiffed atomic.Uint64
	reanalysed  atomic.Uint64
}

// NewLL generates the LL(1) table for g, failing with the conflict list
// when the grammar is not LL(1).
func NewLL(g *grammar.Grammar, reason string) (*LL, error) {
	tbl := ll.Generate(g)
	if n := len(tbl.Conflicts()); n > 0 {
		return nil, fmt.Errorf("engine: grammar is not LL(1) (%d conflicts): %w", n, ll.ErrNotLL1)
	}
	return &LL{reason: reason, g: g, tbl: tbl}, nil
}

// Kind implements Engine.
func (e *LL) Kind() Kind { return KindLL }

// Reason implements Engine. Once rule updates have been absorbed, the
// reason records that they were repaired in place.
func (e *LL) Reason() string {
	u := e.updates.Load()
	if u == 0 {
		return e.reason
	}
	return fmt.Sprintf("%s — %d rule updates repaired in place (%d rows refilled)",
		e.reason, u, e.rowsRepaired.Load())
}

// Caps implements Engine.
func (e *LL) Caps() Caps { return CapsOf(KindLL) }

// Parse implements Engine by forwarding to drive.
func (e *LL) Parse(input []grammar.Symbol, buildTrees bool) (Result, error) {
	return e.drive(input, buildTrees, nil, nil)
}

// Recognize implements Engine by forwarding to drive.
func (e *LL) Recognize(input []grammar.Symbol) (bool, error) {
	return accepted(e.drive(input, false, nil, nil))
}

// drive implements Driver: one predictive parse, recorded as one table
// stage, building the unique tree when buildTrees is set. The
// predictive drive polls the flag every 64 steps.
func (e *LL) drive(input []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace, fl *cancel.Flag) (Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.parsesServed.Add(1)
	tr.BeginStage(obs.StageTable)
	defer tr.EndStage(obs.StageTable)
	if !buildTrees {
		// Single pass, no node construction: diagnostics come from the
		// same drive that would have built the tree.
		ok, errPos, expected, err := e.tbl.ParseDiag(input, fl)
		if err != nil {
			return Result{}, err
		}
		if ok {
			return Result{Accepted: true, ErrorPos: -1}, nil
		}
		return Result{ErrorPos: errPos, Expected: expected}, nil
	}
	f := forest.NewForest()
	root, errPos, expected, err := e.tbl.ParseForest(input, f, fl)
	if err != nil {
		return Result{}, err
	}
	if root == nil {
		// Match GLR's shape: a tree-building rejection still carries its
		// (partial) forest; the recognize-only path above never does, so
		// forest-size admission limits cannot misfire on it.
		return Result{ErrorPos: errPos, Expected: expected, Forest: f}, nil
	}
	return Result{Accepted: true, ErrorPos: -1, Root: root, Forest: f}, nil
}

// Counters implements Engine: prediction rows refilled by repairs map
// onto the repaired/expanded/invalidated vocabulary.
func (e *LL) Counters() core.Counters {
	rows := e.rowsRepaired.Load()
	return core.Counters{
		ParsesServed:      e.parsesServed.Load(),
		StatesExpanded:    rows,
		StatesInvalidated: rows,
		StatesRepaired:    rows,
		RepairRulesDiffed: e.rulesDiffed.Load(),
		RepairReanalysed:  e.reanalysed.Load(),
	}
}

// repair splices already-applied rule updates into the table and
// counts the rows refilled and the work visited. Callers hold mu.
func (e *LL) repair(rules ...*grammar.Rule) {
	st := e.tbl.Repair(rules...)
	e.rowsRepaired.Add(uint64(st.RowsRepaired))
	e.rulesDiffed.Add(uint64(st.RulesDiffed))
	e.reanalysed.Add(uint64(st.Reanalysed))
}

// TableInfo implements Engine: one "state" per nonterminal row of the
// prediction table, always fully generated.
func (e *LL) TableInfo() TableInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := len(e.g.Symbols().Nonterminals())
	return TableInfo{States: n, Complete: n}
}

// AddRule implements Engine by repairing the prediction table in place:
// only rows whose FIRST/FOLLOW inputs moved are refilled. A rule that
// makes the grammar non-LL(1) is rolled back — with a second repair
// restoring the previous rows — so the engine never serves a conflicted
// table.
func (e *LL) AddRule(r *grammar.Rule) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.g.AddRule(r); err != nil {
		return fmt.Errorf("engine: ll add rule: %w", err)
	}
	e.updates.Add(1)
	e.repair(r)
	if n := len(e.tbl.Conflicts()); n > 0 {
		stored, derr := e.g.DeleteRule(r)
		if derr != nil {
			return fmt.Errorf("engine: ll rollback after %d conflicts failed: %v", n, derr)
		}
		e.repair(stored)
		return fmt.Errorf("engine: rule makes the grammar non-LL(1) (%d conflicts), rolled back: %w", n, ll.ErrNotLL1)
	}
	return nil
}

// DeleteRule implements Engine by repairing in place (deleting a rule
// cannot introduce an LL(1) conflict, only remove one).
func (e *LL) DeleteRule(r *grammar.Rule) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	stored, err := e.g.DeleteRule(r)
	if err != nil {
		return fmt.Errorf("engine: ll delete rule: %w", err)
	}
	e.updates.Add(1)
	e.repair(stored)
	return nil
}
