package core

import (
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// AddRule adds rule to the grammar and updates the corresponding graph of
// item sets (ADD-RULE, section 6.1). Affected states are invalidated and
// re-expanded by need during subsequent parses. It takes exclusive access
// to the table: concurrent parses bracketed by BeginParse/EndParse see
// the table entirely before or entirely after the modification.
func (gen *Generator) AddRule(rule *grammar.Rule) error {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	return gen.addRuleLocked(rule)
}

func (gen *Generator) addRuleLocked(rule *grammar.Rule) error {
	gen.checkVersion()
	if err := gen.g.AddRule(rule); err != nil {
		return err
	}
	gen.modifyGraph(rule)
	return nil
}

// DeleteRule deletes rule from the grammar and updates the graph of item
// sets (DELETE-RULE, section 6.1). Like AddRule it takes exclusive
// access.
func (gen *Generator) DeleteRule(rule *grammar.Rule) error {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	gen.checkVersion()
	if _, err := gen.g.DeleteRule(rule); err != nil {
		return err
	}
	gen.modifyGraph(rule)
	return nil
}

// AddGrammar adds every rule of other not already present — the
// asymmetric form of modular parser composition discussed in section 8
// ("adding the grammar of one module to the grammar of the other"). The
// grammars must share a symbol table. It returns the number of rules
// added. The whole batch happens under one exclusive critical section.
func (gen *Generator) AddGrammar(other *grammar.Grammar) (int, error) {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	n := 0
	for _, r := range other.Rules() {
		if gen.g.Has(r) {
			continue
		}
		if err := gen.addRuleLocked(r); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// modifyGraph is MODIFY's graph half (section 6.1): the grammar has
// already been updated; the graph of item sets is reduced to one that is
// correct for the modified grammar by invalidating every incorrectly
// expanded state.
//
// For a modified rule A ::= β:
//
//   - If A is START, only the start state can contain A ::= •β in its
//     kernel; its kernel is recomputed and it is invalidated.
//
//   - Otherwise, exactly the complete states with a transition on A had
//     A ::= •β in the closure of their kernel (EXPAND must have created a
//     transition for A whenever some item had its dot before A), so those
//     are invalidated. Initial states need no treatment — they will be
//     expanded against the new grammar anyway — and dirty states are
//     already invalid.
func (gen *Generator) modifyGraph(rule *grammar.Rule) {
	gen.version = gen.g.Version()
	if rule.Lhs == gen.g.Start() {
		start := gen.auto.Start()
		if start.Type == lr.Complete {
			gen.invalidate(start)
		}
		gen.auto.ResetStartKernel()
	} else {
		// The automaton indexes the complete states by the nonterminals
		// they transition on, so finding them costs as much as there
		// are of them.
		gen.affected = gen.auto.AppendStatesOn(gen.affected[:0], rule.Lhs)
		gen.statesScanned.Add(uint64(len(gen.affected)))
		for _, s := range gen.affected {
			gen.invalidate(s)
		}
		clear(gen.affected)
	}
	if gen.policy == PolicyEagerSweep {
		gen.markSweepLocked()
	} else if gen.policy == PolicyRefCount && gen.threshold >= 0 {
		gen.maybeSweep()
	}
}

// invalidate makes a complete state initial (PolicyRetainAll) or dirty
// (reference-counting policies), so the lazy generator re-expands it when
// the parser needs it again.
func (gen *Generator) invalidate(s *lr.State) {
	gen.statesInvalidated.Add(1)
	// PolicyRefCount (section 6.2) makes the state dirty — an initial
	// set of items with a history — so RE-EXPAND can release old
	// references afterwards. PolicyRetainAll (section 6.1) makes it
	// initial: transitions disappear ("by definition, initial sets of
	// items do not have a transitions field"). PolicyEagerSweep also
	// drops the history: the subsequent sweep then removes everything
	// these transitions kept alive — the "too much is thrown away" horn
	// of the dilemma.
	gen.auto.Invalidate(s, gen.policy == PolicyRefCount)
}
