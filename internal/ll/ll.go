// Package ll implements an LL(1) parser generator and two parsers driven
// by it: a table-driven predictive parser ("an LL generator constructs a
// parse table that is interpreted by a fixed parser") and a generated
// recursive-descent parsing program ("a recursive descent parser
// generator constructs a parsing program") — the second row of Fig 2.1.
// The accepted class is limited to non-left-recursive, non-ambiguous
// grammars, as the paper notes.
package ll

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ipg/internal/cancel"
	"ipg/internal/faultinject"
	"ipg/internal/forest"
	"ipg/internal/grammar"
)

// Conflict is an LL(1) table cell with more than one applicable rule.
type Conflict struct {
	// Nonterminal and Lookahead locate the cell.
	Nonterminal, Lookahead grammar.Symbol
	// Rules are the competing rules.
	Rules []*grammar.Rule
}

// Table is an LL(1) parse table M[A, a] -> rule. It remembers the
// grammar version its rows reflect, so a rule update can be Repaired by
// rebuilding only the rows whose prediction inputs moved since.
type Table struct {
	g         *grammar.Grammar
	m         map[grammar.Symbol]map[grammar.Symbol]*grammar.Rule
	conflicts []Conflict
	// rowConflicts holds each nonterminal's conflicts; the table-wide
	// list is their concatenation in symbol order.
	rowConflicts map[grammar.Symbol][]Conflict
	// ana is the grammar's FIRST/nullable/FOLLOW analysis and version
	// the grammar version the rows were filled at.
	ana     *grammar.Analysis
	version uint64
	tmp     grammar.Bitset
}

// Generate builds the LL(1) table for g from FIRST and FOLLOW.
func Generate(g *grammar.Grammar) *Table {
	t := &Table{
		g:            g,
		m:            map[grammar.Symbol]map[grammar.Symbol]*grammar.Rule{},
		rowConflicts: map[grammar.Symbol][]Conflict{},
		ana:          g.Analysis(),
	}
	t.version = t.ana.Version()
	for _, a := range g.Symbols().Nonterminals() {
		if len(g.RulesFor(a)) > 0 {
			t.fillRow(a)
			t.spliceRow(a, 0)
		}
	}
	return t
}

// fillRow rebuilds the prediction row of one nonterminal — cells and
// conflicts — from the grammar's analysis. Rules are processed in
// grammar insertion order, so a repaired row is identical to a
// regenerated one.
func (t *Table) fillRow(a grammar.Symbol) {
	delete(t.m, a)
	delete(t.rowConflicts, a)
	var r *grammar.Rule
	set := func(la grammar.Symbol) {
		row, ok := t.m[a]
		if !ok {
			row = map[grammar.Symbol]*grammar.Rule{}
			t.m[a] = row
		}
		if prev, ok := row[la]; ok && prev != r {
			t.rowConflicts[a] = append(t.rowConflicts[a], Conflict{
				Nonterminal: a, Lookahead: la, Rules: []*grammar.Rule{prev, r},
			})
			return
		}
		row[la] = r
	}
	for _, r = range t.g.RulesFor(a) {
		t.tmp = t.tmp.Sized(grammar.BitsetWords(t.g.Symbols()))
		nullableRHS := t.ana.FirstOf(t.tmp, r.Rhs)
		t.tmp.ForEach(set)
		if nullableRHS {
			t.ana.Follow(a).ForEach(set)
		}
	}
}

// RepairStats reports what one Repair did: how many prediction rows were
// rebuilt vs kept verbatim, whether the conflict set moved, and the work
// the repair visited — rules whose FIRST-of-RHS inputs were checked,
// and nonterminals whose FIRST/nullable/FOLLOW sets the grammar's
// analysis recomputed for it.
type RepairStats struct {
	RowsRepaired     int
	RowsKept         int
	ConflictsChanged bool
	RulesDiffed      int
	Reanalysed       int
}

// Repair splices rule updates into the table after the grammar has
// already been mutated (AddRule or DeleteRule of each rule). The
// grammar's analysis is delta-repaired from the modified left-hand
// sides, and only the rows whose prediction inputs moved are refilled:
// the modified nonterminals themselves, rows with a rule whose
// right-hand-side FIRST can have moved (a nonterminal whose FIRST or
// nullability moved sits in its nullable prefix, or just after it), and
// nullable rows whose FOLLOW moved. The rules checked are those that
// mention a moved nonterminal, found through the grammar's
// reverse-dependency index, so the repair costs what the update moved.
// The result is cell-identical to a from-scratch Generate; unlike the
// LALR repair there is no structural state to splice, so Repair never
// declines.
func (t *Table) Repair(rules ...*grammar.Rule) RepairStats {
	g := t.g
	var st RepairStats
	work := t.ana.Work()
	a := g.Analysis()
	st.Reanalysed = a.Work() - work

	damaged := map[grammar.Symbol]bool{}
	for _, r := range rules {
		damaged[r.Lhs] = true
	}
	moved := a.FirstMovedSince(t.version, nil)
	isMoved := make(map[grammar.Symbol]bool, len(moved))
	for _, n := range moved {
		isMoved[n] = true
	}
	for _, y := range moved {
		for _, r := range g.RulesUsing(y) {
			st.RulesDiffed++
			if !damaged[r.Lhs] && t.windowMoved(r, isMoved) {
				damaged[r.Lhs] = true
			}
		}
	}
	for _, x := range a.FollowMovedSince(t.version, nil) {
		if damaged[x] {
			continue
		}
		for _, r := range g.RulesFor(x) {
			st.RulesDiffed++
			t.tmp = t.tmp.Sized(grammar.BitsetWords(g.Symbols()))
			if a.FirstOf(t.tmp, r.Rhs) {
				damaged[x] = true
				break
			}
		}
	}
	t.version = a.Version()

	// Only refilled rows can change their conflicts.
	st.RowsRepaired = len(damaged)
	st.RowsKept = max(g.LhsCount()-len(damaged), 0)
	for n := range damaged {
		before := t.rowConflicts[n]
		t.fillRow(n)
		if !sameConflicts(before, t.rowConflicts[n]) {
			st.ConflictsChanged = true
			t.spliceRow(n, len(before))
		}
	}
	return st
}

// spliceRow replaces row n's previous count conflicts in the table-wide
// list, kept in (nonterminal, lookahead) order, with its current ones.
func (t *Table) spliceRow(n grammar.Symbol, count int) {
	if count == 0 && len(t.rowConflicts[n]) == 0 {
		return
	}
	cs := append([]Conflict(nil), t.rowConflicts[n]...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Lookahead < cs[j].Lookahead })
	lo := sort.Search(len(t.conflicts), func(i int) bool { return t.conflicts[i].Nonterminal >= n })
	t.conflicts = slices.Replace(t.conflicts, lo, lo+count, cs...)
}

// windowMoved reports whether FIRST of r's right-hand side can have
// moved: a moved nonterminal occurs before the first symbol that is
// non-nullable now (a nonterminal whose nullability moved is itself
// moved, so the prefix is the same under the old analysis).
func (t *Table) windowMoved(r *grammar.Rule, moved map[grammar.Symbol]bool) bool {
	syms := t.g.Symbols()
	for _, s := range r.Rhs {
		if moved[s] {
			return true
		}
		if syms.Kind(s) == grammar.Terminal || !t.ana.Nullable(s) {
			return false
		}
	}
	return false
}

// sameConflicts reports whether two conflict lists of one row hold the
// same cells with the same competing rules, in any order.
func sameConflicts(a, b []Conflict) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, x := range a {
		found := false
		for j, y := range b {
			if !used[j] && x.Lookahead == y.Lookahead && sameRules(x.Rules, y.Rules) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func sameRules(a, b []*grammar.Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// conflictKeys renders the conflict set canonically for comparison.
func (t *Table) conflictKeys() []string {
	out := make([]string, 0, len(t.conflicts))
	for _, c := range t.conflicts {
		k := fmt.Sprintf("%d|%d", c.Nonterminal, c.Lookahead)
		for _, r := range c.Rules {
			k += "|" + r.Key()
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Signature renders the whole table — rows, cells, conflicts — in a
// canonical order, so a repaired table can be compared cell-for-cell
// against a from-scratch regeneration.
func (t *Table) Signature() string {
	var b strings.Builder
	rows := make([]grammar.Symbol, 0, len(t.m))
	for a := range t.m {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	for _, a := range rows {
		fmt.Fprintf(&b, "%d:\n", a)
		las := make([]grammar.Symbol, 0, len(t.m[a]))
		for la := range t.m[a] {
			las = append(las, la)
		}
		sort.Slice(las, func(i, j int) bool { return las[i] < las[j] })
		for _, la := range las {
			fmt.Fprintf(&b, "  %d -> %s\n", la, t.m[a][la].Key())
		}
	}
	b.WriteString("conflicts:\n")
	for _, k := range t.conflictKeys() {
		b.WriteString("  " + k + "\n")
	}
	return b.String()
}

// Conflicts returns the LL(1) conflicts; the grammar is LL(1) iff empty.
func (t *Table) Conflicts() []Conflict { return t.conflicts }

// Grammar returns the table's grammar.
func (t *Table) Grammar() *grammar.Grammar { return t.g }

// Predict returns the rule the table selects for nonterminal a on
// lookahead la, or nil when the cell is empty. This is the raw
// prediction-row read the completion cursor simulates expansions with;
// it performs no allocation.
func (t *Table) Predict(a, la grammar.Symbol) *grammar.Rule { return t.m[a][la] }

// ErrNotLL1 is returned by parsers generated from conflicted tables.
var ErrNotLL1 = fmt.Errorf("ll: grammar is not LL(1)")

// Parse runs the table-driven predictive parser on input (terminals,
// without end marker). It returns ErrNotLL1 when the table has conflicts.
func (t *Table) Parse(input []grammar.Symbol) (bool, error) {
	ok, _, _, err := t.ParseDiag(input, nil)
	return ok, err
}

// ParseForest runs the predictive parser and builds the parse tree into
// f — the tree is unique because an LL(1) grammar is unambiguous, so the
// "forest" never contains an ambiguity node and renders identically to
// the one the LR engines build for the same sentence. On rejection it
// reports the furthest input position reached and the terminals that
// would have allowed progress there (the same diagnostic shape as
// glr.Result). It returns ErrNotLL1 when the table has conflicts. fl
// (nil never cancels) is polled at the drive loop's checkpoints (every
// 64 steps); a fired flag aborts with a *cancel.Error.
func (t *Table) ParseForest(input []grammar.Symbol, f *forest.Forest, fl *cancel.Flag) (root *forest.Node, errPos int, expected []grammar.Symbol, err error) {
	if len(t.conflicts) > 0 {
		return nil, -1, nil, ErrNotLL1
	}
	if f == nil {
		f = forest.NewForest()
	}
	_, root, errPos, expected, err = t.drive(input, f, fl)
	return root, errPos, expected, err
}

// ParseDiag is recognition with the ParseForest diagnostics and
// cancellation but without any node construction — one pass, no
// allocation per matched token. errPos is -1 for accepted inputs.
func (t *Table) ParseDiag(input []grammar.Symbol, fl *cancel.Flag) (ok bool, errPos int, expected []grammar.Symbol, err error) {
	if len(t.conflicts) > 0 {
		return false, -1, nil, ErrNotLL1
	}
	ok, _, errPos, expected, err = t.drive(input, nil, fl)
	return ok, errPos, expected, err
}

// drive is the predictive-parse engine behind ParseForest and
// ParseDiag. A nil forest skips tree building entirely. A trailing end
// marker is accepted and ignored, so EOF-terminated token streams (the
// service's zero-alloc convention) parse identically to bare ones.
func (t *Table) drive(input []grammar.Symbol, f *forest.Forest, fl *cancel.Flag) (ok bool, root *forest.Node, errPos int, expected []grammar.Symbol, err error) {
	if n := len(input); n > 0 && input[n-1] == grammar.EOF {
		input = input[:n-1]
	}

	// Furthest-failure tracking: predictive parsing never backtracks, so
	// the first failure is also the furthest, but tracking it uniformly
	// keeps the bookkeeping obviously correct.
	failPos := -1
	failExp := map[grammar.Symbol]bool{}
	fail := func(pos int, exp ...grammar.Symbol) {
		if pos > failPos {
			failPos = pos
			failExp = map[grammar.Symbol]bool{}
		}
		if pos == failPos {
			for _, s := range exp {
				failExp[s] = true
			}
		}
	}
	la := func(pos int) grammar.Symbol {
		if pos < len(input) {
			return input[pos]
		}
		return grammar.EOF
	}

	// predict looks up the rule for A on the current lookahead,
	// recording the failure diagnostic when the cell is empty.
	predict := func(a grammar.Symbol, pos int) (*grammar.Rule, bool) {
		r, ok := t.m[a][la(pos)]
		if !ok {
			// Any terminal with a table entry for A would have worked.
			row := make([]grammar.Symbol, 0, len(t.m[a]))
			for sym := range t.m[a] {
				row = append(row, sym)
			}
			fail(pos, row...)
		}
		return r, ok
	}

	// Explicit frame stack (like Table.Parse) rather than recursion:
	// recursion depth is proportional to input length for recursive
	// grammars, and a service input measured in megabytes must not be
	// able to exhaust the goroutine stack.
	type frame struct {
		rule     *grammar.Rule
		next     int // index into rule.Rhs
		children []*forest.Node
	}
	// Check the flag once before the drive so a pre-fired cancellation
	// (deadline already expired, client already gone) aborts even when
	// the input is too short to reach the in-loop checkpoint stride.
	if fl.Hit() {
		return false, nil, -1, nil, fl.Err(0, len(input), 0)
	}
	startRule, ok := predict(t.g.Start(), 0)
	if !ok {
		return false, nil, failPos, expectedSlice(failExp), nil
	}
	stack := []frame{{rule: startRule}}
	pos := 0
	steps := uint64(0)
	var node *forest.Node
	for len(stack) > 0 {
		// Cancellation checkpoint every 64 predictive steps: the loop
		// advances by at most one frame or token per iteration, so the
		// mask bounds abort latency without a per-step atomic load.
		if steps++; steps&63 == 0 && fl.Hit() {
			return false, nil, -1, nil, fl.Err(pos, len(input), steps)
		}
		top := &stack[len(stack)-1]
		if top.next == top.rule.Len() {
			// Rule complete: build its node and hand it to the parent.
			var done *forest.Node
			if f != nil {
				done = f.Rule(top.rule, top.children)
			}
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				node = done
				break
			}
			parent := &stack[len(stack)-1]
			if f != nil {
				parent.children = append(parent.children, done)
			}
			parent.next++
			continue
		}
		sym := top.rule.Rhs[top.next]
		if t.g.Symbols().Kind(sym) == grammar.Terminal {
			if la(pos) != sym {
				fail(pos, sym)
				return false, nil, failPos, expectedSlice(failExp), nil
			}
			if f != nil {
				top.children = append(top.children, f.Leaf(sym, pos))
			}
			top.next++
			pos++
			if faultinject.Armed() {
				faultinject.Step(faultinject.SiteDriveToken, pos, fl)
			}
			continue
		}
		r, ok := predict(sym, pos)
		if !ok {
			return false, nil, failPos, expectedSlice(failExp), nil
		}
		stack = append(stack, frame{rule: r})
	}
	// The start rule completed, consuming pos tokens.
	if pos == len(input) {
		// The LR engines accept with the start rule's (unit) right-hand
		// side as root — they never reduce the start rule itself. Unwrap
		// the unit start application so both render identically.
		if node != nil && node.Kind() == forest.RuleNode && node.Rule().Lhs == t.g.Start() && len(node.Children()) == 1 {
			node = node.Children()[0]
		}
		return true, node, -1, nil, nil
	}
	// The start symbol derived a proper prefix; only end of input was
	// legal after it.
	fail(pos, grammar.EOF)
	return false, nil, failPos, expectedSlice(failExp), nil
}

// expectedSlice sorts a failure's expected-terminal set.
func expectedSlice(set map[grammar.Symbol]bool) []grammar.Symbol {
	out := make([]grammar.Symbol, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BuildRecursiveDescent compiles the grammar into a parsing program: one
// Go closure per nonterminal, selected by the LL(1) table. The returned
// function recognizes complete sentences. Construction fails with
// ErrNotLL1 on conflicted grammars (recursive descent without backtrack
// needs a unique prediction).
func BuildRecursiveDescent(g *grammar.Grammar) (func([]grammar.Symbol) bool, error) {
	t := Generate(g)
	if len(t.conflicts) > 0 {
		return nil, ErrNotLL1
	}

	// fns[A](input, pos) -> (newPos, ok)
	fns := map[grammar.Symbol]func([]grammar.Symbol, int) (int, bool){}
	for _, a := range g.Symbols().Nonterminals() {
		a := a
		fns[a] = func(input []grammar.Symbol, pos int) (int, bool) {
			la := grammar.EOF
			if pos < len(input) {
				la = input[pos]
			}
			r, ok := t.m[a][la]
			if !ok {
				return pos, false
			}
			for _, sym := range r.Rhs {
				if g.Symbols().Kind(sym) == grammar.Terminal {
					if pos >= len(input) || input[pos] != sym {
						return pos, false
					}
					pos++
					continue
				}
				var matched bool
				pos, matched = fns[sym](input, pos)
				if !matched {
					return pos, false
				}
			}
			return pos, true
		}
	}

	start := fns[g.Start()]
	return func(input []grammar.Symbol) bool {
		end, ok := start(input, 0)
		return ok && end == len(input)
	}, nil
}
