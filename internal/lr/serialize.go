package lr

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ipg/internal/grammar"
)

// This file implements a textual persistence format for graphs of item
// sets, so generated (or partially generated!) parse tables survive
// process restarts — an interactive environment or a long-running parse
// service can resume a session without regenerating the table parts its
// inputs already paid for.
//
// Format v2 (line-oriented):
//
//	ipg-table v2
//	stats <expansions> <created> <removed> <closureItems>
//	start <id>
//	state <id> <initial|complete|dirty>
//	k <dot> <lhs> <rhs...>          (kernel item; symbols by name)
//	p                               (publication flag; complete states)
//	r <lhs> <rhs...>                (reduction)
//	a                               (accept transition)
//	t <sym> <stateID>               (transition)
//	ot <sym> <stateID>              (dirty history: old transition)
//	oa                              (dirty history: old accept)
//
// Version 2 round-trips the full lazy/incremental state, not just the
// automaton skeleton: dirty states keep their history (OldTransitions/
// OldAccept), so reference counts after a reload match the live table
// exactly and a resumed RE-EXPAND releases the same references it would
// have released before the restart; publication flags are explicit, so
// the concurrent fast path resumes warm; and the generator work counters
// (Stats) survive, so coverage measurements continue across restarts.
//
// Rules are stored by value (left-hand side and right-hand side names)
// and resolved against the grammar at load time, so a table only loads
// against a grammar that still contains its rules. Load also accepts the
// v1 format of earlier sessions, which stored dirty states as initial
// (dropping their history) and implied publication from completeness.

const (
	tableMagic   = "ipg-table v2"
	tableMagicV1 = "ipg-table v1"
)

// Save serializes the graph of item sets, including the lazy frontier
// (initial states), invalidation history (dirty states) and publication
// flags. The output is deterministic: states sorted by ID, transitions
// sorted by symbol — so Save∘Load∘Save is byte-identical.
func (a *Automaton) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	names := a.g.Symbols()
	fmt.Fprintln(bw, tableMagic)
	fmt.Fprintf(bw, "stats %d %d %d %d\n",
		a.Stats.Expansions, a.Stats.StatesCreated, a.Stats.StatesRemoved, a.Stats.ClosureItems)
	fmt.Fprintf(bw, "start %d\n", a.start.ID)
	for _, s := range a.States() {
		fmt.Fprintf(bw, "state %d %s\n", s.ID, s.Type)
		for _, it := range s.Kernel {
			fmt.Fprintf(bw, "k %d %s", it.Dot, quoteName(names.Name(it.Rule.Lhs)))
			for _, sym := range it.Rule.Rhs {
				fmt.Fprintf(bw, " %s", quoteName(names.Name(sym)))
			}
			fmt.Fprintln(bw)
		}
		switch s.Type {
		case Complete:
			if s.Published() {
				fmt.Fprintln(bw, "p")
			}
			for _, r := range s.Reductions {
				fmt.Fprintf(bw, "r %s", quoteName(names.Name(r.Lhs)))
				for _, sym := range r.Rhs {
					fmt.Fprintf(bw, " %s", quoteName(names.Name(sym)))
				}
				fmt.Fprintln(bw)
			}
			if s.Accept {
				fmt.Fprintln(bw, "a")
			}
			for _, sym := range s.TransitionSymbols() {
				fmt.Fprintf(bw, "t %s %d\n", quoteName(names.Name(sym)), s.Transitions[sym].ID)
			}
		case Dirty:
			// History keeps the references the state still holds; a resumed
			// re-expansion releases them exactly as the live table would.
			if s.OldAccept {
				fmt.Fprintln(bw, "oa")
			}
			for _, sym := range oldTransitionSymbols(s) {
				fmt.Fprintf(bw, "ot %s %d\n", quoteName(names.Name(sym)), s.OldTransitions[sym].ID)
			}
		}
	}
	return bw.Flush()
}

// oldTransitionSymbols sorts a dirty state's history symbols for
// deterministic output (mirrors TransitionSymbols).
func oldTransitionSymbols(s *State) []grammar.Symbol {
	out := make([]grammar.Symbol, 0, len(s.OldTransitions))
	for sym := range s.OldTransitions {
		out = append(out, sym)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Load deserializes a graph of item sets against g, which must contain
// every rule the table references. Reference counts are recomputed from
// current transitions plus dirty-state history (v2 keeps them identical
// to the live table that was saved). Both the v2 and the legacy v1
// format are accepted.
func Load(g *grammar.Grammar, r io.Reader) (*Automaton, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var v1 bool
	switch {
	case !sc.Scan():
		return nil, fmt.Errorf("lr: not an ipg table (missing %q header)", tableMagic)
	case sc.Text() == tableMagic:
	case sc.Text() == tableMagicV1:
		v1 = true
	default:
		return nil, fmt.Errorf("lr: not an ipg table (missing %q header)", tableMagic)
	}

	a := &Automaton{g: g, states: make(map[uint64]*State)}
	byID := map[int]*State{}
	type pendingTrans struct {
		from *State
		sym  grammar.Symbol
		to   int
		old  bool
	}
	var trans []pendingTrans
	var cur *State
	published := map[*State]bool{}
	startID := -1
	statsSeen := false
	line := 1

	lookupSym := func(name string) (grammar.Symbol, error) {
		s, ok := g.Symbols().Lookup(name)
		if !ok {
			return grammar.NoSymbol, fmt.Errorf("lr: line %d: unknown symbol %q", line, name)
		}
		return s, nil
	}
	lookupRule := func(fields []string) (*grammar.Rule, error) {
		lhs, err := lookupSym(fields[0])
		if err != nil {
			return nil, err
		}
		rhs := make([]grammar.Symbol, 0, len(fields)-1)
		for _, f := range fields[1:] {
			s, err := lookupSym(f)
			if err != nil {
				return nil, err
			}
			rhs = append(rhs, s)
		}
		probe := grammar.NewRule(lhs, rhs...)
		rule, ok := g.Lookup(probe)
		if !ok {
			return nil, fmt.Errorf("lr: line %d: rule %s not in grammar", line, probe.String(g.Symbols()))
		}
		return rule, nil
	}

	var kernelItems []Item
	flushKernel := func() {
		if cur == nil {
			return
		}
		cur.Kernel = NewKernel(kernelItems)
		kernelItems = nil
	}

	var stats Stats
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields, err := splitQuoted(text)
		if err != nil {
			return nil, fmt.Errorf("lr: line %d: %v", line, err)
		}
		switch fields[0] {
		case "stats":
			if len(fields) != 5 {
				return nil, fmt.Errorf("lr: line %d: malformed stats", line)
			}
			nums := make([]int, 4)
			for i, f := range fields[1:] {
				nums[i], err = strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("lr: line %d: %v", line, err)
				}
			}
			stats = Stats{Expansions: nums[0], StatesCreated: nums[1], StatesRemoved: nums[2], ClosureItems: nums[3]}
			statsSeen = true
		case "start":
			if len(fields) != 2 {
				return nil, fmt.Errorf("lr: line %d: malformed start", line)
			}
			startID, err = strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("lr: line %d: %v", line, err)
			}
		case "state":
			if len(fields) != 3 {
				return nil, fmt.Errorf("lr: line %d: malformed state", line)
			}
			flushKernel()
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("lr: line %d: %v", line, err)
			}
			cur = &State{ID: id}
			switch fields[2] {
			case "initial":
				cur.Type = Initial
			case "complete":
				cur.Type = Complete
				cur.Transitions = map[grammar.Symbol]*State{}
			case "dirty":
				if v1 {
					return nil, fmt.Errorf("lr: line %d: dirty state in v1 table", line)
				}
				cur.Type = Dirty
			default:
				return nil, fmt.Errorf("lr: line %d: unknown state type %q", line, fields[2])
			}
			if byID[id] != nil {
				return nil, fmt.Errorf("lr: line %d: duplicate state %d", line, id)
			}
			byID[id] = cur
			if id >= a.nextID {
				a.nextID = id + 1
			}
			a.Stats.StatesCreated++
		case "k":
			if cur == nil || len(fields) < 3 {
				return nil, fmt.Errorf("lr: line %d: kernel item outside state", line)
			}
			dot, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("lr: line %d: %v", line, err)
			}
			rule, err := lookupRule(fields[2:])
			if err != nil {
				return nil, err
			}
			if dot < 0 || dot > rule.Len() {
				return nil, fmt.Errorf("lr: line %d: dot %d out of range", line, dot)
			}
			kernelItems = append(kernelItems, Item{Rule: rule, Dot: dot})
		case "p":
			if cur == nil || cur.Type != Complete {
				return nil, fmt.Errorf("lr: line %d: publication flag outside complete state", line)
			}
			published[cur] = true
		case "r":
			if cur == nil || cur.Type != Complete || len(fields) < 2 {
				return nil, fmt.Errorf("lr: line %d: reduction outside complete state", line)
			}
			rule, err := lookupRule(fields[1:])
			if err != nil {
				return nil, err
			}
			cur.Reductions = append(cur.Reductions, rule)
		case "a":
			if cur == nil || cur.Type != Complete {
				return nil, fmt.Errorf("lr: line %d: accept outside complete state", line)
			}
			cur.Accept = true
		case "oa":
			if cur == nil || cur.Type != Dirty {
				return nil, fmt.Errorf("lr: line %d: old accept outside dirty state", line)
			}
			cur.OldAccept = true
		case "t", "ot":
			old := fields[0] == "ot"
			if cur == nil || len(fields) != 3 {
				return nil, fmt.Errorf("lr: line %d: malformed transition", line)
			}
			if (old && cur.Type != Dirty) || (!old && cur.Type != Complete) {
				return nil, fmt.Errorf("lr: line %d: %s transition in %s state", line, fields[0], cur.Type)
			}
			sym, err := lookupSym(fields[1])
			if err != nil {
				return nil, err
			}
			to, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("lr: line %d: %v", line, err)
			}
			trans = append(trans, pendingTrans{from: cur, sym: sym, to: to, old: old})
		default:
			return nil, fmt.Errorf("lr: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flushKernel()

	for _, s := range byID {
		// lookupRule resolved every kernel rule in g, so each has an ID.
		s.ids = a.mustKernelIDs(nil, s.Kernel)
		s.hash = hashIDs(s.ids)
		if other := a.find(s.ids, s.hash); other != nil {
			return nil, fmt.Errorf("lr: states %d and %d share a kernel", other.ID, s.ID)
		}
		a.insert(s)
		switch {
		case s.Type == Complete && (v1 || published[s]):
			// v1 implied publication from completeness; v2 records the
			// actual flag so the concurrent fast path resumes exactly warm.
			s.Publish()
		case s.Type == Dirty:
			s.OldTransitions = map[grammar.Symbol]*State{}
		}
	}
	for _, pt := range trans {
		to, ok := byID[pt.to]
		if !ok {
			return nil, fmt.Errorf("lr: transition to unknown state %d", pt.to)
		}
		if pt.old {
			pt.from.OldTransitions[pt.sym] = to
		} else {
			pt.from.Transitions[pt.sym] = to
		}
		to.RefCount++
	}
	start, ok := byID[startID]
	if !ok {
		return nil, fmt.Errorf("lr: start state %d missing", startID)
	}
	a.start = start
	start.RefCount++
	a.reindex()
	if statsSeen {
		a.Stats = stats
	}
	return a, nil
}

// quoteName escapes a symbol name for the table format (names may
// contain spaces, e.g. separated-list auxiliaries).
func quoteName(name string) string { return strconv.Quote(name) }

// splitQuoted splits a line into the directive word followed by quoted
// or plain fields.
func splitQuoted(s string) ([]string, error) {
	var out []string
	for len(s) > 0 {
		switch s[0] {
		case ' ', '\t':
			s = s[1:]
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated quote")
			}
			field, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			out = append(out, field)
			s = s[end+1:]
		default:
			j := strings.IndexAny(s, " \t")
			if j < 0 {
				out = append(out, s)
				s = ""
			} else {
				out = append(out, s[:j])
				s = s[j:]
			}
		}
	}
	return out, nil
}
