package isg

import "fmt"

// nfaState is one Thompson NFA state. Transitions are either epsilon
// (eps) or labeled with a character class.
type nfaState struct {
	id    int
	eps   []*nfaState
	edges []nfaEdge
	// accept < 0 means non-accepting; otherwise the index of the rule
	// this state accepts.
	accept int
}

type nfaEdge struct {
	class CharClass
	to    *nfaState
}

// nfa is the combined Thompson automaton for a rule set: one shared start
// state with epsilon edges into each rule's fragment.
type nfa struct {
	start  *nfaState
	states []*nfaState
}

func (n *nfa) newState() *nfaState {
	s := &nfaState{id: len(n.states), accept: -1}
	n.states = append(n.states, s)
	return s
}

// buildNFA compiles the rule set. Pattern references (PatRef) are inlined;
// reference cycles are an error (lexical syntax must be regular).
func buildNFA(rules []Rule) (*nfa, error) {
	c := compiler{n: &nfa{}, byName: map[string]*Pattern{}}
	for _, r := range rules {
		// Multiple rules for one sort: alternation. (SDF allows several
		// functions producing one lexical sort.)
		if prev, ok := c.byName[r.Sort]; ok {
			c.byName[r.Sort] = Alt(prev, r.Pattern)
		} else {
			c.byName[r.Sort] = r.Pattern
		}
	}
	c.n.start = c.n.newState()
	for i, r := range rules {
		if err := c.addRule(i, r); err != nil {
			return nil, err
		}
	}
	return c.n, nil
}

// appendRule compiles rule i, whose pattern references no sort, into n
// as one more fragment off the start state. On error n is restored.
func appendRule(n *nfa, i int, r Rule) error {
	states, eps := len(n.states), len(n.start.eps)
	if err := (&compiler{n: n}).addRule(i, r); err != nil {
		clear(n.states[states:])
		n.states = n.states[:states]
		n.start.eps = n.start.eps[:eps]
		return err
	}
	return nil
}

// compiler compiles patterns into n, resolving references through
// byName.
type compiler struct {
	n      *nfa
	byName map[string]*Pattern
}

// addRule compiles rule i: a fragment from the start state to a state
// accepting i, or, for a private rule, a detached fragment that only
// validates it.
func (c *compiler) addRule(i int, r Rule) error {
	n := c.n
	if r.Private {
		// Private rules only feed Ref resolution; validate them by
		// compiling into a detached fragment.
		frag := n.newState()
		end := n.newState()
		if err := c.compile(r.Pattern, frag, end, map[string]bool{}); err != nil {
			return fmt.Errorf("rule %s: %w", r.Sort, err)
		}
		return nil
	}
	frag := n.newState()
	acc := n.newState()
	acc.accept = i
	n.start.eps = append(n.start.eps, frag)
	if err := c.compile(r.Pattern, frag, acc, map[string]bool{}); err != nil {
		return fmt.Errorf("rule %s: %w", r.Sort, err)
	}
	return nil
}

func (c *compiler) compile(p *Pattern, from, to *nfaState, inlining map[string]bool) error {
	n := c.n
	switch p.Kind {
	case PatLiteral:
		cur := from
		runes := []rune(p.Str)
		for i, r := range runes {
			next := to
			if i < len(runes)-1 {
				next = n.newState()
			}
			cur.edges = append(cur.edges, nfaEdge{class: ClassOf(r), to: next})
			cur = next
		}
		if len(runes) == 0 {
			from.eps = append(from.eps, to)
		}
	case PatClass:
		if p.Class.Empty() {
			return fmt.Errorf("isg: empty character class in pattern")
		}
		from.edges = append(from.edges, nfaEdge{class: p.Class, to: to})
	case PatConcat:
		cur := from
		for i, sub := range p.Subs {
			next := to
			if i < len(p.Subs)-1 {
				next = n.newState()
			}
			if err := c.compile(sub, cur, next, inlining); err != nil {
				return err
			}
			cur = next
		}
		if len(p.Subs) == 0 {
			from.eps = append(from.eps, to)
		}
	case PatAlt:
		if len(p.Subs) == 0 {
			return fmt.Errorf("isg: empty alternation")
		}
		for _, sub := range p.Subs {
			if err := c.compile(sub, from, to, inlining); err != nil {
				return err
			}
		}
	case PatStar:
		mid := n.newState()
		from.eps = append(from.eps, mid)
		mid.eps = append(mid.eps, to)
		back := n.newState()
		if err := c.compile(p.Subs[0], mid, back, inlining); err != nil {
			return err
		}
		back.eps = append(back.eps, mid)
	case PatPlus:
		mid := n.newState()
		back := n.newState()
		from.eps = append(from.eps, mid)
		if err := c.compile(p.Subs[0], mid, back, inlining); err != nil {
			return err
		}
		back.eps = append(back.eps, mid, to)
	case PatOpt:
		from.eps = append(from.eps, to)
		if err := c.compile(p.Subs[0], from, to, inlining); err != nil {
			return err
		}
	case PatRef:
		target, ok := c.byName[p.Str]
		if !ok {
			return fmt.Errorf("isg: reference to undefined lexical sort %q", p.Str)
		}
		if inlining[p.Str] {
			return fmt.Errorf("isg: recursive lexical sort %q (lexical syntax must be regular)", p.Str)
		}
		inlining[p.Str] = true
		err := c.compile(target, from, to, inlining)
		delete(inlining, p.Str)
		return err
	default:
		return fmt.Errorf("isg: unknown pattern kind %d", p.Kind)
	}
	return nil
}

// hasRef reports whether p references a lexical sort.
func hasRef(p *Pattern) bool {
	if p.Kind == PatRef {
		return true
	}
	for _, sub := range p.Subs {
		if hasRef(sub) {
			return true
		}
	}
	return false
}
