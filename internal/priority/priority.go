// Package priority implements SDF's priority and associativity
// disambiguation as parse-forest filters. The paper's system parses with
// all rules and returns every parse; SDF's priorities section declares
// which of those parses to keep. A Relation records rule-level
// constraints and Filter rebuilds a forest without the violating
// derivations:
//
//   - r1 > r2 forbids an application of r2 as a direct child of an
//     application of r1 (lower-priority operators must be nested via
//     brackets, not directly);
//   - left associativity forbids a rule as its own rightmost recursive
//     child (a+(b+c) is removed, (a+b)+c kept); right associativity
//     mirrors it; non-associativity forbids both.
package priority

import (
	"errors"
	"fmt"

	"ipg/internal/forest"
	"ipg/internal/grammar"
)

// Assoc is a rule's declared associativity.
type Assoc uint8

const (
	// NoAssoc places no constraint.
	NoAssoc Assoc = iota
	// Left keeps left-nested derivations ((a+b)+c).
	Left
	// Right keeps right-nested derivations (a+(b+c)).
	Right
	// NonAssoc forbids direct self-nesting on either side.
	NonAssoc
)

// String names the associativity.
func (a Assoc) String() string {
	switch a {
	case NoAssoc:
		return "none"
	case Left:
		return "left"
	case Right:
		return "right"
	case NonAssoc:
		return "non-assoc"
	default:
		return fmt.Sprintf("Assoc(%d)", uint8(a))
	}
}

// Relation is a set of priority and associativity constraints over the
// rules of one grammar.
type Relation struct {
	gt    map[string]map[string]bool // higher rule key -> lower rule keys
	assoc map[string]Assoc
	rules map[string]*grammar.Rule // keys observed, for diagnostics
}

// New returns an empty relation.
func New() *Relation {
	return &Relation{
		gt:    map[string]map[string]bool{},
		assoc: map[string]Assoc{},
		rules: map[string]*grammar.Rule{},
	}
}

// Empty reports whether the relation carries no constraints.
func (rel *Relation) Empty() bool {
	return len(rel.gt) == 0 && len(rel.assoc) == 0
}

// AddGreater declares hi > lo: lo may not occur as a direct child of hi.
func (rel *Relation) AddGreater(hi, lo *grammar.Rule) {
	hk, lk := hi.Key(), lo.Key()
	if rel.gt[hk] == nil {
		rel.gt[hk] = map[string]bool{}
	}
	rel.gt[hk][lk] = true
	rel.rules[hk], rel.rules[lk] = hi, lo
}

// SetAssoc declares the associativity of r.
func (rel *Relation) SetAssoc(r *grammar.Rule, a Assoc) {
	if a == NoAssoc {
		delete(rel.assoc, r.Key())
		return
	}
	rel.assoc[r.Key()] = a
	rel.rules[r.Key()] = r
}

// Close computes the transitive closure of the > relation, so chains
// declared across several priority definitions compose (A > B plus
// B > C yields A > C).
func (rel *Relation) Close() {
	for changed := true; changed; {
		changed = false
		for hk, lows := range rel.gt {
			for lk := range lows {
				for llk := range rel.gt[lk] {
					if !rel.gt[hk][llk] {
						rel.gt[hk][llk] = true
						changed = true
					}
				}
			}
		}
	}
}

// Forbidden reports whether an application of child may not appear as the
// arg-th direct child of an application of parent.
func (rel *Relation) Forbidden(parent *grammar.Rule, arg int, child *grammar.Rule) bool {
	pk := parent.Key()
	if rel.gt[pk][child.Key()] {
		return true
	}
	a, ok := rel.assoc[pk]
	if !ok || child.Key() != pk {
		return false
	}
	// Recursive argument positions: occurrences of the rule's own
	// left-hand side in its right-hand side.
	first, last := -1, -1
	for i, s := range parent.Rhs {
		if s == parent.Lhs {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return false // not a recursive rule: associativity is vacuous
	}
	switch a {
	case Left:
		return arg == last && last != first
	case Right:
		return arg == first && last != first
	case NonAssoc:
		return arg == first || arg == last
	default:
		return false
	}
}

// ErrNoValidParse is returned by Filter when every derivation violates
// the constraints.
var ErrNoValidParse = errors.New("priority: all parses removed by priority/associativity constraints")

// Filter rebuilds the forest rooted at root without derivations that
// violate the relation. A node none of whose children or alternatives
// changed is returned as it is; only the nodes it rebuilds are built in
// f, rule nodes hash-consed there. It returns ErrNoValidParse when
// nothing survives and forest.ErrCyclic on cyclic forests.
func (rel *Relation) Filter(f *forest.Forest, root *forest.Node) (*forest.Node, error) {
	type key struct {
		id     int
		parent string
		arg    int
	}
	memo := map[key]*forest.Node{}
	seen := map[key]bool{}
	onPath := map[key]bool{}

	var walk func(n *forest.Node, parent *grammar.Rule, arg int) (*forest.Node, error)
	walk = func(n *forest.Node, parent *grammar.Rule, arg int) (*forest.Node, error) {
		pk := ""
		if parent != nil {
			pk = parent.Key()
		}
		k := key{n.ID(), pk, arg}
		if seen[k] {
			return memo[k], nil
		}
		if onPath[k] {
			return nil, forest.ErrCyclic
		}
		onPath[k] = true
		defer delete(onPath, k)

		var out *forest.Node
		switch n.Kind() {
		case forest.Leaf:
			out = n
		case forest.RuleNode:
			if parent != nil && rel.Forbidden(parent, arg, n.Rule()) {
				break // filtered: out stays nil
			}
			kids := n.Children()
			var children []*forest.Node // made at the first changed child
			ok := true
			for i, c := range kids {
				fc, err := walk(c, n.Rule(), i)
				if err != nil {
					return nil, err
				}
				if fc == nil {
					ok = false
					break
				}
				if fc != c && children == nil {
					children = append(make([]*forest.Node, 0, len(kids)), kids[:i]...)
				}
				if children != nil {
					children = append(children, fc)
				}
			}
			switch {
			case !ok:
			case children == nil:
				out = n
			default:
				out = f.Rule(n.Rule(), children)
			}
		case forest.Amb:
			// Ambiguity nodes are transparent: alternatives face the
			// same parent context.
			alts := n.Alts()
			var kept []*forest.Node // made at the first changed alternative
			for i, a := range alts {
				fa, err := walk(a, parent, arg)
				if err != nil {
					return nil, err
				}
				if fa != a && kept == nil {
					kept = append(make([]*forest.Node, 0, len(alts)), alts[:i]...)
				}
				if kept != nil && fa != nil {
					kept = append(kept, fa)
				}
			}
			switch {
			case kept == nil:
				out = n
			case len(kept) > 0:
				out = f.Ambiguity(kept...)
			}
		}
		seen[k] = true
		memo[k] = out
		return out, nil
	}

	out, err := walk(root, nil, 0)
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, ErrNoValidParse
	}
	return out, nil
}
