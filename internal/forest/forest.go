// Package forest implements shared parse forests: the parse-tree
// representation built by the parallel LR parsers of section 3. Rule and
// leaf nodes are hash-consed ("we improved the sharing of parse trees",
// section 7 footnote, after a suggestion of B. Lang); ambiguities are
// packed into dedicated ambiguity nodes so a forest represents all parses
// of a sentence in space polynomial in its length for finitely ambiguous
// grammars.
package forest

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"ipg/internal/grammar"
)

// Kind discriminates forest nodes. Go has no sum types; Node is a tagged
// struct and Kind is the tag.
type Kind uint8

const (
	// Leaf is a terminal occurrence in the input.
	Leaf Kind = iota
	// RuleNode is an application of a syntax rule to child nodes.
	RuleNode
	// Amb packs alternative derivations of the same span and symbol.
	Amb
)

// String returns "leaf", "rule" or "amb".
func (k Kind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case RuleNode:
		return "rule"
	case Amb:
		return "amb"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Node is a parse-forest node. Leaf and rule nodes are immutable and
// hash-consed by their Forest; ambiguity nodes are mutable (the GSS parser
// packs additional alternatives into them as it discovers local
// ambiguities) and never shared between distinct (symbol, span) slots.
type Node struct {
	id   int
	kind Kind

	// sym is the terminal (leaf) or the defined nonterminal (rule, amb).
	sym grammar.Symbol
	// pos is the token index of a leaf.
	pos int
	// rule is the applied rule of a rule node.
	rule *grammar.Rule
	// children of a rule node (len = rule.Len()).
	children []*Node
	// alts of an ambiguity node, all with the same sym.
	alts []*Node
	// hashNext chains hash-consed rule nodes that share an interning
	// hash bucket (see Forest.Rule).
	hashNext *Node
}

// ID returns a unique (per Forest) node number.
func (n *Node) ID() int { return n.id }

// Kind returns the node kind.
func (n *Node) Kind() Kind { return n.kind }

// Symbol returns the terminal of a leaf or the nonterminal derived by a
// rule or ambiguity node.
func (n *Node) Symbol() grammar.Symbol { return n.sym }

// Pos returns the token index of a leaf node.
func (n *Node) Pos() int { return n.pos }

// Rule returns the rule of a rule node, nil otherwise.
func (n *Node) Rule() *grammar.Rule { return n.rule }

// Children returns the children of a rule node. Callers must not modify
// the slice.
func (n *Node) Children() []*Node { return n.children }

// Alts returns the packed alternatives of an ambiguity node. Callers must
// not modify the slice.
func (n *Node) Alts() []*Node { return n.alts }

// Forest hash-conses leaf and rule nodes and creates ambiguity nodes. The
// zero value is not usable; use NewForest.
//
// Node storage is a chunked arena: nodes are carved out of fixed-size
// blocks instead of being allocated one by one, so the parser's hot path
// (Leaf/Rule per token and reduction) does amortized-constant heap work.
// Interned rule nodes are deduplicated through a hash chain keyed by the
// rule's value identity and the child node identities — no string key is
// built per call (the dominant steady-state allocation before this
// scheme).
type Forest struct {
	nodes   int
	leafIdx map[leafKey]*Node
	// ruleIdx maps an interning hash to a chain of rule nodes linked
	// through Node.hashNext; ruleEq resolves collisions exactly.
	ruleIdx map[uint64]*Node

	// chunk is the current node arena block; when full a new block is
	// started (live nodes keep earlier blocks reachable).
	chunk []Node
	// childArena backs the children slices of rule nodes; carved
	// slices are capacity-capped so later carving cannot alias them.
	childArena []*Node
}

type leafKey struct {
	sym grammar.Symbol
	pos int
}

// arenaChunk is the node-arena block size. Forests of a few nodes pay
// one small block; big forests amortize one allocation per block.
const arenaChunk = 256

// NewForest returns an empty forest.
func NewForest() *Forest {
	return &Forest{
		leafIdx: make(map[leafKey]*Node),
		ruleIdx: make(map[uint64]*Node),
	}
}

// NodeCount returns the number of distinct nodes created, the measure of
// sharing (compare with TreeCount, which counts unshared trees).
func (f *Forest) NodeCount() int { return f.nodes }

func (f *Forest) newNode(k Kind) *Node {
	if len(f.chunk) == cap(f.chunk) {
		f.chunk = make([]Node, 0, arenaChunk)
	}
	f.chunk = f.chunk[:len(f.chunk)+1]
	n := &f.chunk[len(f.chunk)-1]
	n.id = f.nodes
	n.kind = k
	f.nodes++
	return n
}

// copyChildren persists a caller-owned children slice into the forest's
// child arena. The returned slice is capacity-capped at its length, so
// appends through it can never scribble over later carvings.
func (f *Forest) copyChildren(children []*Node) []*Node {
	n := len(children)
	if n == 0 {
		return nil
	}
	if cap(f.childArena)-len(f.childArena) < n {
		size := arenaChunk
		if n > size {
			size = n
		}
		f.childArena = make([]*Node, 0, size)
	}
	start := len(f.childArena)
	f.childArena = append(f.childArena, children...)
	return f.childArena[start : start+n : start+n]
}

// Leaf returns the (shared) leaf node for terminal sym at token index pos.
func (f *Forest) Leaf(sym grammar.Symbol, pos int) *Node {
	k := leafKey{sym, pos}
	if n, ok := f.leafIdx[k]; ok {
		return n
	}
	n := f.newNode(Leaf)
	n.sym = sym
	n.pos = pos
	f.leafIdx[k] = n
	return n
}

// ruleHash mixes the rule's value identity and the child node IDs into
// the interning hash (FNV-1a). The identity is the rule's ID: a forest
// applies the rules of one grammar, which interned them. Only a rule no
// grammar holds hashes its key.
func ruleHash(r *grammar.Rule, children []*Node) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	if id := r.ID(); id != 0 {
		h = (h ^ uint64(id)) * prime64
	} else {
		key := r.Key()
		for i := 0; i < len(key); i++ {
			h = (h ^ uint64(key[i])) * prime64
		}
	}
	for _, c := range children {
		id := uint64(c.id)
		h = (h ^ (id & 0xff)) * prime64
		h = (h ^ (id >> 8)) * prime64
	}
	return h
}

// ruleEq reports whether interned rule node n is exactly the application
// of r to children. Rules compare by value identity (their IDs, see
// grammar.Rule.Equal), children by node identity.
func ruleEq(n *Node, r *grammar.Rule, children []*Node) bool {
	if len(n.children) != len(children) {
		return false
	}
	if n.rule != r && !n.rule.Equal(r) {
		return false
	}
	for i, c := range children {
		if n.children[i] != c {
			return false
		}
	}
	return true
}

// Rule returns the (shared) rule node applying r to children. The number
// of children must equal the rule length. The caller keeps ownership of
// the children slice and may reuse it.
func (f *Forest) Rule(r *grammar.Rule, children []*Node) *Node {
	if len(children) != r.Len() {
		panic(fmt.Sprintf("forest: rule %v applied to %d children", r, len(children)))
	}
	h := ruleHash(r, children)
	for n := f.ruleIdx[h]; n != nil; n = n.hashNext {
		if ruleEq(n, r, children) {
			return n
		}
	}
	n := f.newNode(RuleNode)
	n.sym = r.Lhs
	n.rule = r
	n.children = f.copyChildren(children)
	n.hashNext = f.ruleIdx[h]
	f.ruleIdx[h] = n
	return n
}

// Ambiguity creates a mutable ambiguity node over the given alternatives
// (deduplicated; nested ambiguity nodes are flattened). It returns the
// single alternative directly when only one remains.
func (f *Forest) Ambiguity(alts ...*Node) *Node {
	flat := make([]*Node, 0, len(alts))
	seen := map[int]bool{}
	var add func(n *Node)
	add = func(n *Node) {
		if n.kind == Amb {
			for _, a := range n.alts {
				add(a)
			}
			return
		}
		if !seen[n.id] {
			seen[n.id] = true
			flat = append(flat, n)
		}
	}
	for _, a := range alts {
		add(a)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	n := f.newNode(Amb)
	if len(flat) > 0 {
		n.sym = flat[0].sym
	}
	n.alts = flat
	return n
}

// Slot creates a mutable single-alternative ambiguity node. The GSS
// engine labels every stack edge with a slot so that later local
// ambiguities can be packed in place: parents that already reference the
// slot see new alternatives without rebuilding. Rendering collapses
// single-alternative slots transparently.
func (f *Forest) Slot(first *Node) *Node {
	n := f.newNode(Amb)
	n.sym = first.sym
	// Carve the initial single-alternative slice from the child arena;
	// its capacity is capped at 1, so Pack's append reallocates instead
	// of clobbering neighbouring carvings.
	if cap(f.childArena)-len(f.childArena) < 1 {
		f.childArena = make([]*Node, 0, arenaChunk)
	}
	start := len(f.childArena)
	f.childArena = append(f.childArena, first)
	n.alts = f.childArena[start : start+1 : start+1]
	return n
}

// Pack adds alternative alt to ambiguity node n (used by the GSS engine's
// local ambiguity packing). Duplicate and nested alternatives are merged.
func (f *Forest) Pack(n *Node, alt *Node) {
	if n.kind != Amb {
		panic("forest: Pack on non-ambiguity node")
	}
	add := func(a *Node) {
		for _, x := range n.alts {
			if x == a {
				return
			}
		}
		n.alts = append(n.alts, a)
	}
	if alt.kind == Amb {
		for _, a := range alt.alts {
			add(a)
		}
		return
	}
	add(alt)
}

// ErrCyclic is returned by traversals of cyclic forests, which arise from
// cyclic grammars (A ::= A): such grammars are not finitely ambiguous and
// fall outside the class the parallel parser supports (section 2.1).
var ErrCyclic = errors.New("forest: cyclic forest (grammar not finitely ambiguous)")

// TreeCount returns the number of distinct parse trees the forest rooted
// at n represents, saturating at math.MaxInt64. It returns ErrCyclic for
// cyclic forests.
func TreeCount(n *Node) (int64, error) {
	c := treeCounter{memo: make([]treeCount, n.id+1)}
	return c.count(n)
}

// treeCounter memoises TreeCount per node ID.
type treeCounter struct {
	memo []treeCount
}

// treeCount is one node's memo entry: its count once done, and whether
// it is on the current path, which makes a revisit a cycle.
type treeCount struct {
	n            int64
	done, onPath bool
}

func (t *treeCounter) count(n *Node) (int64, error) {
	if n.id >= len(t.memo) {
		t.memo = append(t.memo, make([]treeCount, n.id+1-len(t.memo))...)
		t.memo = t.memo[:cap(t.memo)]
	}
	m := &t.memo[n.id]
	switch {
	case m.done:
		return m.n, nil
	case m.onPath:
		return 0, ErrCyclic
	}
	m.onPath = true
	var c int64
	switch n.kind {
	case Leaf:
		c = 1
	case RuleNode:
		c = 1
		for _, ch := range n.children {
			cc, err := t.count(ch)
			if err != nil {
				return 0, err
			}
			c = satMul(c, cc)
		}
	case Amb:
		for _, a := range n.alts {
			ca, err := t.count(a)
			if err != nil {
				return 0, err
			}
			c = satAdd(c, ca)
		}
	}
	// The recursion may have grown the memo.
	t.memo[n.id] = treeCount{n: c, done: true}
	return c, nil
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// Yield returns the terminal symbols at the leaves, left to right,
// resolving each ambiguity by its first alternative. For a well-formed
// parse forest this equals the parsed sentence regardless of the
// resolution.
func Yield(n *Node) ([]grammar.Symbol, error) {
	var out []grammar.Symbol
	depth := 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		depth++
		defer func() { depth-- }()
		if depth > 1<<20 {
			return ErrCyclic
		}
		switch n.kind {
		case Leaf:
			out = append(out, n.sym)
		case RuleNode:
			for _, c := range n.children {
				if err := walk(c); err != nil {
					return err
				}
			}
		case Amb:
			if len(n.alts) > 0 {
				return walk(n.alts[0])
			}
		}
		return nil
	}
	if err := walk(n); err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the forest rooted at n in bracketed form:
// leaves as their names, rule nodes as Lhs(children...), ambiguities as
// {alt | alt}. Alternatives are sorted for determinism; cycles render as
// <cycle>.
func String(n *Node, t *grammar.SymbolTable) string {
	return stringWalk(n, t, map[int]bool{})
}

func stringWalk(n *Node, t *grammar.SymbolTable, onPath map[int]bool) string {
	switch n.kind {
	case Leaf:
		return t.Name(n.sym)
	case RuleNode:
		var b strings.Builder
		b.WriteString(t.Name(n.sym))
		b.WriteByte('(')
		for i, c := range n.children {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(stringWalk(c, t, onPath))
		}
		b.WriteByte(')')
		return b.String()
	case Amb:
		if onPath[n.id] {
			return "<cycle>"
		}
		onPath[n.id] = true
		defer delete(onPath, n.id)
		if len(n.alts) == 1 {
			// Single-alternative slots render transparently.
			return stringWalk(n.alts[0], t, onPath)
		}
		parts := make([]string, 0, len(n.alts))
		for _, a := range n.alts {
			parts = append(parts, stringWalk(a, t, onPath))
		}
		sort.Strings(parts)
		return "{" + strings.Join(parts, " | ") + "}"
	default:
		return "?"
	}
}

// Trees enumerates up to limit distinct unshared trees (as bracketed
// strings, sorted) represented by the forest. It returns ErrCyclic for
// cyclic forests.
func Trees(n *Node, t *grammar.SymbolTable, limit int) ([]string, error) {
	if limit <= 0 {
		limit = math.MaxInt
	}
	onPath := map[int]bool{}
	var expand func(n *Node) ([]string, error)
	expand = func(n *Node) ([]string, error) {
		if onPath[n.id] {
			return nil, ErrCyclic
		}
		onPath[n.id] = true
		defer delete(onPath, n.id)
		switch n.kind {
		case Leaf:
			return []string{t.Name(n.sym)}, nil
		case RuleNode:
			acc := []string{t.Name(n.sym) + "("}
			for i, c := range n.children {
				sub, err := expand(c)
				if err != nil {
					return nil, err
				}
				var next []string
				for _, pre := range acc {
					for _, s := range sub {
						sep := ""
						if i > 0 {
							sep = " "
						}
						next = append(next, pre+sep+s)
						if len(next) >= limit {
							break
						}
					}
					if len(next) >= limit {
						break
					}
				}
				acc = next
			}
			for i := range acc {
				acc[i] += ")"
			}
			return acc, nil
		case Amb:
			var all []string
			for _, a := range n.alts {
				sub, err := expand(a)
				if err != nil {
					return nil, err
				}
				all = append(all, sub...)
				if len(all) >= limit {
					all = all[:limit]
					break
				}
			}
			return all, nil
		}
		return nil, nil
	}
	out, err := expand(n)
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// DOT renders the forest in Graphviz format; shared nodes appear once.
func DOT(n *Node, t *grammar.SymbolTable) string {
	var b strings.Builder
	b.WriteString("digraph forest {\n  node [fontname=\"monospace\"];\n")
	seen := map[int]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n.id] {
			return
		}
		seen[n.id] = true
		switch n.kind {
		case Leaf:
			fmt.Fprintf(&b, "  n%d [label=\"%s@%d\", shape=plaintext];\n", n.id, t.Name(n.sym), n.pos)
		case RuleNode:
			fmt.Fprintf(&b, "  n%d [label=\"%s\", shape=box];\n", n.id, t.Name(n.sym))
			for i, c := range n.children {
				fmt.Fprintf(&b, "  n%d -> n%d [label=\"%d\"];\n", n.id, c.id, i)
				walk(c)
			}
		case Amb:
			fmt.Fprintf(&b, "  n%d [label=\"amb %s\", shape=diamond];\n", n.id, t.Name(n.sym))
			for _, a := range n.alts {
				fmt.Fprintf(&b, "  n%d -> n%d [style=dashed];\n", n.id, a.id)
				walk(a)
			}
		}
	}
	walk(n)
	b.WriteString("}\n")
	return b.String()
}
