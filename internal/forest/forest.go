// Package forest implements shared parse forests: the parse-tree
// representation built by the parallel LR parsers of section 3. Nodes
// are shared ("we improved the sharing of parse trees", section 7
// footnote, after a suggestion of B. Lang), and ambiguities are packed
// into ambiguity nodes, so a forest represents all parses of a sentence
// in space polynomial in its length for finitely ambiguous grammars.
//
// A forest has three kinds of node: leaves (one per terminal occurrence,
// indexed by token position), rule nodes, and ambiguity nodes, which
// exist only where a span has two or more derivations. Builders share
// nodes in one of two ways:
//
//   - Rule hash-conses a rule node by its rule and children in the
//     forest's own index, which is made on first use. The Earley and LL
//     builders, the copying and deterministic LR drivers and the
//     priority filter use it.
//   - The graph-structured-stack driver (internal/glr) labels each stack
//     edge by its derivation: the leaf, or the node of the edge's symbol
//     over its span. It keeps one such node per symbol and span in a
//     table of its own that lives for one sweep, since every node built
//     in sweep k ends at k and has edge labels as children, so equal
//     nodes arise only within one sweep; zero-width nodes are keyed by
//     symbol for the whole parse. The table loses no sharing and needs
//     no per-parse map. The driver builds nodes with Apply, asks Holds
//     before adding a derivation, and packs with Pack.
//
// Pack turns a rule node into an ambiguity node in place: the original
// derivation moves to a fresh node, which becomes the first alternative,
// and the newcomer the second; the forest's index re-points to the
// moved copy. Parents built earlier keep pointing at the promoted node,
// so they see every derivation found later, and no node pays for
// ambiguity it does not have. Leaves are never packed.
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

// Node is a parse-forest node. Leaves never change. A rule node changes
// once at most, when Pack promotes it into an ambiguity node; ambiguity
// nodes gain alternatives through Pack.
type Node struct {
	kind Kind
	id   int32
	// pos is the token index of a leaf.
	pos int32
	// sym is the terminal (leaf) or the defined nonterminal (rule, amb).
	sym grammar.Symbol
	// rule is the applied rule of a rule node.
	rule *grammar.Rule
	// kids are the children of a rule node (len = rule.Len()) or the
	// alternatives of an ambiguity node, all with the same sym.
	kids []*Node
	// next chains nodes in one bucket of the forest's indexes: leaves at
	// one position, rule nodes with one interning hash.
	next *Node
}

// ID returns a unique (per Forest) node number.
func (n *Node) ID() int { return int(n.id) }

// Kind returns the node kind.
func (n *Node) Kind() Kind { return n.kind }

// Symbol returns the terminal of a leaf or the nonterminal derived by a
// rule or ambiguity node.
func (n *Node) Symbol() grammar.Symbol { return n.sym }

// Pos returns the token index of a leaf node.
func (n *Node) Pos() int { return int(n.pos) }

// Rule returns the rule of a rule node, nil otherwise.
func (n *Node) Rule() *grammar.Rule { return n.rule }

// Children returns the children of a rule node. Callers must not modify
// the slice.
func (n *Node) Children() []*Node {
	if n.kind != RuleNode {
		return nil
	}
	return n.kids
}

// Alts returns the packed alternatives of an ambiguity node. Callers must
// not modify the slice.
func (n *Node) Alts() []*Node {
	if n.kind != Amb {
		return nil
	}
	return n.kids
}

// Holds reports whether n derives its span by applying r to children: n
// is that rule node, or an ambiguity node with it among its
// alternatives. Children compare by node identity.
func (n *Node) Holds(r *grammar.Rule, children []*Node) bool {
	if n.kind != Amb {
		return ruleEq(n, r, children)
	}
	for _, a := range n.kids {
		if ruleEq(a, r, children) {
			return true
		}
	}
	return false
}

// Forest allocates the nodes of one parse result. The zero value is not
// usable; use NewForest.
//
// Node storage is a chunked arena: nodes are carved out of blocks that
// start small and double up to arenaChunk nodes, so a forest of a few
// nodes pays one small block and the parser's hot path does
// amortized-constant heap work. Rule children and ambiguity alternatives
// are carved from a second arena of the same shape.
type Forest struct {
	nodes int
	amb   bool // an ambiguity node was made (see Ambiguous)
	// leaves indexes leaf nodes by token position; leaves of different
	// terminals at one position chain through Node.next.
	leaves []*Node
	// index maps an interning hash to a chain of rule nodes linked
	// through Node.next; ruleEq resolves collisions exactly. Rule makes
	// it on first use.
	index map[uint64]*Node

	// chunk is the current node arena block; when full a new block is
	// started (live nodes keep earlier blocks reachable).
	chunk []Node
	// kidArena backs the kids slices; carved slices are capacity-capped
	// so later carving cannot alias them.
	kidArena []*Node
}

const (
	// firstChunk is the size of a forest's first arena blocks.
	firstChunk = 16
	// arenaChunk is the largest arena block: big forests amortize one
	// allocation per arenaChunk nodes.
	arenaChunk = 256
)

// NewForest returns an empty forest.
func NewForest() *Forest { return &Forest{} }

// NodeCount returns the number of nodes created: leaves, rule nodes and
// ambiguity nodes, the measure of sharing (compare with TreeCount, which
// counts unshared trees).
func (f *Forest) NodeCount() int { return f.nodes }

// Ambiguous reports whether the forest ever made an ambiguity node, by
// Ambiguity or Pack. Only Pack changes the children of a node already
// made, so a forest that never did is acyclic and TreeCount of any of
// its nodes is 1.
func (f *Forest) Ambiguous() bool { return f.amb }

// nextBlock sizes the arena block that follows one of capacity prev.
func nextBlock(prev, need int) int {
	size := 2 * prev
	if size < firstChunk {
		size = firstChunk
	}
	if size > arenaChunk {
		size = arenaChunk
	}
	if size < need {
		size = need
	}
	return size
}

func (f *Forest) newNode(k Kind) *Node {
	if len(f.chunk) == cap(f.chunk) {
		f.chunk = make([]Node, 0, nextBlock(cap(f.chunk), 1))
	}
	f.chunk = f.chunk[:len(f.chunk)+1]
	n := &f.chunk[len(f.chunk)-1]
	n.id = int32(f.nodes)
	n.kind = k
	f.nodes++
	return n
}

// carve persists the given nodes into the kid arena. The returned slice
// is capacity-capped at its length, so appends through it can never
// scribble over later carvings.
func (f *Forest) carve(kids ...*Node) []*Node {
	n := len(kids)
	if n == 0 {
		return nil
	}
	if cap(f.kidArena)-len(f.kidArena) < n {
		f.kidArena = make([]*Node, 0, nextBlock(cap(f.kidArena), n))
	}
	start := len(f.kidArena)
	f.kidArena = append(f.kidArena, kids...)
	return f.kidArena[start : start+n : start+n]
}

// Leaf returns the (shared) leaf node for terminal sym at token index pos.
func (f *Forest) Leaf(sym grammar.Symbol, pos int) *Node {
	if pos < len(f.leaves) {
		for n := f.leaves[pos]; n != nil; n = n.next {
			if n.sym == sym {
				return n
			}
		}
	} else if pos < cap(f.leaves) {
		f.leaves = f.leaves[:pos+1]
	} else {
		f.leaves = append(f.leaves[:cap(f.leaves)], make([]*Node, pos+1-cap(f.leaves))...)
	}
	n := f.newNode(Leaf)
	n.sym = sym
	n.pos = int32(pos)
	n.next = f.leaves[pos]
	f.leaves[pos] = n
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

// ruleEq reports whether n is a rule node applying r to children. Rules
// compare by value identity (their IDs, see grammar.Rule.Equal), children
// by node identity.
func ruleEq(n *Node, r *grammar.Rule, children []*Node) bool {
	if n.kind != RuleNode || len(n.kids) != len(children) {
		return false
	}
	if n.rule != r && !n.rule.Equal(r) {
		return false
	}
	for i, c := range children {
		if n.kids[i] != c {
			return false
		}
	}
	return true
}

// Apply returns a new rule node applying r to children, without
// hash-consing: the caller keeps its own table of the nodes it built.
// The number of children must equal the rule length. The caller keeps
// ownership of the children slice and may reuse it.
func (f *Forest) Apply(r *grammar.Rule, children []*Node) *Node {
	if len(children) != r.Len() {
		panic(fmt.Sprintf("forest: rule %v applied to %d children", r, len(children)))
	}
	n := f.newNode(RuleNode)
	n.sym = r.Lhs
	n.rule = r
	n.kids = f.carve(children...)
	return n
}

// Rule returns the (shared) rule node applying r to children. The number
// of children must equal the rule length. The caller keeps ownership of
// the children slice and may reuse it.
func (f *Forest) Rule(r *grammar.Rule, children []*Node) *Node {
	if f.index == nil {
		f.index = make(map[uint64]*Node)
	}
	h := ruleHash(r, children)
	for n := f.index[h]; n != nil; n = n.next {
		if ruleEq(n, r, children) {
			return n
		}
	}
	n := f.Apply(r, children)
	n.next = f.index[h]
	f.index[h] = n
	return n
}

// Ambiguity returns a node over the given alternatives (deduplicated;
// nested ambiguity nodes are flattened): the single alternative itself
// when only one remains, else a new ambiguity node.
func (f *Forest) Ambiguity(alts ...*Node) *Node {
	flat := make([]*Node, 0, len(alts))
	for _, a := range alts {
		if a.kind == Amb {
			for _, x := range a.kids {
				flat = addAlt(flat, x)
			}
			continue
		}
		flat = addAlt(flat, a)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	n := f.newNode(Amb)
	f.amb = true
	if len(flat) > 0 {
		n.sym = flat[0].sym
	}
	n.kids = flat
	return n
}

// addAlt appends a to alts unless it is already there.
func addAlt(alts []*Node, a *Node) []*Node {
	for _, x := range alts {
		if x == a {
			return alts
		}
	}
	return append(alts, a)
}

// Pack adds alternative alt to n, a rule or ambiguity node of the same
// symbol and span. A rule node is promoted in place into an ambiguity
// node: its derivation moves to a new node, the first alternative, and
// the forest's index re-points to that copy. Parents that already
// reference n see the new alternative. Duplicate alternatives are
// dropped and an ambiguity node's alternatives merge. Packing into a
// leaf panics: a terminal occurrence has one derivation.
func (f *Forest) Pack(n, alt *Node) {
	switch {
	case n.kind == Leaf:
		panic("forest: Pack into a leaf")
	case alt == n:
		return
	case n.kind == RuleNode:
		c := f.newNode(RuleNode)
		c.sym, c.rule, c.kids = n.sym, n.rule, n.kids
		f.repoint(n, c)
		n.kind, n.rule, n.next = Amb, nil, nil
		n.kids = f.carve(c)
		f.amb = true
	}
	if alt.kind == Amb {
		for _, a := range alt.kids {
			n.kids = addAlt(n.kids, a)
		}
		return
	}
	n.kids = addAlt(n.kids, alt)
}

// repoint replaces rule node n by c in the forest's index, if n is
// interned there.
func (f *Forest) repoint(n, c *Node) {
	if f.index == nil {
		return
	}
	h := ruleHash(n.rule, n.kids)
	head := f.index[h]
	if head == n {
		c.next = n.next
		f.index[h] = c
		return
	}
	for p := head; p != nil; p = p.next {
		if p.next == n {
			c.next = n.next
			p.next = c
			return
		}
	}
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
	if int(n.id) >= len(t.memo) {
		t.memo = append(t.memo, make([]treeCount, int(n.id)+1-len(t.memo))...)
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
		for _, ch := range n.kids {
			cc, err := t.count(ch)
			if err != nil {
				return 0, err
			}
			c = satMul(c, cc)
		}
	case Amb:
		for _, a := range n.kids {
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
			for _, c := range n.kids {
				if err := walk(c); err != nil {
					return err
				}
			}
		case Amb:
			if len(n.kids) > 0 {
				return walk(n.kids[0])
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
	return stringWalk(n, t, map[*Node]bool{})
}

func stringWalk(n *Node, t *grammar.SymbolTable, onPath map[*Node]bool) string {
	switch n.kind {
	case Leaf:
		return t.Name(n.sym)
	case RuleNode:
		var b strings.Builder
		b.WriteString(t.Name(n.sym))
		b.WriteByte('(')
		for i, c := range n.kids {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(stringWalk(c, t, onPath))
		}
		b.WriteByte(')')
		return b.String()
	case Amb:
		if onPath[n] {
			return "<cycle>"
		}
		onPath[n] = true
		defer delete(onPath, n)
		parts := make([]string, 0, len(n.kids))
		for _, a := range n.kids {
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
	onPath := map[*Node]bool{}
	var expand func(n *Node) ([]string, error)
	expand = func(n *Node) ([]string, error) {
		if onPath[n] {
			return nil, ErrCyclic
		}
		onPath[n] = true
		defer delete(onPath, n)
		switch n.kind {
		case Leaf:
			return []string{t.Name(n.sym)}, nil
		case RuleNode:
			acc := []string{t.Name(n.sym) + "("}
			for i, c := range n.kids {
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
			for _, a := range n.kids {
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
	seen := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		switch n.kind {
		case Leaf:
			fmt.Fprintf(&b, "  n%d [label=\"%s@%d\", shape=plaintext];\n", n.id, t.Name(n.sym), n.pos)
		case RuleNode:
			fmt.Fprintf(&b, "  n%d [label=\"%s\", shape=box];\n", n.id, t.Name(n.sym))
			for i, c := range n.kids {
				fmt.Fprintf(&b, "  n%d -> n%d [label=\"%d\"];\n", n.id, c.id, i)
				walk(c)
			}
		case Amb:
			fmt.Fprintf(&b, "  n%d [label=\"amb %s\", shape=diamond];\n", n.id, t.Name(n.sym))
			for _, a := range n.kids {
				fmt.Fprintf(&b, "  n%d -> n%d [style=dashed];\n", n.id, a.id)
				walk(a)
			}
		}
	}
	walk(n)
	b.WriteString("}\n")
	return b.String()
}
