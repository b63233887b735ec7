package grammar

import (
	"strconv"
	"strings"
)

// Rule is a syntax rule A ::= α. Rules are immutable after creation; the
// grammar algorithms identify rules by value (left-hand side plus
// right-hand side), matching the paper's ADD-RULE / DELETE-RULE interface,
// which names rules by their text.
type Rule struct {
	// Lhs is the defined nonterminal A.
	Lhs Symbol
	// Rhs is the body α: zero or more terminals and/or nonterminals.
	// An empty Rhs is an epsilon rule.
	Rhs []Symbol

	// key is the canonical value identity, computed once at creation.
	key string
	// id is the rule's integer identity in syms, the symbol table of the
	// first grammar it entered; 0 until then. Grammar.AddRule sets both,
	// once, before the rule is shared.
	id   uint32
	syms *SymbolTable
}

// NewRule creates a rule. The Rhs slice is copied, so callers may reuse
// their buffer.
func NewRule(lhs Symbol, rhs ...Symbol) *Rule {
	body := make([]Symbol, len(rhs))
	copy(body, rhs)
	r := &Rule{Lhs: lhs, Rhs: body}
	r.key = ruleKey(lhs, body)
	return r
}

// ruleKey encodes a rule's value identity as a compact string usable as a
// map key. Symbol IDs (not names) are encoded, so the key is only
// meaningful within one SymbolTable.
func ruleKey(lhs Symbol, rhs []Symbol) string {
	var b strings.Builder
	b.Grow(4 * (len(rhs) + 1))
	b.WriteString(strconv.FormatInt(int64(lhs), 32))
	for _, s := range rhs {
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(int64(s), 32))
	}
	return b.String()
}

// Key returns the canonical value identity of the rule. Two rules with the
// same Lhs and Rhs have equal keys.
func (r *Rule) Key() string { return r.key }

// ID returns the rule's integer identity, interned per symbol table when
// the rule enters a grammar: rules of one table have equal IDs exactly
// when they are equal, and a deleted rule keeps its ID, so an equal rule
// added later gets it back. It is 0 for a rule no grammar holds yet.
func (r *Rule) ID() uint32 { return r.id }

// Len returns the length of the right-hand side.
func (r *Rule) Len() int { return len(r.Rhs) }

// Equal reports whether r and o have the same left- and right-hand sides.
func (r *Rule) Equal(o *Rule) bool {
	if r == nil || o == nil {
		return r == o
	}
	if r.syms != nil && r.syms == o.syms {
		return r.id == o.id
	}
	return r.key == o.key
}

// String formats the rule using names from t, e.g. "B ::= B or B".
// An epsilon rule formats as "A ::= ε".
func (r *Rule) String(t *SymbolTable) string {
	var b strings.Builder
	b.WriteString(t.Name(r.Lhs))
	b.WriteString(" ::=")
	if len(r.Rhs) == 0 {
		b.WriteString(" ε")
		return b.String()
	}
	for _, s := range r.Rhs {
		b.WriteByte(' ')
		b.WriteString(t.Name(s))
	}
	return b.String()
}
