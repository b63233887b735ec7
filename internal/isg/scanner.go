package isg

import (
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"
)

// Token is one scanned token.
type Token struct {
	// Sort is the lexical sort of the matched rule.
	Sort string
	// Text is the matched input slice.
	Text string
	// Offset is the byte offset in the input; Line and Col are 1-based.
	Offset, Line, Col int
}

// Stats counts scanner-generator work: the lazy DFA coverage measure.
type Stats struct {
	// DFAStates is the number of DFA states materialized so far.
	DFAStates int
	// DFATransitions is the number of (state, rune) transitions computed.
	DFATransitions int
	// Invalidations counts lexical-syntax modifications that invalidated
	// materialized DFA states: all of them, or only the start state when
	// AddRule appends a fresh literal.
	Invalidations int
}

// dfaState is a lazily materialized subset-construction state.
type dfaState struct {
	// set is the state's identity: the ids of its NFA states, sorted.
	// hash hashes it, and next chains the states of the scanner's table
	// that share the hash.
	set  []int32
	hash uint64
	next *dfaState
	// index is the state's position in Scanner.states.
	index int
	// accept is the lowest accepting rule index in the subset, or -1.
	accept int
	// ascii caches the transitions on runes below 128: 0 when not yet
	// computed, deadIndex for a dead transition, otherwise the
	// successor's index in Scanner.states plus one.
	ascii [128]uint16
	// trans caches the other computed transitions, nil until one is; a
	// nil value is a cached dead transition.
	trans map[rune]*dfaState
}

// deadIndex marks a cached dead transition in dfaState.ascii; a
// successor whose index plus one does not fit below it is cached in
// dfaState.trans.
const deadIndex = 1<<16 - 1

// Scanner is a lazily generated, incrementally modifiable scanner.
type Scanner struct {
	rules []Rule
	nfa   *nfa
	// dfa maps a subset hash to the states with that hash, chained
	// through dfaState.next; states lists them by index.
	dfa    map[uint64]*dfaState
	states []*dfaState
	start  *dfaState

	// Subset-construction working space: mark[id] == epoch marks NFA
	// state id as in the set being built, whose ids are in set; stack
	// holds the states whose ε-edges are still to follow.
	mark  []uint32
	epoch uint32
	set   []int32
	stack []int32

	// Stats accumulates generator work.
	Stats Stats
}

// NewScanner compiles the rule set into an NFA and prepares an empty DFA;
// no subset construction happens until scanning starts.
func NewScanner(rules []Rule) (*Scanner, error) {
	s := &Scanner{rules: append([]Rule(nil), rules...)}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Scanner) rebuild() error {
	n, err := buildNFA(s.rules)
	if err != nil {
		return err
	}
	s.nfa = n
	s.dfa = map[uint64]*dfaState{}
	clear(s.states)
	s.states = s.states[:0]
	s.start = s.startState()
	return nil
}

// startState materializes the DFA's start state, the ε-closure of the
// NFA's start state.
func (s *Scanner) startState() *dfaState {
	s.begin()
	s.add(s.nfa.start.id)
	return s.intern(s.closure())
}

// Rules returns the current lexical rules.
func (s *Scanner) Rules() []Rule { return s.rules }

// AddRule adds a lexical rule. A rule of a new sort whose pattern
// references no other sort — a keyword or punctuation literal, the
// common case of a grammar update teaching the scanner a new terminal —
// is compiled as one more NFA fragment off the start state, and only the
// DFA's start state is invalidated: the other materialized DFA states
// are subsets of NFA states the new fragment cannot reach, so their
// transitions stay valid, and the states the new fragment joins are
// materialized lazily on the next scan. Any other rule changes what
// existing references resolve to, so the NFA is rebuilt from the whole
// rule set and the DFA discarded. A rule that fails to compile leaves
// the scanner unchanged.
func (s *Scanner) AddRule(r Rule) error {
	if !r.Private && !hasRef(r.Pattern) && !s.HasSort(r.Sort) {
		if err := appendRule(s.nfa, len(s.rules), r); err != nil {
			return err
		}
		s.rules = append(s.rules, r)
		// No transition leads back to the NFA's start state, so none
		// reaches the DFA's: the new start state takes the old one's
		// place.
		old := s.start
		s.unlink(old)
		s.start = s.startState()
		last := len(s.states) - 1
		s.start.index, s.states[old.index] = old.index, s.start
		s.states[last] = nil
		s.states = s.states[:last]
		s.Stats.Invalidations++
		return nil
	}
	s.rules = append(s.rules, r)
	if err := s.rebuild(); err != nil {
		s.rules = s.rules[:len(s.rules)-1]
		// Restore a consistent automaton for the old rules.
		if rerr := s.rebuild(); rerr != nil {
			return fmt.Errorf("isg: rollback failed: %v (original error %w)", rerr, err)
		}
		return err
	}
	s.Stats.Invalidations++
	return nil
}

// HasSort reports whether a rule of the given sort exists.
func (s *Scanner) HasSort(sort string) bool {
	for _, r := range s.rules {
		if r.Sort == sort {
			return true
		}
	}
	return false
}

// RemoveSort deletes all rules of the given sort and invalidates the DFA.
// It reports how many rules were removed.
func (s *Scanner) RemoveSort(sort string) (int, error) {
	kept := s.rules[:0:0]
	removed := 0
	for _, r := range s.rules {
		if r.Sort == sort {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	if removed == 0 {
		return 0, nil
	}
	s.rules = kept
	if err := s.rebuild(); err != nil {
		return removed, err
	}
	s.Stats.Invalidations++
	return removed, nil
}

// hashSet hashes a sorted set of NFA-state ids for the state table.
func hashSet(set []int32) uint64 {
	h := uint64(len(set))
	for _, x := range set {
		h = (h ^ uint64(x)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// intern returns the state for a sorted set of NFA-state ids, creating
// it (with a copy of set) on first sight.
func (s *Scanner) intern(set []int32) *dfaState {
	h := hashSet(set)
	for d := s.dfa[h]; d != nil; d = d.next {
		if slices.Equal(d.set, set) {
			return d
		}
	}
	d := &dfaState{set: slices.Clone(set), hash: h, next: s.dfa[h], index: len(s.states), accept: -1}
	for _, id := range set {
		if a := s.nfa.states[id].accept; a >= 0 && (d.accept < 0 || a < d.accept) {
			d.accept = a
		}
	}
	s.dfa[h] = d
	s.states = append(s.states, d)
	s.Stats.DFAStates++
	return d
}

// unlink takes d out of the state table.
func (s *Scanner) unlink(d *dfaState) {
	if s.dfa[d.hash] == d {
		if d.next == nil {
			delete(s.dfa, d.hash)
		} else {
			s.dfa[d.hash] = d.next
		}
		return
	}
	for p := s.dfa[d.hash]; p != nil; p = p.next {
		if p.next == d {
			p.next = d.next
			return
		}
	}
}

// step returns the successor of d on r, materializing it on first use —
// the lazy subset construction.
func (s *Scanner) step(d *dfaState, r rune) *dfaState {
	if r < utf8.RuneSelf {
		if v := d.ascii[r]; v != 0 && v != deadIndex {
			return s.states[v-1]
		}
	}
	return s.stepSlow(d, r)
}

// stepSlow is step off the table's fast path: a cached dead or
// non-ASCII transition, or one not computed yet.
func (s *Scanner) stepSlow(d *dfaState, r rune) *dfaState {
	if r < utf8.RuneSelf && d.ascii[r] == deadIndex {
		return nil
	}
	if next, ok := d.trans[r]; ok {
		return next
	}
	s.Stats.DFATransitions++
	next := s.move(d, r)
	switch {
	case r < utf8.RuneSelf && next == nil:
		d.ascii[r] = deadIndex
	case r < utf8.RuneSelf && next.index+1 < deadIndex:
		d.ascii[r] = uint16(next.index + 1)
	default:
		if d.trans == nil {
			d.trans = map[rune]*dfaState{}
		}
		d.trans[r] = next
	}
	return next
}

// move returns the state for the ε-closed successor set of d's NFA
// states on r, or nil when it is empty.
func (s *Scanner) move(d *dfaState, r rune) *dfaState {
	s.begin()
	for _, id := range d.set {
		for _, e := range s.nfa.states[id].edges {
			if e.class.Contains(r) {
				s.add(e.to.id)
			}
		}
	}
	if len(s.set) == 0 {
		return nil
	}
	return s.intern(s.closure())
}

// begin starts building a new NFA-state set.
func (s *Scanner) begin() {
	if len(s.mark) < len(s.nfa.states) {
		s.mark = make([]uint32, 2*len(s.nfa.states))
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.mark)
		s.epoch = 1
	}
	s.set, s.stack = s.set[:0], s.stack[:0]
}

// add puts NFA state id in the set being built, once.
func (s *Scanner) add(id int) {
	if s.mark[id] != s.epoch {
		s.mark[id] = s.epoch
		s.set = append(s.set, int32(id))
		s.stack = append(s.stack, int32(id))
	}
}

// closure closes the set being built under ε-edges and returns it
// sorted.
func (s *Scanner) closure() []int32 {
	for len(s.stack) > 0 {
		id := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, e := range s.nfa.states[id].eps {
			s.add(e.id)
		}
	}
	slices.Sort(s.set)
	return s.set
}

// ScanError reports a scanning failure with its position.
type ScanError struct {
	Offset, Line, Col int
	Msg               string
}

// Error implements error.
func (e *ScanError) Error() string {
	return fmt.Sprintf("isg: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Scan tokenizes src with longest-match semantics; ties are broken by
// rule order (earlier rules win). Layout matches are skipped. The token
// stream does not include an end marker. Scan walks src's bytes and
// decodes UTF-8 only at bytes from 0x80 up; an invalid byte scans as
// utf8.RuneError and spans one byte. Token texts are substrings of src,
// and offsets are byte offsets into it.
func (s *Scanner) Scan(src string) ([]Token, error) {
	var out []Token
	line, col := 1, 1
	for pos := 0; pos < len(src); {
		d := s.start
		lastAccept, lastEnd := -1, pos
		for i := pos; i < len(src); {
			r, size := rune(src[i]), 1
			if r >= utf8.RuneSelf {
				r, size = utf8.DecodeRuneInString(src[i:])
			}
			if d = s.step(d, r); d == nil {
				break
			}
			i += size
			if d.accept >= 0 {
				lastAccept, lastEnd = d.accept, i
			}
		}
		if lastAccept < 0 || lastEnd == pos {
			_, size := utf8.DecodeRuneInString(src[pos:])
			return out, &ScanError{
				Offset: pos, Line: line, Col: col,
				Msg: fmt.Sprintf("unexpected character %q", src[pos:pos+size]),
			}
		}
		rule := s.rules[lastAccept]
		if !rule.Layout {
			out = append(out, Token{Sort: rule.Sort, Text: src[pos:lastEnd], Offset: pos, Line: line, Col: col})
		}
		text := src[pos:lastEnd]
		if nl := strings.LastIndexByte(text, '\n'); nl >= 0 {
			line, col = line+strings.Count(text, "\n"), 1
			text = text[nl+1:]
		}
		col += utf8.RuneCountInString(text)
		pos = lastEnd
	}
	return out, nil
}
