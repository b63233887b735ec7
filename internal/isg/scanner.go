package isg

import (
	"fmt"
	"strconv"
	"strings"
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
	states []*nfaState
	// accept is the lowest accepting rule index in the subset, or -1.
	accept int
	// trans caches computed transitions; a nil value is a cached dead
	// transition.
	trans map[rune]*dfaState
}

// Scanner is a lazily generated, incrementally modifiable scanner.
type Scanner struct {
	rules []Rule
	nfa   *nfa
	dfa   map[string]*dfaState
	start *dfaState

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
	s.dfa = map[string]*dfaState{}
	s.start = s.intern(epsClosure([]*nfaState{n.start}))
	return nil
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
		delete(s.dfa, subsetKey(s.start.states))
		s.start = s.intern(epsClosure([]*nfaState{s.nfa.start}))
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

func subsetKey(states []*nfaState) string {
	var b strings.Builder
	for i, st := range states {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(st.id))
	}
	return b.String()
}

func (s *Scanner) intern(states []*nfaState) *dfaState {
	key := subsetKey(states)
	if d, ok := s.dfa[key]; ok {
		return d
	}
	d := &dfaState{states: states, accept: -1, trans: map[rune]*dfaState{}}
	for _, st := range states {
		if st.accept >= 0 && (d.accept < 0 || st.accept < d.accept) {
			d.accept = st.accept
		}
	}
	s.dfa[key] = d
	s.Stats.DFAStates++
	return d
}

// step returns the successor of d on r, materializing it on first use —
// the lazy subset construction.
func (s *Scanner) step(d *dfaState, r rune) *dfaState {
	if next, ok := d.trans[r]; ok {
		return next
	}
	s.Stats.DFATransitions++
	targets := move(d.states, r)
	var next *dfaState
	if len(targets) > 0 {
		next = s.intern(targets)
	}
	d.trans[r] = next
	return next
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
// stream does not include an end marker.
func (s *Scanner) Scan(src string) ([]Token, error) {
	var out []Token
	line, col := 1, 1
	pos := 0
	runes := []rune(src)
	// byte offsets per rune index for Token.Offset.
	offsets := make([]int, len(runes)+1)
	{
		off := 0
		for i, r := range runes {
			offsets[i] = off
			off += len(string(r))
		}
		offsets[len(runes)] = off
	}

	for pos < len(runes) {
		d := s.start
		lastAccept := -1
		lastEnd := pos
		for i := pos; i < len(runes); i++ {
			d = s.step(d, runes[i])
			if d == nil {
				break
			}
			if d.accept >= 0 {
				lastAccept = d.accept
				lastEnd = i + 1
			}
		}
		if lastAccept < 0 || lastEnd == pos {
			return out, &ScanError{
				Offset: offsets[pos], Line: line, Col: col,
				Msg: fmt.Sprintf("unexpected character %q", string(runes[pos])),
			}
		}
		text := string(runes[pos:lastEnd])
		rule := s.rules[lastAccept]
		if !rule.Layout {
			out = append(out, Token{Sort: rule.Sort, Text: text, Offset: offsets[pos], Line: line, Col: col})
		}
		for _, r := range runes[pos:lastEnd] {
			if r == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		pos = lastEnd
	}
	return out, nil
}
