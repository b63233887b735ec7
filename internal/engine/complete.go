package engine

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"

	"ipg/internal/cancel"
	"ipg/internal/faultinject"
	"ipg/internal/grammar"
	"ipg/internal/obs"
)

// This file is the completion capability: the constrained-decoding view
// of a parser. After any viable prefix, a Cursor (Engine.OpenCursor)
// answers "which terminals may come next" — one accept-set query per
// generated token is the workload, so the warm path on the
// table-driven backends is allocation-free and a cursor advances in
// O(1) amortized. The paper's lazy/incremental tables make the answer
// cheap by construction: the parser is always ready at the frontier.

// ErrCursorStale reports that the grammar moved under an open cursor
// (a rule update, repair or regeneration); the cursor refuses every
// further operation and the caller must reopen.
var ErrCursorStale = errors.New("engine: completion cursor stale (grammar modified)")

// ErrRejected reports that a fed token cannot extend the cursor's
// prefix to a viable prefix. The cursor is unchanged; the caller may
// feed a different token or Restore an earlier checkpoint.
var ErrRejected = errors.New("engine: token not acceptable at cursor position")

// ErrBadCheckpoint reports a Restore target outside [0, Pos()].
var ErrBadCheckpoint = errors.New("engine: restore checkpoint out of range")

// ErrPrefixTooLong reports a CursorStep whose feed would move the cursor
// past its MaxPos; nothing was fed.
var ErrPrefixTooLong = errors.New("engine: completion prefix exceeds token limit")

// Vocab is the stable terminal vocabulary of one grammar version: every
// terminal (EOF — "$" — included) sorted by name. TermSet bit indices
// are positions in this ordering, so token-masking clients can cache
// the vocabulary per (grammar, version) and decode bitsets without
// names.
type Vocab struct {
	// Version is the grammar version the vocabulary was read at.
	Version uint64
	terms   []grammar.Symbol
	names   []string
	bit     []int32 // symbol -> bit index; -1 for non-vocab symbols
}

// NewVocab reads g's terminal vocabulary. Callers synchronize with
// grammar mutations (cursors build their vocab at open, under the
// engine's lock).
func NewVocab(g *grammar.Grammar) *Vocab {
	syms := g.Symbols()
	v := &Vocab{
		Version: g.Version(),
		terms:   syms.Terminals(),
		bit:     make([]int32, syms.Len()+1),
	}
	for i := range v.bit {
		v.bit[i] = -1
	}
	v.names = make([]string, len(v.terms))
	for i, t := range v.terms {
		v.names[i] = syms.Name(t)
		v.bit[t] = int32(i)
	}
	return v
}

// Len returns the vocabulary size.
func (v *Vocab) Len() int { return len(v.terms) }

// Terms returns the vocabulary terminals in bit order (do not mutate).
func (v *Vocab) Terms() []grammar.Symbol { return v.terms }

// Names returns the terminal names in bit order (do not mutate).
func (v *Vocab) Names() []string { return v.names }

// Index returns sym's bit index, or -1 when sym is not in the
// vocabulary.
func (v *Vocab) Index(sym grammar.Symbol) int {
	if int(sym) < 0 || int(sym) >= len(v.bit) {
		return -1
	}
	return int(v.bit[sym])
}

// TermSet is a dense terminal bitset over a Vocab. The zero value is
// empty; Reset binds it to a vocabulary. A TermSet is reused across
// queries — the warm path performs no allocation.
type TermSet struct {
	v    *Vocab
	bits []uint64
}

// Reset empties the set and binds it to v.
func (s *TermSet) Reset(v *Vocab) {
	s.v = v
	n := (v.Len() + 63) / 64
	if cap(s.bits) < n {
		s.bits = make([]uint64, n)
		return
	}
	s.bits = s.bits[:n]
	clear(s.bits)
}

// Vocab returns the bound vocabulary (nil before the first Reset).
func (s *TermSet) Vocab() *Vocab { return s.v }

// Add inserts sym; symbols outside the vocabulary are ignored.
func (s *TermSet) Add(sym grammar.Symbol) {
	if i := s.v.Index(sym); i >= 0 {
		s.bits[i/64] |= 1 << (i % 64)
	}
}

// Has reports membership.
func (s *TermSet) Has(sym grammar.Symbol) bool {
	i := s.v.Index(sym)
	return i >= 0 && s.bits[i/64]&(1<<(i%64)) != 0
}

// Count returns the number of members.
func (s *TermSet) Count() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// AppendSyms appends the members in bit order.
func (s *TermSet) AppendSyms(dst []grammar.Symbol) []grammar.Symbol {
	for i, t := range s.v.terms {
		if s.bits[i/64]&(1<<(i%64)) != 0 {
			dst = append(dst, t)
		}
	}
	return dst
}

// AppendNames appends the member names in bit order.
func (s *TermSet) AppendNames(dst []string) []string {
	for i, name := range s.v.names {
		if s.bits[i/64]&(1<<(i%64)) != 0 {
			dst = append(dst, name)
		}
	}
	return dst
}

// Hex encodes the bitset as lowercase hex: byte j carries bits
// 8j..8j+7 (bit i of the vocabulary is bytes[i/8]>>(i%8)&1), and the
// byte count is ceil(Len/8). This is the wire form token-masking
// clients consume together with the vocabulary.
func (s *TermSet) Hex() string {
	nb := (s.v.Len() + 7) / 8
	raw := make([]byte, nb)
	for i := 0; i < s.v.Len(); i++ {
		if s.bits[i/64]&(1<<(i%64)) != 0 {
			raw[i/8] |= 1 << (i % 8)
		}
	}
	return hex.EncodeToString(raw)
}

// Equal reports whether two sets over same-length vocabularies hold the
// same bits.
func (s *TermSet) Equal(o *TermSet) bool {
	if len(s.bits) != len(o.bits) {
		return false
	}
	for i := range s.bits {
		if s.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// Cursor is a checkpointed completion cursor over one engine: a parse
// frozen mid-input. Positions double as checkpoints — Restore rewinds
// to any earlier position in O(1) without reparsing (the per-position
// state is retained, arena-style). A Cursor is not safe for concurrent
// use; every operation fails with ErrCursorStale once the grammar has
// moved.
type Cursor interface {
	// Vocab returns the terminal vocabulary accept sets are indexed by
	// (captured at open).
	Vocab() *Vocab
	// Pos returns the number of tokens fed.
	Pos() int
	// Accepts fills dst (Reset against Vocab) with every terminal that
	// can extend the current prefix, EOF included when the prefix is a
	// complete sentence.
	Accepts(dst *TermSet) error
	// Feed advances the cursor by one terminal; ErrRejected (cursor
	// unchanged) when the token cannot extend the prefix.
	Feed(t grammar.Symbol) error
	// Checkpoint returns the current position as a restorable mark.
	Checkpoint() int
	// Restore rewinds to a previous checkpoint (any position in
	// [0, Pos()]).
	Restore(cp int) error
	// Close releases pooled cursor state. The cursor must not be used
	// afterwards.
	Close()
}

// CursorStep is one completion-cursor operation as a Driver, so that
// ParseGuarded runs it under the guard every parse gets: cancellation,
// panic quarantine and the dispatch fault site. Its drive opens a
// cursor on Engine when Cursor is nil, rewinds to Restore when that is
// not negative, feeds its input with a cancellation and drive.token
// checkpoint before each token, and then, when Accepts is non-nil,
// fills Accepts with the accept set. The step is one complete stage of
// the trace; buildTrees is ignored.
//
// A rejected token stops the feed with ErrRejected, and Result.ErrorPos
// is its index in the input (-1 otherwise). The tokens fed before a
// rejection or a cancellation stay fed; Fed counts them.
type CursorStep struct {
	// Engine opens the cursor when Cursor is nil. The drive stores the
	// opened cursor in Cursor, and the caller owns it from then on,
	// also when the step fails.
	Engine Engine
	Cursor Cursor
	// Restore is the checkpoint to rewind to before the feed (-1: none).
	Restore int
	// MaxPos bounds the position after the restore and the feed (0:
	// unbounded). A feed that would pass it feeds nothing and fails
	// with ErrPrefixTooLong.
	MaxPos int
	// Accepts, when non-nil, receives the accept set after the feed.
	Accepts *TermSet
	// Fed is the number of tokens the last drive fed.
	Fed int
}

// drive implements Driver.
func (s *CursorStep) drive(feed []grammar.Symbol, _ bool, tr *obs.ParseTrace, fl *cancel.Flag) (Result, error) {
	tr.BeginStage(obs.StageComplete)
	defer tr.EndStage(obs.StageComplete)
	s.Fed = 0
	res := Result{ErrorPos: -1}
	if s.Cursor == nil {
		c, err := s.Engine.OpenCursor()
		if err != nil {
			return res, err
		}
		s.Cursor = c
	}
	c := s.Cursor
	if s.Restore >= 0 {
		if err := c.Restore(s.Restore); err != nil {
			return res, err
		}
	}
	if n := c.Pos() + len(feed); s.MaxPos > 0 && n > s.MaxPos {
		return res, fmt.Errorf("%w (%d tokens, limit %d)", ErrPrefixTooLong, n, s.MaxPos)
	}
	for i, t := range feed {
		if fl.Hit() {
			return res, fl.Err(i, len(feed), uint64(i))
		}
		if faultinject.Armed() {
			faultinject.Step(faultinject.SiteDriveToken, i, fl)
		}
		if err := c.Feed(t); err != nil {
			res.ErrorPos = i
			return res, err
		}
		s.Fed++
	}
	if s.Accepts != nil {
		return res, c.Accepts(s.Accepts)
	}
	return res, nil
}

// OpenCursor opens a completion cursor on e and feeds prefix (a
// trailing end marker is tolerated and ignored): one unguarded
// CursorStep. On a non-viable prefix it returns the index of the first
// rejected token along with ErrRejected; rejPos is -1 otherwise.
func OpenCursor(e Engine, prefix []grammar.Symbol) (c Cursor, rejPos int, err error) {
	if n := len(prefix); n > 0 && prefix[n-1] == grammar.EOF {
		prefix = prefix[:n-1]
	}
	s := CursorStep{Engine: e, Restore: -1}
	res, err := s.drive(prefix, false, nil, nil)
	if err != nil {
		if s.Cursor != nil {
			s.Cursor.Close()
		}
		return nil, res.ErrorPos, err
	}
	return s.Cursor, -1, nil
}

// badRestore formats the uniform out-of-range Restore error.
func badRestore(cp, pos int) error {
	return fmt.Errorf("%w: checkpoint %d, cursor at [0,%d]", ErrBadCheckpoint, cp, pos)
}
