package engine

import (
	"ipg/internal/cancel"
	"ipg/internal/earley"
	"ipg/internal/grammar"
	"ipg/internal/obs"
)

// Session is a stateful document bound to one engine: the editor-style
// workload of open once, splice many times, reparse after each batch of
// edits. Engines that retain parse state across edits (Earley's chart)
// reuse everything left of the leftmost damaged token; the others,
// auto included, parse from scratch through the engine's own drive, so
// an auto session parses on whichever backend serves at the time.
//
// A Session is NOT safe for concurrent use — callers serialize access
// (the registry layer wraps each session in a mutex). Grammar updates
// on the owning engine remain safe: sessions take the engine's reader
// lock around every reparse and notice version changes.
//
// Reparse brings the parse up to date untraced and uncancellable; the
// registry drives sessions through ParseGuarded instead, which also
// builds the forest on request.
type Session interface {
	Driver
	// Engine identifies the concrete backend serving this session now
	// (for auto, the selection, read without settling).
	Engine() Kind
	// Incremental reports whether reparses reuse retained state (false
	// means every Reparse is a from-scratch parse).
	Incremental() bool
	// Len returns the current token count.
	Len() int
	// Splice replaces tokens[at : at+removed] with insert. The edit is
	// applied to the retained document only; the next drive brings the
	// parse up to date.
	Splice(at, removed int, insert []grammar.Symbol) error
	// Reparse brings the session up to date with its tokens and returns
	// the recognition result. It forwards to the session's drive.
	Reparse() (Result, error)
	// Stats returns the session's reuse accounting.
	Stats() SessionStats
	// Close releases retained state. Further calls are undefined.
	Close()
}

// SessionStats is a point-in-time snapshot of one session's document
// size and incremental-reuse accounting. For fallback (full-reparse)
// sessions, every reparse is counted in FullReparses and the set
// counters stay zero.
type SessionStats struct {
	Tokens       int
	Sets         int
	Items        int
	Reparses     uint64
	FullReparses uint64
	SetsReused   uint64
	SetsRebuilt  uint64
	LastReused   int
	LastRebuilt  int
	ForestNodes  int
}

// ErrSplice reports an out-of-range or malformed splice (the session's
// document is unchanged). Serve maps it to 416.
var ErrSplice = earley.ErrSplice

// CheckSplice reports the ErrSplice that Session.Splice would return
// for replacing tokens[at : at+removed] of an n-token document with
// insert, without applying anything — so a batch of edits can be
// validated before any of them lands.
func CheckSplice(n, at, removed int, insert []grammar.Symbol) error {
	return earley.CheckSplice(n, at, removed, insert)
}

// OpenSession opens a document session over input (a trailing end
// marker is dropped) on e. Earley engines get chart-reuse sessions;
// every other engine, auto included, gets a full-reparse session, which
// drives through e itself: an auto session follows the selection, as
// auto's selection is always a table backend.
func OpenSession(e Engine, input []grammar.Symbol) (Session, error) {
	if ee, ok := e.(*Earley); ok {
		return ee.openSession(input), nil
	}
	return newFallbackSession(e, input), nil
}

// earleySession is the incremental session: a retained earley.Doc whose
// chart survives across reparses. The Doc runs in tree mode (it records
// completions) so a tree-building drive is always available; a
// recognition drive still reports pure recognition.
type earleySession struct {
	e *Earley
	d *earley.Doc
}

func (e *Earley) openSession(input []grammar.Symbol) *earleySession {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return &earleySession{e: e, d: e.p.OpenDoc(input, true)}
}

func (s *earleySession) Engine() Kind      { return KindEarley }
func (s *earleySession) Incremental() bool { return true }
func (s *earleySession) Len() int          { return s.d.Len() }

func (s *earleySession) Splice(at, removed int, insert []grammar.Symbol) error {
	return s.d.Splice(at, removed, insert)
}

func (s *earleySession) Reparse() (Result, error) { return s.drive(nil, false, nil, nil) }

// drive implements Driver: the incremental chart drive polls fl at its
// per-set checkpoints, and with buildTrees the retained forest is
// rebuilt over the damaged spans only. Recognition reports no forest.
func (s *earleySession) drive(_ []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace, fl *cancel.Flag) (Result, error) {
	tr.BeginStage(obs.StageReuse)
	defer tr.EndStage(obs.StageReuse)
	s.e.mu.RLock()
	defer s.e.mu.RUnlock()
	s.e.parsesServed.Add(1)
	var res earley.Result
	var err error
	if buildTrees {
		res, err = s.d.Tree(fl)
	} else {
		res, err = s.d.Reparse(fl)
	}
	s.e.items.Add(uint64(res.Stats.Items))
	return earleyResult(res, err, "engine: earley session tree")
}

func (s *earleySession) Stats() SessionStats {
	st := s.d.Stats()
	return SessionStats{
		Tokens:       st.Tokens,
		Sets:         st.Sets,
		Items:        st.Items,
		Reparses:     st.Reparses,
		FullReparses: st.FullReparses,
		SetsReused:   st.SetsReused,
		SetsRebuilt:  st.SetsRebuilt,
		LastReused:   st.LastReused,
		LastRebuilt:  st.LastRebuilt,
		ForestNodes:  st.ForestNodes,
	}
}

func (s *earleySession) Close() { s.d = nil }

// ResetForest drops the session's retained forest (it regrows on the
// next Tree call); the registry uses it to heal sessions that outgrow a
// forest-node budget.
func (s *earleySession) ResetForest() { s.d.ResetForest() }

// ForestResetter is implemented by sessions whose retained forest can
// be dropped and rebuilt (see earleySession.ResetForest).
type ForestResetter interface{ ResetForest() }

// fallbackSession serves the Session interface on engines without
// retained-state reuse: it keeps only the token stream and runs a
// from-scratch parse through the engine's drive on every drive, so a
// reparse always answers for the current grammar.
type fallbackSession struct {
	e        Engine
	tokens   []grammar.Symbol
	reparses uint64
}

func newFallbackSession(e Engine, input []grammar.Symbol) *fallbackSession {
	if n := len(input); n > 0 && input[n-1] == grammar.EOF {
		input = input[:n-1]
	}
	return &fallbackSession{e: e, tokens: append([]grammar.Symbol(nil), input...)}
}

// Engine implements Session: the backend serving the engine now, read
// without settling an auto engine's pending rule updates.
func (s *fallbackSession) Engine() Kind      { return ServingKind(s.e) }
func (s *fallbackSession) Incremental() bool { return false }
func (s *fallbackSession) Len() int          { return len(s.tokens) }

func (s *fallbackSession) Splice(at, removed int, insert []grammar.Symbol) error {
	if err := CheckSplice(len(s.tokens), at, removed, insert); err != nil {
		return err
	}
	out := make([]grammar.Symbol, 0, len(s.tokens)-removed+len(insert))
	out = append(out, s.tokens[:at]...)
	out = append(out, insert...)
	out = append(out, s.tokens[at+removed:]...)
	s.tokens = out
	return nil
}

func (s *fallbackSession) Reparse() (Result, error) { return s.drive(nil, false, nil, nil) }

// drive implements Driver with a from-scratch parse through the
// engine's drive.
func (s *fallbackSession) drive(_ []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace, fl *cancel.Flag) (Result, error) {
	tr.BeginStage(obs.StageReuse)
	defer tr.EndStage(obs.StageReuse)
	res, err := s.e.drive(s.tokens, buildTrees, nil, fl)
	if err != nil {
		return Result{}, err
	}
	s.reparses++
	return res, nil
}

func (s *fallbackSession) Stats() SessionStats {
	return SessionStats{
		Tokens:       len(s.tokens),
		Reparses:     s.reparses,
		FullReparses: s.reparses,
	}
}

func (s *fallbackSession) Close() { s.tokens = nil }
