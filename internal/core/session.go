package core

import (
	"ipg/internal/cancel"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

// ParseSession is a per-parse view of a Generator that implements
// lr.Table with local, non-atomic work counters. The generator's plain
// Actions path pays two shared atomic increments per call — one cache
// line bouncing between every core parsing the same table. A session
// counts locally and flushes once at End, so the published-state hot
// path is a single atomic load (the state's publication flag) and
// nothing shared is written until the parse finishes.
//
// Usage mirrors BeginParse/EndParse:
//
//	var sess core.ParseSession
//	sess.Begin(gen)          // shared (read) access, like BeginParse
//	glr.Parse(&sess, input, opts)
//	sess.End()               // flush counters, count the parse, unlock
//
// A ParseSession is owned by one goroutine for one parse; the zero
// value is reusable across parses (Begin resets it), so callers can
// keep sessions in a sync.Pool and make the steady-state parse path
// allocation-free.
type ParseSession struct {
	gen   *Generator
	calls uint64
	hits  uint64

	// Cancel, when non-nil, is checked before every lazy state
	// expansion; a fired flag aborts by panicking cancel.Abort, which
	// the engine dispatch layer recovers into a structured error.
	// (Expansion has no error return path through lr.Table, and a cold
	// parse can expand hundreds of states between two drive-loop
	// checkpoints.) The published-state hot path never looks at it.
	Cancel *cancel.Flag
}

// Begin binds the session to gen and takes shared access to the table
// for the duration of one parse (see Generator.BeginParse). Always pair
// with End.
func (s *ParseSession) Begin(gen *Generator) {
	s.gen = gen
	s.calls = 0
	s.hits = 0
	s.Cancel = nil
	gen.mu.RLock()
}

// End counts the parse as served and releases the session (see
// Release).
func (s *ParseSession) End() {
	s.gen.parsesServed.Add(1)
	s.Release()
}

// Release flushes the session's local counters into the generator's
// shared ones (one atomic add per counter) and releases the shared
// access taken by Begin, counting no parse: it closes a bracket that
// consulted the table without serving a parse, such as one completion
// cursor operation.
func (s *ParseSession) Release() {
	gen := s.gen
	if s.calls > 0 {
		gen.actionCalls.Add(s.calls)
	}
	if s.hits > 0 {
		gen.cacheHits.Add(s.hits)
	}
	gen.mu.RUnlock()
	s.gen = nil
}

// Grammar implements lr.Table.
func (s *ParseSession) Grammar() *grammar.Grammar { return s.gen.g }

// Start implements lr.Table.
func (s *ParseSession) Start() *lr.State { return s.gen.Start() }

// Actions implements lr.Table; see Generator.Actions.
func (s *ParseSession) Actions(st *lr.State, sym grammar.Symbol) []lr.Action {
	s.count(st)
	return lr.ActionsOf(st, sym)
}

// AppendActions implements lr.Table: the zero-allocation, zero-shared-
// write ACTION of the steady state. An already-published state costs one
// atomic load and two local integer increments.
func (s *ParseSession) AppendActions(dst []lr.Action, st *lr.State, sym grammar.Symbol) []lr.Action {
	s.count(st)
	return lr.AppendActionsOf(dst, st, sym)
}

func (s *ParseSession) count(st *lr.State) {
	s.calls++
	if st.Published() {
		s.hits++
		return
	}
	if s.Cancel.Hit() {
		panic(cancel.Abort{Flag: s.Cancel, Work: s.calls})
	}
	s.gen.expandSlow(st)
}

// Goto implements lr.Table; see Generator.Goto.
func (s *ParseSession) Goto(st *lr.State, sym grammar.Symbol) *lr.State {
	return lr.GotoOf(st, sym)
}
