package registry

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ipg/internal/engine"
	"ipg/internal/grammar"
	"ipg/internal/obs"
)

// SessionLimits bound the registry's document-session population. Zero
// values mean unlimited (and, for IdleTimeout, never evict).
type SessionLimits struct {
	// MaxSessions caps concurrently open sessions across all grammars.
	MaxSessions int
	// MaxDocTokens caps a session document's token count, at open and
	// after every splice.
	MaxDocTokens int
	// IdleTimeout is how long a session may go untouched before an
	// EvictIdleSessions pass reclaims it.
	IdleTimeout time.Duration
}

// ErrSessionLimit reports session-admission rejection (serve: 429).
var ErrSessionLimit = errors.New("registry: too many open sessions")

// ErrDocTooLarge reports a document over the per-session token budget
// (serve: 413).
var ErrDocTooLarge = errors.New("registry: session document exceeds token limit")

// ErrNoSession reports an unknown, closed or evicted session id
// (serve: 404).
var ErrNoSession = errors.New("registry: no such session")

// Session is one open document bound to one registry entry, a lease
// (lease.go): the editor-style open/splice/reparse lifecycle, retained
// server-side so clients ship edits instead of whole documents. All
// methods are safe for concurrent use; edits and reparses (Run, and
// Splice and Reparse, which forward to it) pass through the owning
// entry's admission gate and rule-update lock, so sessions obey the
// same rate/concurrency limits as stateless parses.
type Session struct {
	lease
	es      engine.Session
	splices uint64
}

// SessionStat is the wire-shaped snapshot of one session; zero-valued
// reuse counters are omitted so fallback (full-reparse) sessions
// serialize compactly.
type SessionStat struct {
	ID      string `json:"id"`
	Grammar string `json:"grammar"`
	// Engine is the backend serving the entry now, as EngineName
	// reports it.
	Engine       string `json:"engine"`
	Incremental  bool   `json:"incremental,omitempty"`
	Tokens       int    `json:"tokens"`
	Sets         int    `json:"sets,omitempty"`
	Items        int    `json:"items,omitempty"`
	Splices      uint64 `json:"splices,omitempty"`
	Reparses     uint64 `json:"reparses,omitempty"`
	FullReparses uint64 `json:"full_reparses,omitempty"`
	SetsReused   uint64 `json:"sets_reused,omitempty"`
	SetsRebuilt  uint64 `json:"sets_rebuilt,omitempty"`
	LastReused   int    `json:"last_reused,omitempty"`
	LastRebuilt  int    `json:"last_rebuilt,omitempty"`
	ForestNodes  int    `json:"forest_nodes,omitempty"`
	IdleMs       int64  `json:"idle_ms"`
}

// SessionTotals aggregates session activity for metrics exposition.
// Counters are monotone: work is counted as it happens (leaseWork), so
// a closed session's work stays counted.
type SessionTotals struct {
	LeaseTotals
	Splices      uint64
	Reparses     uint64
	FullReparses uint64
	SetsReused   uint64
	SetsRebuilt  uint64
}

// SetSessionLimits installs the session admission limits (replacing the
// previous set wholesale). Safe to call while serving; already-open
// sessions are not retroactively evicted by a lower MaxSessions.
func (r *Registry) SetSessionLimits(l SessionLimits) {
	r.sessions.setLimits(leaseLimits{l.MaxSessions, l.MaxDocTokens, l.IdleTimeout})
}

// OpenSession opens a document session for input on e and parses it.
// It forwards to StartSession, untraced and uncancellable.
func (r *Registry) OpenSession(e *Entry, input string) (*Session, error) {
	s, _, err := r.StartSession(context.Background(), e, input, nil)
	return s, err
}

// StartSession is the session open path: one admitted request that
// tokenizes input (resolved like ParseInput — scanned source text for
// SDF entries, whitespace-separated terminal names otherwise) against
// the MaxDocTokens budget, opens the engine session and runs its first
// reparse, observed in the entry's latency histogram like any other
// reparse. The session is inserted, under MaxSessions, only when that
// reparse succeeded; a failed open leaves no session behind and moves
// no lifecycle counter.
func (r *Registry) StartSession(ctx context.Context, e *Entry, input string, tr *obs.ParseTrace) (*Session, Result, error) {
	if err := e.admit(tr); err != nil {
		return nil, Result{}, err
	}
	defer e.release()
	defer e.observeLatency(time.Now())
	var res Result
	var first engine.SessionStats
	s, err := r.sessions.open(func(maxTokens int) (*Session, error) {
		tr.BeginStage(obs.StageTokenize)
		toks, err := e.InputTokens(input)
		tr.EndStage(obs.StageTokenize)
		if err != nil {
			return nil, err
		}
		if err := tooLong(ErrDocTooLarge, len(toks)-1, maxTokens); err != nil {
			return nil, err
		}
		e.updateMu.RLock()
		es, err := engine.OpenSession(e.eng, toks)
		e.updateMu.RUnlock()
		if err != nil {
			return nil, err
		}
		s := &Session{lease: lease{entry: e, reg: r, maxTokens: maxTokens}, es: es}
		if res, err = s.run(ctx, nil, true, false, tr); err != nil {
			s.release()
			return nil, err
		}
		first = s.es.Stats()
		return s, nil
	})
	if err == nil {
		r.work.countReuse(engine.SessionStats{}, first)
	}
	return s, res, err
}

// Session returns the open session registered under id.
func (r *Registry) Session(id string) (*Session, bool) { return r.sessions.get(id) }

// CloseSession closes and forgets the session registered under id,
// reporting whether it existed.
func (r *Registry) CloseSession(id string) bool { return r.sessions.close(id) }

// EvictIdleSessions reclaims sessions untouched for longer than the
// configured IdleTimeout, returning how many were evicted. A zero
// IdleTimeout disables eviction. The ipg-serve janitor calls this
// periodically; tests call it directly with a synthetic now.
func (r *Registry) EvictIdleSessions(now time.Time) int { return r.sessions.evictIdle(now) }

// CloseAllSessions closes every open session — the drain path's final
// step, so a graceful shutdown releases every retained chart and
// forest before exit. It returns how many sessions were closed.
func (r *Registry) CloseAllSessions() int { return r.sessions.closeAll() }

// SessionStats snapshots every open session, sorted by id.
func (r *Registry) SessionStats() []SessionStat {
	open := r.sessions.list()
	out := make([]SessionStat, len(open))
	for i, s := range open {
		out[i] = s.Stat()
	}
	return out
}

// SessionTotals aggregates open and closed session activity for the
// /metrics endpoint. It waits on no session's request.
func (r *Registry) SessionTotals() SessionTotals {
	w := &r.work
	return SessionTotals{
		LeaseTotals:  r.sessions.totals(),
		Splices:      w.splices.Load(),
		Reparses:     w.reparses.Load(),
		FullReparses: w.fullReparses.Load(),
		SetsReused:   w.setsReused.Load(),
		SetsRebuilt:  w.setsRebuilt.Load(),
	}
}

// countReuse counts the reuse work an engine session did between two
// of its stats snapshots.
func (w *leaseWork) countReuse(from, to engine.SessionStats) {
	w.reparses.Add(to.Reparses - from.Reparses)
	w.fullReparses.Add(to.FullReparses - from.FullReparses)
	w.setsReused.Add(to.SetsReused - from.SetsReused)
	w.setsRebuilt.Add(to.SetsRebuilt - from.SetsRebuilt)
}

func (s *Session) release() { s.es.Close() }

// Splice is one session edit: replace tokens[At : At+Remove] with the
// tokenization of Insert, resolved like the open input (scanned for SDF
// entries, terminal names otherwise).
type Splice struct {
	At     int    `json:"at"`
	Remove int    `json:"remove"`
	Insert string `json:"insert"`
}

// Splice applies one edit without reparsing. It forwards to Run.
func (s *Session) Splice(at, remove int, insert string, tr *obs.ParseTrace) error {
	_, err := s.Run(context.Background(), []Splice{{At: at, Remove: remove, Insert: insert}}, false, false, tr)
	return err
}

// Reparse brings the session's parse up to date and returns the
// recognition result. It forwards to Run, uncancellable.
func (s *Session) Reparse(tr *obs.ParseTrace) (Result, error) {
	return s.Run(context.Background(), nil, true, false, tr)
}

// Run is the session's one request path; Splice and Reparse forward to
// it. The request passes the entry's admission gate once, before any
// edit lands, so a rejected request (429/503) leaves the document
// untouched and is safe to retry. The edits then apply all or nothing
// (see applyLocked). With reparse, the parse is brought up to date
// under the entry's rule-update lock through the guarded dispatch —
// ctx aborts the incremental drive at its checkpoints (deadline, client
// disconnect, drain-timeout shutdown) and engine panics are quarantined
// exactly like stateless parses — and the request is observed in the
// entry's latency histogram. tree upgrades the reparse to forest
// construction, applying the entry's forest-node limit, disambiguation
// filters and derivation counting exactly like a stateless tree parse;
// a session whose retained forest outgrows the node limit is
// self-healed: the forest is dropped (to regrow compactly on the next
// call) and the request fails with ErrForestLimit. Without reparse the
// result is empty.
func (s *Session) Run(ctx context.Context, edits []Splice, reparse, tree bool, tr *obs.ParseTrace) (Result, error) {
	e := s.entry
	if err := e.admit(tr); err != nil {
		return Result{}, err
	}
	defer e.release()
	if reparse {
		defer e.observeLatency(time.Now())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Result{}, ErrNoSession
	}
	before := s.es.Stats()
	res, err := s.run(ctx, edits, reparse, tree, tr)
	s.reg.work.countReuse(before, s.es.Stats())
	return res, err
}

// run is Run's body after admission: the open path runs a new
// session's first reparse through it too. Callers hold s.mu or own the
// unpublished session.
func (s *Session) run(ctx context.Context, edits []Splice, reparse, tree bool, tr *obs.ParseTrace) (Result, error) {
	e := s.entry
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	if err := s.applyLocked(edits, tr); err != nil {
		return Result{}, err
	}
	if !reparse {
		return Result{}, nil
	}
	res, err := e.drive(ctx, s.es, nil, tree, tr)
	if err != nil {
		return Result{}, err
	}
	s.touch()
	if !tree {
		// Rejection is definite: zero derivations.
		return Result{Result: res, TreesKnown: !res.Accepted}, nil
	}
	out, err := e.finishResult(res, tr)
	if errors.Is(err, ErrForestLimit) {
		if fr, ok := s.es.(engine.ForestResetter); ok {
			fr.ResetForest()
		}
	}
	return out, err
}

// applyLocked applies a batch of edits all or nothing: every insert is
// tokenized and every splice checked — its range and the document's
// token budget, against the length the earlier splices leave — before
// the first one is applied. Errors name the failing splice's index; an
// out-of-range splice returns engine.ErrSplice and an over-budget one
// ErrDocTooLarge. Callers hold s.mu and the entry's update read lock.
func (s *Session) applyLocked(edits []Splice, tr *obs.ParseTrace) error {
	if len(edits) == 0 {
		return nil
	}
	tr.BeginStage(obs.StageSplice)
	defer tr.EndStage(obs.StageSplice)
	// A one-splice edit, the common case, keeps its insert on the stack.
	var one [1][]grammar.Symbol
	inserts := one[:0]
	n := s.es.Len()
	for i, ed := range edits {
		toks, err := s.entry.front.InputTokens(ed.Insert)
		if err != nil {
			return fmt.Errorf("splice %d: %w", i, err)
		}
		ins := toks[:len(toks)-1] // drop the EOF terminator
		next := n - ed.Remove + len(ins)
		if err := tooLong(ErrDocTooLarge, next, s.maxTokens); err != nil && ed.Remove <= n {
			return fmt.Errorf("splice %d: %w", i, err)
		}
		if err := engine.CheckSplice(n, ed.At, ed.Remove, ins); err != nil {
			return fmt.Errorf("splice %d: %w", i, err)
		}
		inserts = append(inserts, ins)
		n = next
	}
	for i, ed := range edits {
		if err := s.es.Splice(ed.At, ed.Remove, inserts[i]); err != nil {
			return fmt.Errorf("splice %d: %w", i, err)
		}
		s.splices++
		s.reg.work.splices.Add(1)
	}
	s.touch()
	return nil
}

// Stat snapshots the session for the stat endpoint.
func (s *Session) Stat() SessionStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SessionStat{
		ID:      s.id,
		Grammar: s.entry.name,
		IdleMs:  s.idleFor(time.Now()).Milliseconds(),
	}
	if s.closed {
		return out
	}
	st := s.es.Stats()
	out.Engine = s.es.Engine().String()
	out.Incremental = s.es.Incremental()
	out.Tokens = st.Tokens
	out.Sets = st.Sets
	out.Items = st.Items
	out.Splices = s.splices
	out.Reparses = st.Reparses
	out.FullReparses = st.FullReparses
	out.SetsReused = st.SetsReused
	out.SetsRebuilt = st.SetsRebuilt
	out.LastReused = st.LastReused
	out.LastRebuilt = st.LastRebuilt
	out.ForestNodes = st.ForestNodes
	return out
}
