package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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

// Session is one open document bound to one registry entry: the
// editor-style open/splice/reparse lifecycle, retained server-side so
// clients ship edits instead of whole documents. All methods are safe
// for concurrent use; edits and reparses (Run, and Splice and Reparse,
// which forward to it) pass through the owning entry's admission gate
// and rule-update lock, so sessions obey the same rate/concurrency
// limits as stateless parses.
type Session struct {
	id        string
	entry     *Entry
	reg       *Registry
	created   time.Time
	maxTokens int

	lastUsed atomic.Int64 // unix nanoseconds

	mu      sync.Mutex
	es      engine.Session
	splices uint64
	closed  bool
}

// SessionStat is the wire-shaped snapshot of one session; zero-valued
// reuse counters are omitted so fallback (full-reparse) sessions
// serialize compactly.
type SessionStat struct {
	ID           string `json:"id"`
	Grammar      string `json:"grammar"`
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
// Counters are monotone: closed sessions' tallies roll into the totals
// before the session is dropped.
type SessionTotals struct {
	Open         int
	Opened       uint64
	Evicted      uint64
	Closed       uint64
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
	r.sessionMu.Lock()
	defer r.sessionMu.Unlock()
	r.sessionLimits = l
}

// SessionLimits returns the current session admission limits.
func (r *Registry) SessionLimits() SessionLimits {
	r.sessionMu.Lock()
	defer r.sessionMu.Unlock()
	return r.sessionLimits
}

// OpenSession opens a document session for input on e (an entry of this
// registry). Input is resolved like ParseInput — scanned source text
// for SDF entries, whitespace-separated terminal names otherwise. The
// open passes through the entry's admission gate (tokenizing may hit
// the scanner) and the registry's MaxSessions/MaxDocTokens caps. The
// document is not parsed yet; the first reparsing Run is.
func (r *Registry) OpenSession(e *Entry, input string) (*Session, error) {
	if err := e.admit(); err != nil {
		return nil, err
	}
	defer e.release()

	r.sessionMu.Lock()
	limits := r.sessionLimits
	if max := limits.MaxSessions; max > 0 && len(r.sessions) >= max {
		r.sessionMu.Unlock()
		return nil, fmt.Errorf("%w (limit %d)", ErrSessionLimit, max)
	}
	r.sessionMu.Unlock()

	toks, err := e.InputTokens(input)
	if err != nil {
		return nil, err
	}
	if max := limits.MaxDocTokens; max > 0 && len(toks)-1 > max {
		return nil, fmt.Errorf("%w (%d tokens, limit %d)", ErrDocTooLarge, len(toks)-1, max)
	}
	es, err := engine.OpenSession(e.eng, toks)
	if err != nil {
		return nil, err
	}
	s := &Session{
		id:        fmt.Sprintf("%s-%d", e.name, r.sessionSeq.Add(1)),
		entry:     e,
		reg:       r,
		created:   time.Now(),
		maxTokens: limits.MaxDocTokens,
		es:        es,
	}
	s.touch()

	r.sessionMu.Lock()
	// Re-check under the lock: concurrent opens may have raced past the
	// earlier unlocked-window check.
	if max := limits.MaxSessions; max > 0 && len(r.sessions) >= max {
		r.sessionMu.Unlock()
		es.Close()
		return nil, fmt.Errorf("%w (limit %d)", ErrSessionLimit, max)
	}
	if r.sessions == nil {
		r.sessions = map[string]*Session{}
	}
	r.sessions[s.id] = s
	r.sessionsOpened.Add(1)
	r.sessionMu.Unlock()
	return s, nil
}

// Session returns the open session registered under id.
func (r *Registry) Session(id string) (*Session, bool) {
	r.sessionMu.Lock()
	defer r.sessionMu.Unlock()
	s, ok := r.sessions[id]
	return s, ok
}

// CloseSession closes and forgets the session registered under id,
// reporting whether it existed.
func (r *Registry) CloseSession(id string) bool {
	r.sessionMu.Lock()
	s, ok := r.sessions[id]
	if ok {
		delete(r.sessions, id)
		r.sessionsClosed.Add(1)
	}
	r.sessionMu.Unlock()
	if !ok {
		return false
	}
	s.close()
	return true
}

// EvictIdleSessions reclaims sessions untouched for longer than the
// configured IdleTimeout, returning how many were evicted. A zero
// IdleTimeout disables eviction. The serve janitor calls this
// periodically; tests call it directly with a synthetic now.
func (r *Registry) EvictIdleSessions(now time.Time) int {
	r.sessionMu.Lock()
	idle := r.sessionLimits.IdleTimeout
	if idle <= 0 {
		r.sessionMu.Unlock()
		return 0
	}
	var victims []*Session
	for id, s := range r.sessions {
		if now.Sub(time.Unix(0, s.lastUsed.Load())) > idle {
			delete(r.sessions, id)
			r.sessionsEvicted.Add(1)
			victims = append(victims, s)
		}
	}
	r.sessionMu.Unlock()
	for _, s := range victims {
		s.close()
	}
	return len(victims)
}

// SessionCount returns the number of open sessions.
func (r *Registry) SessionCount() int {
	r.sessionMu.Lock()
	defer r.sessionMu.Unlock()
	return len(r.sessions)
}

// SessionStats snapshots every open session, sorted by id.
func (r *Registry) SessionStats() []SessionStat {
	r.sessionMu.Lock()
	open := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		open = append(open, s)
	}
	r.sessionMu.Unlock()
	out := make([]SessionStat, 0, len(open))
	for _, s := range open {
		out = append(out, s.Stat())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SessionTotals aggregates live and closed session activity for the
// /metrics endpoint.
func (r *Registry) SessionTotals() SessionTotals {
	t := SessionTotals{
		Splices:      r.closedSplices.Load(),
		Reparses:     r.closedReparses.Load(),
		FullReparses: r.closedFullReparses.Load(),
		SetsReused:   r.closedSetsReused.Load(),
		SetsRebuilt:  r.closedSetsRebuilt.Load(),
	}
	// The lifecycle counters move under sessionMu together with the
	// table, so reading them there keeps Opened == Open+Closed+Evicted.
	r.sessionMu.Lock()
	t.Opened = r.sessionsOpened.Load()
	t.Evicted = r.sessionsEvicted.Load()
	t.Closed = r.sessionsClosed.Load()
	open := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		open = append(open, s)
	}
	r.sessionMu.Unlock()
	t.Open = len(open)
	for _, s := range open {
		s.mu.Lock()
		if !s.closed {
			st := s.es.Stats()
			t.Splices += s.splices
			t.Reparses += st.Reparses
			t.FullReparses += st.FullReparses
			t.SetsReused += st.SetsReused
			t.SetsRebuilt += st.SetsRebuilt
		}
		s.mu.Unlock()
	}
	return t
}

// CloseAllSessions closes every open session, rolling their counters
// into the closed totals — the drain path's final step, so a graceful
// shutdown releases every retained chart and forest before exit. It
// returns how many sessions were closed.
func (r *Registry) CloseAllSessions() int {
	r.sessionMu.Lock()
	victims := make([]*Session, 0, len(r.sessions))
	for id, s := range r.sessions {
		delete(r.sessions, id)
		r.sessionsClosed.Add(1)
		victims = append(victims, s)
	}
	r.sessionMu.Unlock()
	for _, s := range victims {
		s.close()
	}
	return len(victims)
}

// closeSessionsOf closes every session bound to entry e — called when
// the entry is removed or replaced, since retained charts refer to the
// old engine.
func (r *Registry) closeSessionsOf(e *Entry) {
	if e == nil {
		return
	}
	r.sessionMu.Lock()
	var victims []*Session
	for id, s := range r.sessions {
		if s.entry == e {
			delete(r.sessions, id)
			r.sessionsClosed.Add(1)
			victims = append(victims, s)
		}
	}
	r.sessionMu.Unlock()
	for _, s := range victims {
		s.close()
	}
}

// close releases the session's retained state, rolling its counters
// into the registry's closed totals so metrics stay monotone.
func (s *Session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	st := s.es.Stats()
	s.reg.closedSplices.Add(s.splices)
	s.reg.closedReparses.Add(st.Reparses)
	s.reg.closedFullReparses.Add(st.FullReparses)
	s.reg.closedSetsReused.Add(st.SetsReused)
	s.reg.closedSetsRebuilt.Add(st.SetsRebuilt)
	s.es.Close()
	s.closed = true
}

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// ID returns the session's registry-wide identifier.
func (s *Session) ID() string { return s.id }

// Grammar returns the name of the entry the session is bound to.
func (s *Session) Grammar() string { return s.entry.name }

// Entry returns the owning registry entry (for Describe and stats).
func (s *Session) Entry() *Entry { return s.entry }

// EngineName reports the concrete backend pinned at open time ("" once
// closed).
func (s *Session) EngineName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ""
	}
	return s.es.Engine().String()
}

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
	tr.BeginStage(obs.StageAdmit)
	err := e.admit()
	tr.EndStage(obs.StageAdmit)
	if err != nil {
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
		toks, err := s.entry.inputTokensLocked(ed.Insert)
		if err != nil {
			return fmt.Errorf("splice %d: %w", i, err)
		}
		ins := toks[:len(toks)-1] // drop the EOF terminator
		next := n - ed.Remove + len(ins)
		if max := s.maxTokens; max > 0 && ed.Remove <= n && next > max {
			return fmt.Errorf("splice %d: %w (%d tokens, limit %d)", i, ErrDocTooLarge, next, max)
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
		IdleMs:  time.Since(time.Unix(0, s.lastUsed.Load())).Milliseconds(),
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
