// Completion sessions: the registry's resource-managed wrapper around
// engine completion cursors (engine/complete.go). A CompletionSession
// is one retained cursor addressed by id — the constrained-decoding
// client opens it once, then streams feed/accepts/restore batches —
// under the same regime as document sessions: admission and rate
// limiting through the owning entry's gate, a registry-wide cursor cap,
// idle eviction by the serve janitor, and closure when the grammar
// entry is removed or replaced.
package registry

import (
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

// CompletionLimits bound the registry's completion-cursor population.
// Zero values mean unlimited (and, for IdleTimeout, never evict).
type CompletionLimits struct {
	// MaxCursors caps concurrently open cursors across all grammars.
	MaxCursors int
	// MaxPrefixTokens caps a cursor's position, at open and after every
	// feed batch.
	MaxPrefixTokens int
	// IdleTimeout is how long a cursor may go untouched before an
	// EvictIdleCompletions pass reclaims it.
	IdleTimeout time.Duration
}

// ErrCursorLimit reports cursor-admission rejection (serve: 429).
var ErrCursorLimit = errors.New("registry: too many open completion cursors")

// ErrPrefixTooLong reports a prefix over the per-cursor token budget
// (serve: 413).
var ErrPrefixTooLong = errors.New("registry: completion prefix exceeds token limit")

// ErrNoCursor reports an unknown, closed or evicted cursor id
// (serve: 404).
var ErrNoCursor = errors.New("registry: no such completion cursor")

// CompletionSession is one open completion cursor bound to one registry
// entry. All methods are safe for concurrent use; Apply passes through
// the owning entry's admission gate, so completion traffic obeys the
// same rate/concurrency limits as parses.
type CompletionSession struct {
	id        string
	entry     *Entry
	reg       *Registry
	created   time.Time
	engName   string
	maxTokens int

	lastUsed atomic.Int64 // unix nanoseconds

	mu      sync.Mutex
	cur     engine.Cursor
	queries uint64
	feeds   uint64
	closed  bool
}

// CompletionStat is the wire-shaped snapshot of one completion cursor.
type CompletionStat struct {
	ID      string `json:"id"`
	Grammar string `json:"grammar"`
	Engine  string `json:"engine"`
	Pos     int    `json:"pos"`
	Vocab   int    `json:"vocab"`
	Version uint64 `json:"version"`
	Queries uint64 `json:"queries,omitempty"`
	Feeds   uint64 `json:"feeds,omitempty"`
	IdleMs  int64  `json:"idle_ms"`
}

// CompletionTotals aggregates completion-cursor activity for metrics
// exposition. Counters are monotone: closed cursors' tallies roll into
// the totals before the cursor is dropped.
type CompletionTotals struct {
	Open    int
	Opened  uint64
	Evicted uint64
	Closed  uint64
	Queries uint64
	Feeds   uint64
}

// SetCompletionLimits installs the cursor admission limits (replacing
// the previous set wholesale). Safe to call while serving; already-open
// cursors are not retroactively evicted by a lower MaxCursors.
func (r *Registry) SetCompletionLimits(l CompletionLimits) {
	r.completionMu.Lock()
	defer r.completionMu.Unlock()
	r.completionLimits = l
}

// CompletionLimits returns the current cursor admission limits.
func (r *Registry) CompletionLimits() CompletionLimits {
	r.completionMu.Lock()
	defer r.completionMu.Unlock()
	return r.completionLimits
}

// OpenCompletion opens a completion cursor on e (an entry of this
// registry) and feeds it the prefix, resolved like any parse input —
// scanned source text for SDF entries, whitespace-separated terminal
// names otherwise. On a non-viable prefix the cursor is not retained
// and rejPos reports the index of the first rejected token (with
// engine.ErrRejected); rejPos is -1 otherwise.
func (r *Registry) OpenCompletion(e *Entry, prefix string, tr *obs.ParseTrace) (cs *CompletionSession, rejPos int, err error) {
	if err := e.admit(); err != nil {
		return nil, -1, err
	}
	defer e.release()
	defer e.observeCompletion(time.Now())

	r.completionMu.Lock()
	limits := r.completionLimits
	if max := limits.MaxCursors; max > 0 && len(r.completions) >= max {
		r.completionMu.Unlock()
		return nil, -1, fmt.Errorf("%w (limit %d)", ErrCursorLimit, max)
	}
	r.completionMu.Unlock()

	tr.BeginStage(obs.StageTokenize)
	toks, err := e.InputTokens(prefix)
	tr.EndStage(obs.StageTokenize)
	if err != nil {
		return nil, -1, err
	}
	if max := limits.MaxPrefixTokens; max > 0 && len(toks)-1 > max {
		return nil, -1, fmt.Errorf("%w (%d tokens, limit %d)", ErrPrefixTooLong, len(toks)-1, max)
	}
	tr.BeginStage(obs.StageComplete)
	cur, rejPos, err := engine.OpenCursor(e.eng, toks)
	tr.EndStage(obs.StageComplete)
	if err != nil {
		return nil, rejPos, err
	}
	cs = &CompletionSession{
		id:        fmt.Sprintf("c-%s-%d", e.name, r.completionSeq.Add(1)),
		entry:     e,
		reg:       r,
		created:   time.Now(),
		engName:   e.eng.Kind().String(),
		maxTokens: limits.MaxPrefixTokens,
		cur:       cur,
	}
	cs.touch()

	r.completionMu.Lock()
	// Re-check under the lock: concurrent opens may have raced past the
	// earlier unlocked-window check.
	if max := limits.MaxCursors; max > 0 && len(r.completions) >= max {
		r.completionMu.Unlock()
		cur.Close()
		return nil, -1, fmt.Errorf("%w (limit %d)", ErrCursorLimit, max)
	}
	if r.completions == nil {
		r.completions = map[string]*CompletionSession{}
	}
	r.completions[cs.id] = cs
	r.completionsOpened.Add(1)
	r.completionMu.Unlock()
	return cs, -1, nil
}

// CompleteOnce answers a one-shot accept-set query — open, feed the
// prefix, query, close — without retaining a cursor. It reports how
// many tokens the prefix held; on a non-viable prefix rejPos reports
// the first rejected token with engine.ErrRejected (-1 otherwise).
func (r *Registry) CompleteOnce(e *Entry, prefix string, dst *engine.TermSet, tr *obs.ParseTrace) (tokens, rejPos int, err error) {
	if err := e.admit(); err != nil {
		return 0, -1, err
	}
	defer e.release()
	defer e.observeCompletion(time.Now())
	tr.BeginStage(obs.StageTokenize)
	toks, err := e.InputTokens(prefix)
	tr.EndStage(obs.StageTokenize)
	if err != nil {
		return 0, -1, err
	}
	if max := r.CompletionLimits().MaxPrefixTokens; max > 0 && len(toks)-1 > max {
		return 0, -1, fmt.Errorf("%w (%d tokens, limit %d)", ErrPrefixTooLong, len(toks)-1, max)
	}
	tr.BeginStage(obs.StageComplete)
	rejPos, err = engine.Accepts(e.eng, toks, dst)
	tr.EndStage(obs.StageComplete)
	e.completions.Add(1)
	return len(toks) - 1, rejPos, err
}

// Completion returns the open cursor registered under id.
func (r *Registry) Completion(id string) (*CompletionSession, bool) {
	r.completionMu.Lock()
	defer r.completionMu.Unlock()
	cs, ok := r.completions[id]
	return cs, ok
}

// CloseCompletion closes and forgets the cursor registered under id,
// reporting whether it existed.
func (r *Registry) CloseCompletion(id string) bool {
	r.completionMu.Lock()
	cs, ok := r.completions[id]
	if ok {
		delete(r.completions, id)
		r.completionsClosed.Add(1)
	}
	r.completionMu.Unlock()
	if !ok {
		return false
	}
	cs.close()
	return true
}

// EvictIdleCompletions reclaims cursors untouched for longer than the
// configured IdleTimeout, returning how many were evicted. A zero
// IdleTimeout disables eviction. The serve janitor calls this
// periodically; tests call it directly with a synthetic now.
func (r *Registry) EvictIdleCompletions(now time.Time) int {
	r.completionMu.Lock()
	idle := r.completionLimits.IdleTimeout
	if idle <= 0 {
		r.completionMu.Unlock()
		return 0
	}
	var victims []*CompletionSession
	for id, cs := range r.completions {
		if now.Sub(time.Unix(0, cs.lastUsed.Load())) > idle {
			delete(r.completions, id)
			r.completionsEvicted.Add(1)
			victims = append(victims, cs)
		}
	}
	r.completionMu.Unlock()
	for _, cs := range victims {
		cs.close()
	}
	return len(victims)
}

// CompletionCount returns the number of open cursors.
func (r *Registry) CompletionCount() int {
	r.completionMu.Lock()
	defer r.completionMu.Unlock()
	return len(r.completions)
}

// CompletionStats snapshots every open cursor, sorted by id.
func (r *Registry) CompletionStats() []CompletionStat {
	r.completionMu.Lock()
	open := make([]*CompletionSession, 0, len(r.completions))
	for _, cs := range r.completions {
		open = append(open, cs)
	}
	r.completionMu.Unlock()
	out := make([]CompletionStat, 0, len(open))
	for _, cs := range open {
		out = append(out, cs.Stat())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CompletionTotals aggregates live and closed cursor activity for the
// /metrics endpoint.
func (r *Registry) CompletionTotals() CompletionTotals {
	t := CompletionTotals{
		Queries: r.closedQueries.Load(),
		Feeds:   r.closedFeeds.Load(),
	}
	// The lifecycle counters move under completionMu together with the
	// table, so reading them there keeps Opened == Open+Closed+Evicted.
	r.completionMu.Lock()
	t.Opened = r.completionsOpened.Load()
	t.Evicted = r.completionsEvicted.Load()
	t.Closed = r.completionsClosed.Load()
	open := make([]*CompletionSession, 0, len(r.completions))
	for _, cs := range r.completions {
		open = append(open, cs)
	}
	r.completionMu.Unlock()
	t.Open = len(open)
	for _, cs := range open {
		cs.mu.Lock()
		if !cs.closed {
			t.Queries += cs.queries
			t.Feeds += cs.feeds
		}
		cs.mu.Unlock()
	}
	return t
}

// CloseAllCompletions closes every open cursor — the drain path's
// counterpart to CloseAllSessions. It returns how many were closed.
func (r *Registry) CloseAllCompletions() int {
	r.completionMu.Lock()
	victims := make([]*CompletionSession, 0, len(r.completions))
	for id, cs := range r.completions {
		delete(r.completions, id)
		r.completionsClosed.Add(1)
		victims = append(victims, cs)
	}
	r.completionMu.Unlock()
	for _, cs := range victims {
		cs.close()
	}
	return len(victims)
}

// closeCompletionsOf closes every cursor bound to entry e — called when
// the entry is removed or replaced, since cursors hold frontier state
// of the old engine's table.
func (r *Registry) closeCompletionsOf(e *Entry) {
	if e == nil {
		return
	}
	r.completionMu.Lock()
	var victims []*CompletionSession
	for id, cs := range r.completions {
		if cs.entry == e {
			delete(r.completions, id)
			r.completionsClosed.Add(1)
			victims = append(victims, cs)
		}
	}
	r.completionMu.Unlock()
	for _, cs := range victims {
		cs.close()
	}
}

// observeCompletion records one admitted completion request's
// end-to-end latency.
func (e *Entry) observeCompletion(start time.Time) {
	e.completeLat.observe(time.Since(start))
}

// close releases the cursor, rolling its counters into the registry's
// closed totals so metrics stay monotone.
func (cs *CompletionSession) close() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return
	}
	cs.reg.closedQueries.Add(cs.queries)
	cs.reg.closedFeeds.Add(cs.feeds)
	cs.cur.Close()
	cs.cur = nil
	cs.closed = true
}

func (cs *CompletionSession) touch() { cs.lastUsed.Store(time.Now().UnixNano()) }

// ID returns the cursor's registry-wide identifier.
func (cs *CompletionSession) ID() string { return cs.id }

// Grammar returns the name of the entry the cursor is bound to.
func (cs *CompletionSession) Grammar() string { return cs.entry.name }

// Entry returns the owning registry entry.
func (cs *CompletionSession) Entry() *Entry { return cs.entry }

// FeedTokens resolves input against the entry (source text for SDF,
// terminal names otherwise) into a token batch for Apply, dropping the
// end-marker terminator.
func (cs *CompletionSession) FeedTokens(input string) ([]grammar.Symbol, error) {
	toks, err := cs.entry.InputTokens(input)
	if err != nil {
		return nil, err
	}
	return toks[:len(toks)-1], nil
}

// Apply executes one batched cursor operation under a single admission
// pass: an optional restore (restore >= 0), a token feed, then — when
// dst is non-nil — an accept-set query. On a rejected token rejIdx
// reports its index in feed (with engine.ErrRejected) and the cursor
// keeps the tokens accepted before it; rejIdx is -1 otherwise. Errors
// surface engine.ErrCursorStale once the grammar has moved under the
// cursor; the session then refuses all further use and should be
// closed.
func (cs *CompletionSession) Apply(restore int, feed []grammar.Symbol, dst *engine.TermSet, tr *obs.ParseTrace) (rejIdx int, err error) {
	if err := cs.entry.admit(); err != nil {
		return -1, err
	}
	defer cs.entry.release()
	defer cs.entry.observeCompletion(time.Now())
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return -1, ErrNoCursor
	}
	tr.BeginStage(obs.StageComplete)
	defer tr.EndStage(obs.StageComplete)
	if restore >= 0 {
		if err := cs.cur.Restore(restore); err != nil {
			return -1, err
		}
	}
	if max := cs.maxTokens; max > 0 && cs.cur.Pos()+len(feed) > max {
		return -1, fmt.Errorf("%w (%d tokens, limit %d)", ErrPrefixTooLong, cs.cur.Pos()+len(feed), max)
	}
	for i, t := range feed {
		if err := cs.cur.Feed(t); err != nil {
			return i, err
		}
		cs.feeds++
	}
	if dst != nil {
		if err := cs.cur.Accepts(dst); err != nil {
			return -1, err
		}
		cs.queries++
	}
	cs.entry.completions.Add(1)
	cs.touch()
	return -1, nil
}

// Pos returns the cursor position (tokens fed so far).
func (cs *CompletionSession) Pos() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return 0
	}
	return cs.cur.Pos()
}

// Vocab returns the cursor's terminal vocabulary (nil once closed).
func (cs *CompletionSession) Vocab() *engine.Vocab {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return nil
	}
	return cs.cur.Vocab()
}

// Stat snapshots the cursor for the stat and list endpoints.
func (cs *CompletionSession) Stat() CompletionStat {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := CompletionStat{
		ID:      cs.id,
		Grammar: cs.entry.name,
		Engine:  cs.engName,
		IdleMs:  time.Since(time.Unix(0, cs.lastUsed.Load())).Milliseconds(),
	}
	if cs.closed {
		return out
	}
	v := cs.cur.Vocab()
	out.Pos = cs.cur.Pos()
	out.Vocab = v.Len()
	out.Version = v.Version
	out.Queries = cs.queries
	out.Feeds = cs.feeds
	return out
}
