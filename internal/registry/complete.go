// Completion sessions: the registry's resource-managed wrapper around
// engine completion cursors (engine/complete.go). A CompletionSession
// is one retained cursor addressed by id — the constrained-decoding
// client opens it once, then streams feed/accepts/restore batches —
// and a lease with the same lifecycle as document sessions (lease.go).
package registry

import (
	"context"
	"errors"
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
var ErrPrefixTooLong = engine.ErrPrefixTooLong

// ErrNoCursor reports an unknown, closed or evicted cursor id
// (serve: 404).
var ErrNoCursor = errors.New("registry: no such completion cursor")

// CompletionSession is one open completion cursor bound to one registry
// entry, a lease (lease.go). All methods are safe for concurrent use;
// its requests go through Complete, so completion traffic passes the
// owning entry's admission gate, rule-update lock and guarded dispatch
// like parses do.
type CompletionSession struct {
	lease
	// version is the entry version (Entry.Version) the cursor opened
	// at. Any rule update leaves the cursor stale, so it is also the
	// version of its last successful step.
	version uint64
	// step holds the cursor and is its one Driver, reused by every
	// request so a warm resume allocates nothing.
	step    engine.CursorStep
	queries uint64
	feeds   uint64
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
// exposition. Counters are monotone: work is counted as it happens
// (leaseWork), so a closed cursor's work stays counted.
type CompletionTotals struct {
	LeaseTotals
	Queries uint64
	Feeds   uint64
}

// SetCompletionLimits installs the cursor admission limits (replacing
// the previous set wholesale). Safe to call while serving; already-open
// cursors are not retroactively evicted by a lower MaxCursors.
func (r *Registry) SetCompletionLimits(l CompletionLimits) {
	r.cursors.setLimits(leaseLimits{l.MaxCursors, l.MaxPrefixTokens, l.IdleTimeout})
}

// CompletionOp is one completion request in any of its three shapes:
// a one-shot accept-set query, the open of a cursor, or a resume.
type CompletionOp struct {
	// Cursor is the cursor to resume; nil starts a cursor at the empty
	// prefix.
	Cursor *CompletionSession
	// Once makes a start a one-shot query that retains nothing; a
	// start without it is an open, which retains its cursor as a new
	// lease.
	Once bool
	// Restore rewinds a resumed cursor to this checkpoint before the
	// feed (-1: no restore).
	Restore int
	// Input is the prefix or feed, resolved like parse input — source
	// text for SDF entries, whitespace-separated terminal names
	// otherwise — inside the request's admission. Tokens, when
	// non-nil, is an already resolved feed used instead.
	Input  string
	Tokens []grammar.Symbol
}

// feed resolves op's tokens, dropping the end marker. Callers hold the
// entry's update read lock.
func (op *CompletionOp) feed(e *Entry, tr *obs.ParseTrace) ([]grammar.Symbol, error) {
	if op.Tokens != nil || op.Input == "" {
		return op.Tokens, nil
	}
	tr.BeginStage(obs.StageTokenize)
	defer tr.EndStage(obs.StageTokenize)
	toks, err := e.front.InputTokens(op.Input)
	if err != nil {
		return nil, err
	}
	return toks[:len(toks)-1], nil
}

// OpenCompletion opens a completion cursor on e at the end of prefix.
// It forwards to Complete, uncancellable and without an accept-set
// query.
func (r *Registry) OpenCompletion(e *Entry, prefix string, tr *obs.ParseTrace) (cs *CompletionSession, rejPos int, err error) {
	cs, _, _, rejPos, err = r.Complete(context.Background(), e, CompletionOp{Input: prefix}, nil, tr)
	return cs, rejPos, err
}

// Apply resumes cs with an already resolved feed. It forwards to
// Complete, uncancellable.
func (cs *CompletionSession) Apply(restore int, feed []grammar.Symbol, dst *engine.TermSet, tr *obs.ParseTrace) (rejIdx int, err error) {
	_, _, _, rejIdx, err = cs.reg.Complete(context.Background(), cs.entry, CompletionOp{Cursor: cs, Restore: restore, Tokens: feed}, dst, tr)
	return rejIdx, err
}

// Complete is the one completion request path; OpenCompletion and
// Apply forward to it. A resumed cursor must be one of e's. The request
// passes the entry's admission gate once, is one sample in the entry's
// completion latency histogram, whose count is the entry's completion
// count, and holds the entry's rule-update read lock once, across the
// resolution of op's text, the open and the step. The step runs
// through the entry's guarded dispatch like a parse (Entry.drive): ctx
// cancels it between fed tokens, and an engine panic is quarantined.
// It restores, on a resume, feeds the tokens and, when dst is non-nil,
// fills dst with the accept set. MaxPrefixTokens bounds the cursor
// position after the restore and the feed. An open is inserted, under
// MaxCursors, only when that first step succeeded; a one-shot query
// retains nothing. Complete returns the cursor (nil for a one-shot
// query), its position and the entry's version (Entry.Version) the
// step ran at, read under the lock. On a rejected token rejIdx is the
// token's index in the feed, with engine.ErrRejected; a resumed cursor
// keeps the tokens accepted before it, a started one is dropped.
// rejIdx is -1 otherwise. Errors surface engine.ErrCursorStale once the grammar
// has moved under a cursor; it then refuses all further use and should
// be closed.
func (r *Registry) Complete(ctx context.Context, e *Entry, op CompletionOp, dst *engine.TermSet, tr *obs.ParseTrace) (cs *CompletionSession, pos int, version uint64, rejIdx int, err error) {
	if err := e.admit(tr); err != nil {
		return nil, 0, 0, -1, err
	}
	defer e.release()
	defer e.observeCompletion(time.Now())
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	version = e.Version()
	if op.Cursor == nil {
		cs, pos, rejIdx, err = r.startCursor(ctx, e, op, dst, tr)
		return cs, pos, version, rejIdx, err
	}
	feed, err := op.feed(e, tr)
	if err != nil {
		return nil, 0, version, -1, err
	}
	cs = op.Cursor
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return nil, 0, version, -1, ErrNoCursor
	}
	feeds, queries := cs.feeds, cs.queries
	rejIdx, err = cs.run(ctx, op.Restore, feed, dst, tr)
	r.work.feeds.Add(cs.feeds - feeds)
	r.work.queries.Add(cs.queries - queries)
	return cs, cs.step.Cursor.Pos(), version, rejIdx, err
}

// startCursor is Complete without a cursor: the first step opens a
// cursor at the empty prefix and takes op's feed.
func (r *Registry) startCursor(ctx context.Context, e *Entry, op CompletionOp, dst *engine.TermSet, tr *obs.ParseTrace) (*CompletionSession, int, int, error) {
	pos, rejIdx := 0, -1
	var feeds, queries uint64
	start := func(maxTokens int) (*CompletionSession, error) {
		feed, err := op.feed(e, tr)
		if err != nil {
			return nil, err
		}
		cs := &CompletionSession{lease: lease{entry: e, reg: r, maxTokens: maxTokens}}
		cs.step.Engine = e.eng
		if rejIdx, err = cs.run(ctx, -1, feed, dst, tr); err != nil {
			if cs.step.Cursor != nil {
				cs.release()
			}
			return nil, err
		}
		cs.version = e.Version()
		pos, feeds, queries = cs.step.Cursor.Pos(), cs.feeds, cs.queries
		return cs, nil
	}
	if op.Once {
		cs, err := start(r.cursors.getLimits().tokens)
		if err == nil {
			cs.release()
		}
		return nil, pos, rejIdx, err
	}
	cs, err := r.cursors.open(start)
	if err == nil {
		r.work.feeds.Add(feeds)
		r.work.queries.Add(queries)
	}
	return cs, pos, rejIdx, err
}

// run is one cursor step — an optional restore (restore >= 0), the
// feed, then, when dst is non-nil, an accept-set query — through the
// entry's guarded dispatch. Callers hold the entry's update read lock,
// and hold cs.mu or own the unpublished cursor.
func (cs *CompletionSession) run(ctx context.Context, restore int, feed []grammar.Symbol, dst *engine.TermSet, tr *obs.ParseTrace) (rejIdx int, err error) {
	st := &cs.step
	st.Restore, st.MaxPos, st.Accepts = restore, cs.maxTokens, dst
	res, err := cs.entry.drive(ctx, st, feed, false, tr)
	st.Accepts = nil
	cs.feeds += uint64(st.Fed)
	if errors.Is(err, engine.ErrRejected) {
		return res.ErrorPos, err
	}
	if err != nil {
		return -1, err
	}
	if dst != nil {
		cs.queries++
	}
	cs.touch()
	return -1, nil
}

// Completion returns the open cursor registered under id.
func (r *Registry) Completion(id string) (*CompletionSession, bool) { return r.cursors.get(id) }

// CloseCompletion closes and forgets the cursor registered under id,
// reporting whether it existed.
func (r *Registry) CloseCompletion(id string) bool { return r.cursors.close(id) }

// EvictIdleCompletions reclaims cursors untouched for longer than the
// configured IdleTimeout, returning how many were evicted. A zero
// IdleTimeout disables eviction. The ipg-serve janitor calls this
// periodically; tests call it directly with a synthetic now.
func (r *Registry) EvictIdleCompletions(now time.Time) int { return r.cursors.evictIdle(now) }

// CloseAllCompletions closes every open cursor — the drain path's
// counterpart to CloseAllSessions. It returns how many were closed.
func (r *Registry) CloseAllCompletions() int { return r.cursors.closeAll() }

// CompletionStats snapshots every open cursor, sorted by id.
func (r *Registry) CompletionStats() []CompletionStat {
	open := r.cursors.list()
	out := make([]CompletionStat, len(open))
	for i, cs := range open {
		out[i] = cs.Stat()
	}
	return out
}

// CompletionTotals aggregates open and closed cursor activity for the
// /metrics endpoint. It waits on no cursor's request.
func (r *Registry) CompletionTotals() CompletionTotals {
	return CompletionTotals{
		LeaseTotals: r.cursors.totals(),
		Queries:     r.work.queries.Load(),
		Feeds:       r.work.feeds.Load(),
	}
}

// observeCompletion records one admitted completion request's
// end-to-end latency.
func (e *Entry) observeCompletion(start time.Time) {
	e.completeLat.observe(time.Since(start))
}

func (cs *CompletionSession) release() { cs.step.Cursor.Close() }

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

// Stat snapshots the cursor for the stat and list endpoints.
func (cs *CompletionSession) Stat() CompletionStat {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := CompletionStat{
		ID:      cs.id,
		Grammar: cs.entry.name,
		Engine:  cs.entry.EngineKind().String(),
		Version: cs.version,
		IdleMs:  cs.idleFor(time.Now()).Milliseconds(),
	}
	if cs.closed {
		return out
	}
	out.Pos = cs.step.Cursor.Pos()
	out.Vocab = cs.step.Cursor.Vocab().Len()
	out.Queries = cs.queries
	out.Feeds = cs.feeds
	return out
}
