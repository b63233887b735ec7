// Completion endpoint: the constrained-decoding surface. One route —
// POST /v1/grammars/{name}/complete — serves three request shapes:
// a one-shot accept-set query (prefix + once), opening a retained
// cursor (prefix alone), and batched operations against a retained
// cursor (cursor id + restore/feed/candidates/close). Cursors are
// registry.CompletionSessions: admission-gated, capped, idle-evicted,
// and bounded by the parse timeout and guarded against engine panics
// like parses.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"ipg/internal/engine"
	"ipg/internal/grammar"
	"ipg/internal/obs"
	"ipg/internal/registry"
)

// CompleteRequest is the POST /v1/grammars/{name}/complete body.
// Exactly one of Prefix and Cursor must be set.
type CompleteRequest struct {
	// Prefix is the viable prefix to query, resolved like parse input
	// (source text for SDF grammars, whitespace-separated terminal
	// names otherwise). A pointer so the empty prefix — "what may a
	// sentence start with" — is distinguishable from absent.
	Prefix *string `json:"prefix,omitempty"`
	// Once answers the prefix query without retaining a cursor.
	Once bool `json:"once,omitempty"`
	// Cursor resumes a retained cursor by id instead of shipping a
	// prefix.
	Cursor string `json:"cursor,omitempty"`
	// Restore rewinds the cursor to a checkpoint (a position in
	// [0, pos]) before feeding.
	Restore *int `json:"restore,omitempty"`
	// Feed advances the cursor by these tokens (resolved like parse
	// input) after the restore.
	Feed string `json:"feed,omitempty"`
	// Candidates asks, for each terminal name, whether it is in the
	// accept set — the token-masking fast path.
	Candidates []string `json:"candidates,omitempty"`
	// Close releases the cursor after answering.
	Close bool `json:"close,omitempty"`
}

// CompleteResponse reports one completion operation's accept set.
type CompleteResponse struct {
	Grammar string `json:"grammar"`
	Engine  string `json:"engine"`
	// Cursor is the resumable cursor id (absent for one-shot queries).
	Cursor string `json:"cursor,omitempty"`
	// Pos is the cursor position — tokens fed so far.
	Pos int `json:"pos"`
	// Version is the entry's version the accept set was computed at,
	// the one GET /v1/grammars/{name} and the rules response report.
	Version uint64 `json:"version"`
	// Accepts lists the terminals that may come next, in vocabulary
	// order; Bitset is the same set as hex-encoded bytes over the
	// vocabulary (bit i of the set is byte i/8, bit i%8).
	Accepts []string `json:"accepts"`
	Bitset  string   `json:"bitset"`
	// Complete reports the prefix is a complete sentence (the end
	// marker is accepted).
	Complete bool `json:"complete"`
	// Vocab is the stable terminal vocabulary bitsets are indexed by,
	// included when a cursor is opened (cache it per grammar version).
	Vocab []string `json:"vocab,omitempty"`
	// Candidates answers the request's candidate probes.
	Candidates map[string]bool `json:"candidates,omitempty"`
	// Closed reports the cursor was released by this request.
	Closed     bool  `json:"closed,omitempty"`
	DurationUS int64 `json:"duration_us"`
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req CompleteRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	switch {
	case req.Cursor != "" && req.Prefix != nil:
		writeError(w, fmt.Errorf("%w: prefix and cursor are mutually exclusive", errBadRequest))
		return
	case req.Cursor == "" && req.Prefix == nil:
		writeError(w, fmt.Errorf("%w: request needs a prefix or a cursor id", errBadRequest))
		return
	case req.Once && req.Cursor != "":
		writeError(w, fmt.Errorf("%w: once applies to prefix requests only", errBadRequest))
		return
	}
	start := time.Now()
	var out CompleteResponse
	kind, err := s.serveOp(r.Context(), e, func(ctx context.Context, tr *obs.ParseTrace) (bool, error) {
		var err error
		out, err = s.completeOp(ctx, e, &req, tr)
		return err == nil, err
	})
	if err != nil {
		writeError(w, err)
		return
	}
	out.Engine = kind.String()
	out.DurationUS = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, out)
}

// completeOp runs the request as one registry.Complete call, which ctx
// bounds like a parse.
func (s *Server) completeOp(ctx context.Context, e *registry.Entry, req *CompleteRequest, tr *obs.ParseTrace) (CompleteResponse, error) {
	out := CompleteResponse{Grammar: e.Name()}
	op := registry.CompletionOp{Once: req.Once, Restore: -1, Input: req.Feed}
	if req.Prefix != nil {
		op.Input = *req.Prefix
	} else {
		cs, ok := s.reg.Completion(req.Cursor)
		if !ok || cs.Entry() != e {
			return out, fmt.Errorf("%w: %q (unknown, closed or evicted)", registry.ErrNoCursor, req.Cursor)
		}
		op.Cursor = cs
		if req.Restore != nil {
			op.Restore = *req.Restore
		}
	}
	var set engine.TermSet
	cs, pos, version, rejIdx, err := s.reg.Complete(ctx, e, op, &set, tr)
	if rejIdx >= 0 { // a rejection, at this token of the feed
		err = fmt.Errorf("token %d: %w", rejIdx, err)
	}
	if err != nil {
		return out, err
	}
	out.Pos, out.Version = pos, version
	out.fillAccepts(&set, req.Candidates)
	if cs == nil {
		return out, nil
	}
	out.Cursor = cs.ID()
	if op.Cursor == nil {
		out.Vocab = set.Vocab().Names()
	}
	if req.Close {
		s.reg.CloseCompletion(cs.ID())
		out.Closed = true
	}
	return out, nil
}

// fillAccepts renders the accept set into the wire shape and answers
// the candidate probes.
func (out *CompleteResponse) fillAccepts(set *engine.TermSet, candidates []string) {
	out.Accepts = set.AppendNames(make([]string, 0, set.Count()))
	out.Bitset = set.Hex()
	out.Complete = set.Has(grammar.EOF)
	if len(candidates) > 0 {
		in := make(map[string]bool, len(out.Accepts))
		for _, n := range out.Accepts {
			in[n] = true
		}
		out.Candidates = make(map[string]bool, len(candidates))
		for _, c := range candidates {
			out.Candidates[c] = in[c]
		}
	}
}

func (s *Server) handleCompletionList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"completions": s.reg.CompletionStats()})
}

func (s *Server) handleCompletionStat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cs, ok := s.reg.Completion(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: %q (unknown, closed or evicted)", registry.ErrNoCursor, id))
		return
	}
	writeJSON(w, http.StatusOK, cs.Stat())
}

func (s *Server) handleCompletionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.reg.CloseCompletion(id) {
		writeError(w, fmt.Errorf("%w: %q (unknown, closed or evicted)", registry.ErrNoCursor, id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"closed": true})
}
