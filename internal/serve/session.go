package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"ipg/internal/obs"
	"ipg/internal/registry"
)

// OpenSessionRequest is the POST /v1/grammars/{name}/sessions body.
// Input is resolved like a parse request: source text for SDF
// grammars, whitespace-separated terminal names for rules grammars.
type OpenSessionRequest struct {
	Input string `json:"input"`
}

// SessionOpenResponse reports a freshly opened session together with
// its initial parse.
type SessionOpenResponse struct {
	Session registry.SessionStat `json:"session"`
	Result  *ParseResponse       `json:"result,omitempty"`
}

// SpliceOp is one edit: replace tokens[at : at+remove] with the
// tokenization of insert.
type SpliceOp = registry.Splice

// SessionEditRequest is the PATCH /v1/sessions/{id} body: a batch of
// splices, applied all or nothing, then (unless reparse:false) a
// reparse — incremental on engines that retain their chart.
type SessionEditRequest struct {
	Splices []SpliceOp `json:"splices"`
	// Reparse defaults to true; false buffers the edits only.
	Reparse *bool `json:"reparse,omitempty"`
	// Trees upgrades the reparse to forest construction; Render
	// additionally includes the bracketed forest text.
	Trees  bool `json:"trees,omitempty"`
	Render bool `json:"render,omitempty"`
}

// SessionEditResponse reports an edit batch. SetsReused/SetsRebuilt
// expose the reparse's chart-reuse split (zero for engines without
// retained state).
type SessionEditResponse struct {
	ID      string `json:"id"`
	Spliced int    `json:"spliced"`
	Tokens  int    `json:"tokens"`
	// Result is absent when the request suppressed the reparse.
	Result      *ParseResponse `json:"result,omitempty"`
	SetsReused  int            `json:"sets_reused,omitempty"`
	SetsRebuilt int            `json:"sets_rebuilt,omitempty"`
}

// session resolves the {id} path value, answering 404 for ids that are
// unknown — never issued, closed, or idle-evicted.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*registry.Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.reg.Session(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: %q (unknown, closed or evicted)", registry.ErrNoSession, id))
		return nil, false
	}
	return sess, true
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req OpenSessionRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	// The open parses the document, so the client learns acceptance
	// without a second round trip.
	var out SessionOpenResponse
	if _, err := s.serveOp(r.Context(), e, func(ctx context.Context, tr *obs.ParseTrace) (bool, error) {
		start := time.Now()
		sess, res, err := s.reg.StartSession(ctx, e, req.Input, tr)
		if err != nil {
			return false, err
		}
		pr := renderResult(e, res, false, tr, start)
		out = SessionOpenResponse{Session: sess.Stat(), Result: &pr}
		return res.Accepted, nil
	}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, out)
}

func (s *Server) handleSessionEdit(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req SessionEditRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	reparse := req.Reparse == nil || *req.Reparse
	out := SessionEditResponse{ID: sess.ID(), Spliced: len(req.Splices)}
	if _, err := s.serveOp(r.Context(), sess.Entry(), func(ctx context.Context, tr *obs.ParseTrace) (bool, error) {
		start := time.Now()
		res, err := sess.Run(ctx, req.Splices, reparse, req.Trees || req.Render, tr)
		if err != nil || !reparse {
			return err == nil, err
		}
		pr := renderResult(sess.Entry(), res, req.Render, tr, start)
		out.Result = &pr
		return res.Accepted, nil
	}); err != nil {
		writeError(w, err)
		return
	}
	st := sess.Stat()
	out.Tokens = st.Tokens
	if out.Result != nil {
		out.SetsReused = st.LastReused
		out.SetsRebuilt = st.LastRebuilt
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionStat(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sess.Stat())
}

func (s *Server) handleSessionTree(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	render := r.URL.Query().Get("render") != ""
	var out ParseResponse
	if _, err := s.serveOp(r.Context(), sess.Entry(), func(ctx context.Context, tr *obs.ParseTrace) (bool, error) {
		start := time.Now()
		res, err := sess.Run(ctx, nil, true, true, tr)
		if err != nil {
			return false, err
		}
		out = renderResult(sess.Entry(), res, render, tr, start)
		return res.Accepted, nil
	}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sessions": s.reg.SessionStats()})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.reg.CloseSession(id) {
		writeError(w, fmt.Errorf("%w: %q (unknown, closed or evicted)", registry.ErrNoSession, id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"closed": true})
}
