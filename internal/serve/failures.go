package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"ipg/internal/cancel"
	"ipg/internal/engine"
	"ipg/internal/obs"
	"ipg/internal/registry"
)

// This file is the serve layer's failure path: the failures table
// declares once each way a request can fail, writeError answers every
// non-2xx from it, and serveOp runs every parse-shaped request along
// the one path that bounds, labels, times and classifies it.

// The failures the handlers raise themselves: a request no route
// serves, one that does not fit its route, an over-long one, a
// readiness probe before the preload, and a snapshot the store could
// not take.
var (
	errNoRoute          = errors.New("no route matches the path")
	errMethodNotAllowed = errors.New("method not allowed")
	errBadRequest       = errors.New("bad request")
	errTooLarge         = errors.New("request too large")
	errNotReady         = errors.New("not ready: grammar preload (including snapshot restores) not complete")
	errSnapshot         = errors.New("snapshot")
)

// failure declares one way a request can fail: the errors it matches,
// the status, envelope code and Retry-After it is answered with, and
// what it means. docs/API.md's error table is rendered from the rows
// (TestErrorDocs pins the two).
type failure struct {
	err     string // the errors matched, as the docs name them
	match   func(error) bool
	status  int
	code    string
	retry   int // Retry-After seconds: 0 none, retryBreaker the breaker's cooldown left
	meaning string
}

// retryBreaker is the Retry-After of a quarantine: the cooldown its
// breaker has left, at least one second.
const retryBreaker = -1

// statusClientClosedRequest is the de-facto (nginx) status for requests
// abandoned by the client; net/http has no constant for it. The client
// is gone, so the status is for the access log, not the wire.
const statusClientClosedRequest = 499

// failures is every failure a request can end in, matched in order;
// the last row matches any error.
var failures = []failure{
	{"`errNoRoute`", is(errNoRoute), http.StatusNotFound, "not_found", 0,
		"No route matches the path."},
	{"`errMethodNotAllowed`", is(errMethodNotAllowed), http.StatusMethodNotAllowed, "method_not_allowed", 0,
		"A route matches the path but not the method; the `Allow` header lists the methods it serves."},
	{"`errBadRequest`", is(errBadRequest), http.StatusBadRequest, "bad_request", 0,
		"The body does not decode into the route's request, or its fields do not fit together."},
	{"`errTooLarge`", is(errTooLarge), http.StatusRequestEntityTooLarge, "too_large", 0,
		"The body is over `-max-body`, or a batch over `-max-batch` inputs."},
	{"`registry.ErrUnknownGrammar`", is(registry.ErrUnknownGrammar), http.StatusNotFound, "not_found", 0,
		"No grammar is registered under the name."},
	{"`registry.ErrNoSession`", is(registry.ErrNoSession), http.StatusNotFound, "not_found", 0,
		"No open session has the id: it was never issued, or it was closed or evicted."},
	{"`registry.ErrNoCursor`", is(registry.ErrNoCursor), http.StatusNotFound, "not_found", 0,
		"No open completion cursor of the grammar has the id."},
	{"`registry.ErrNoStore`", is(registry.ErrNoStore), http.StatusConflict, "conflict", 0,
		"No snapshot store is mounted (`-snapshot-dir`)."},
	{"`registry.ErrNotSnapshottable`", is(registry.ErrNotSnapshottable), http.StatusConflict, "conflict", 0,
		"The grammar's engine keeps no persistable table; only `glr` does."},
	{"`engine.ErrCursorStale`", is(engine.ErrCursorStale), http.StatusConflict, "cursor_stale", 0,
		"A rule update moved the grammar under the cursor; open a new one."},
	{"`registry.ErrDocTooLarge`", is(registry.ErrDocTooLarge), http.StatusRequestEntityTooLarge, "too_large", 0,
		"The session document would grow past `-session-tokens`."},
	{"`registry.ErrPrefixTooLong`", is(registry.ErrPrefixTooLong), http.StatusRequestEntityTooLarge, "too_large", 0,
		"The cursor would move past `-complete-tokens`."},
	{"`engine.ErrSplice`", is(engine.ErrSplice), http.StatusRequestedRangeNotSatisfiable, "bad_range", 0,
		"A splice's offsets fall outside the document."},
	{"`engine.ErrBadCheckpoint`", is(engine.ErrBadCheckpoint), http.StatusRequestedRangeNotSatisfiable, "bad_checkpoint", 0,
		"A completion `restore` falls outside `[0, pos]`."},
	{"`engine.ErrRejected`", is(engine.ErrRejected), http.StatusUnprocessableEntity, "prefix_rejected", 0,
		"A completion prefix or fed token is not in the accept set; a resumed cursor keeps the tokens before it."},
	{"`registry.ErrRateLimited`", is(registry.ErrRateLimited), http.StatusTooManyRequests, "throttled", 1,
		"The grammar's request rate (`-rate`, `-burst`) is spent."},
	{"`registry.ErrBusy`", is(registry.ErrBusy), http.StatusTooManyRequests, "throttled", 1,
		"The grammar's concurrent-request limit (`-max-parses`) is reached."},
	{"`registry.ErrForestLimit`", is(registry.ErrForestLimit), http.StatusTooManyRequests, "throttled", 1,
		"The parse forest grew past `-max-forest-nodes` nodes: its leaves, rule nodes and ambiguity nodes, one for each span with two or more derivations."},
	{"`registry.ErrMemoryBudget`", is(registry.ErrMemoryBudget), http.StatusTooManyRequests, "throttled", 1,
		"Retained tables and session charts are over `-mem-budget`."},
	{"`registry.ErrShed`", is(registry.ErrShed), http.StatusTooManyRequests, "throttled", 1,
		"The load shedder drops a share of requests while p99 latency is inflated (`-shed-factor`)."},
	{"`registry.ErrSessionLimit`", is(registry.ErrSessionLimit), http.StatusTooManyRequests, "throttled", 1,
		"`-session-max` sessions are open."},
	{"`registry.ErrCursorLimit`", is(registry.ErrCursorLimit), http.StatusTooManyRequests, "throttled", 1,
		"`-complete-max` completion cursors are open."},
	{"`*registry.QuarantineError`", as[*registry.QuarantineError], http.StatusServiceUnavailable, "unavailable", retryBreaker,
		"The grammar's circuit breaker is open after repeated engine panics (`-breaker-threshold`)."},
	{"`registry.ErrDraining`", is(registry.ErrDraining), http.StatusServiceUnavailable, "unavailable", 5,
		"The service is draining before shutdown; `/readyz` answers it too."},
	{"`errNotReady`", is(errNotReady), http.StatusServiceUnavailable, "unavailable", 0,
		"`/readyz` before the preload, snapshot restores included, has published every table."},
	{"`*cancel.Error`, shutdown", canceled(cancel.Shutdown), http.StatusServiceUnavailable, "unavailable", 5,
		"The drain's force-cancel aborted the drive."},
	{"`*cancel.Error`, client gone", canceled(cancel.ClientGone), statusClientClosedRequest, "client_closed", 0,
		"The client disconnected mid-drive; the status is for the access log."},
	{"`*cancel.Error`, deadline or injected", canceled(cancel.Deadline, cancel.Injected), http.StatusGatewayTimeout, "timeout", 0,
		"The drive outlived `-parse-timeout`, or an injected fault canceled it."},
	{"`*engine.PanicError`", as[*engine.PanicError], http.StatusInternalServerError, "internal", 0,
		"The engine panicked: the panic is recovered, its stack logged, and it counts toward the breaker."},
	{"`errSnapshot`", is(errSnapshot), http.StatusInternalServerError, "internal", 0,
		"The snapshot could not be serialized or written (after `-snapshot-retries`)."},
	{"any other error", func(error) bool { return true }, http.StatusUnprocessableEntity, "invalid_input", 0,
		"The input does not tokenize, or the grammar source or rule text does not parse or compile."},
}

// is matches a sentinel anywhere in an error's chain.
func is(target error) func(error) bool {
	return func(err error) bool { return errors.Is(err, target) }
}

// as matches an error of type T anywhere in an error's chain.
func as[T error](err error) bool {
	var target T
	return errors.As(err, &target)
}

// canceled matches a drive aborted for one of reasons.
func canceled(reasons ...cancel.Reason) func(error) bool {
	return func(err error) bool {
		var c *cancel.Error
		return errors.As(err, &c) && slices.Contains(reasons, c.Reason)
	}
}

// failureOf returns the failures row err matches.
func failureOf(err error) *failure {
	return &failures[slices.IndexFunc(failures, func(f failure) bool { return f.match(err) })]
}

// errorDetail is the payload of the uniform error envelope: a stable
// machine-readable code, the human-readable message, and — on
// retryable failures — the Retry-After hint mirrored into the body so
// clients need not scrape headers.
type errorDetail struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// errorBody is the uniform error envelope,
// {"error": {"code", "message", "retry_after_s"?}}: alone, or embedded
// in a route's reply beside its own fields (RulesResponse).
type errorBody struct {
	Error *errorDetail `json:"error,omitempty"`
}

func (b *errorBody) envelope() *errorBody { return b }

// writeError answers err with the bare error envelope.
func writeError(w http.ResponseWriter, err error) { writeErrorIn(w, err, &errorBody{}) }

// writeErrorIn is the one writer of non-2xx answers: the failures row
// err matches gives the status, the envelope's code and the Retry-After
// header and hint. The envelope goes into reply, a bare errorBody or a
// route's reply that embeds one.
func writeErrorIn(w http.ResponseWriter, err error, reply interface{ envelope() *errorBody }) {
	f := failureOf(err)
	d := &errorDetail{Code: f.code, Message: err.Error(), RetryAfterS: f.retry}
	var q *registry.QuarantineError
	if f.retry == retryBreaker && errors.As(err, &q) {
		d.RetryAfterS = max(1, int(q.RetryAfter/time.Second))
	}
	if d.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(d.RetryAfterS))
	}
	reply.envelope().Error = d
	writeJSON(w, f.status, reply)
}

// throttled reports a failure answered 429: admission control
// protecting the entry or the service, retryable shortly.
func throttled(err error) bool { return failureOf(err).status == http.StatusTooManyRequests }

// serveOp runs op as one parse-shaped request on e — a parse, a batch
// item, a session open, edit or tree, a completion or a rules update —
// so that each takes the same path:
//
//   - op's context carries -parse-timeout, for the registry call that
//     takes one;
//   - the span is labelled with the backend that serves the entry;
//   - the span finishes with op's outcome, and one past the tracer's
//     slow threshold is logged;
//   - a failure is classified through the failures table: a 429 is
//     counted and a panic's stack logged, whether the failure answers a
//     request or one batch item.
//
// It returns the serving backend and op's error.
func (s *Server) serveOp(ctx context.Context, e *registry.Entry, op func(context.Context, *obs.ParseTrace) (accepted bool, err error)) (engine.Kind, error) {
	if s.parseTimeout > 0 {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(ctx, s.parseTimeout)
		defer stop()
	}
	kind := e.EngineKind()
	tr := s.tracer.StartParse(e.Name(), kind.String(), obs.RequestID(ctx))
	accepted, err := op(ctx, tr)
	if sp, _, slow := tr.FinishSpan(accepted, err); slow {
		s.log().Warn("slow request", "grammar", e.Name(), "engine", kind.String(),
			"duration", sp.Total, "accepted", accepted, "request_id", sp.RequestID, "err", err)
	}
	if err == nil {
		return kind, nil
	}
	if throttled(err) {
		s.rejected429.Add(1)
	}
	var p *engine.PanicError
	if errors.As(err, &p) {
		s.log().Error("parse panicked", "grammar", e.Name(), "engine", kind.String(),
			"request_id", obs.RequestID(ctx), "err", fmt.Sprint(p.Value), "stack", string(p.Stack))
	}
	return kind, err
}
