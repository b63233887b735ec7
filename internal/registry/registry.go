// Package registry implements the grammar registry of the concurrent
// parse service: a concurrency-safe catalog of named, versioned grammars,
// each owning one parsing engine (internal/engine) whose state — for the
// default lazy-GLR engine, a shared lazily generated parse table — is
// reused by every concurrent parse against that grammar.
//
// This is the paper's central property — parsing may begin immediately
// while the table is generated by need, and a grammar modification
// invalidates only the affected states — lifted to a multi-tenant
// setting: many goroutines parse through one entry at once, expanding
// the shared table cooperatively (each state is expanded exactly once),
// while rule updates take exclusive access and splice into the same
// table instead of rebuilding it. Entries may instead select the
// LALR(1), LL(1) or Earley backend — or engine=auto, which probes the
// grammar and records why it picked what — so deterministic tenant
// grammars get the fast deterministic path while ambiguous ones keep
// lazy GLR, per grammar rather than per binary.
//
// An entry's grammar front end — SDF loading, token resolution,
// rule-text updates and the priority filters — is internal/lang's
// Front, the one the ipg facade's Parser uses too.
//
// Locking discipline (see core.Generator): every lazy-GLR parse is
// bracketed by the generator's BeginParse/EndParse (shared access);
// AddRule/DeleteRule and garbage collection take exclusive access inside
// the generator. A parse therefore observes the table entirely before or
// entirely after each modification — never a torn state. The other
// engines carry their own internal reader/writer locking with the same
// contract.
package registry

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipg/internal/cancel"
	"ipg/internal/core"
	"ipg/internal/engine"
	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/isg"
	"ipg/internal/lang"
	"ipg/internal/obs"
	"ipg/internal/snapshot"
)

// Form selects the source syntax of a registered grammar.
type Form uint8

const (
	// FormAuto sniffs the form: sources starting with the SDF "module"
	// keyword load as SDF definitions, everything else as plain BNF.
	FormAuto Form = iota
	// FormRules is the plain-text BNF of grammar.Parse.
	FormRules
	// FormSDF is an SDF definition (scanner generated with ISG,
	// priorities applied as disambiguation filters).
	FormSDF
)

// String names the form.
func (f Form) String() string {
	switch f {
	case FormAuto:
		return "auto"
	case FormRules:
		return "rules"
	case FormSDF:
		return "sdf"
	default:
		return fmt.Sprintf("Form(%d)", uint8(f))
	}
}

// ParseForm reads a form name ("auto", "rules", "sdf"; "" = auto).
func ParseForm(s string) (Form, error) {
	switch s {
	case "", "auto":
		return FormAuto, nil
	case "rules", "bnf":
		return FormRules, nil
	case "sdf":
		return FormSDF, nil
	default:
		return FormAuto, fmt.Errorf("registry: unknown grammar form %q", s)
	}
}

// Spec describes a grammar to register.
type Spec struct {
	// Source is the grammar text (BNF rules or an SDF definition).
	Source string
	// Form selects how Source is read (default FormAuto).
	Form Form
	// StartSort picks the start sort of an SDF definition ("" = the
	// result sort of the first context-free function).
	StartSort string
	// Engine selects the parsing backend (engine.KindDefault inherits
	// the registry default, which is lazy GLR unless SetDefaultEngine
	// says otherwise; engine.KindAuto probes the grammar).
	Engine engine.Kind
	// Limits is the entry's admission control; the zero value inherits
	// the registry's defaults (SetDefaultLimits).
	Limits Limits
}

// Limits is per-entry admission control, so one hot or pathological
// tenant cannot exhaust a multi-tenant service. The zero value means
// unlimited.
type Limits struct {
	// MaxConcurrentParses caps in-flight parses through the entry;
	// excess parses are rejected immediately with ErrBusy (mapped to
	// HTTP 429 by the serve front end) instead of queueing.
	MaxConcurrentParses int
	// MaxForestNodes rejects a parse whose shared forest grew beyond
	// this many nodes (ErrForestLimit) — ambiguity bombs produce
	// exponentially many derivations in polynomially many nodes, so
	// even a modest cap bounds the response work. A forest counts its
	// leaves, rule nodes and one ambiguity node per span that has two
	// or more derivations (forest.Forest.NodeCount).
	MaxForestNodes int
	// RatePerSec refills the entry's token bucket: sustained parse
	// requests above this rate are rejected with ErrRateLimited (HTTP
	// 429). Zero means unthrottled.
	RatePerSec float64
	// Burst is the bucket capacity — how many requests may arrive
	// back-to-back before the rate applies. Zero with a positive
	// RatePerSec means a burst of max(1, ceil(RatePerSec)).
	Burst int
}

// bucketBurst resolves the effective bucket capacity.
func (l Limits) bucketBurst() float64 {
	if l.Burst > 0 {
		return float64(l.Burst)
	}
	if l.RatePerSec > 1 {
		return math.Ceil(l.RatePerSec)
	}
	return 1
}

// ErrBusy reports an admission-control rejection: the entry already
// serves its maximum number of concurrent parses.
var ErrBusy = errors.New("registry: too many concurrent parses for entry")

// ErrForestLimit reports an admission-control rejection: the parse
// forest exceeded the entry's node limit.
var ErrForestLimit = errors.New("registry: parse forest exceeds entry limit")

// ErrRateLimited reports an admission-control rejection: the entry's
// token bucket is empty — the tenant exceeded its sustained request
// rate. Retryable, like ErrBusy.
var ErrRateLimited = errors.New("registry: entry request rate exceeded")

// sniff resolves FormAuto by looking at the first word of the source.
func (s Spec) sniff() Form {
	if s.Form != FormAuto {
		return s.Form
	}
	if strings.HasPrefix(strings.TrimSpace(s.Source), "module") {
		return FormSDF
	}
	return FormRules
}

// Entry is one registered grammar: its front end (the grammar and, for
// SDF entries, the generated scanner and priority filters) and its
// parsing engine. All methods are safe for concurrent use.
type Entry struct {
	name    string
	form    Form
	created time.Time

	// version counts grammar revisions: 1 at registration, +1 per
	// successful Register replacement or rule update.
	version atomic.Uint64

	// requested is the engine kind the spec asked for (KindAuto stays
	// auto here even after selection; eng.Kind() is the concrete one).
	requested engine.Kind
	eng       engine.Engine
	front     *lang.Front

	// limits is the entry's admission control (set at registration).
	limits Limits
	// bucket is the token-bucket state behind Limits.RatePerSec.
	bucket struct {
		sync.Mutex
		tokens float64
		last   time.Time
	}
	// inflight counts parses currently holding the entry; rejections
	// count admission-control refusals (ErrBusy/ErrForestLimit/
	// ErrRateLimited).
	inflight atomic.Int64
	rejected atomic.Uint64
	// ruleUpdates counts applied rule additions and deletions — the
	// numerator of the entry's update-rate/parse-rate ratio.
	ruleUpdates atomic.Uint64
	// lat is the entry's request-latency histogram: every admitted
	// parse request (including the scan phase of text parses) is
	// observed end to end.
	lat latencyHist
	// repairLat observes each engine rule update — the incremental
	// table repair, or the full regeneration a declined repair falls
	// back to — so the locality claim is measurable per entry.
	repairLat latencyHist
	// completeLat observes every admitted completion request (cursor
	// operations and one-shot accept-set queries alike) end to end; its
	// count is the entry's completion count.
	completeLat latencyHist
	// snapSaves counts snapshots persisted for this entry — the
	// per-grammar snapshot event counter /metrics exposes.
	snapSaves atomic.Uint64
	// profLabels points at the owning registry's profile-label switch:
	// when set, engine calls run under pprof labels (grammar, engine)
	// so CPU profiles split by tenant. Off by default — labeling
	// allocates, and the warm path's zero-alloc budget is load-bearing.
	profLabels *atomic.Bool
	// res points at the owning registry's shared fault-tolerance state
	// (drain flag, breaker config, memory budget, shedder); nil for
	// entries constructed outside a registry (tests), which skips every
	// global admission check.
	res *resilience
	// brk is the entry's panic circuit breaker (see resilience.go).
	brk breaker
	// canceled counts parses aborted mid-drive, by cancel.Reason;
	// panics counts engine panics recovered into structured errors.
	canceled [cancel.NumReasons]atomic.Uint64
	panics   atomic.Uint64
	// restored reports the entry resumed its table from a snapshot
	// instead of starting cold. Set before the entry is published.
	restored bool

	// updateMu is the front end's symbol-table lock (see internal/lang):
	// rule-text updates intern new symbols into the shared SymbolTable
	// and consult the grammar before taking the generator's write lock,
	// so parses/stats (readers) and updates (writers) must exclude each
	// other here too. Cursor steps close their frontiers and read accept
	// sets, which read the symbol table, so they hold the read lock as
	// well. A request takes the read lock once: a nested read lock
	// deadlocks behind a waiting writer. Lock order: updateMu, then the
	// front end's scanner lock, then the generator's locks.
	updateMu sync.RWMutex
}

func newEntry(name string, spec Spec) (*Entry, error) {
	e := &Entry{name: name, form: spec.sniff(), created: time.Now(),
		limits: spec.Limits, requested: spec.Engine}
	switch e.form {
	case FormRules:
		g, err := grammar.Parse(spec.Source, nil)
		if err != nil {
			return nil, err
		}
		e.front = lang.New(g)
	case FormSDF:
		front, err := lang.LoadSDF(spec.Source, spec.StartSort)
		if err != nil {
			return nil, err
		}
		e.front = front
	default:
		return nil, fmt.Errorf("registry: unresolved form %v", spec.Form)
	}
	eng, err := engine.New(spec.Engine, e.front.Grammar())
	if err != nil {
		return nil, err
	}
	e.eng = eng
	e.bucket.tokens = e.limits.bucketBurst()
	e.bucket.last = e.created
	e.version.Store(1)
	return e, nil
}

// Name returns the entry's registry name.
func (e *Entry) Name() string { return e.name }

// Form returns the source form the entry was registered from.
func (e *Entry) Form() Form { return e.form }

// Version returns the entry's grammar revision (1 = as registered).
func (e *Entry) Version() uint64 { return e.version.Load() }

// Grammar exposes the entry's grammar. Do not modify it directly; use
// AddRulesText/DeleteRulesText.
func (e *Entry) Grammar() *grammar.Grammar { return e.front.Grammar() }

// Engine exposes the entry's parsing engine.
func (e *Entry) Engine() engine.Engine { return e.eng }

// EngineKind reports the concrete backend serving the entry (an auto
// entry reports the verdict of its registration).
func (e *Entry) EngineKind() engine.Kind { return e.eng.Kind() }

// RequestedEngine reports the kind the registration asked for —
// engine.KindAuto stays auto here even after selection.
func (e *Entry) RequestedEngine() engine.Kind { return e.requested }

// Generator exposes the entry's shared incremental generator when the
// engine is lazy-GLR-backed, nil otherwise (use Engine for the
// backend-independent surface).
func (e *Entry) Generator() *core.Generator { return engine.GeneratorOf(e.eng) }

// Counters samples the engine's work counters.
func (e *Entry) Counters() core.Counters { return e.eng.Counters() }

// Result is the outcome of one parse through the registry: the engine
// result plus derivation counting and the filters already applied.
type Result struct {
	engine.Result
	// Trees is the number of derivations in the (possibly filtered)
	// forest: 0 for rejected inputs, 1 for unambiguous parses, >1 for
	// ambiguous ones; -1 when the forest was too large (or cyclic) to
	// count. Meaningful only when TreesKnown.
	Trees int64
	// TreesKnown reports whether Trees was determined. It is false for
	// recognize-only parses (buildTrees false), where acceptance says
	// nothing about ambiguity.
	TreesKnown bool
}

// Parse parses a terminal stream through the shared table, holding
// shared access for the whole parse. For SDF entries the priority and
// associativity filters are applied to the forest before counting. It
// forwards to Run, untraced and uncancellable.
func (e *Entry) Parse(input []grammar.Symbol, buildTrees bool) (Result, error) {
	return e.Run(context.Background(), "", input, buildTrees, nil)
}

// ParseInput resolves input either as source text (SDF entries) or as
// whitespace-separated terminal names (rules entries) and parses it. It
// forwards to Run, untraced and uncancellable.
func (e *Entry) ParseInput(input string, buildTrees bool) (Result, error) {
	return e.Run(context.Background(), input, nil, buildTrees, nil)
}

// Run is the entry's one parse path; Parse and ParseInput forward to
// it. It admits the request — admission brackets tokenization too, so
// a saturated entry rejects before queueing on the serialized scanner
// — observes its latency, holds the rule-update read lock, resolves
// text like InputTokens unless toks already holds a token stream, and
// drives the engine through the guarded dispatch (see drive). Lifecycle
// stages are recorded into tr (nil traces nothing), and ctx arms
// cancellation and carries the request ID down to pprof profile labels
// when the registry's SetProfileLabels switch is on. With a Background
// ctx, a nil trace and labels off this is exactly the zero-alloc warm
// path — the AllocsPerRun gates pin it.
func (e *Entry) Run(ctx context.Context, text string, toks []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace) (Result, error) {
	if err := e.admit(tr); err != nil {
		return Result{}, err
	}
	defer e.release()
	defer e.observeLatency(time.Now())
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	if toks == nil {
		var err error
		tr.BeginStage(obs.StageTokenize)
		toks, err = e.front.InputTokens(text)
		tr.EndStage(obs.StageTokenize)
		if err != nil {
			return Result{}, err
		}
	}
	res, err := e.drive(ctx, e.eng, toks, buildTrees, tr)
	if err != nil {
		return Result{Result: res}, err
	}
	return e.finishResult(res, tr)
}

// observeLatency records one admitted request's end-to-end latency
// (call via defer with the admission-time stamp).
func (e *Entry) observeLatency(start time.Time) {
	e.lat.observe(time.Since(start))
}

// Latency snapshots the entry's request-latency histogram.
func (e *Entry) Latency() LatencySnapshot { return e.lat.snapshot() }

// admit is the concurrent-parse admission gate: the token bucket first
// (sustained rate), then the concurrency cap. It must bracket the whole
// request — including the scan phase, which serializes on the front
// end's scanner lock and would otherwise queue unboundedly — so callers
// take it before tokenizing, not just before parsing. It is timed as
// tr's admit stage.
// Pair every successful admit with a deferred release (a method, not a
// returned closure: the closure would escape and put one allocation on
// the zero-alloc warm path).
func (e *Entry) admit(tr *obs.ParseTrace) error {
	tr.BeginStage(obs.StageAdmit)
	defer tr.EndStage(obs.StageAdmit)
	if err := e.admitResilience(); err != nil {
		return err
	}
	if rate := e.limits.RatePerSec; rate > 0 && !e.takeToken(rate) {
		e.rejected.Add(1)
		return fmt.Errorf("%w (%.3g req/s, burst %.0f)", ErrRateLimited, rate, e.limits.bucketBurst())
	}
	n := e.inflight.Add(1)
	if max := e.limits.MaxConcurrentParses; max > 0 && n > int64(max) {
		e.inflight.Add(-1)
		e.rejected.Add(1)
		return fmt.Errorf("%w (limit %d)", ErrBusy, max)
	}
	return nil
}

// release undoes a successful admit.
func (e *Entry) release() { e.inflight.Add(-1) }

// takeToken refills the bucket for the elapsed time and consumes one
// token, reporting whether one was available.
func (e *Entry) takeToken(rate float64) bool {
	e.bucket.Lock()
	defer e.bucket.Unlock()
	now := time.Now()
	e.bucket.tokens += now.Sub(e.bucket.last).Seconds() * rate
	e.bucket.last = now
	if burst := e.limits.bucketBurst(); e.bucket.tokens > burst {
		e.bucket.tokens = burst
	}
	if e.bucket.tokens < 1 {
		return false
	}
	e.bucket.tokens--
	return true
}

// drive is the registry's one dispatch into the engine layer, shared by
// parses and session reparses: ctx arms the cancellation flag (only
// cancellable contexts arm one; the warm Background path passes nil and
// stays 0 allocs/op), d runs through engine.ParseGuarded, and the
// outcome feeds the entry's cancel/panic counters and quarantine
// breaker.
func (e *Entry) drive(ctx context.Context, d engine.Driver, input []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace) (engine.Result, error) {
	fl, stop := e.armCancel(ctx)
	var res engine.Result
	var err error
	if e.profLabels != nil && e.profLabels.Load() {
		// Profile attribution: the engine call — where the CPU time is —
		// runs under (grammar, engine) pprof labels so profiles of a
		// multi-tenant service split by tenant. Gated because labeling
		// allocates; the zero-alloc gates run with it off.
		obs.WithProfileLabels(ctx, e.name, e.eng.Kind().String(), func() {
			res, err = engine.ParseGuarded(d, input, buildTrees, tr, fl)
		})
	} else {
		res, err = engine.ParseGuarded(d, input, buildTrees, tr, fl)
	}
	disarmCancel(fl, stop)
	e.noteOutcome(err, tr)
	return res, err
}

// noteOutcome classifies a guarded-parse outcome into the entry's
// cancel/panic counters, the quarantine breaker, and the trace.
func (e *Entry) noteOutcome(err error, tr *obs.ParseTrace) {
	if err == nil {
		e.brk.onSuccess()
		return
	}
	var cerr *cancel.Error
	var perr *engine.PanicError
	switch {
	case errors.As(err, &cerr):
		if i := int(cerr.Reason); i >= 0 && i < len(e.canceled) {
			e.canceled[i].Add(1)
		}
		tr.MarkCanceled(cerr.Reason.String())
		// A canceled parse says nothing about engine health: a probe
		// stays inconclusive, the failure streak is untouched.
		e.brk.onInconclusive()
	case errors.As(err, &perr):
		e.panics.Add(1)
		tr.MarkPanicked()
		threshold := 0
		if e.res != nil {
			threshold = int(e.res.brkThreshold.Load())
		}
		e.brk.onPanic(threshold)
	default:
		// An ordinary parse error still proves the engine is alive.
		e.brk.onSuccess()
	}
}

// CanceledTotal samples the entry's per-reason cancellation counters.
func (e *Entry) CanceledTotal() [cancel.NumReasons]uint64 {
	var out [cancel.NumReasons]uint64
	for i := range e.canceled {
		out[i] = e.canceled[i].Load()
	}
	return out
}

// finishResult turns a raw engine result into a registry Result: the
// forest-node limit, the entry's disambiguation filters, and derivation
// counting. Shared by the parse path and the document-session path.
func (e *Entry) finishResult(res engine.Result, tr *obs.ParseTrace) (Result, error) {
	if max := e.limits.MaxForestNodes; max > 0 && res.Forest != nil && res.Forest.NodeCount() > max {
		e.rejected.Add(1)
		return Result{}, fmt.Errorf("%w (%d nodes, limit %d)", ErrForestLimit, res.Forest.NodeCount(), max)
	}
	out := Result{Result: res}
	// Disambiguation filtering and derivation counting are forest work;
	// the stage accumulates on top of any engine-recorded forest build.
	tr.BeginStage(obs.StageForest)
	defer tr.EndStage(obs.StageForest)
	if err := e.front.Disambiguate(&out.Result); err != nil {
		return out, err
	}
	switch {
	case out.Root != nil && !out.Forest.Ambiguous():
		out.TreesKnown, out.Trees = true, 1 // one tree, no walk
	case out.Root != nil:
		out.TreesKnown = true
		if n, err := forest.TreeCount(out.Root); err == nil {
			out.Trees = n
		} else {
			out.Trees = -1
		}
	case !out.Accepted:
		out.TreesKnown = true // rejection is definite: zero derivations
	}
	return out, nil
}

// InputTokens resolves input the way ParseInput does — source text
// through the scanner for SDF entries, whitespace-separated terminal
// names otherwise — into an EOF-terminated token stream.
func (e *Entry) InputTokens(input string) ([]grammar.Symbol, error) {
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	return e.front.InputTokens(input)
}

// Describe renders a result's human-facing strings under the entry's
// read lock, so symbol-table reads cannot race concurrent rule updates:
// the expected-terminal names of a rejection and, when render is set,
// the bracketed forest.
func (e *Entry) Describe(res Result, render bool) (expected []string, forestText string) {
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	syms := e.front.Grammar().Symbols()
	if !res.Accepted {
		for _, sym := range res.Expected {
			if sym == grammar.EOF {
				expected = append(expected, "$")
				continue
			}
			expected = append(expected, syms.Name(sym))
		}
	}
	if render && res.Root != nil {
		forestText = forest.String(res.Root, syms)
	}
	return expected, forestText
}

// Tokens converts whitespace-separated terminal names into a token
// stream against the entry's symbol table. The stream is EOF-terminated
// — ready for Entry.Parse, whose engines pass an end-marked input
// through without copying (the service's zero-alloc warm-parse
// convention).
func (e *Entry) Tokens(text string) ([]grammar.Symbol, error) {
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	return e.front.Tokens(text)
}

// ScanText tokenizes src with the entry's ISG scanner (SDF entries
// only; others get lang.ErrNoScanner). Scanner state mutates during
// lazy DFA expansion, so scans are serialized per entry.
func (e *Entry) ScanText(src string) ([]grammar.Symbol, []isg.Token, error) {
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	return e.front.ScanText(src)
}

// AddRulesText parses BNF rule lines against the entry's symbol table
// and adds each rule to the shared table incrementally (ADD-RULE,
// section 6). For SDF entries, quoted terminals new to the scanner are
// registered as literal token rules, so the new syntax is immediately
// scannable — the paper's "simultaneous editing of language definitions
// and programs". Returns the number of rules added. It forwards to
// UpdateRules, untraced.
func (e *Entry) AddRulesText(text string) (n int, err error) {
	return e.UpdateRules(text, true, nil)
}

// DeleteRulesText parses BNF rule lines and deletes each from the shared
// table incrementally (DELETE-RULE, section 6). Returns the number of
// rules deleted. It forwards to UpdateRules, untraced.
func (e *Entry) DeleteRulesText(text string) (n int, err error) {
	return e.UpdateRules(text, false, nil)
}

// UpdateRules is the entry's one rule-update path; AddRulesText and
// DeleteRulesText forward to it. Under the exclusive update lock, the
// front end (lang.Front.UpdateRules) parses the BNF rule lines against
// the entry's symbol table, skips rules already present (add) or absent
// (delete) and teaches an SDF entry's scanner; each remaining rule goes
// to the engine. It returns how many rules it applied. Each engine
// update is recorded under the trace's repair stage (nil trace =
// untraced).
func (e *Entry) UpdateRules(text string, add bool, tr *obs.ParseTrace) (n int, err error) {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	// Bump the version whenever the grammar changed, even when a later
	// rule of the batch fails: partial application is still a revision.
	defer func() {
		if n > 0 {
			e.version.Add(1)
		}
	}()
	apply := e.eng.DeleteRule
	if add {
		apply = e.eng.AddRule
	}
	done, err := e.front.UpdateRules(text, add, func(r *grammar.Rule) error {
		return e.applyUpdate(tr, r, apply)
	})
	n = len(done)
	e.ruleUpdates.Add(uint64(n))
	return n, err
}

// applyUpdate runs one engine rule update under the repair trace stage,
// observes its latency in the entry's repair histogram, and accumulates
// the repair outcome (states touched, fallbacks, work visited) into the
// trace from the engine's counter deltas.
func (e *Entry) applyUpdate(tr *obs.ParseTrace, r *grammar.Rule, fn func(*grammar.Rule) error) error {
	tr.BeginStage(obs.StageRepair)
	before := e.eng.Counters()
	start := time.Now()
	err := fn(r)
	e.repairLat.observe(time.Since(start))
	tr.EndStage(obs.StageRepair)
	after := e.eng.Counters()
	tr.AddRepair(obs.Repair{
		States:      int(after.StatesRepaired - before.StatesRepaired),
		Fallbacks:   int(after.RepairFallbacks - before.RepairFallbacks),
		Scanned:     int(after.RepairScanned - before.RepairScanned),
		Propagated:  int(after.RepairPropagated - before.RepairPropagated),
		RulesDiffed: int(after.RepairRulesDiffed - before.RepairRulesDiffed),
		Reanalysed:  int(after.RepairReanalysed - before.RepairReanalysed),
	})
	return err
}

// Stats is a point-in-time snapshot of one entry.
type Stats struct {
	Name    string
	Form    Form
	Version uint64
	Created time.Time
	// Rules is the current rule count of the grammar.
	Rules int
	// Engine is the concrete backend serving the entry; Requested is
	// what the spec asked for (auto stays auto); EngineReason explains
	// the binding ("requested", or the auto prober's verdict).
	Engine       engine.Kind
	Requested    engine.Kind
	EngineReason string
	// Caps is the serving backend's capability row.
	Caps engine.Caps
	// RuleUpdates counts applied rule additions/deletions; together
	// with Counters.ParsesServed it is the entry's update-rate/parse-rate
	// ratio (UpdateParseRatio).
	RuleUpdates uint64
	// SnapshotSaves counts snapshots persisted for this entry.
	SnapshotSaves uint64
	// States/Complete/Initial/Dirty describe the engine's table.
	States, Complete, Initial, Dirty int
	// Counters are the engine's concurrent work counters.
	Counters core.Counters
	// Restored reports the entry resumed its table from a snapshot.
	Restored bool
	// Inflight is the number of parses currently in the entry;
	// AdmissionRejected counts the requests of every kind refused by
	// admission control or the forest-size limit.
	Inflight          int64
	AdmissionRejected uint64
	// Canceled counts parses aborted mid-drive, indexed by
	// cancel.Reason; Panics counts engine panics recovered into
	// structured errors.
	Canceled [cancel.NumReasons]uint64
	Panics   uint64
	// Breaker snapshots the entry's panic circuit breaker.
	Breaker BreakerStats
	// Limits is the entry's admission control configuration.
	Limits Limits
	// Latency is the entry's request-latency histogram snapshot.
	Latency LatencySnapshot
	// RepairLatency is the entry's rule-update histogram: one
	// observation per engine update, in-place repairs and fallback
	// regenerations alike. Counters.StatesRepaired/RepairFallbacks split
	// the outcomes.
	RepairLatency LatencySnapshot
	// Completions counts admitted completion requests (cursor
	// operations and one-shot accept-set queries), failed ones included;
	// CompleteLatency is their end-to-end histogram, so Completions ==
	// CompleteLatency.Count.
	Completions     uint64
	CompleteLatency LatencySnapshot
}

// UpdateParseRatio is the entry's lifetime rule updates per served
// parse: how much of its traffic edits the grammar.
func (s Stats) UpdateParseRatio() float64 {
	if s.Counters.ParsesServed == 0 {
		return float64(s.RuleUpdates)
	}
	return float64(s.RuleUpdates) / float64(s.Counters.ParsesServed)
}

// Stats samples the entry. Safe to call while other goroutines parse.
func (e *Entry) Stats() Stats {
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	info := e.eng.TableInfo()
	completeLat := e.completeLat.snapshot()
	return Stats{
		Name:              e.name,
		Form:              e.form,
		Version:           e.version.Load(),
		Created:           e.created,
		Rules:             len(e.front.Grammar().Rules()),
		Engine:            e.eng.Kind(),
		Requested:         e.requested,
		EngineReason:      e.eng.Reason(),
		Caps:              e.eng.Caps(),
		RuleUpdates:       e.ruleUpdates.Load(),
		SnapshotSaves:     e.snapSaves.Load(),
		States:            info.States,
		Complete:          info.Complete,
		Initial:           info.Initial,
		Dirty:             info.Dirty,
		Counters:          e.eng.Counters(),
		Restored:          e.restored,
		Inflight:          e.inflight.Load(),
		AdmissionRejected: e.rejected.Load(),
		Canceled:          e.CanceledTotal(),
		Panics:            e.panics.Load(),
		Breaker: BreakerStats{
			State:               e.brk.stateName(),
			ConsecutiveFailures: e.brk.fails.Load(),
			Trips:               e.brk.trips.Load(),
			Rejected:            e.brk.rejected.Load(),
		},
		Limits:          e.limits,
		Latency:         e.lat.snapshot(),
		RepairLatency:   e.repairLat.snapshot(),
		Completions:     completeLat.Count,
		CompleteLatency: completeLat,
	}
}

// Registry is the concurrency-safe catalog of entries.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	// registered counts successful Register calls (including
	// replacements), for service stats.
	registered atomic.Uint64

	// store persists per-entry table snapshots; nil disables snapshots.
	// Configure with SetSnapshotStore before serving traffic.
	store *snapshot.Store
	// logger reports snapshot restore/fallback decisions and other
	// registry events (nil = silent). Configure with SetLogger before
	// serving traffic.
	logger *slog.Logger
	// profLabels switches pprof profile labels on engine calls (see
	// Entry.profLabels). Toggled by SetProfileLabels; safe to flip live.
	profLabels atomic.Bool
	// defaultLimits is applied to specs registered with zero Limits.
	defaultLimits Limits
	// defaultEngine is applied to specs registered with KindDefault
	// (zero means lazy GLR). Configure with SetDefaultEngine.
	defaultEngine engine.Kind

	// removed (guarded by mu) records names explicitly unregistered via
	// Remove and not re-registered since. SnapshotGC compacts exactly
	// these: a name merely absent from the registry may belong to an
	// HTTP-registered grammar of a previous process run whose snapshot
	// is still the warm restart it expects — absence must not be
	// mistaken for removal. Register clears its name before its restore
	// reads the store, and SnapshotGC checks the name and deletes the
	// file under mu, so a pass never deletes a file a registration has
	// resumed from.
	removed map[string]bool

	// res is the shared fault-tolerance state every entry points at:
	// drain flag, breaker configuration, memory budget, shedder.
	res resilience

	// Snapshot subsystem counters and save-retry policy (see
	// SetSnapshotRetry).
	snapSaves        atomic.Uint64
	snapRestores     atomic.Uint64
	snapRejected     atomic.Uint64
	snapErrors       atomic.Uint64
	snapRetries      atomic.Uint64
	lastSnapUnix     atomic.Int64
	snapRetryMax     int
	snapRetryBackoff time.Duration

	// Leases (lease.go): document sessions and completion cursors, and
	// the work they did.
	sessions leaseTable[*Session]
	cursors  leaseTable[*CompletionSession]
	work     leaseWork
}

// New returns an empty registry.
func New() *Registry {
	r := &Registry{entries: map[string]*Entry{}}
	r.sessions.idFormat, r.sessions.errFull = "%s-%d", ErrSessionLimit
	r.cursors.idFormat, r.cursors.errFull = "c-%s-%d", ErrCursorLimit
	return r
}

// SetProfileLabels switches runtime/pprof labels (grammar, engine) on
// every entry's engine calls, so CPU profiles attribute samples per
// grammar. Off by default: labeling allocates per parse, which the
// zero-alloc warm path only pays when a profiler is actually attached.
// Safe to flip while serving.
func (r *Registry) SetProfileLabels(on bool) { r.profLabels.Store(on) }

// Register compiles spec and installs it under name, replacing any
// previous entry of that name (the new entry continues the version
// lineage: replaced version + 1). Compilation happens outside the
// registry lock, so a slow registration never blocks lookups.
//
// When a snapshot store is configured and holds a snapshot for name
// whose grammar hash matches the compiled grammar, the entry resumes
// the saved table — its lazy frontier, publication flags and dirty
// history — instead of starting cold. A missing, corrupt or stale
// snapshot falls back to cold generation with a logged reason; it is
// never an error visible to the caller.
func (r *Registry) Register(name string, spec Spec) (*Entry, error) {
	if name == "" {
		return nil, errors.New("registry: empty grammar name")
	}
	if spec.Limits == (Limits{}) {
		spec.Limits = r.defaultLimits
	}
	if spec.Engine == engine.KindDefault {
		spec.Engine = r.defaultEngine
	}
	e, err := newEntry(name, spec)
	if err != nil {
		return nil, fmt.Errorf("registry: register %q: %w", name, err)
	}
	e.profLabels = &r.profLabels
	e.res = &r.res
	r.mu.Lock()
	delete(r.removed, name)
	r.mu.Unlock()
	r.tryRestore(e)
	r.mu.Lock()
	var replaced *Entry
	if old, ok := r.entries[name]; ok {
		e.version.Store(old.Version() + 1)
		replaced = old
	}
	r.entries[name] = e
	delete(r.removed, name) // a Remove that raced the restore
	r.mu.Unlock()
	r.registered.Add(1)
	// Sessions of a replaced entry retain charts built by the old
	// engine (and completion cursors retain its table frontier); close
	// them rather than serve stale parses.
	r.closeLeasesOf(replaced)
	return e, nil
}

// Get returns the entry registered under name.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Remove deletes the entry registered under name, reporting whether it
// existed. In-flight parses against the removed entry finish normally;
// its open sessions and completion cursors are closed. The name is
// remembered as explicitly unregistered, so the next SnapshotGC pass
// may reclaim its snapshot file.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	old, ok := r.entries[name]
	delete(r.entries, name)
	if ok {
		if r.removed == nil {
			r.removed = map[string]bool{}
		}
		r.removed[name] = true
	}
	r.mu.Unlock()
	r.closeLeasesOf(old)
	return ok
}

// closeLeasesOf closes the sessions and cursors bound to e (none when e
// is nil).
func (r *Registry) closeLeasesOf(e *Entry) {
	r.sessions.closeOf(e)
	r.cursors.closeOf(e)
}

// Len returns the number of registered entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Entries returns the registered entries sorted by name.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Registered counts successful Register calls over the registry's
// lifetime (including replacements).
func (r *Registry) Registered() uint64 { return r.registered.Load() }
