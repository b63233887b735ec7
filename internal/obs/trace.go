// Package obs is the service's dependency-free observability layer:
// Prometheus text-format metrics exposition (prom.go), pooled
// sampling-gated parse-lifecycle tracing with lock-free ring retention
// (this file), structured-logging helpers and request-ID propagation
// (log.go), and pprof profile-label attribution (profile.go).
//
// The package sits below every other layer of the service — engine,
// registry and serve all feed it — so it depends on nothing but the
// standard library, and its hot-path surface is built to disappear:
// a nil *ParseTrace is a valid no-op receiver for every method, and a
// disabled Tracer hands out exactly that, so code under test for
// 0 allocs/op can keep its trace calls compiled in.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of the parse lifecycle. Stages accumulate:
// a stage may be entered more than once per parse (e.g. StageForest is
// fed by both the engine's forest construction and the registry's
// disambiguation-filter pass) and the span records the total.
type Stage uint8

const (
	// StageTokenize is scanning/token resolution (registry).
	StageTokenize Stage = iota
	// StageAdmit is admission control: rate limiting + concurrency gate.
	StageAdmit
	// StageTable is table/chart work: the LR drive or Earley chart pass,
	// including lazy state expansion on the GLR path.
	StageTable
	// StageForest is forest construction, filtering and counting.
	StageForest
	// StageRender is human-facing rendering (expected sets, bracketed
	// forests) in the serve layer.
	StageRender
	// StageSplice is edit application on a document session: offset
	// validation plus tokenizing and splicing the inserted text.
	StageSplice
	// StageReuse is the incremental reparse of a document session —
	// chart truncation to the damage point plus the resumed drive.
	StageReuse
	// StageRepair is incremental table repair on a rule update: the
	// affected-state damage computation plus the in-place splice (or the
	// full regeneration a declined repair falls back to).
	StageRepair
	// StageComplete is completion-cursor work: accept-set queries plus
	// cursor feeds/restores on a prefix-completion request.
	StageComplete

	// NumStages is the number of lifecycle stages.
	NumStages = 9
)

// String names the stage as used in trace JSON and logs.
func (s Stage) String() string {
	switch s {
	case StageTokenize:
		return "tokenize"
	case StageAdmit:
		return "admit"
	case StageTable:
		return "table"
	case StageForest:
		return "forest"
	case StageRender:
		return "render"
	case StageSplice:
		return "splice"
	case StageReuse:
		return "reuse"
	case StageRepair:
		return "repair"
	case StageComplete:
		return "complete"
	default:
		return "unknown"
	}
}

// Span is one finished parse's lifecycle record as retained in a ring.
type Span struct {
	// ID is the capture sequence number (monotonic per tracer).
	ID uint64
	// RequestID is the HTTP request the parse served ("" outside HTTP).
	RequestID string
	// Grammar and Engine attribute the parse to a tenant and backend.
	Grammar string
	Engine  string
	// Start is when the parse was admitted to tracing.
	Start time.Time
	// Total is the end-to-end duration; Stages breaks it down (stages
	// not on the path — e.g. render for recognize-only parses — are 0;
	// time between stages, like lock waits, appears only in Total).
	Total  time.Duration
	Stages [NumStages]time.Duration
	// Accepted/Err describe the outcome.
	Accepted bool
	Err      string
	// RepairedStates and RepairFallbacks describe table repairs absorbed
	// during the span (rule-update requests): how many states the
	// in-place splices touched, and how many updates declined repair and
	// regenerated instead. The RepairScanned, RepairPropagated,
	// RepairRulesDiffed and RepairReanalysed counts are the work the
	// repairs visited: states looked at to find and reclaim the damage,
	// LALR(1) lookahead slots re-propagated, rules whose FIRST inputs
	// were diffed, and nonterminals whose FIRST/nullable/FOLLOW sets were
	// recomputed — what shows a repair costing the damage, not the
	// grammar. Zero for plain parses.
	RepairedStates    int
	RepairFallbacks   int
	RepairScanned     int
	RepairPropagated  int
	RepairRulesDiffed int
	RepairReanalysed  int
	// Canceled is the cancellation reason when the parse was aborted
	// mid-drive ("" for completed parses); Panicked marks a parse whose
	// engine panicked and was quarantined into a structured error.
	Canceled string
	Panicked bool
	// Sampled marks spans captured by the 1-in-N sampler; Slow marks
	// spans retained because Total crossed the slow-parse threshold.
	// A span can be both.
	Sampled bool
	Slow    bool
}

// ParseTrace is the in-flight recorder for one parse. Obtain one from
// Tracer.StartParse, mark stages as the parse moves through its
// lifecycle, and call Finish exactly once. All methods are safe on a
// nil receiver (the disabled-tracing fast path), and traces are pooled,
// so steady-state tracing performs no allocations.
type ParseTrace struct {
	tracer *Tracer
	span   Span
	starts [NumStages]time.Time
	done   bool
}

// BeginStage marks entry into stage s. No-op on a nil trace.
func (t *ParseTrace) BeginStage(s Stage) {
	if t == nil {
		return
	}
	t.starts[s] = time.Now()
}

// EndStage accumulates the time since the matching BeginStage into
// stage s. Unmatched EndStage calls are ignored. No-op on a nil trace.
func (t *ParseTrace) EndStage(s Stage) {
	if t == nil || t.starts[s].IsZero() {
		return
	}
	t.span.Stages[s] += time.Since(t.starts[s])
	t.starts[s] = time.Time{}
}

// Repair is one rule update's table-repair outcome, in the units of
// the Span fields of the same names: states the in-place splice
// touched, updates that fell back to regeneration, and the work the
// repairs visited.
type Repair struct {
	States, Fallbacks                            int
	Scanned, Propagated, RulesDiffed, Reanalysed int
}

// AddRepair accumulates one table repair's outcome into the span. No-op
// on a nil trace.
func (t *ParseTrace) AddRepair(r Repair) {
	if t == nil {
		return
	}
	t.span.RepairedStates += r.States
	t.span.RepairFallbacks += r.Fallbacks
	t.span.RepairScanned += r.Scanned
	t.span.RepairPropagated += r.Propagated
	t.span.RepairRulesDiffed += r.RulesDiffed
	t.span.RepairReanalysed += r.Reanalysed
}

// MarkCanceled records that the parse was aborted mid-drive with the
// given cancellation reason. No-op on a nil trace.
func (t *ParseTrace) MarkCanceled(reason string) {
	if t == nil {
		return
	}
	t.span.Canceled = reason
}

// MarkPanicked records that the parse's engine panicked and the panic
// was quarantined into a structured error. No-op on a nil trace.
func (t *ParseTrace) MarkPanicked() {
	if t == nil {
		return
	}
	t.span.Panicked = true
}

// Finish completes the trace: the span is retained in the sampled ring
// when the parse was sampled, and in the slow ring when its total
// crossed the tracer's slow-parse threshold (outliers are always kept,
// sampled or not). It reports which retentions happened, so callers can
// log slow parses. Safe on a nil trace (reports false, false) and
// idempotent.
func (t *ParseTrace) Finish(accepted bool, err error) (sampled, slow bool) {
	_, sampled, slow = t.FinishSpan(accepted, err)
	return sampled, slow
}

// FinishSpan is Finish for callers that need the completed span — e.g.
// to log a slow parse with its stage breakdown. The returned copy is
// taken before the trace goes back to its pool, so it stays valid after
// the trace is reused. The zero Span is returned for nil or
// already-finished traces.
func (t *ParseTrace) FinishSpan(accepted bool, err error) (sp Span, sampled, slow bool) {
	if t == nil || t.done {
		return Span{}, false, false
	}
	t.done = true
	t.span.Total = time.Since(t.span.Start)
	t.span.Accepted = accepted
	if err != nil {
		t.span.Err = err.Error()
	}
	sampled, slow = t.tracer.finish(t)
	// Copy before the pool put: once pooled, a concurrent StartParse may
	// reuse t and overwrite the span.
	sp = t.span
	t.tracer.pool.Put(t)
	return sp, sampled, slow
}

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// SampleEvery captures every Nth parse into the sampled ring
	// (1 = every parse, 0 = sampling off).
	SampleEvery int
	// SlowThreshold retains any parse at least this slow in the slow
	// ring, sampled or not (0 = slow capture off).
	SlowThreshold time.Duration
	// RingSize bounds the sampled ring (default 256); the slow ring is
	// a quarter of it (min 16).
	RingSize int
}

// Tracer owns the parse-lifecycle capture machinery: a pool of
// in-flight traces and two lock-free rings of finished spans (sampled
// and slow). A Tracer with neither sampling nor a slow threshold is
// disabled: StartParse returns nil and the parse path pays only a nil
// check. A nil *Tracer behaves as disabled too.
type Tracer struct {
	sampleEvery atomic.Int64
	slowNS      atomic.Int64

	seq      atomic.Uint64 // StartParse admissions, drives the sampler
	captured atomic.Uint64 // spans retained in the sampled ring
	slowSeen atomic.Uint64 // spans retained in the slow ring
	spanSeq  atomic.Uint64 // span ID source

	sampled *spanRing
	slow    *spanRing
	pool    sync.Pool
}

// NewTracer builds a tracer from cfg.
func NewTracer(cfg TracerConfig) *Tracer {
	size := cfg.RingSize
	if size <= 0 {
		size = 256
	}
	slowSize := size / 4
	if slowSize < 16 {
		slowSize = 16
	}
	tr := &Tracer{
		sampled: newSpanRing(size),
		slow:    newSpanRing(slowSize),
	}
	tr.pool.New = func() any { return new(ParseTrace) }
	tr.sampleEvery.Store(int64(cfg.SampleEvery))
	tr.slowNS.Store(int64(cfg.SlowThreshold))
	return tr
}

// Enabled reports whether any capture (sampling or slow retention) is
// on. Safe on a nil tracer.
func (tr *Tracer) Enabled() bool {
	return tr != nil && (tr.sampleEvery.Load() > 0 || tr.slowNS.Load() > 0)
}

// SampleEvery returns the sampling period (0 = off). Safe on nil.
func (tr *Tracer) SampleEvery() int {
	if tr == nil {
		return 0
	}
	return int(tr.sampleEvery.Load())
}

// SlowThreshold returns the slow-parse threshold (0 = off). Safe on nil.
func (tr *Tracer) SlowThreshold() time.Duration {
	if tr == nil {
		return 0
	}
	return time.Duration(tr.slowNS.Load())
}

// StartParse begins tracing one parse. It returns nil — the universal
// no-op trace — when the tracer is disabled; otherwise the trace comes
// from a pool, so the unsampled-but-measured path stays allocation-free
// in steady state. Callers must Finish the returned trace.
func (tr *Tracer) StartParse(grammar, engine, requestID string) *ParseTrace {
	if !tr.Enabled() {
		return nil
	}
	n := tr.seq.Add(1)
	every := tr.sampleEvery.Load()
	sampled := every > 0 && n%uint64(every) == 0
	if !sampled && tr.slowNS.Load() <= 0 {
		return nil
	}
	t := tr.pool.Get().(*ParseTrace)
	*t = ParseTrace{tracer: tr}
	t.span.Grammar = grammar
	t.span.Engine = engine
	t.span.RequestID = requestID
	t.span.Sampled = sampled
	t.span.Start = time.Now()
	return t
}

func (tr *Tracer) finish(t *ParseTrace) (sampled, slow bool) {
	sampled = t.span.Sampled
	if slowNS := tr.slowNS.Load(); slowNS > 0 && int64(t.span.Total) >= slowNS {
		slow = true
	}
	t.span.Slow = slow
	if sampled || slow {
		t.span.ID = tr.spanSeq.Add(1)
	}
	if sampled {
		tr.captured.Add(1)
		tr.sampled.put(&t.span)
	}
	if slow {
		tr.slowSeen.Add(1)
		tr.slow.put(&t.span)
	}
	// The caller (FinishSpan) returns t to the pool after copying the
	// span out.
	return sampled, slow
}

// TracerStats are the tracer's lifetime counters for stats endpoints
// and /metrics.
type TracerStats struct {
	// Started counts parses admitted to StartParse while enabled.
	Started uint64
	// Captured counts spans retained in the sampled ring; Slow counts
	// spans retained in the slow ring.
	Captured uint64
	Slow     uint64
}

// Stats samples the tracer's counters. Safe on a nil tracer.
func (tr *Tracer) Stats() TracerStats {
	if tr == nil {
		return TracerStats{}
	}
	return TracerStats{
		Started:  tr.seq.Load(),
		Captured: tr.captured.Load(),
		Slow:     tr.slowSeen.Load(),
	}
}

// Snapshot returns the retained spans — slow outliers and sampled
// parses merged, newest first — optionally filtered by grammar
// (""  = all) and truncated to max (<=0 = no limit). Safe on a nil
// tracer (returns nil).
func (tr *Tracer) Snapshot(grammar string, max int) []Span {
	if tr == nil {
		return nil
	}
	spans := tr.slow.collect(nil)
	spans = tr.sampled.collect(spans)
	out := spans[:0]
	seen := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		if grammar != "" && s.Grammar != grammar {
			continue
		}
		if seen[s.ID] { // a span can sit in both rings
			continue
		}
		seen[s.ID] = true
		out = append(out, s)
	}
	// Newest first: IDs are monotonic. Insertion sort — rings are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID > out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// spanRing is a fixed-capacity ring of spans. Writers claim a slot
// round-robin; writers and readers hold a slot through a per-slot spin
// lock on its sequence (odd = held, 0 = never written) while they copy
// the span. Writes are rare (sampled or slow parses only) and reads
// rarer (trace scrapes), so contention on a slot is effectively nil,
// but correctness never depends on that.
type spanRing struct {
	next  atomic.Uint64
	slots []ringSlot
}

type ringSlot struct {
	seq  atomic.Uint64
	span Span
}

func newSpanRing(size int) *spanRing {
	return &spanRing{slots: make([]ringSlot, size)}
}

func (r *spanRing) put(s *Span) {
	slot := &r.slots[(r.next.Add(1)-1)%uint64(len(r.slots))]
	for {
		v := slot.seq.Load()
		if v&1 == 0 && slot.seq.CompareAndSwap(v, v+1) {
			break // claimed
		}
	}
	slot.span = *s
	slot.seq.Add(1)
}

// collect appends consistent copies of the ring's occupied slots to out.
func (r *spanRing) collect(out []Span) []Span {
	for i := range r.slots {
		slot := &r.slots[i]
		for {
			v := slot.seq.Load()
			if v == 0 { // never written
				break
			}
			if v&1 == 0 && slot.seq.CompareAndSwap(v, v+1) {
				out = append(out, slot.span)
				slot.seq.Add(1)
				break
			}
		}
	}
	return out
}
