package engine

import (
	"io"
	"sync"

	"ipg/internal/cancel"
	"ipg/internal/core"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/lr"
	"ipg/internal/obs"
)

// GLR is the paper's IPG behind the Engine interface: a lazy incremental
// LR(0) generator driving the graph-structured-stack parser. It is the
// only engine whose table both updates incrementally and persists across
// restarts (Snapshotter).
type GLR struct {
	reason string
	// mu guards gen replacement (RestoreTable); the generator's own
	// locks guard everything else.
	mu  sync.RWMutex
	gen *core.Generator
}

// NewGLR builds a lazy-GLR engine for g with the generator's default
// garbage-collection policy (core.PolicyRefCount); no table generation
// happens until the first parse.
func NewGLR(g *grammar.Grammar, reason string) *GLR {
	return &GLR{reason: reason, gen: core.New(g, nil)}
}

// Kind implements Engine.
func (e *GLR) Kind() Kind { return KindGLR }

// Reason implements Engine.
func (e *GLR) Reason() string { return e.reason }

// Caps implements Engine.
func (e *GLR) Caps() Caps { return CapsOf(KindGLR) }

// Generator exposes the backing lazy incremental generator.
func (e *GLR) Generator() *core.Generator {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.gen
}

// glrScratch is the pooled per-parse scratch of the GLR engine: the
// generator session (local counters, one shared flush per parse) and the
// options value the parse is driven with. The GSS workspace itself is
// pooled inside package glr.
type glrScratch struct {
	sess core.ParseSession
	opts glr.Options
}

var glrScratchPool = sync.Pool{New: func() any { return new(glrScratch) }}

// Parse implements Engine by forwarding to drive.
func (e *GLR) Parse(input []grammar.Symbol, buildTrees bool) (Result, error) {
	return e.drive(input, buildTrees, nil, nil)
}

// Recognize implements Engine by forwarding to drive.
func (e *GLR) Recognize(input []grammar.Symbol) (bool, error) {
	return accepted(e.drive(input, false, nil, nil))
}

// drive implements Driver: one GSS parse under the generator's shared
// (read) access, expanding table states by need, recorded as one table
// stage. Counter traffic is batched per parse through a
// core.ParseSession, so the published-state hot path performs no
// shared atomic writes. The flag reaches both the GSS drive loop
// (per-sweep checkpoint) and the lazy-expansion path of the generator
// session. The deferred End releases the table's shared lock even when
// expansion aborts by panic.
func (e *GLR) drive(input []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace, fl *cancel.Flag) (Result, error) {
	gen := e.Generator()
	sc := glrScratchPool.Get().(*glrScratch)
	defer glrScratchPool.Put(sc)
	sc.sess.Begin(gen)
	defer sc.sess.End()
	sc.sess.Cancel = fl
	sc.opts = glr.Options{Engine: glr.GSS, DisableTrees: !buildTrees, Cancel: fl}
	tr.BeginStage(obs.StageTable)
	res, err := glr.Parse(&sc.sess, input, &sc.opts)
	tr.EndStage(obs.StageTable)
	return res, err
}

// Counters implements Engine.
func (e *GLR) Counters() core.Counters { return e.Generator().Counters() }

// TableInfo implements Engine.
func (e *GLR) TableInfo() TableInfo {
	cov := e.Generator().Coverage()
	return TableInfo{
		States:   cov.Initial + cov.Complete + cov.Dirty,
		Complete: cov.Complete,
		Initial:  cov.Initial,
		Dirty:    cov.Dirty,
	}
}

// AddRule implements Engine: ADD-RULE of section 6, splicing the new
// rule into the existing table.
func (e *GLR) AddRule(r *grammar.Rule) error { return e.Generator().AddRule(r) }

// DeleteRule implements Engine: DELETE-RULE of section 6.
func (e *GLR) DeleteRule(r *grammar.Rule) error { return e.Generator().DeleteRule(r) }

// SaveTable implements Snapshotter: concurrent parses on published
// states continue while the table serializes.
func (e *GLR) SaveTable(w io.Writer) (core.CoverageStats, error) {
	return e.Generator().SaveTable(w)
}

// RestoreTable implements Snapshotter, resuming a reloaded graph of item
// sets. Call only before the engine serves traffic.
func (e *GLR) RestoreTable(a *lr.Automaton) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gen = core.NewFromAutomaton(a, nil)
}
