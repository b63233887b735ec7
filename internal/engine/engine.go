// Package engine abstracts the system's parsing backends behind one
// interface, turning the parse service from "a GLR server" into a parser
// platform. The paper closes by noting that the lazy/incremental
// technique "is not tied to one parsing algorithm" (section 8), and the
// comparison matrix of Fig 2.1 spans exactly the spectrum implemented
// here:
//
//   - KindGLR — the paper's IPG: lazy incremental LR(0) generation
//     driving the GSS parser. Handles every context-free grammar,
//     supports incremental rule updates and table snapshots.
//   - KindLALR — the Yacc baseline: eagerly generated LALR(1) tables.
//     Conflict-free grammars get the fast deterministic LR driver; a
//     grammar modification is spliced into the existing table by
//     lalr.Table.Repair (full regeneration — the asymmetry Fig 7.1
//     measures — remains only as the fallback path).
//   - KindLL — LL(1) predictive parsing; rejects non-LL(1) grammars.
//     Rule updates refill only the damaged prediction rows.
//   - KindEarley — grammar-driven parsing with no table at all: maximal
//     flexibility, minimal speed (the other end of Fig 2.1). Builds
//     packed forests and applies rule updates for free.
//   - KindAuto — probes the grammar's LALR(1) table once, when the
//     engine is built, and returns LALR(1) when it is conflict-free and
//     lazy GLR otherwise, with the verdict as the reason. The choice
//     holds for the engine's life: rule updates go to that backend. LL
//     is never selected, only requested by name.
//
// All engines share the glr.Result shape, so the registry and serve
// layers are engine-agnostic; capabilities the backends do not share
// (tree building, incremental update, snapshots) are reported by Caps
// and the optional Snapshotter interface, and degrade gracefully.
// Every backend answers completion queries (OpenCursor).
//
// Each backend, each document session and each cursor step has exactly
// one body, its drive (see Driver): it attributes the work to the parse
// trace and polls the cancellation flag. Parse, Recognize,
// Session.Reparse and the OpenCursor function forward to it, and
// ParseGuarded — the dispatch the registry runs every parse, session
// reparse and cursor step through — wraps it in the panic,
// cancellation and fault-injection guard once.
package engine

import (
	"errors"
	"fmt"
	"io"

	"ipg/internal/cancel"
	"ipg/internal/core"
	"ipg/internal/glr"
	"ipg/internal/grammar"
	"ipg/internal/lr"
	"ipg/internal/obs"
)

// Kind identifies a parsing backend.
type Kind uint8

const (
	// KindDefault resolves to the caller's configured default backend
	// (the registry resolves it to KindGLR unless told otherwise).
	KindDefault Kind = iota
	// KindGLR is the paper's IPG: lazy incremental LR(0) + GSS.
	KindGLR
	// KindLALR is eagerly generated LALR(1), the Yacc baseline.
	KindLALR
	// KindLL is LL(1) predictive parsing.
	KindLL
	// KindEarley is table-free Earley parsing.
	KindEarley
	// KindAuto probes the grammar and builds the cheapest adequate
	// backend (New never returns an engine of this kind).
	KindAuto
)

// String names the kind as accepted by ParseKind.
func (k Kind) String() string {
	switch k {
	case KindDefault:
		return "default"
	case KindGLR:
		return "glr"
	case KindLALR:
		return "lalr"
	case KindLL:
		return "ll"
	case KindEarley:
		return "earley"
	case KindAuto:
		return "auto"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind reads an engine name. "" and "default" mean KindDefault.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "default":
		return KindDefault, nil
	case "glr", "lazy-glr", "gss":
		return KindGLR, nil
	case "lalr", "lalr1", "lalr(1)", "yacc":
		return KindLALR, nil
	case "ll", "ll1", "ll(1)":
		return KindLL, nil
	case "earley":
		return KindEarley, nil
	case "auto":
		return KindAuto, nil
	default:
		return KindDefault, fmt.Errorf("engine: unknown engine %q (want glr, lalr, ll, earley or auto)", s)
	}
}

// Kinds lists the concrete selectable kinds (excluding KindDefault), in
// comparison order — useful for flags, docs and cross-engine benchmarks.
func Kinds() []Kind { return []Kind{KindGLR, KindLALR, KindLL, KindEarley, KindAuto} }

// Caps describes what a backend can do; serve and the registry use it to
// degrade gracefully instead of failing on unsupported operations.
type Caps struct {
	// Trees reports whether Parse can build parse forests.
	Trees bool
	// Ambiguity reports whether ambiguous grammars are handled (multiple
	// derivations recognized and, with Trees, packed into the forest).
	Ambiguity bool
	// Incremental reports whether AddRule/DeleteRule splice into the
	// existing table rather than regenerating it from scratch.
	Incremental bool
	// Lazy reports whether table parts are generated by need during
	// parsing rather than eagerly up front.
	Lazy bool
	// Snapshot reports whether the engine's table state persists across
	// restarts (the engine implements Snapshotter).
	Snapshot bool
	// Reparse reports whether document sessions reuse retained parse
	// state across edits (Earley's chart); without it, session reparses
	// run from scratch behind the same interface.
	Reparse bool
	// Complete reports whether the engine answers prefix-completion
	// queries (accept sets over checkpointed cursors, OpenCursor);
	// every backend does.
	Complete bool
}

// CapsOf returns the capability matrix row for a concrete kind. KindAuto
// reports the union of the kinds auto may select; ask the built engine
// (Engine.Caps) for its answer.
func CapsOf(k Kind) Caps {
	switch k {
	case KindGLR:
		return Caps{Trees: true, Ambiguity: true, Incremental: true, Lazy: true, Snapshot: true, Complete: true}
	case KindLALR:
		return Caps{Trees: true, Ambiguity: true, Incremental: true, Complete: true}
	case KindLL:
		return Caps{Trees: true, Incremental: true, Complete: true}
	case KindEarley:
		return Caps{Trees: true, Ambiguity: true, Incremental: true, Reparse: true, Complete: true}
	case KindAuto:
		return Caps{Trees: true, Ambiguity: true, Incremental: true, Lazy: true, Snapshot: true, Complete: true}
	default:
		return Caps{}
	}
}

// Result is the engine-independent parse outcome. Engines without tree
// building leave Root/Forest nil; engines without diagnostics leave
// Expected empty. It is the glr result shape so the GLR path pays no
// translation cost.
type Result = glr.Result

// TableInfo describes an engine's table for stats endpoints. Engines
// with eagerly generated tables report every state complete; Earley,
// which has no table, reports zeros.
type TableInfo struct {
	States, Complete, Initial, Dirty int
}

// Driver is the one body behind ParseGuarded, implemented by every
// Engine, every Session and CursorStep (and only by this package's
// types).
type Driver interface {
	// drive parses input — a Session parses its retained document
	// instead and is handed nil, a CursorStep feeds input to its
	// cursor — building the forest when buildTrees is set, recording
	// the backend's stages into tr and polling fl at its checkpoints.
	// A nil tr or fl costs only nil checks, so the warm path stays 0
	// allocs/op. A Session records its whole drive as one reuse stage
	// and hands its backend a nil trace, since stages nested inside it
	// would be counted twice; a CursorStep records one complete stage.
	drive(input []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace, fl *cancel.Flag) (Result, error)
}

// Engine is one parsing backend bound to one grammar. Implementations
// are safe for concurrent use: parses may run from many goroutines, and
// rule updates exclude parses internally.
type Engine interface {
	Driver
	// Kind identifies the backend (auto selection builds a concrete
	// one, so it is never KindAuto).
	Kind() Kind
	// Reason explains why this engine drives the grammar: "requested"
	// for explicit selection, or the auto prober's verdict.
	Reason() string
	// Caps reports the backend's capabilities.
	Caps() Caps
	// Parse parses a terminal stream (no end marker). buildTrees
	// requests forest construction where supported. It forwards to the
	// backend's drive, untraced and uncancellable.
	Parse(input []grammar.Symbol, buildTrees bool) (Result, error)
	// Recognize reports acceptance without building trees; it forwards
	// to the drive like Parse.
	Recognize(input []grammar.Symbol) (bool, error)
	// Counters samples the engine's work counters. Non-lazy engines fill
	// the subset that applies (parses served; regeneration work mapped
	// onto StatesExpanded/StatesInvalidated).
	Counters() core.Counters
	// TableInfo describes the current table.
	TableInfo() TableInfo
	// AddRule applies a grammar modification incrementally: GLR
	// splices natively, Earley recompiles its grammar view, LALR
	// repairs the affected states in place (regenerating only when the
	// repair declines), and LL refills the damaged prediction rows.
	AddRule(r *grammar.Rule) error
	// DeleteRule is the inverse of AddRule.
	DeleteRule(r *grammar.Rule) error
	// OpenCursor opens a completion cursor at the empty prefix.
	OpenCursor() (Cursor, error)
}

// accepted adapts a drive's outcome to Recognize's shape.
func accepted(res Result, err error) (bool, error) { return res.Accepted, err }

// Snapshotter is the optional persistence capability: engines whose
// table state is worth carrying across restarts implement it. Use
// SnapshotterOf to query an engine.
type Snapshotter interface {
	// SaveTable serializes the table including its lazy frontier.
	SaveTable(w io.Writer) (core.CoverageStats, error)
	// RestoreTable replaces the engine's table with a reloaded graph of
	// item sets. Call only before the engine serves traffic.
	RestoreTable(a *lr.Automaton)
}

// ErrNoSnapshot reports that an engine's table state is not persistable
// (only the lazy-GLR table is): the caller should degrade gracefully —
// skip the entry during snapshot-all passes, generate cold on restore.
var ErrNoSnapshot = errors.New("engine: backend does not support table snapshots")

// SnapshotterOf returns e's snapshot capability, or nil when the engine
// has none.
func SnapshotterOf(e Engine) Snapshotter {
	s, _ := e.(Snapshotter)
	return s
}

// GeneratorOf returns the lazy incremental generator backing e, or nil
// when e is not GLR-backed. It exists for callers that need the paper's
// machinery directly (table dumps, coverage, the snapshot subsystem).
func GeneratorOf(e Engine) *core.Generator {
	if eng, ok := e.(*GLR); ok {
		return eng.Generator()
	}
	return nil
}

// New builds an engine of the given kind for g. KindDefault resolves to
// KindGLR, and KindAuto to the *LALR or *GLR engine NewAuto selects.
// Construction fails for KindLL when the grammar is not LL(1); every
// other kind accepts any grammar.
func New(kind Kind, g *grammar.Grammar) (Engine, error) {
	switch kind {
	case KindDefault, KindGLR:
		return NewGLR(g, "requested"), nil
	case KindLALR:
		return NewLALR(g, "requested"), nil
	case KindLL:
		return NewLL(g, "requested")
	case KindEarley:
		return NewEarley(g, "requested"), nil
	case KindAuto:
		return NewAuto(g), nil
	default:
		return nil, fmt.Errorf("engine: unknown kind %v", kind)
	}
}
