package ipg

import (
	"ipg/internal/core"
	"ipg/internal/engine"
	"ipg/internal/registry"
)

// This file re-exports the concurrent parse service's grammar registry:
// a concurrency-safe catalog of named, versioned grammars, each owning
// one parsing backend — by default a shared lazily generated parse
// table — that all concurrent parses reuse. See cmd/ipg-serve for the
// HTTP front end over the same registry.
//
//	reg := ipg.NewRegistry()
//	entry, _ := reg.Register("calc", ipg.GrammarSpec{Source: calcSDF})
//	res, _ := entry.ParseInput("1 + 2 * 3", true)   // safe from any goroutine
//	entry.AddRulesText(`EXP ::= EXP "%" EXP`)       // incremental, exclusive

// Registry is the concurrency-safe grammar catalog.
type Registry = registry.Registry

// RegistryEntry is one registered grammar with its front end and its
// parsing backend.
type RegistryEntry = registry.Entry

// GrammarSpec describes a grammar to register (BNF rules or SDF).
type GrammarSpec = registry.Spec

// RegistryResult is the outcome of one parse through a registry entry:
// the engine result plus derivation counting and (for SDF entries) the
// disambiguation filters already applied.
type RegistryResult = registry.Result

// GrammarForm selects how a GrammarSpec source is read.
type GrammarForm = registry.Form

// EntryLimits is per-grammar admission control for registry entries:
// max concurrent parses, max forest nodes, and a token bucket's
// sustained request rate and burst (zero = unlimited). Set on a
// GrammarSpec, or registry-wide with Registry.SetDefaultLimits.
type EntryLimits = registry.Limits

// Grammar source forms.
const (
	// FormAuto sniffs SDF ("module" keyword) vs plain rules.
	FormAuto = registry.FormAuto
	// FormRules is plain-text BNF.
	FormRules = registry.FormRules
	// FormSDF is an SDF definition.
	FormSDF = registry.FormSDF
)

// EngineKind selects a registry entry's parsing backend (GrammarSpec's
// Engine field): the paper's lazy incremental GLR, the Yacc-style
// LALR(1) baseline, LL(1) predictive parsing, table-free Earley, or
// auto-selection, which probes the grammar and records why. Not to be
// confused with Engine (Copying/GSS/Deterministic), which picks the
// parse algorithm *within* the LR family for a Parser.
type EngineKind = engine.Kind

// Parsing backends for registry entries.
const (
	// EngineDefault inherits the registry default (lazy GLR unless
	// Registry.SetDefaultEngine says otherwise).
	EngineDefault = engine.KindDefault
	// EngineGLR is the paper's IPG: lazy incremental LR(0) + GSS. Every
	// backend applies rule updates in place; this is the only one with
	// table snapshots.
	EngineGLR = engine.KindGLR
	// EngineLALR is the eagerly generated LALR(1) baseline; fastest on
	// deterministic grammars, and a rule update repairs the affected
	// states in place.
	EngineLALR = engine.KindLALR
	// EngineLL is LL(1) predictive parsing; rejects non-LL(1) grammars.
	EngineLL = engine.KindLL
	// EngineEarley is table-free Earley parsing: accepts every
	// context-free grammar and builds packed forests; slowest per token.
	EngineEarley = engine.KindEarley
	// EngineAuto probes the grammar's LALR(1) table once, at
	// registration (conflict-free ⇒ LALR(1); else lazy GLR), and records
	// the reason; rule updates keep that backend.
	EngineAuto = engine.KindAuto
)

// EngineCaps describes a backend's capabilities (trees, ambiguity,
// incrementality, laziness, snapshots).
type EngineCaps = engine.Caps

// ParseEngineName reads an engine name ("glr", "lalr", "ll", "earley",
// "auto"; "" = default) — the vocabulary of the cmds' -engine flags and
// the serve API's "engine" field.
func ParseEngineName(s string) (EngineKind, error) { return engine.ParseKind(s) }

// EngineCapsOf returns the capability matrix row for a backend.
func EngineCapsOf(k EngineKind) EngineCaps { return engine.CapsOf(k) }

// ProbeEngine reports which backend auto-selection would pick for g and
// why, without building a parser.
func ProbeEngine(g *Grammar) (EngineKind, string) { return engine.Probe(g) }

// ParseCounters is a snapshot of a generator's concurrent work counters
// (states expanded/invalidated, action cache hit rate, parses served).
type ParseCounters = core.Counters

// NewRegistry returns an empty grammar registry.
func NewRegistry() *Registry { return registry.New() }

// Counters samples the parser's generator work counters.
func (p *Parser) Counters() ParseCounters { return p.gen.Counters() }
