// Package earley implements Earley's general context-free parsing
// algorithm [Ear70], the grammar-driven extreme of Fig 2.1 and the
// comparison the paper's authors wanted for section 7 but omitted ("we
// expect Earley's algorithm to have better generation performance, but a
// much inferior parsing performance"). There is no generation phase at
// all: every parse derives its information from the grammar, which is
// exactly what makes the algorithm flexible — a rule update costs only
// a recompile of the flat grammar view, proportional to the grammar.
//
// The implementation uses the standard predictor/scanner/completer with
// the Aycock–Horspool nullable-prediction fix (epsilon rules are handled
// correctly), plus:
//
//   - a compiled grammar view (program), built by New and by every
//     Refresh after a rule update, so parses touch flat arrays instead
//     of maps and never compile;
//   - a pooled, arena-backed chart (Workspace): dense per-set item
//     storage with a generation-stamped dedup table, mirroring
//     glr.Workspace — a warm parse allocates nothing in its token loop;
//   - Leo's right-recursion optimization [Leo91] on the recognition
//     path, making right-recursive grammars linear instead of quadratic;
//   - forest construction: completed items are threaded back through an
//     SPPF-style builder into internal/forest, producing trees
//     node-identical to the LR engines' on unambiguous inputs and a
//     packed forest on ambiguous ones.
package earley

import (
	"errors"
	"fmt"

	"ipg/internal/cancel"
	"ipg/internal/forest"
	"ipg/internal/grammar"
	"ipg/internal/obs"
)

// Stats counts parser work.
type Stats struct {
	// Items is the total number of Earley items created.
	Items int
	// Sets is the number of item sets (input length + 1).
	Sets int
	// Leo counts completions short-circuited by the Leo right-recursion
	// memo (recognition path only; tree building keeps the full chart).
	Leo int
}

// Result is the outcome of one Earley parse, shaped like glr.Result so
// the engine layer pays no translation cost.
type Result struct {
	// Accepted reports whether the input is a sentence of the grammar.
	Accepted bool
	// Root is the parse forest root (nil unless accepted and tree
	// building was requested). Ambiguous inputs pack all derivations.
	Root *forest.Node
	// Forest is the forest Root lives in (nil when tree building is
	// off).
	Forest *forest.Forest
	// ErrorPos is the index of the first token no item could scan
	// (len(input) when the sentence is a proper prefix); -1 when
	// accepted.
	ErrorPos int
	// Expected lists the terminals that would have allowed progress at
	// ErrorPos (sorted by symbol).
	Expected []grammar.Symbol
	// Stats holds work counters.
	Stats Stats
}

// Options configures one parse. The zero value recognizes only, with a
// pooled workspace.
type Options struct {
	// BuildTrees requests forest construction. Tree-building parses keep
	// the full chart (the Leo shortcut is off) and record completions.
	BuildTrees bool
	// Workspace supplies reusable chart storage; nil borrows one from an
	// internal sync.Pool. A workspace serves one parse at a time.
	Workspace *Workspace
	// Trace, when non-nil, receives the parse's lifecycle stage
	// timings: the chart pass under obs.StageTable and forest
	// construction under obs.StageForest. The split lives here because
	// only the parser knows where the chart ends and the forest walk
	// begins; a nil Trace costs one pointer check.
	Trace *obs.ParseTrace
	// Cancel, when non-nil, is polled once per item set in the chart
	// drive and once per constituent in forest construction; a fired
	// flag aborts the parse with a *cancel.Error. Nil costs one
	// pointer check per checkpoint.
	Cancel *cancel.Flag
}

func (o *Options) cancelFlag() *cancel.Flag {
	if o == nil {
		return nil
	}
	return o.Cancel
}

func (o *Options) trace() *obs.ParseTrace {
	if o == nil {
		return nil
	}
	return o.Trace
}

func (o *Options) trees() bool { return o != nil && o.BuildTrees }

// ErrCyclic is returned by tree-building parses of cyclic grammars
// (A ::= A): such grammars derive sentences in infinitely many ways, so
// no finite packed forest exists. Recognition still works.
var ErrCyclic = errors.New("earley: cyclic derivation (grammar not finitely ambiguous)")

// Parser is an Earley parser for a grammar. It keeps no table, only a
// compiled view of the grammar's rules: New builds it, and Refresh
// rebuilds it after rule updates, so the update pays the Fig 2.1
// modification cost and parses only load the published view. Mutating
// the grammar without calling Refresh is a programming error that the
// next parse reports by panicking, as core.Generator does.
//
// Concurrent parses through one Parser are safe as long as grammar
// mutations and their Refresh are excluded by the caller (the engine
// layer does both under its write lock).
type Parser struct {
	g    *grammar.Grammar
	prog *program
}

// New returns a parser for g with g's view compiled.
func New(g *grammar.Grammar) *Parser {
	p := &Parser{g: g}
	p.Refresh()
	return p
}

// Refresh recompiles the grammar view after rule updates and publishes
// it to later parses. Call it after every AddRule/DeleteRule on the
// parser's grammar (once per batch suffices), under the exclusion that
// covers the update: it reads the grammar's Analysis, which is not safe
// beside concurrent readers.
func (p *Parser) Refresh() { p.prog = compile(p.g) }

// Parse runs one Earley parse. A trailing end marker ($) is accepted
// and ignored, so EOF-terminated token streams pass through unchanged.
func (p *Parser) Parse(input []grammar.Symbol, opts *Options) (Result, error) {
	if n := len(input); n > 0 && input[n-1] == grammar.EOF {
		input = input[:n-1]
	}
	pr := p.program()
	w := opts.workspace()
	if w.pooled {
		defer releaseWorkspace(w)
	}
	buildTrees := opts.trees()
	tr := opts.trace()
	fl := opts.cancelFlag()

	tr.BeginStage(obs.StageTable)
	res, err := p.run(pr, input, w, buildTrees, 0, fl)
	tr.EndStage(obs.StageTable)
	if err != nil {
		return res, err
	}
	if !buildTrees {
		return res, nil
	}
	res.Forest = forest.NewForest()
	if !res.Accepted {
		// Match the LL engine's shape: a tree-building rejection still
		// carries its (empty) forest.
		return res, nil
	}
	tr.BeginStage(obs.StageForest)
	root, err := buildForest(pr, w, input, res.Forest, fl)
	tr.EndStage(obs.StageForest)
	if err != nil {
		return Result{}, err
	}
	res.Root = root
	return res, nil
}

// Recognize reports whether input (terminals, end marker optional) is a
// sentence of the grammar.
func (p *Parser) Recognize(input []grammar.Symbol) bool {
	res, _ := p.Parse(input, nil)
	return res.Accepted
}

// RecognizeStats is Recognize with work counters.
func (p *Parser) RecognizeStats(input []grammar.Symbol) (bool, Stats) {
	res, _ := p.Parse(input, nil)
	return res.Accepted, res.Stats
}

// RecognizeDiag reports acceptance plus a rejection diagnostic in the
// shape the LR engines produce: errPos is the index of the first token
// no item could scan (len(input) when the sentence is a proper prefix),
// and expected lists the terminals that would have allowed progress
// there. errPos is -1 for accepted inputs.
func (p *Parser) RecognizeDiag(input []grammar.Symbol) (ok bool, stats Stats, errPos int, expected []grammar.Symbol) {
	res, _ := p.Parse(input, nil)
	return res.Accepted, res.Stats, res.ErrorPos, res.Expected
}

// program returns the published view of the grammar. A grammar that
// moved since the last Refresh was mutated behind the parser's back.
func (p *Parser) program() *program {
	pr := p.prog
	if v := p.g.Version(); pr.version != v {
		panic(fmt.Sprintf("earley: grammar modified behind the parser's back (version %d, view compiled at %d); call Parser.Refresh after each rule update",
			v, pr.version))
	}
	return pr
}

// program is the compiled grammar view: flat, symbol-indexed arrays
// replacing the map lookups of the grammar on the parse hot path.
type program struct {
	g       *grammar.Grammar
	version uint64

	// rules indexes every live rule; items refer to rules by index.
	rules []*grammar.Rule
	// rulesFor[sym] lists the indices of rules with left-hand side sym.
	rulesFor [][]int32
	// nullable[sym] reports whether sym derives the empty string.
	nullable []bool
	// isNT[sym] reports whether sym is a nonterminal.
	isNT []bool
	// startRules are the indices of the START rules.
	startRules []int32
	// minSuffix[r][q] is a lower bound on the token width of rule r's
	// right-hand-side suffix Rhs[q:] (terminals count 1, nonterminals 0
	// when nullable, else 1). The forest builder prunes split points
	// whose remaining suffix cannot fit the remaining span — which also
	// makes the cyclic-derivation check exact.
	minSuffix [][]int32
	// numSyms is the symbol-array length (max symbol id + 1).
	numSyms int
}

// compile builds the view of g's current rules, reading nullability
// from g's incremental Analysis. Its cost, proportional to the grammar,
// is the Earley row's modification cost in Fig 2.1.
func compile(g *grammar.Grammar) *program {
	ana := g.Analysis()
	numSyms := g.Symbols().Len() + 1
	pr := &program{
		g:        g,
		version:  g.Version(),
		rules:    g.Rules(),
		rulesFor: make([][]int32, numSyms),
		nullable: make([]bool, numSyms),
		isNT:     make([]bool, numSyms),
		numSyms:  numSyms,
	}
	for _, s := range g.Symbols().Nonterminals() {
		pr.isNT[s] = true
		pr.nullable[s] = ana.Nullable(s)
	}
	pr.minSuffix = make([][]int32, len(pr.rules))
	for i, r := range pr.rules {
		pr.rulesFor[r.Lhs] = append(pr.rulesFor[r.Lhs], int32(i))
		suf := make([]int32, len(r.Rhs)+1)
		for q := len(r.Rhs) - 1; q >= 0; q-- {
			w := int32(1)
			if s := r.Rhs[q]; pr.isNT[s] && pr.nullable[s] {
				w = 0
			}
			suf[q] = suf[q+1] + w
		}
		pr.minSuffix[i] = suf
	}
	pr.startRules = pr.rulesFor[g.Start()]
	return pr
}
