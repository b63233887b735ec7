package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ipg/internal/engine"
	"ipg/internal/grammar"
	"ipg/internal/lang"
	"ipg/internal/sdf"
)

// This file is the cross-engine measurement procedure behind
// `ipg-bench -engines`: the same workloads driven through every backend
// of internal/engine, producing the construct/parse numbers that justify
// per-grammar engine selection (LALR on deterministic grammars, lazy GLR
// on ambiguous ones, Earley as the table-free floor).

// EngineWorkload is one named workload: a grammar plus pre-tokenized
// sentences.
type EngineWorkload struct {
	// Name identifies the workload in results.
	Name string
	// Grammar is the workload's grammar (shared read-only by engines).
	Grammar *grammar.Grammar
	// Sentences are the pre-tokenized inputs, all accepted by the
	// grammar.
	Sentences [][]grammar.Symbol
	// Kinds are the backends measured on this workload (LL is absent
	// where the grammar is not LL(1)).
	Kinds []engine.Kind
}

// exprSentences builds a deterministic expression workload: n sentences
// of growing size mixing the four operators and parentheses. No
// randomness, so runs are comparable.
func exprSentences(g *grammar.Grammar, n int) ([][]grammar.Symbol, error) {
	front := lang.New(g)
	ops := []string{"+", "-", "*", "/"}
	out := make([][]grammar.Symbol, 0, n)
	for i := 0; i < n; i++ {
		var b strings.Builder
		terms := 3 + i%8
		for t := 0; t < terms; t++ {
			if t > 0 {
				b.WriteString(" " + ops[(i+t)%len(ops)] + " ")
			}
			if (i+t)%3 == 0 {
				b.WriteString("( n " + ops[t%len(ops)] + " n )")
			} else {
				b.WriteString("n")
			}
		}
		// EOF-terminated: steady-state engine passes measure the
		// zero-copy warm path, exactly like service traffic.
		toks, err := front.Tokens(b.String())
		if err != nil {
			return nil, err
		}
		out = append(out, toks)
	}
	return out, nil
}

// EngineWorkloads builds the standard cross-engine workloads from the
// testdata directory: the stratified calculator (deterministic, not
// LL(1)), its LL(1) factoring, the genuinely ambiguous SDF calculator
// (Calc.sdf — flat `EXP op EXP` rules disambiguated by priorities, so
// auto must keep lazy GLR), and the paper's own SDF inputs over the
// bootstrap grammar (exp.sdf and Exam.sdf — the sizes Earley can take
// repeatedly; Fig 7.1 covers the big ones). The bootstrap grammar
// turns out LALR(1)-conflict-free — it splits under LR(0) lookahead-
// less parsing but is deterministic with one token of lookahead — so
// only the Calc.sdf workload exercises the GLR-or-nothing case.
func EngineWorkloads(dir string) ([]EngineWorkload, error) {
	loadBNF := func(name string) (*grammar.Grammar, error) {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		return grammar.Parse(string(src), nil)
	}

	det, err := loadBNF("CalcDet.bnf")
	if err != nil {
		return nil, err
	}
	detSentences, err := exprSentences(det, 64)
	if err != nil {
		return nil, err
	}
	llg, err := loadBNF("CalcLL.bnf")
	if err != nil {
		return nil, err
	}
	llSentences, err := exprSentences(llg, 64)
	if err != nil {
		return nil, err
	}

	calcG, calcSentences, err := calcSDFWorkload(dir)
	if err != nil {
		return nil, err
	}

	sdfG := sdf.MustBootstrapGrammar()
	inputs, err := LoadInputs(dir, sdfG)
	if err != nil {
		return nil, err
	}
	var sdfSentences [][]grammar.Symbol
	for _, in := range inputs {
		if len(in.Tokens) <= 200 {
			sdfSentences = append(sdfSentences, in.Tokens)
		}
	}

	return []EngineWorkload{
		{
			Name: "calc-det", Grammar: det, Sentences: detSentences,
			Kinds: []engine.Kind{engine.KindGLR, engine.KindLALR, engine.KindEarley, engine.KindAuto},
		},
		{
			Name: "calc-ll", Grammar: llg, Sentences: llSentences,
			Kinds: []engine.Kind{engine.KindGLR, engine.KindLALR, engine.KindLL, engine.KindEarley, engine.KindAuto},
		},
		{
			Name: "calc-sdf-ambiguous", Grammar: calcG, Sentences: calcSentences,
			Kinds: []engine.Kind{engine.KindGLR, engine.KindLALR, engine.KindEarley, engine.KindAuto},
		},
		{
			Name: "sdf-bootstrap", Grammar: sdfG, Sentences: sdfSentences,
			Kinds: []engine.Kind{engine.KindGLR, engine.KindLALR, engine.KindEarley, engine.KindAuto},
		},
	}, nil
}

// calcSDFWorkload loads the ambiguous SDF calculator and tokenizes a
// deterministic set of numeric expressions with its generated scanner.
func calcSDFWorkload(dir string) (*grammar.Grammar, [][]grammar.Symbol, error) {
	src, err := os.ReadFile(filepath.Join(dir, "Calc.sdf"))
	if err != nil {
		return nil, nil, err
	}
	front, err := lang.LoadSDF(string(src), "")
	if err != nil {
		return nil, nil, err
	}
	ops := []string{"+", "-", "*", "/", "^"}
	var sentences [][]grammar.Symbol
	for i := 0; i < 32; i++ {
		var b strings.Builder
		terms := 3 + i%6
		for t := 0; t < terms; t++ {
			if t > 0 {
				b.WriteString(" " + ops[(i+t)%len(ops)] + " ")
			}
			fmt.Fprintf(&b, "%d", 1+(i+t)%9)
		}
		toks, err := front.InputTokens(b.String())
		if err != nil {
			return nil, nil, err
		}
		sentences = append(sentences, toks)
	}
	return front.Grammar(), sentences, nil
}

// EngineResult is one (workload, engine) measurement.
type EngineResult struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	// Selected and Reason report auto's concrete choice.
	Selected string `json:"selected,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// ConstructNS is engine construction (eager backends pay table
	// generation here; lazy ones defer it into the first parses).
	ConstructNS int64 `json:"construct_ns"`
	// ParseNS is one full pass over the workload, recognition only,
	// after a warm-up pass (so lazy tables are measured in steady
	// state; warm-up cost is WarmParseNS).
	ParseNS int64 `json:"parse_ns"`
	// TreeParseNS is one steady-state pass with forest construction on
	// — the cost of actually answering with trees. Zero for backends
	// without tree building.
	TreeParseNS int64 `json:"tree_parse_ns,omitempty"`
	// WarmParseNS is the first, cold pass — for lazy GLR it includes
	// the by-need table expansion.
	WarmParseNS int64 `json:"warm_parse_ns"`
	Sentences   int   `json:"sentences"`
	Tokens      int   `json:"tokens"`
	// TokensPerSec is the steady-state throughput.
	TokensPerSec float64 `json:"tokens_per_sec"`
	// AllocsPerOp and BytesPerOp are heap allocations and bytes per
	// steady-state pass (one full recognition pass over the workload) —
	// the numbers the allocation-regression CI gate compares against.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// TreeAllocsPerOp and TreeBytesPerOp are the same for the fastest
	// tree-building pass: what answering with forests costs in heap.
	TreeAllocsPerOp int64 `json:"tree_allocs_per_op,omitempty"`
	TreeBytesPerOp  int64 `json:"tree_bytes_per_op,omitempty"`
	// P50NS/P95NS/P99NS are steady-state per-sentence latency
	// percentiles in nanoseconds.
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
	// Error marks backends a workload cannot use (e.g. LL on a
	// left-recursive grammar).
	Error string `json:"error,omitempty"`
}

// engineRun is one measured run of one backend over one workload.
type engineRun struct {
	construct, warm, parse, treeParse time.Duration
	// allocs/bytes are the heap cost of one steady pass and treeAllocs/
	// treeBytes of the tree pass; latencies the per-sentence durations
	// of the steady pass (sorted).
	allocs, bytes         int64
	treeAllocs, treeBytes int64
	latencies             []time.Duration
	selected              string
	reason                string
}

// RunEngines measures every workload under each of its backends,
// repeating `repeat` times and keeping per-phase minima (scheduler-noise
// damping, as in Fig 7.1's procedure). Allocation counts take the
// minimum too (GC noise only adds); latency percentiles come from the
// fastest instrumented pass.
func RunEngines(workloads []EngineWorkload, repeat int) []EngineResult {
	if repeat < 1 {
		repeat = 1
	}
	var out []EngineResult
	for _, w := range workloads {
		tokens := 0
		for _, s := range w.Sentences {
			tokens += SentenceLen(s)
		}
		for _, kind := range w.Kinds {
			res := EngineResult{
				Workload: w.Name, Engine: kind.String(),
				Sentences: len(w.Sentences), Tokens: tokens,
			}
			for i := 0; i < repeat; i++ {
				run, err := runEnginesOnce(kind, w)
				if err != nil {
					res.Error = err.Error()
					break
				}
				if i == 0 || run.construct < time.Duration(res.ConstructNS) {
					res.ConstructNS = run.construct.Nanoseconds()
				}
				if i == 0 || run.warm < time.Duration(res.WarmParseNS) {
					res.WarmParseNS = run.warm.Nanoseconds()
				}
				if run.treeParse > 0 && (res.TreeParseNS == 0 || run.treeParse < time.Duration(res.TreeParseNS)) {
					res.TreeParseNS = run.treeParse.Nanoseconds()
					res.TreeAllocsPerOp, res.TreeBytesPerOp = run.treeAllocs, run.treeBytes
				}
				if i == 0 || run.parse < time.Duration(res.ParseNS) {
					res.ParseNS = run.parse.Nanoseconds()
					res.P50NS = PercentileNS(run.latencies, 0.50)
					res.P95NS = PercentileNS(run.latencies, 0.95)
					res.P99NS = PercentileNS(run.latencies, 0.99)
				}
				if i == 0 || run.allocs < res.AllocsPerOp {
					res.AllocsPerOp = run.allocs
					res.BytesPerOp = run.bytes
				}
				res.Selected, res.Reason = run.selected, run.reason
			}
			if res.Error == "" && res.ParseNS > 0 {
				res.TokensPerSec = float64(tokens) / (float64(res.ParseNS) / 1e9)
			}
			out = append(out, res)
		}
	}
	return out
}

// SentenceLen is the real token count of an (EOF-terminated) sentence:
// the end marker is a framing convention, not input, so throughput and
// size columns exclude it — keeping tokens/s comparable with reports
// produced before the streams carried the marker.
func SentenceLen(s []grammar.Symbol) int {
	if n := len(s); n > 0 && s[n-1] == grammar.EOF {
		return n - 1
	}
	return len(s)
}

// PercentileNS reads the q-th percentile (nearest rank) from sorted
// per-sentence latencies; the engine benchmarks share it so their
// percentile columns and the -json artifact cannot diverge.
func PercentileNS(sorted []time.Duration, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Nanoseconds()
}

func runEnginesOnce(kind engine.Kind, w EngineWorkload) (engineRun, error) {
	var run engineRun
	start := time.Now()
	e, err := engine.New(kind, w.Grammar)
	if err != nil {
		return run, err
	}
	run.construct = time.Since(start)
	if kind == engine.KindAuto {
		run.selected, run.reason = e.Kind().String(), e.Reason()
	}

	pass := func() (time.Duration, error) {
		start := time.Now()
		for _, s := range w.Sentences {
			ok, err := e.Recognize(s)
			if err != nil {
				return 0, err
			}
			if !ok {
				return 0, errors.New("harness: engine rejected a workload sentence")
			}
		}
		return time.Since(start), nil
	}
	if run.warm, err = pass(); err != nil {
		return run, err
	}
	if run.parse, err = pass(); err != nil {
		return run, err
	}

	// Tree-building steady pass, where the backend supports it: since
	// the Earley overhaul that is every engine except none — the column
	// compares what answering with forests actually costs, in time and,
	// read outside the clock, in heap.
	if e.Caps().Trees {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for _, s := range w.Sentences {
			res, err := e.Parse(s, true)
			if err != nil {
				return run, err
			}
			if !res.Accepted {
				return run, errors.New("harness: engine rejected a workload sentence (tree pass)")
			}
		}
		run.treeParse = time.Since(start)
		runtime.ReadMemStats(&ms1)
		run.treeAllocs, run.treeBytes = int64(ms1.Mallocs-ms0.Mallocs), int64(ms1.TotalAlloc-ms0.TotalAlloc)
	}

	// Instrumented steady pass: per-sentence latencies plus the heap
	// cost of one pass (measured apart from the timed pass above, so
	// ReadMemStats and per-sentence clock reads do not pollute ns/op).
	// Like testing.AllocsPerRun, it runs on one P, after a warm-up pass
	// there: a pass that moves between Ps misses the per-P caches of
	// the engines' sync.Pools and counts fresh scratch as allocations.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := pass(); err != nil {
		return run, err
	}
	run.latencies = make([]time.Duration, 0, len(w.Sentences))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, s := range w.Sentences {
		t0 := time.Now()
		ok, err := e.Recognize(s)
		run.latencies = append(run.latencies, time.Since(t0))
		if err != nil {
			return run, err
		}
		if !ok {
			return run, errors.New("harness: engine rejected a workload sentence")
		}
	}
	runtime.ReadMemStats(&ms1)
	run.allocs = int64(ms1.Mallocs - ms0.Mallocs)
	run.bytes = int64(ms1.TotalAlloc - ms0.TotalAlloc)
	sort.Slice(run.latencies, func(i, j int) bool { return run.latencies[i] < run.latencies[j] })
	return run, nil
}
