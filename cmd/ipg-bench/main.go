// ipg-bench regenerates Fig 7.1 of the paper: for the three parser
// generators (Yacc→LALR(1), PG→conventional LR(0), IPG→lazy incremental
// LR(0)) and the four SDF inputs it measures construct / parse ×2 /
// modify / parse ×2 and prints the series the figure plots.
//
// With -engines it instead runs the cross-engine comparison: the same
// workloads (deterministic calculator, its LL(1) factoring, the SDF
// bootstrap inputs) through every backend of internal/engine — lazy
// GLR, LALR(1), LL(1), Earley and auto — measuring construct time,
// cold (lazy warm-up), steady-state recognition and tree-building
// passes, allocations and bytes per steady pass, and per-sentence
// latency percentiles (p50/p95/p99). -json writes the machine-readable
// results (the engine report CI uploads as bench-engines.json; no test
// reads it, the gates measure live).
//
// With -compare it reads two such reports, a parent's and a change's,
// and prints each (workload, engine) row's tree_parse_ns, parse_ns and
// bytes_per_op side by side with the change's relative delta. A side
// may name several reports, comma-separated; it then shows the median
// with the quartiles beside it.
//
// Usage:
//
//	ipg-bench [-testdata dir] [-repeat n]
//	ipg-bench -engines [-json bench-engines.json]
//	ipg-bench -compare parent.json[,parent2.json...] change.json[,change2.json...]
//	ipg-bench -edits | -churn
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"ipg/internal/harness"
	"ipg/internal/sdf"
)

func main() {
	dir := flag.String("testdata", "testdata", "directory holding the four .sdf inputs")
	repeat := flag.Int("repeat", 5, "repetitions per cell (minimum is kept)")
	engines := flag.Bool("engines", false, "run the cross-engine comparison instead of Fig 7.1")
	edits := flag.Bool("edits", false, "run the edit workload (incremental reparse vs from-scratch) instead of Fig 7.1")
	churn := flag.Bool("churn", false, "run the churn workload (in-place LALR table repair vs regeneration) instead of Fig 7.1")
	complete := flag.Bool("complete", false, "run the completion workload (accept-set queries and cursor feed/restore per backend) instead of Fig 7.1")
	jsonPath := flag.String("json", "", "also write machine-readable results to this file (-engines mode)")
	compare := flag.Bool("compare", false, "compare two -engines -json reports given as arguments: parent then change, each a comma-separated list of files")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("usage: ipg-bench -compare parent.json[,...] change.json[,...]")
		}
		parent, err := readEngineReports(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		change, err := readEngineReports(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		compareEngines(os.Stdout, parent, change)
		return
	}

	if *engines {
		runEngines(*dir, *repeat, *jsonPath)
		return
	}
	if *edits {
		results, err := harness.RunEdits(*dir, *repeat)
		if err != nil {
			log.Fatal(err)
		}
		printEdits(results)
		return
	}
	if *churn {
		results, err := harness.RunChurn(*dir, *repeat)
		if err != nil {
			log.Fatal(err)
		}
		printChurn(results)
		return
	}
	if *complete {
		results, err := harness.RunComplete(*dir, *repeat)
		if err != nil {
			log.Fatal(err)
		}
		printComplete(results)
		return
	}

	g := sdf.MustBootstrapGrammar()
	inputs, err := harness.LoadInputs(*dir, g.Symbols())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Fig 7.1 — construct / parse1 / parse2 / modify / parse1' / parse2'")
	fmt.Println("(wall clock; excludes the C compile the paper's Yacc paid per change)")
	fmt.Println()

	for _, input := range inputs {
		fmt.Printf("%s (%d tokens)\n", input.Name, harness.SentenceLen(input.Tokens))
		fmt.Printf("  %-5s %12s %12s %12s %12s %12s %12s\n",
			"", "construct", "parse1", "parse2", "modify", "parse1'", "parse2'")
		for _, sys := range harness.Systems {
			t, err := harness.RunBest(sys, input, *repeat)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-5s", sys)
			for _, d := range t.ByPhase() {
				fmt.Printf(" %12s", fmtDur(d))
			}
			fmt.Println()
		}
		fmt.Println()
	}
}

// engineReport is the -json envelope of the cross-engine run.
type engineReport struct {
	Bench   string                 `json:"bench"`
	Go      string                 `json:"go"`
	Arch    string                 `json:"arch"`
	Repeat  int                    `json:"repeat"`
	Results []harness.EngineResult `json:"results"`
	// Edits is the incremental-reparse edit workload: splice cost vs
	// edit position and width over the SDF fixtures (see
	// harness.RunEdits).
	Edits []harness.EditResult `json:"edits,omitempty"`
	// Churn is the grammar-churn workload: in-place LALR(1) table repair
	// vs full regeneration per single-rule update over the SDF fixtures
	// (see harness.RunChurn).
	Churn []harness.ChurnResult `json:"churn,omitempty"`
	// Complete is the completion workload: warm accept-set query and
	// cursor feed/restore cost per backend and prefix depth (see
	// harness.RunComplete).
	Complete []harness.CompleteResult `json:"complete,omitempty"`
}

func runEngines(dir string, repeat int, jsonPath string) {
	workloads, err := harness.EngineWorkloads(dir)
	if err != nil {
		log.Fatal(err)
	}
	results := harness.RunEngines(workloads, repeat)

	fmt.Println("Cross-engine comparison — construct / cold parse / steady parse / tree parse (best of", repeat, "runs)")
	fmt.Println("(allocs and bytes per steady recognition pass; p50/p95/p99 per-sentence latency)")
	fmt.Println()
	current := ""
	for _, r := range results {
		if r.Workload != current {
			current = r.Workload
			fmt.Printf("%s (%d sentences, %d tokens)\n", r.Workload, r.Sentences, r.Tokens)
			fmt.Printf("  %-8s %12s %12s %12s %12s %14s %10s %10s %10s %10s %10s\n",
				"", "construct", "cold", "steady", "trees", "tokens/s", "allocs/op", "B/op", "p50", "p95", "p99")
		}
		if r.Error != "" {
			fmt.Printf("  %-8s %s\n", r.Engine, r.Error)
			continue
		}
		name := r.Engine
		if r.Selected != "" {
			name = fmt.Sprintf("%s→%s", r.Engine, r.Selected)
		}
		trees := "-"
		if r.TreeParseNS > 0 {
			trees = fmtDur(time.Duration(r.TreeParseNS))
		}
		fmt.Printf("  %-8s %12s %12s %12s %12s %14.0f %10d %10d %10s %10s %10s\n", name,
			fmtDur(time.Duration(r.ConstructNS)),
			fmtDur(time.Duration(r.WarmParseNS)),
			fmtDur(time.Duration(r.ParseNS)),
			trees,
			r.TokensPerSec,
			r.AllocsPerOp, r.BytesPerOp,
			fmtDur(time.Duration(r.P50NS)),
			fmtDur(time.Duration(r.P95NS)),
			fmtDur(time.Duration(r.P99NS)))
		if r.Reason != "" {
			fmt.Printf("  %-8s   %s\n", "", r.Reason)
		}
	}

	editResults, err := harness.RunEdits(dir, repeat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	printEdits(editResults)

	churnResults, err := harness.RunChurn(dir, repeat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	printChurn(churnResults)

	completeResults, err := harness.RunComplete(dir, repeat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	printComplete(completeResults)

	if jsonPath == "" {
		return
	}
	report := engineReport{
		Bench: "engines", Go: runtime.Version(), Arch: runtime.GOARCH,
		Repeat: repeat, Results: results, Edits: editResults, Churn: churnResults,
		Complete: completeResults,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s\n", jsonPath)
}

func printEdits(results []harness.EditResult) {
	fmt.Println("Edit workload — warm splice+reparse on a retained chart vs from-scratch parse")
	fmt.Println("(touch edits; reused/rebuilt split the item sets of the reparse)")
	fmt.Println()
	current := ""
	for _, r := range results {
		if r.Fixture != current {
			current = r.Fixture
			fmt.Printf("%s (%d tokens)\n", r.Fixture, r.Tokens)
			fmt.Printf("  %6s %5s %12s %12s %8s %8s %9s %10s\n",
				"pos", "len", "full", "reparse", "speedup", "reused", "rebuilt", "allocs/op")
		}
		fmt.Printf("  %6d %5d %12s %12s %7.1fx %8d %9d %10d\n",
			r.EditPos, r.EditLen,
			fmtDur(time.Duration(r.FullNS)), fmtDur(time.Duration(r.ReparseNS)),
			r.Speedup, r.SetsReused, r.SetsRebuilt, r.AllocsPerOp)
	}
}

func printChurn(results []harness.ChurnResult) {
	fmt.Println("Churn workload — in-place LALR(1) table repair vs full regeneration")
	fmt.Println("(one fresh-terminal rule added+deleted per nonterminal; affected = damage-set size)")
	fmt.Println()
	current := ""
	for _, r := range results {
		if r.Fixture != current {
			current = r.Fixture
			fmt.Printf("%s (%d states)\n", r.Fixture, r.States)
			fmt.Printf("  %-24s %8s %9s %12s %12s %8s %10s\n",
				"nonterminal", "affected", "rederived", "repair", "regen", "speedup", "allocs/op")
		}
		if r.FellBack {
			fmt.Printf("  %-24s %8d %9s %12s %12s %8s %10s\n",
				r.Nonterminal, r.Affected, "-", "fell back", fmtDur(time.Duration(r.RegenNS)), "-", "-")
			continue
		}
		fmt.Printf("  %-24s %8d %9d %12s %12s %7.1fx %10d\n",
			r.Nonterminal, r.Affected, r.Rederived,
			fmtDur(time.Duration(r.RepairNS)), fmtDur(time.Duration(r.RegenNS)),
			r.Speedup, r.RepairAllocs)
	}
}

func printComplete(results []harness.CompleteResult) {
	fmt.Println("Completion workload — warm accept-set query and feed+restore cycle per cursor position")
	fmt.Println("(one accept-set read per generated token is the constrained-decoding rate)")
	fmt.Println()
	current := ""
	for _, r := range results {
		key := r.Workload + "/" + r.Engine
		if key != current {
			current = key
			fmt.Printf("%s %s\n", r.Workload, r.Engine)
			fmt.Printf("  %6s %12s %14s %10s %12s %10s %12s\n",
				"prefix", "accept", "accepts/s", "allocs/op", "feed+rest", "allocs/op", "open")
		}
		if r.Error != "" {
			fmt.Printf("  %6d %s\n", r.PrefixLen, r.Error)
			continue
		}
		feed := "-"
		if r.FeedNS > 0 {
			feed = fmtDur(time.Duration(r.FeedNS))
		}
		fmt.Printf("  %6d %12s %14.0f %10d %12s %10d %12s\n",
			r.PrefixLen, fmtDur(time.Duration(r.AcceptNS)), r.AcceptsPerSec,
			r.AcceptAllocs, feed, r.FeedAllocs, fmtDur(time.Duration(r.OpenNS)))
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	default:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
}
