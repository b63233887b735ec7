package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ipg/internal/grammar"
	"ipg/internal/lalr"
	"ipg/internal/lang"
)

// This file is the grammar-churn measurement behind `ipg-bench`'s churn
// section: interleaved AddRule/DeleteRule against the grammars defined
// by the paper's SDF fixtures, comparing the in-place LALR(1) table
// repair (lalr.Table.Repair) against full regeneration. The probe per
// nonterminal is a fresh-terminal rule — the smallest realistic edit a
// language developer makes — so the rows chart repair cost against
// damage size (how many states had the nonterminal in their closures).

// ChurnFixtures are the SDF definitions whose converted grammars the
// churn workload edits: the two large Fig 7.1 fixtures, whose tables
// are expensive enough to regenerate for locality to matter.
var ChurnFixtures = []string{"SDF.sdf", "ASF.sdf"}

// ChurnResult is one (fixture, nonterminal) probe of the churn
// workload: add `N ::= churn_i` (a fresh terminal), repair, delete it,
// repair again.
type ChurnResult struct {
	Fixture string `json:"fixture"`
	// Nonterminal is the probed rule's left-hand side; States the table
	// size the probe ran against.
	Nonterminal string `json:"nonterminal"`
	States      int    `json:"states"`
	// Affected is the damage-set size (states whose closures contained
	// the nonterminal); Repaired adds the states the splice created;
	// Rederived/Kept split the lookahead re-derivation.
	Affected  int `json:"affected_states"`
	Repaired  int `json:"repaired_states"`
	Rederived int `json:"rederived_states"`
	Kept      int `json:"kept_states"`
	// FellBack marks probes the repair declined (regenerated instead);
	// such rows carry no repair timing.
	FellBack bool `json:"fell_back"`
	// RepairNS is the best warm in-place repair of the rule addition;
	// RegenNS the fixture's best warm full regeneration; Speedup their
	// ratio.
	RepairNS int64   `json:"repair_ns"`
	RegenNS  int64   `json:"regen_ns"`
	Speedup  float64 `json:"speedup"`
	// RepairAllocs is the heap cost of one warm repair (averaged over an
	// add+delete roundtrip); RegenAllocs of one full regeneration. A
	// repair should allocate only for genuinely new states and moved
	// lookahead sets — a fraction of the regen cost.
	RepairAllocs int64 `json:"repair_allocs_per_op"`
	RegenAllocs  int64 `json:"regen_allocs_per_op"`
}

// RunChurn measures the churn workload over the SDF fixtures in dir,
// repeating each timed probe `repeat` times and keeping minima. The
// repaired table is checked against a from-scratch generation at the
// end of every fixture — a parity violation is an error, not a number.
func RunChurn(dir string, repeat int) ([]ChurnResult, error) {
	if repeat < 1 {
		repeat = 1
	}
	var out []ChurnResult
	for _, name := range ChurnFixtures {
		rows, err := runChurnOn(dir, name, repeat)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, rows...)
	}
	return out, nil
}

func runChurnOn(dir, name string, repeat int) ([]ChurnResult, error) {
	src, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	front, err := lang.LoadSDF(string(src), "")
	if err != nil {
		return nil, err
	}
	g := front.Grammar()

	// Full-regeneration baseline: best warm pass, plus its heap cost.
	var regen time.Duration
	for i := 0; i <= repeat; i++ {
		t0 := time.Now()
		lalr.Generate(g)
		if d := time.Since(t0); i == 0 || d < regen {
			regen = d
		}
	}
	const regenAllocRuns = 4
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < regenAllocRuns; i++ {
		lalr.Generate(g)
	}
	runtime.ReadMemStats(&ms1)
	regenAllocs := int64(ms1.Mallocs-ms0.Mallocs) / regenAllocRuns

	tbl := lalr.Generate(g)
	syms := g.Symbols()
	var out []ChurnResult
	for i, nt := range syms.Nonterminals() {
		if nt == g.Start() {
			continue
		}
		probe := grammar.NewRule(nt, syms.MustIntern(fmt.Sprintf("churn_%d", i), grammar.Terminal))
		if g.Has(probe) {
			continue
		}
		row := ChurnResult{
			Fixture:     name,
			Nonterminal: syms.Name(nt),
			States:      tbl.Automaton().Len(),
			RegenNS:     regen.Nanoseconds(),
			RegenAllocs: regenAllocs,
		}
		best := time.Duration(-1)
		// cycle adds the probe rule, repairs, deletes it, and repairs
		// again — the table is back to the fixture grammar after each
		// cycle. A declined repair regenerates (mirroring the engine) and
		// marks the row.
		cycle := func(timed bool) error {
			if err := g.AddRule(probe); err != nil {
				return err
			}
			t0 := time.Now()
			st := tbl.Repair(probe)
			d := time.Since(t0)
			if st.FellBack {
				row.FellBack = true
				tbl = lalr.Generate(g)
			} else if timed && (best < 0 || d < best) {
				best = d
				row.Affected = st.Affected
				row.Repaired = st.Affected + st.Created
				row.Rederived = st.Rederived
				row.Kept = st.Kept
			}
			stored, err := g.DeleteRule(probe)
			if err != nil {
				return err
			}
			if st := tbl.Repair(stored); st.FellBack {
				row.FellBack = true
				tbl = lalr.Generate(g)
			}
			return nil
		}
		// Warm the probe, then keep the best timed repair.
		if err := cycle(false); err != nil {
			return nil, err
		}
		for r := 0; r < repeat; r++ {
			if err := cycle(true); err != nil {
				return nil, err
			}
		}
		if best >= 0 {
			row.RepairNS = best.Nanoseconds()
			if row.RepairNS > 0 {
				row.Speedup = float64(row.RegenNS) / float64(row.RepairNS)
			}
		}
		// Heap cost of a warm roundtrip, amortized: two repairs per cycle.
		const allocRuns = 8
		runtime.ReadMemStats(&ms0)
		for r := 0; r < allocRuns; r++ {
			if err := cycle(false); err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&ms1)
		row.RepairAllocs = int64(ms1.Mallocs-ms0.Mallocs) / (2 * allocRuns)
		out = append(out, row)
	}
	// Repairs must leave the table action-identical to a from-scratch
	// generation of the (restored) grammar.
	if tbl.Signature() != lalr.Generate(g).Signature() {
		return nil, fmt.Errorf("repaired table diverges from regeneration after churn")
	}
	return out, nil
}
