package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// metricDef declares one metric. BENCHMARK.json at the repository root
// lists the same metrics with their bounds; TestBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service sees that repeat
// within their bound from run to run, printed by an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_mb", "MiB", "lower"},
}

// perLayer are the metrics printed by a traced run: first the service's
// latency, capacity and CPU cost, which a user sees but which vary from
// run to run by more than a bound of 10 % (bench/README.md gives the
// spreads), then the metrics of single layers. bench/README.md maps each
// layer metric to the metric and workload it should move.
var perLayer = []metricDef{
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"capacity_rps", "1/s", "higher"},
	{"cpu_us_per_req", "us", "lower"},
	{"glr.recognize_us", "us", "lower"},
	{"forest.build_us", "us", "lower"},
	{"isg.tokenize_us", "us", "lower"},
	{"stage.tokenize_us", "us", "lower"},
	{"stage.table_us", "us", "lower"},
	{"stage.forest_us", "us", "lower"},
	{"http.self_us", "us", "lower"},
	{"http.resp_bytes", "bytes", "lower"},
	{"serve.self_us", "us", "lower"},
	{"serve.allocs_per_req", "count", "lower"},
	{"registry.self_us", "us", "lower"},
	{"registry.allocs_per_req", "count", "lower"},
	{"engine.cursor_step_us", "us", "lower"},
	{"stage.complete_us", "us", "lower"},
	{"glr.reparse_us", "us", "lower"},
	{"stage.reuse_us", "us", "lower"},
	{"earley.reparse_us", "us", "lower"},
	{"earley.sets_reused_ratio", "ratio", "higher"},
	{"stage.residual_us", "us", "lower"},
	{"stage.admit_us", "us", "lower"},
	{"stage.repair_us", "us", "lower"},
	{"update_p50_ms", "ms", "lower"},
	{"core.states_invalidated_per_update", "count", "lower"},
	{"core.states_reexpanded_per_update", "count", "lower"},
	{"core.states_expanded_setup", "count", "lower"},
	{"core.states_expanded_steady", "count", "lower"},
	{"core.cache_hit_ratio", "ratio", "higher"},
	{"loadgen.late_p50_ms", "ms", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.cpu_pct", "%", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
	{"obs.trace_capacity_pct", "%", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable summary a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as -out appends it (one JSON object per line):
// the result plus what produced it, so -compare can group runs.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// values holds a run's measured metrics by name, with a note per metric
// for the human-readable report.
type values struct {
	v    map[string]float64
	note map[string]string
}

func newValues() *values {
	return &values{v: map[string]float64{}, note: map[string]string{}}
}

func (vs *values) set(name string, v float64, note string) {
	vs.v[name] = v
	if note != "" {
		vs.note[name] = note
	}
}

// result renders the declared metrics defs from vs. A metric that was
// not measured, or came out non-finite because every sample of it
// failed, is an error.
func (vs *values) result(defs []metricDef, attempted, failed int64) (result, error) {
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := vs.v[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s not measured", d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// report prints every declared metric the run measured in a table, with
// its note (sample counts and sources); the result line holds only the
// mode's own list.
func (vs *values) report(w io.Writer, title string) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if v, ok := vs.v[d.name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %-6s %s\n", d.name, v, d.unit, vs.note[d.name])
		}
	}
}

// jsonLine renders res as one line of JSON.
func jsonLine(res result) (string, error) {
	b, err := json.Marshal(res)
	return string(b), err
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
