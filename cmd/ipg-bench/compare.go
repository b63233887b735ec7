package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"ipg/internal/harness"
)

// compareMetrics are the engine-report columns -compare sets side by
// side: the steady tree-building pass, the steady recognition pass and
// its heap bytes.
var compareMetrics = []struct {
	name  string
	value func(harness.EngineResult) int64
	dur   bool
}{
	{"tree_parse_ns", func(r harness.EngineResult) int64 { return r.TreeParseNS }, true},
	{"parse_ns", func(r harness.EngineResult) int64 { return r.ParseNS }, true},
	{"bytes_per_op", func(r harness.EngineResult) int64 { return r.BytesPerOp }, false},
}

// readEngineReports reads the -engines -json reports of one side of a
// comparison: a comma-separated list of files.
func readEngineReports(side string) ([]engineReport, error) {
	var out []engineReport
	for _, path := range strings.Split(side, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r engineReport
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Bench != "engines" {
			return nil, fmt.Errorf("%s: not an -engines report", path)
		}
		out = append(out, r)
	}
	return out, nil
}

// rowKey names one (workload, engine) row of an engine report.
type rowKey struct{ workload, engine string }

// sideValues collects each row's values of one metric over a side's
// reports; rows that failed in a report contribute nothing.
func sideValues(reports []engineReport, value func(harness.EngineResult) int64) map[rowKey][]float64 {
	out := map[rowKey][]float64{}
	for _, rep := range reports {
		for _, r := range rep.Results {
			if r.Error != "" {
				continue
			}
			k := rowKey{r.Workload, r.Engine}
			out[k] = append(out[k], float64(value(r)))
		}
	}
	return out
}

// rowOrder lists the rows of both sides, the parent's order first.
func rowOrder(parent, change []engineReport) []rowKey {
	var keys []rowKey
	seen := map[rowKey]bool{}
	for _, side := range [][]engineReport{parent, change} {
		for _, rep := range side {
			for _, r := range rep.Results {
				if k := (rowKey{r.Workload, r.Engine}); !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
	}
	return keys
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default, exclusive method),
// the convention of the service benchmark's -compare. xs needs at least
// two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	m := len(d) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summarize reads one side of a row: the value itself from one report,
// else the median with the quartiles beside it.
func summarize(xs []float64, dur bool) (mid float64, text string) {
	f := func(x float64) string {
		if dur {
			return fmtDur(time.Duration(x))
		}
		return fmt.Sprintf("%.0f", x)
	}
	switch len(xs) {
	case 0:
		return 0, "-"
	case 1:
		return xs[0], f(xs[0])
	}
	q1, q2, q3 := quartiles(xs)
	return q2, fmt.Sprintf("%s [%s, %s]", f(q2), f(q1), f(q3))
}

// compareEngines prints, for every (workload, engine) row of the two
// sides, each side's tree_parse_ns, parse_ns and bytes_per_op and the
// change's relative delta against the parent.
func compareEngines(w io.Writer, parent, change []engineReport) {
	fmt.Fprintf(w, "Engine comparison — parent (%d report(s)) vs change (%d report(s))\n", len(parent), len(change))
	if len(parent) > 1 || len(change) > 1 {
		fmt.Fprintln(w, "(a side of several reports shows median [q1, q3])")
	}
	fmt.Fprintf(w, "%-28s %-14s %30s %30s %9s\n", "workload/engine", "metric", "parent", "change", "delta")
	pv := make([]map[rowKey][]float64, len(compareMetrics))
	cv := make([]map[rowKey][]float64, len(compareMetrics))
	for i, m := range compareMetrics {
		pv[i], cv[i] = sideValues(parent, m.value), sideValues(change, m.value)
	}
	for _, k := range rowOrder(parent, change) {
		label := k.workload + "/" + k.engine
		for i, m := range compareMetrics {
			a, at := summarize(pv[i][k], m.dur)
			b, bt := summarize(cv[i][k], m.dur)
			delta := "-"
			if len(pv[i][k]) > 0 && len(cv[i][k]) > 0 && a != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(b-a)/a)
			}
			fmt.Fprintf(w, "%-28s %-14s %30s %30s %9s\n", label, m.name, at, bt, delta)
			label = ""
		}
	}
}
