package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// declaration is BENCHMARK.json's list of end-to-end metrics, which
// holds the bound each may worsen by.
type declaration struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readDeclaration(path string) (declaration, error) {
	var d declaration
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// readRuns reads a file of untraced runs as -out writes them.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default, exclusive method).
// xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	m := len(d) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// maxFailureRise is how far a change's share of failed requests on a
// workload may exceed the parent's before every metric of the workload
// reads worse: a gain bought with failures does not count.
const maxFailureRise = 0.001

// failureShare is the share of a workload's attempted requests that
// failed, over all runs.
func failureShare(runs []runRecord, workload string) (failed, attempted int64, share float64) {
	for _, r := range runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted, float64(failed) / float64(max(attempted, 1))
}

// verdict judges a change against its parent on one metric. Runs are
// paired in order. The change is worse whenever it failed more requests
// (moreFailures). Otherwise it is better when it wins at least nine
// tenths of the pairs and the medians differ by more than the parent's
// interquartile range; worse when its median is worse than the parent's
// by more than bound (a share of the parent's median) and the spread
// does not hide it; unresolved when either side's spread exceeds the
// bound; otherwise the same.
func verdict(parent, change []float64, bound float64, higherBetter, moreFailures bool) string {
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	a1, am, a3 := quartiles(parent)
	b1, bm, b3 := quartiles(change)
	pairs := min(len(parent), len(change))
	wins := 0
	for i := range pairs {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	gain := sign * (bm - am)
	spread := math.Max((a3-a1)/math.Abs(am), (b3-b1)/math.Abs(bm))
	// allWorse: every change run reads worse than every parent run.
	allWorse := slices.Min(change) > slices.Max(parent)
	if higherBetter {
		allWorse = slices.Max(change) < slices.Min(parent)
	}
	switch {
	case moreFailures:
		return "worse"
	case float64(wins) >= 0.9*float64(pairs) && gain > a3-a1:
		return "better"
	case -gain > bound*math.Abs(am) && (spread <= bound || allWorse):
		return "worse"
	case spread > bound:
		return "unresolved"
	default:
		return "same"
	}
}

// compareRuns prints, per workload, each side's failed and attempted
// requests, then one row per end-to-end metric: each side's median and
// quartiles, the change in the median, the bound and the verdict.
func compareRuns(w io.Writer, declPath, parentPath, changePath string) error {
	d, err := readDeclaration(declPath)
	if err != nil {
		return err
	}
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-16s %28s %28s %9s %6s  %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "delta", "bound", "verdict")
	for _, wl := range workloads {
		af, aa, ashare := failureShare(parent, wl.name)
		bf, ba, bshare := failureShare(change, wl.name)
		if aa == 0 || ba == 0 {
			continue
		}
		moreFailures := bshare > ashare+maxFailureRise
		failVerdict := "same"
		if moreFailures {
			failVerdict = "worse"
		}
		fmt.Fprintf(w, "%-8s %-16s %28s %28s %+8.4f %6.3f  %s\n", wl.name, "failed/attempted",
			fmt.Sprintf("%d/%d", af, aa), fmt.Sprintf("%d/%d", bf, ba), bshare-ashare, maxFailureRise, failVerdict)
		for _, m := range d.EndToEnd {
			a, b := metricValues(parent, wl.name, m.Name), metricValues(change, wl.name, m.Name)
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			fmt.Fprintf(w, "%-8s %-16s %28s %28s %+8.2f%% %5.0f%%  %s\n", wl.name, m.Name,
				fmt.Sprintf("%.5g [%.5g %.5g]", am, a1, a3), fmt.Sprintf("%.5g [%.5g %.5g]", bm, b1, b3),
				100*(bm/am-1), 100*m.Bound, verdict(a, b, m.Bound, m.Better == "higher", moreFailures))
		}
	}
	return nil
}

// metricValues collects one metric of one workload across runs, in file
// order.
func metricValues(runs []runRecord, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}
