package main

import (
	"strings"
	"testing"

	"ipg/internal/harness"
)

func report(rows ...harness.EngineResult) engineReport {
	return engineReport{Bench: "engines", Results: rows}
}

func row(workload, engine string, tree, parse, bytes int64) harness.EngineResult {
	return harness.EngineResult{Workload: workload, Engine: engine, TreeParseNS: tree, ParseNS: parse, BytesPerOp: bytes}
}

func TestCompareEnginesSingleReports(t *testing.T) {
	glrParent, glrChange := row("w", "glr", 2000, 1000, 400), row("w", "glr", 1000, 1000, 100)
	glrParent.TreeBytesPerOp, glrChange.TreeBytesPerOp = 5000, 4000
	parent := []engineReport{report(glrParent, row("w", "lalr", 500, 500, 0))}
	change := []engineReport{report(glrChange, row("w", "earley", 800, 700, 0))}
	var b strings.Builder
	compareEngines(&b, parent, change)
	out := b.String()
	for _, want := range []string{
		"w/glr", "tree_parse_ns", "-50.0%", "+0.0%", "-75.0%",
		"tree_bytes_per_op", "-20.0%",
		"w/lalr", "w/earley",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	// A row on one side only has no delta.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "w/earley") && !strings.HasSuffix(strings.TrimSpace(line), " -") {
			t.Errorf("one-sided row shows a delta: %q", line)
		}
	}
}

func TestCompareEnginesQuartiles(t *testing.T) {
	var parent, change []engineReport
	for _, v := range []int64{100, 200, 300, 400, 500} {
		parent = append(parent, report(row("w", "glr", 0, 0, v)))
		change = append(change, report(row("w", "glr", 0, 0, v/2)))
	}
	var b strings.Builder
	compareEngines(&b, parent, change)
	out := b.String()
	// Python's statistics.quantiles([100..500], n=4) is [150, 300, 450].
	for _, want := range []string{"300 [150, 450]", "150 [75, 225]", "-50.0%", "median [q1, q3]"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
