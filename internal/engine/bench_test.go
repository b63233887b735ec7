// BenchmarkEngines lives in the external test package so it can reuse
// the harness's cross-engine workloads (the same sentences `ipg-bench
// -engines` measures — one generator, no drift between the two
// comparisons); the harness imports engine, so the internal test
// package cannot import it back.
package engine_test

import (
	"sort"
	"testing"
	"time"

	"ipg/internal/engine"
	"ipg/internal/grammar"
	"ipg/internal/harness"
)

// benchWorkload fetches one named harness workload.
func benchWorkload(b *testing.B, name string) (*grammar.Grammar, [][]grammar.Symbol) {
	b.Helper()
	workloads, err := harness.EngineWorkloads("../../testdata")
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workloads {
		if w.Name == name {
			return w.Grammar, w.Sentences
		}
	}
	b.Fatalf("no workload %q", name)
	return nil, nil
}

// reportPercentiles attaches p50/p95/p99 per-sentence latency metrics
// from a sample of sentence durations, using the same nearest-rank
// formula as the ipg-bench JSON artifact (harness.PercentileNS).
func reportPercentiles(b *testing.B, samples []time.Duration) {
	if len(samples) == 0 {
		return
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	b.ReportMetric(float64(harness.PercentileNS(samples, 0.50)), "p50-ns")
	b.ReportMetric(float64(harness.PercentileNS(samples, 0.95)), "p95-ns")
	b.ReportMetric(float64(harness.PercentileNS(samples, 0.99)), "p99-ns")
}

// maxLatencySamples caps the per-sentence latency reservoir so long
// -benchtime runs do not grow memory without bound.
const maxLatencySamples = 1 << 14

// BenchmarkEngines compares the backends on the deterministic calculator
// workload — the per-grammar selection argument in numbers: the LALR(1)
// path (deterministic LR driver, eager table) must beat lazy GLR (GSS
// over LR(0), which splits on every unresolved reduce), and Earley trails
// both by orders of magnitude. engine=auto picks LALR here and should
// match it to within noise. Each row also reports allocs/op and bytes/op
// (one op = a full workload pass) and per-sentence latency percentiles —
// the steady-state allocation budget this PR's arena/workspace layer pins
// near zero for the LR-family engines.
func BenchmarkEngines(b *testing.B) {
	for _, kind := range []engine.Kind{engine.KindGLR, engine.KindLALR, engine.KindEarley, engine.KindAuto} {
		b.Run(kind.String(), func(b *testing.B) {
			g, workload := benchWorkload(b, "calc-det")
			e, err := engine.New(kind, g)
			if err != nil {
				b.Fatal(err)
			}
			var tokens int
			for _, toks := range workload {
				tokens += harness.SentenceLen(toks)
			}
			// Warm the lazy table so the steady state is measured (the
			// construct-vs-parse tradeoff is ipg-bench's subject).
			for _, toks := range workload {
				if ok, err := e.Recognize(toks); err != nil || !ok {
					b.Fatalf("%v rejected workload sentence: %v", kind, err)
				}
			}
			samples := make([]time.Duration, 0, maxLatencySamples)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, toks := range workload {
					t0 := time.Now()
					if _, err := e.Parse(toks, false); err != nil {
						b.Fatal(err)
					}
					if len(samples) < maxLatencySamples {
						samples = append(samples, time.Since(t0))
					}
				}
			}
			b.ReportMetric(float64(tokens*b.N)/b.Elapsed().Seconds(), "tokens/s")
			reportPercentiles(b, samples)
		})
	}

	// The LL(1) variant parses the same language from the factored
	// grammar — the predictive row of Fig 2.1.
	b.Run("ll", func(b *testing.B) {
		g, workload := benchWorkload(b, "calc-ll")
		e, err := engine.New(engine.KindLL, g)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, toks := range workload {
				if _, err := e.Parse(toks, false); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
