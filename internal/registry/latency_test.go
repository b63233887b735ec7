package registry

import (
	"context"
	"sync"
	"testing"
	"time"

	"ipg/internal/obs"
)

// TestLatencyEmptySnapshot pins the empty histogram's edge behavior:
// everything reports zero and nothing panics, so renderers can treat
// "no observations yet" uniformly.
func TestLatencyEmptySnapshot(t *testing.T) {
	var h latencyHist
	s := h.snapshot()
	if s.Count != 0 || s.SumUS != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
	if got := s.MeanUS(); got != 0 {
		t.Errorf("empty mean = %v, want 0", got)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got := s.PercentileUS(q); got != 0 {
			t.Errorf("empty p%v = %d, want 0", q*100, got)
		}
	}
	// Merging an empty snapshot is a no-op.
	var merged LatencySnapshot
	merged.Add(s)
	if merged.Count != 0 {
		t.Errorf("empty merge: %+v", merged)
	}
}

// TestLatencySingleBucketPercentiles puts every observation into one
// bucket: all percentiles must collapse onto that bucket's upper bound,
// including the extreme ranks where the rank arithmetic is easiest to
// get wrong.
func TestLatencySingleBucketPercentiles(t *testing.T) {
	tests := []struct {
		name string
		d    time.Duration
		want uint64 // LatencyBucketBound of the bucket d lands in
	}{
		{"sub-microsecond (bucket 0)", 500 * time.Nanosecond, LatencyBucketBound(0)},
		{"one microsecond", time.Microsecond, LatencyBucketBound(1)},
		{"mid-range", 100 * time.Microsecond, LatencyBucketBound(7)},
		{"overflow bucket", time.Hour, LatencyBucketBound(LatencyBuckets - 1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var h latencyHist
			for i := 0; i < 7; i++ {
				h.observe(tt.d)
			}
			s := h.snapshot()
			if s.Count != 7 {
				t.Fatalf("count = %d, want 7", s.Count)
			}
			for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
				if got := s.PercentileUS(q); got != tt.want {
					t.Errorf("p%v = %d, want %d", q*100, got, tt.want)
				}
			}
		})
	}
}

// TestLatencyNegativeDuration pins that a clock anomaly (negative
// elapsed time) counts as zero instead of wrapping the unsigned sum.
func TestLatencyNegativeDuration(t *testing.T) {
	var h latencyHist
	h.observe(-time.Second)
	s := h.snapshot()
	if s.Count != 1 || s.SumUS != 0 || s.Buckets[0] != 1 {
		t.Errorf("negative observation: %+v", s)
	}
}

// TestLatencyConcurrentRecordAndSnapshot hammers observe from many
// goroutines while a reader snapshots continuously — the histogram is
// lock-free, so this is the -race proof that recording never tears.
// Snapshots are not required to be atomic across buckets, but the final
// quiesced snapshot must account for every observation exactly once.
func TestLatencyConcurrentRecordAndSnapshot(t *testing.T) {
	var h latencyHist
	const writers = 4
	const perWriter = 2000

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				s := h.snapshot()
				var inBuckets uint64
				for _, c := range s.Buckets {
					inBuckets += c
				}
				// count and buckets race individually, but bucketed
				// observations can never exceed writers*perWriter.
				if inBuckets > writers*perWriter {
					t.Errorf("snapshot overcounts: %d buckets for max %d observations",
						inBuckets, writers*perWriter)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	s := h.snapshot()
	if s.Count != writers*perWriter {
		t.Errorf("count = %d, want %d", s.Count, writers*perWriter)
	}
	var inBuckets uint64
	for _, c := range s.Buckets {
		inBuckets += c
	}
	if inBuckets != s.Count {
		t.Errorf("buckets sum to %d, count is %d", inBuckets, s.Count)
	}
}

// TestWarmParseZeroAllocsWithTracing is the registry-level allocation
// gate for the tracing integration: a warm parse must stay at 0
// allocs/op with the trace plumbing compiled in, both when tracing is
// off entirely (nil trace) and when a tracer is enabled but the parse
// is unsampled (pooled trace measuring for slow detection).
func TestWarmParseZeroAllocsWithTracing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool lossy; allocation counts are meaningless under -race")
	}
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	input := mustTokens(t, e, "true or false and true")
	// Warm the table and every pool.
	for i := 0; i < 16; i++ {
		if res, err := e.Parse(input, false); err != nil || !res.Accepted {
			t.Fatalf("warm-up parse: %v %v", err, res.Accepted)
		}
	}

	if got := testing.AllocsPerRun(200, func() {
		res, err := e.Parse(input, false)
		if err != nil || !res.Accepted {
			t.Fatal("parse failed mid-measurement")
		}
	}); got != 0 {
		t.Errorf("warm parse with tracing disabled: %v allocs/op, want 0", got)
	}

	// Enabled-but-unsampled: a slow threshold far above any real parse
	// forces StartParse to hand out a pooled trace on every parse (it
	// must measure to detect outliers) without ever retaining a span.
	tracer := obs.NewTracer(obs.TracerConfig{SlowThreshold: time.Hour})
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		tr := tracer.StartParse("bool", "glr", "")
		if _, err := e.Run(ctx, "", input, false, tr); err != nil {
			t.Fatal(err)
		}
		tr.Finish(true, nil)
	}
	if got := testing.AllocsPerRun(200, func() {
		tr := tracer.StartParse("bool", "glr", "")
		res, err := e.Run(ctx, "", input, false, tr)
		tr.Finish(res.Accepted, err)
		if err != nil || !res.Accepted {
			t.Fatal("traced parse failed mid-measurement")
		}
	}); got != 0 {
		t.Errorf("warm parse with enabled-but-unsampled tracer: %v allocs/op, want 0", got)
	}
}
