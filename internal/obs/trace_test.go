package obs

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisabledTracerIsNil(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	if tr := nilTracer.StartParse("g", "e", "r"); tr != nil {
		t.Error("nil tracer handed out a trace")
	}
	if spans := nilTracer.Snapshot("", 0); spans != nil {
		t.Error("nil tracer returned spans")
	}

	off := NewTracer(TracerConfig{})
	if off.Enabled() {
		t.Error("zero-config tracer reports enabled")
	}
	if tr := off.StartParse("g", "e", "r"); tr != nil {
		t.Error("disabled tracer handed out a trace")
	}

	// Every ParseTrace method must be a no-op on nil — the disabled
	// fast path keeps trace calls compiled into the hot path.
	var tr *ParseTrace
	tr.BeginStage(StageTable)
	tr.EndStage(StageTable)
	if s, sl := tr.Finish(true, nil); s || sl {
		t.Error("nil trace finished as captured")
	}
}

func TestSamplingOneInN(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 3, RingSize: 64})
	captured := 0
	for i := 0; i < 12; i++ {
		pt := tr.StartParse("calc", "lalr", "")
		if pt == nil {
			continue
		}
		pt.BeginStage(StageTable)
		pt.EndStage(StageTable)
		if sampled, _ := pt.Finish(true, nil); sampled {
			captured++
		}
	}
	if captured != 4 {
		t.Errorf("1-in-3 sampling captured %d of 12, want 4", captured)
	}
	spans := tr.Snapshot("", 0)
	if len(spans) != 4 {
		t.Fatalf("snapshot holds %d spans, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].ID > spans[i-1].ID {
			t.Error("snapshot not newest-first")
		}
	}
	if st := tr.Stats(); st.Captured != 4 || st.Started != 12 {
		t.Errorf("stats = %+v, want Captured 4, Started 12", st)
	}
}

func TestSlowParseAlwaysRetained(t *testing.T) {
	// Sampling effectively never fires; the slow threshold must retain
	// the outlier anyway.
	tr := NewTracer(TracerConfig{SampleEvery: 1 << 30, SlowThreshold: time.Microsecond})
	pt := tr.StartParse("calc", "glr", "req-1")
	if pt == nil {
		t.Fatal("slow-capture tracer refused a trace")
	}
	pt.BeginStage(StageTable)
	time.Sleep(2 * time.Millisecond)
	pt.EndStage(StageTable)
	sampled, slow := pt.Finish(false, errors.New("boom"))
	if sampled || !slow {
		t.Fatalf("finish = sampled %v slow %v, want false true", sampled, slow)
	}
	spans := tr.Snapshot("calc", 10)
	if len(spans) != 1 {
		t.Fatalf("want the one slow span, got %d", len(spans))
	}
	s := spans[0]
	if !s.Slow || s.Sampled || s.Err != "boom" || s.RequestID != "req-1" || s.Engine != "glr" {
		t.Errorf("slow span = %+v", s)
	}
	if s.Stages[StageTable] <= 0 || s.Total < s.Stages[StageTable] {
		t.Errorf("stage accounting: table %v total %v", s.Stages[StageTable], s.Total)
	}
	if got := tr.Snapshot("other", 0); len(got) != 0 {
		t.Errorf("grammar filter leaked %d spans", len(got))
	}
}

func TestStagesAccumulateAcrossReentry(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	pt := tr.StartParse("g", "e", "")
	pt.BeginStage(StageForest)
	time.Sleep(time.Millisecond)
	pt.EndStage(StageForest)
	first := pt.span.Stages[StageForest]
	pt.BeginStage(StageForest)
	time.Sleep(time.Millisecond)
	pt.EndStage(StageForest)
	if pt.span.Stages[StageForest] <= first {
		t.Error("re-entered stage did not accumulate")
	}
	pt.EndStage(StageRender) // unmatched End must be ignored
	if pt.span.Stages[StageRender] != 0 {
		t.Error("unmatched EndStage recorded time")
	}
	pt.Finish(true, nil)
	if s, sl := pt.Finish(true, nil); s || sl {
		t.Error("double Finish retained again")
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1, RingSize: 16})
	for i := 0; i < 100; i++ {
		pt := tr.StartParse("g", "e", "")
		pt.Finish(true, nil)
	}
	spans := tr.Snapshot("", 0)
	if len(spans) != 16 {
		t.Fatalf("ring holds %d spans, want 16", len(spans))
	}
	if spans[0].ID != 100 || spans[15].ID != 85 {
		t.Errorf("ring kept IDs %d..%d, want 100..85", spans[0].ID, spans[15].ID)
	}
}

// TestConcurrentTraceAndSnapshot drives writers and readers together;
// run under -race it proves the seqlock ring publication.
func TestConcurrentTraceAndSnapshot(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1, SlowThreshold: time.Nanosecond, RingSize: 32})
	var writers sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				pt := tr.StartParse("g", "e", "r")
				pt.BeginStage(StageTable)
				pt.EndStage(StageTable)
				pt.Finish(i%2 == 0, nil)
			}
		}()
	}
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				for _, s := range tr.Snapshot("", 0) {
					if s.Grammar != "g" {
						t.Error("torn span escaped the seqlock")
						return
					}
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if st := tr.Stats(); st.Captured != 2000 {
		t.Errorf("captured %d, want 2000", st.Captured)
	}
}

// TestTraceAllocFree pins the tracing hot path's allocation budget:
// a disabled tracer costs nothing, and an enabled-but-unsampled parse
// (pool-recycled trace, slow-threshold measurement on) stays at zero
// steady-state allocations — the warm path's contract.
func TestTraceAllocFree(t *testing.T) {
	var nilTracer *Tracer
	if n := testing.AllocsPerRun(100, func() {
		pt := nilTracer.StartParse("g", "e", "")
		pt.BeginStage(StageTable)
		pt.EndStage(StageTable)
		pt.Finish(true, nil)
	}); n != 0 {
		t.Errorf("disabled tracer path allocates %v/op, want 0", n)
	}

	tr := NewTracer(TracerConfig{SampleEvery: 1 << 30, SlowThreshold: time.Hour})
	// Warm the pool.
	pt := tr.StartParse("g", "e", "")
	pt.Finish(true, nil)
	if n := testing.AllocsPerRun(100, func() {
		pt := tr.StartParse("g", "e", "")
		pt.BeginStage(StageAdmit)
		pt.EndStage(StageAdmit)
		pt.BeginStage(StageTable)
		pt.EndStage(StageTable)
		pt.Finish(true, nil)
	}); n != 0 {
		t.Errorf("enabled-unsampled trace path allocates %v/op, want 0", n)
	}
}
