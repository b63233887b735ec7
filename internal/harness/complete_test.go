package harness

import (
	"sync"
	"testing"
)

// completionRun holds the one live completion-workload run both
// completion tests read.
var completionRun struct {
	once sync.Once
	rows []CompleteResult
	err  error
}

// liveComplete runs the completion workload live (repeat 5, minima over
// the repeats) on first use and checks what holds on every row and
// machine: every backend completes every workload at every depth with a
// measured accept-set query.
func liveComplete(t *testing.T) []CompleteResult {
	t.Helper()
	if testing.Short() {
		t.Skip("completion workload opens cursors at every depth; skipped in -short")
	}
	completionRun.once.Do(func() {
		completionRun.rows, completionRun.err = RunComplete("../../testdata", 5)
	})
	if completionRun.err != nil {
		t.Fatal(completionRun.err)
	}
	if len(completionRun.rows) == 0 {
		t.Fatal("no completion results")
	}
	for _, r := range completionRun.rows {
		if r.Error != "" {
			t.Errorf("%s/%s prefix %d: %s", r.Workload, r.Engine, r.PrefixLen, r.Error)
			continue
		}
		if r.AcceptNS <= 0 {
			t.Errorf("%s/%s prefix %d: no accept-set measurement", r.Workload, r.Engine, r.PrefixLen)
		}
	}
	return completionRun.rows
}

// TestCompleteWorkloadLive is the lenient live check: the row
// invariants of liveComplete and, without the race detector skewing the
// allocator, an allocation-free warm accept-set query on every backend
// but Earley.
func TestCompleteWorkloadLive(t *testing.T) {
	for _, r := range liveComplete(t) {
		if raceEnabled || r.Error != "" || r.Engine == "earley" {
			continue // Earley feeds rebuild chart sets; only the query is pinned free
		}
		if r.AcceptAllocs != 0 {
			t.Errorf("%s/%s prefix %d: warm accept-set query allocates %d/op, want 0",
				r.Workload, r.Engine, r.PrefixLen, r.AcceptAllocs)
		}
	}
}

// TestCompleteAllocGate pins the completion acceptance criterion on the
// code under test: on the live completion run, warm accept-set queries
// on the table-driven backends (LALR on the deterministic calculator,
// LL on its factoring) are allocation-free at every measured prefix
// depth, and the cursor feed+restore cycle allocates nothing either.
// The allocation checks are skipped under the race detector, whose
// lossy sync.Pool makes the counts meaningless.
func TestCompleteAllocGate(t *testing.T) {
	gated := 0
	for _, r := range liveComplete(t) {
		lr := r.Workload == "calc-det" && r.Engine == "lalr"
		ll := r.Workload == "calc-ll" && r.Engine == "ll"
		if !lr && !ll {
			continue
		}
		gated++
		if raceEnabled || r.Error != "" {
			continue
		}
		if r.AcceptAllocs != 0 {
			t.Errorf("%s/%s prefix %d: warm accept-set query allocates %d/op, want 0",
				r.Workload, r.Engine, r.PrefixLen, r.AcceptAllocs)
		}
		if r.FeedAllocs != 0 {
			t.Errorf("%s/%s prefix %d: warm feed+restore cycle allocates %d/op, want 0",
				r.Workload, r.Engine, r.PrefixLen, r.FeedAllocs)
		}
	}
	if gated < 5 {
		t.Errorf("only %d gated completion rows in the live run, want at least 5", gated)
	}
}
