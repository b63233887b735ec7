package harness

import (
	"sync"
	"testing"
)

// editRun holds the one live edit-workload run both edit tests read.
var editRun struct {
	once sync.Once
	rows []EditResult
	err  error
}

// liveEdits runs the edit workload live (repeat 5, minima over the
// repeats) on first use and checks what holds on every cell and
// machine: the grid is complete, an edit at token pos keeps sets 0..pos
// verbatim (pos+1 sets) while reused+rebuilt covers the whole chart,
// and, without the race detector skewing the allocator, every warm
// splice+reparse cycle is allocation-free. It returns the
// latest-position single-token ASF.sdf cell.
func liveEdits(t *testing.T) *EditResult {
	t.Helper()
	if testing.Short() {
		t.Skip("edit workload runs full parse passes; skipped in -short")
	}
	editRun.once.Do(func() {
		editRun.rows, editRun.err = RunEdits("../../testdata", 5)
	})
	if editRun.err != nil {
		t.Fatal(editRun.err)
	}
	if want := 4 * len(EditPositions) * len(EditSizes); len(editRun.rows) != want {
		t.Fatalf("%d cells, want %d", len(editRun.rows), want)
	}
	var late *EditResult
	for i := range editRun.rows {
		r := &editRun.rows[i]
		if r.SetsReused != r.EditPos+1 {
			t.Errorf("%s pos %d len %d: reused %d sets, want exactly edit_pos+1 = %d — prefix was re-expanded",
				r.Fixture, r.EditPos, r.EditLen, r.SetsReused, r.EditPos+1)
		}
		if got := r.SetsReused + r.SetsRebuilt; got != r.Tokens+1 {
			t.Errorf("%s pos %d len %d: reused+rebuilt = %d sets, want tokens+1 = %d",
				r.Fixture, r.EditPos, r.EditLen, got, r.Tokens+1)
		}
		if !raceEnabled && r.AllocsPerOp != 0 {
			t.Errorf("%s pos %d len %d: warm splice+reparse cycle allocates %d/op, want 0",
				r.Fixture, r.EditPos, r.EditLen, r.AllocsPerOp)
		}
		if r.Fixture == "ASF.sdf" && r.EditLen == 1 && (late == nil || r.EditPos > late.EditPos) {
			late = r
		}
	}
	if late == nil {
		t.Fatal("no ASF.sdf single-token cell")
	}
	return late
}

// TestEditWorkloadLive is the lenient live check: the cell invariants
// of liveEdits and, without the race detector skewing timing, a
// better-than-break-even reparse at the late edit position.
func TestEditWorkloadLive(t *testing.T) {
	late := liveEdits(t)
	// Machine-independent sanity only — the 5x bar is
	// TestReparseSpeedupGate's. 1.5x leaves headroom for noisy CI boxes.
	if !raceEnabled && late.Speedup < 1.5 {
		t.Errorf("late single-token edit on ASF.sdf: %.1fx live speedup, want >= 1.5x", late.Speedup)
	}
}

// TestReparseSpeedupGate pins the incremental-reparse acceptance
// criterion on the code under test: on the live edit run, and besides
// liveEdits' cell invariants (exact prefix reuse, an allocation-free
// warm cycle), a warm single-token edit near the end of ASF.sdf (the
// paper's largest fixture, 475 tokens) must reparse at least 5× faster
// than a from-scratch parse. The timing bar is skipped under the race
// detector, which skews it.
func TestReparseSpeedupGate(t *testing.T) {
	gate := liveEdits(t)
	t.Logf("late ASF.sdf edit at %d: reparse %dns vs full %dns (%.1fx), %d sets reused",
		gate.EditPos, gate.ReparseNS, gate.FullNS, gate.Speedup, gate.SetsReused)
	if gate.Tokens != 475 {
		t.Errorf("ASF.sdf fixture drifted: %d tokens, want 475", gate.Tokens)
	}
	if !raceEnabled && gate.Speedup < 5 {
		t.Errorf("late single-token edit: %.1fx speedup, want >= 5x (full %dns, reparse %dns)",
			gate.Speedup, gate.FullNS, gate.ReparseNS)
	}
}
