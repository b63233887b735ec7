package registry

import (
	"os"
	"path/filepath"
	"testing"

	"ipg/internal/forest"
)

// sdfEntry registers SDF.sdf, the grammar the service benchmark parses
// SDF definitions with, and returns the entry and ASF.sdf's text.
func sdfEntry(t *testing.T) (*Entry, string) {
	t.Helper()
	read := func(name string) string {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	e, err := New().Register("sdf", Spec{Source: read("SDF.sdf"), Form: FormSDF})
	if err != nil {
		t.Fatal(err)
	}
	return e, read("ASF.sdf")
}

// TestInputTokensAllocs gates the tokenize stage: a warm scan of
// ASF.sdf (475 tokens) allocates its results, not per token.
func TestInputTokensAllocs(t *testing.T) {
	e, asf := sdfEntry(t)
	if _, err := e.InputTokens(asf); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := e.InputTokens(asf); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm InputTokens(ASF.sdf): %.0f allocs/op", got)
	if got > 16 {
		t.Errorf("warm InputTokens(ASF.sdf): %.0f allocs/op, want ≤ 16", got)
	}
}

// TestTreeCountAllocs gates forest.TreeCount over ASF.sdf's forest: its
// memo takes a constant number of allocations, not one per node.
func TestTreeCountAllocs(t *testing.T) {
	e, asf := sdfEntry(t)
	res, err := e.ParseInput(asf, true)
	if err != nil || !res.Accepted || res.Root == nil {
		t.Fatalf("ParseInput(ASF.sdf): accepted=%v, err=%v", res.Accepted, err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := forest.TreeCount(res.Root); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("TreeCount over %d forest nodes: %.0f allocs/op", res.Forest.NodeCount(), got)
	if got > 4 {
		t.Errorf("TreeCount over %d forest nodes: %.0f allocs/op, want ≤ 4", res.Forest.NodeCount(), got)
	}
}
