package registry

import (
	"os"
	"path/filepath"
	"testing"

	"ipg/internal/engine"
)

// BenchmarkAutoRuleUpdate measures a rule update on an auto entry that
// lazy GLR serves: SDF.sdf, the service benchmark's churn grammar. One
// op adds and then deletes a fresh-keyword rule through the registry,
// the way POST /v1/grammars/{name}/rules does; three untimed parses
// follow each pair, re-expanding the states the updates invalidated.
func BenchmarkAutoRuleUpdate(b *testing.B) {
	e := registerTestdata(b, New(), "sdf", "SDF.sdf", engine.KindAuto)
	doc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "exp.sdf"))
	if err != nil {
		b.Fatal(err)
	}
	parse := func() {
		for i := 0; i < 3; i++ {
			if res, err := e.ParseInput(string(doc), false); err != nil || !res.Accepted {
				b.Fatalf("parse exp.sdf: err=%v accepted=%v", err, res.Accepted)
			}
		}
	}
	const rule = `LEX-ELEM ::= "kw0"`
	update := func() {
		if n, err := e.AddRulesText(rule); err != nil || n != 1 {
			b.Fatalf("add: n=%d err=%v", n, err)
		}
		if n, err := e.DeleteRulesText(rule); err != nil || n != 1 {
			b.Fatalf("delete: n=%d err=%v", n, err)
		}
	}
	// Warm up: teach the scanner the keyword and expand the parse states.
	parse()
	update()
	parse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update()
		b.StopTimer()
		parse()
		b.StartTimer()
	}
	b.StopTimer()
	if e.EngineKind() != engine.KindGLR {
		b.Fatalf("auto moved to %v (%s)", e.EngineKind(), e.Stats().EngineReason)
	}
}
