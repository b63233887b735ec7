package registry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ipg/internal/glr"
	"ipg/internal/grammar"
)

const boolSrc = `
START ::= B
B ::= "true" | "false"
B ::= B "or" B | B "and" B
`

const calcSDF = `module Calc
begin
  lexical syntax
    sorts DIGIT, NAT
    layout SPACE
    functions
      [0-9]    -> DIGIT
      DIGIT+   -> NAT
      [\ \t\n] -> SPACE
  context-free syntax
    sorts EXP
    priorities
      EXP "*" EXP -> EXP > EXP "+" EXP -> EXP
    functions
      NAT         -> EXP
      EXP "+" EXP -> EXP {left-assoc}
      EXP "*" EXP -> EXP {left-assoc}
end Calc
`

func TestRegisterAndParseRules(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	if e.Form() != FormRules {
		t.Errorf("sniffed form %v, want rules", e.Form())
	}
	if e.Version() != 1 {
		t.Errorf("fresh version %d, want 1", e.Version())
	}
	res, err := e.ParseInput("true or false", true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.Trees != 1 {
		t.Errorf("accepted=%v trees=%d", res.Accepted, res.Trees)
	}
	// Ambiguity is reported through the tree count.
	res, err = e.ParseInput("true or true or true", true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trees != 2 {
		t.Errorf("ambiguous sentence trees=%d, want 2", res.Trees)
	}
}

func TestRegisterAndParseSDF(t *testing.T) {
	r := New()
	e, err := r.Register("calc", Spec{Source: calcSDF})
	if err != nil {
		t.Fatal(err)
	}
	if e.Form() != FormSDF {
		t.Errorf("sniffed form %v, want sdf", e.Form())
	}
	res, err := e.ParseInput("1 + 2 * 3", true)
	if err != nil {
		t.Fatal(err)
	}
	// Priorities filter the forest down to a single derivation.
	if !res.Accepted || res.Trees != 1 {
		t.Errorf("accepted=%v trees=%d, want 1 tree", res.Accepted, res.Trees)
	}
	if _, err := e.Tokens("nosuch"); err == nil {
		t.Error("unknown token name should error")
	}
}

func TestRegistryCatalog(t *testing.T) {
	r := New()
	if _, err := r.Register("", Spec{Source: boolSrc}); err == nil {
		t.Error("empty name should be rejected")
	}
	if _, err := r.Register("bad", Spec{Source: "START ::"}); err == nil {
		t.Error("malformed source should be rejected")
	}
	if _, err := r.Register("bool", Spec{Source: boolSrc}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("calc", Spec{Source: calcSDF}); err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); strings.Join(got, ",") != "bool,calc" {
		t.Errorf("names: %v", got)
	}
	if r.Len() != 2 || len(r.Entries()) != 2 {
		t.Errorf("len %d entries %d", r.Len(), len(r.Entries()))
	}
	// Replacement continues the version lineage.
	e2, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Version() != 2 {
		t.Errorf("replacement version %d, want 2", e2.Version())
	}
	if r.Registered() != 3 {
		t.Errorf("registered counter %d, want 3", r.Registered())
	}
	if !r.Remove("calc") || r.Remove("calc") {
		t.Error("remove should report presence exactly once")
	}
	if _, ok := r.Get("calc"); ok {
		t.Error("removed entry still visible")
	}
}

func TestIncrementalUpdateThroughEntry(t *testing.T) {
	r := New()
	e, _ := r.Register("bool", Spec{Source: boolSrc})
	if _, err := e.ParseInput("not true", true); err == nil {
		t.Fatal("'not' should be unknown before the update")
	}
	n, err := e.AddRulesText(`B ::= "not" B`)
	if err != nil || n != 1 {
		t.Fatalf("add: n=%d err=%v", n, err)
	}
	if e.Version() != 2 {
		t.Errorf("version after add %d, want 2", e.Version())
	}
	res, err := e.ParseInput("not true or false", true)
	if err != nil || !res.Accepted {
		t.Fatalf("extended sentence: %v %v", res.Accepted, err)
	}
	n, err = e.DeleteRulesText(`B ::= "not" B`)
	if err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if res, _ := e.Parse(mustTokens(t, e, "true or false"), true); !res.Accepted {
		t.Error("base language broken after delete")
	}
	st := e.Stats()
	if st.Version != 3 || st.Counters.StatesInvalidated == 0 {
		t.Errorf("stats after updates: %+v", st)
	}
}

func TestSDFEntryScannerExtension(t *testing.T) {
	r := New()
	e, _ := r.Register("calc", Spec{Source: calcSDF})
	if _, err := e.ParseInput("7 % 2", true); err == nil {
		t.Fatal("'%' should not scan before the update")
	}
	if _, err := e.AddRulesText(`EXP ::= EXP "%" EXP`); err != nil {
		t.Fatal(err)
	}
	res, err := e.ParseInput("7 % 2", true)
	if err != nil || !res.Accepted {
		t.Fatalf("after simultaneous lexical+syntactic update: %v %v", res.Accepted, err)
	}
}

func mustTokens(t *testing.T, e *Entry, text string) []grammar.Symbol {
	t.Helper()
	toks, err := e.Tokens(text)
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

// TestConcurrentSharedExpansion: many goroutines parse the same cold
// entry; double-checked expansion must expand each state exactly once,
// so the shared table ends with the same state count as a sequential
// parse, and every parse succeeds.
func TestConcurrentSharedExpansion(t *testing.T) {
	// Sequential baseline.
	seq := New()
	se, _ := seq.Register("bool", Spec{Source: boolSrc})
	seqRes, err := se.ParseInput("true or false and true", true)
	if err != nil || !seqRes.Accepted {
		t.Fatal(seqRes.Accepted, err)
	}
	seqExpanded := se.Generator().Counters().StatesExpanded

	r := New()
	e, _ := r.Register("bool", Spec{Source: boolSrc})
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				res, err := e.ParseInput("true or false and true", true)
				if err != nil {
					errs <- err
					return
				}
				if !res.Accepted {
					errs <- errNotAccepted
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c := e.Generator().Counters()
	if c.StatesExpanded != seqExpanded {
		t.Errorf("concurrent parses expanded %d states, sequential baseline %d (states must be expanded exactly once)",
			c.StatesExpanded, seqExpanded)
	}
	if c.ParsesServed != goroutines*20 {
		t.Errorf("parses served %d, want %d", c.ParsesServed, goroutines*20)
	}
	if c.HitRate() <= 0.5 {
		t.Errorf("hit rate %.2f implausibly low for %d repeated parses", c.HitRate(), goroutines*20)
	}
}

var errNotAccepted = errorString("parse rejected")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestConcurrentParseAndModifyStress is the -race stress test of the
// concurrent parse service: N goroutines parse through one shared entry
// while another goroutine interleaves AddRule/DeleteRule of the same
// rule. Every parse must see a consistent table — the base language is
// always accepted, the toggled extension is accepted or rejected
// (before-or-after semantics), and nothing panics or races.
func TestConcurrentParseAndModifyStress(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.Tokens("true or false and true")
	if err != nil {
		t.Fatal(err)
	}
	// Intern the extension's terminal up front so reader goroutines can
	// tokenize the extended sentence even while the rule is absent.
	if _, err := e.AddRulesText(`B ::= "not" B`); err != nil {
		t.Fatal(err)
	}
	ext, err := e.Tokens("not true or false")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteRulesText(`B ::= "not" B`); err != nil {
		t.Fatal(err)
	}
	// Warm the shared table so the first modification finds complete
	// states to invalidate even if the writer goroutine runs first.
	if res, err := e.Parse(base, false); err != nil || !res.Accepted {
		t.Fatal(res.Accepted, err)
	}

	const (
		readers = 8
		parses  = 60
		modifyN = 40
	)
	var (
		wg       sync.WaitGroup
		accepted atomic.Uint64
		rejected atomic.Uint64
		failures atomic.Uint64
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < parses; j++ {
				// Base sentence: must be accepted under every table
				// revision.
				res, err := e.Parse(base, j%2 == 0)
				if err != nil || !res.Accepted {
					failures.Add(1)
					return
				}
				// Toggled sentence: accepted iff the parse ran against a
				// table revision containing the rule — either outcome is
				// consistent, an error or panic is not.
				res, err = e.Parse(ext, false)
				if err != nil {
					failures.Add(1)
					return
				}
				if res.Accepted {
					accepted.Add(1)
				} else {
					rejected.Add(1)
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < modifyN; j++ {
			if _, err := e.AddRulesText(`B ::= "not" B`); err != nil {
				failures.Add(1)
				return
			}
			if _, err := e.DeleteRulesText(`B ::= "not" B`); err != nil {
				failures.Add(1)
				return
			}
		}
	}()
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d goroutines saw an inconsistent table", n)
	}
	if accepted.Load()+rejected.Load() != readers*parses {
		t.Errorf("toggled-sentence outcomes %d+%d, want %d",
			accepted.Load(), rejected.Load(), readers*parses)
	}
	st := e.Stats()
	if st.Counters.ParsesServed != 2*readers*parses+1 { // +1 warm-up
		t.Errorf("parses served %d, want %d", st.Counters.ParsesServed, 2*readers*parses+1)
	}
	if st.Counters.StatesInvalidated == 0 {
		t.Error("modifications should have invalidated states")
	}
	// The table must still be usable and exactly reflect the final
	// grammar (rule deleted).
	if res, err := e.Parse(ext, true); err != nil || res.Accepted {
		t.Errorf("final table should reject the deleted extension: %v %v", res.Accepted, err)
	}
	if res, err := e.Parse(base, true); err != nil || !res.Accepted || res.Trees < 1 {
		t.Errorf("final table broken for the base language: %+v %v", res, err)
	}
}

// TestConcurrentUpdateInternsAndStats covers the entry-level races the
// generator's own lock cannot see: rule-text updates intern brand-new
// terminals into the shared symbol table while other goroutines parse
// and sample Stats. Run under -race.
func TestConcurrentUpdateInternsAndStats(t *testing.T) {
	r := New()
	e, err := r.Register("bool", Spec{Source: boolSrc})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var failures atomic.Uint64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				res, err := e.ParseInput("true or false", j%2 == 0)
				if err != nil || !res.Accepted {
					failures.Add(1)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 40; j++ {
			if e.Stats().Rules < 4 {
				failures.Add(1)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			// Every iteration interns a previously unseen terminal.
			rule := fmt.Sprintf("B ::= %q B", fmt.Sprintf("kw%d", j))
			if _, err := e.AddRulesText(rule); err != nil {
				failures.Add(1)
				return
			}
			if _, err := e.DeleteRulesText(rule); err != nil {
				failures.Add(1)
				return
			}
		}
	}()
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d goroutines failed", failures.Load())
	}
}

// TestConcurrentSDFParses drives the heavier SDF path (scanner +
// priorities) from many goroutines.
func TestConcurrentSDFParses(t *testing.T) {
	r := New()
	e, _ := r.Register("calc", Spec{Source: calcSDF})
	var wg sync.WaitGroup
	var failures atomic.Uint64
	inputs := []string{"1 + 2 * 3", "4 * 5 + 6", "7", "8 + 9 + 10"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				res, err := e.ParseInput(inputs[(i+j)%len(inputs)], true)
				if err != nil || !res.Accepted || res.Trees != 1 {
					failures.Add(1)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d concurrent SDF parses failed", failures.Load())
	}
}

// TestParseThroughRawEngine double-checks that Entry.Parse agrees with
// driving the engine directly on a quiescent table.
func TestParseThroughRawEngine(t *testing.T) {
	r := New()
	e, _ := r.Register("bool", Spec{Source: boolSrc})
	toks := mustTokens(t, e, "true and true")
	res, err := e.Parse(toks, true)
	if err != nil || !res.Accepted {
		t.Fatal(res.Accepted, err)
	}
	ok, err := glr.Recognize(e.Generator(), toks, glr.GSS)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
}
