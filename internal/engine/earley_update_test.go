package engine_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ipg/internal/engine"
	"ipg/internal/fixtures"
	"ipg/internal/forest"
	"ipg/internal/grammar"
)

// earleyUpdateBase is the grammar the update test starts from, and
// earleyUpdateRules the rules its writer toggles: the first makes A
// nullable, the second gives S an alternative over a fresh terminal.
// Bit i of a rule-set mask says earleyUpdateRules[i] is present.
const earleyUpdateBase = `
START ::= S
S ::= A "b"
S ::= S "c" S
A ::= "a"
A ::= A "a"
`

var earleyUpdateRules = []string{`A ::= ε`, `S ::= "d" A`}

var (
	earleyUpdateInputs = []string{"", "b", "a b", "a a b", "b c b", "a b c a b", "d", "d a", "d c b", "c", "a", "b c", "d a a c a b"}
	earleyUpdatePrefix = []string{"", "a", "b", "d", "a b c", "b c", "d a", "c"}
)

// earleyUpdateGrammar is the base grammar plus the rules mask selects,
// with every terminal interned so all inputs tokenize under any mask.
func earleyUpdateGrammar(t *testing.T, mask int) *grammar.Grammar {
	t.Helper()
	g := grammar.MustParse(earleyUpdateBase)
	g.Symbols().MustIntern("d", grammar.Terminal)
	for i, r := range earleyUpdateRuleSet(t, g) {
		if mask&(1<<i) != 0 {
			if err := g.AddRule(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// earleyUpdateRuleSet parses earleyUpdateRules over g's symbols.
func earleyUpdateRuleSet(t *testing.T, g *grammar.Grammar) []*grammar.Rule {
	t.Helper()
	var rules []*grammar.Rule
	for _, src := range earleyUpdateRules {
		mod, err := grammar.Parse(src, g.Symbols())
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, mod.Rules()[0])
	}
	return rules
}

// tokenize tokenizes every text over g's symbols.
func tokenize(g *grammar.Grammar, texts []string) [][]grammar.Symbol {
	out := make([][]grammar.Symbol, len(texts))
	for i, s := range texts {
		out[i] = fixtures.Tokens(g, s)
	}
	return out
}

// earleyAnswer is one reply, reduced to what a fresh engine must repeat.
type earleyAnswer struct {
	accepted bool
	errPos   int
	trees    int64
	err      string
}

func answerOf(res engine.Result, err error) earleyAnswer {
	if err != nil {
		return earleyAnswer{err: err.Error()}
	}
	a := earleyAnswer{accepted: res.Accepted, errPos: res.ErrorPos}
	if res.Root != nil {
		a.trees, _ = forest.TreeCount(res.Root)
	}
	return a
}

// stepAnswer is one cursor step's reply: the sorted accept set, or the
// rejected position.
func stepAnswer(res engine.Result, err error, set *engine.TermSet) string {
	if errors.Is(err, engine.ErrRejected) {
		return fmt.Sprintf("rejected at %d", res.ErrorPos)
	}
	if err != nil {
		return err.Error()
	}
	names := set.AppendNames(nil)
	slices.Sort(names)
	return fmt.Sprint(names)
}

// TestEarleyReadersBesideRuleUpdates runs Earley parses, an Earley
// session's reparses and an Earley cursor's steps beside a writer that
// adds and deletes rules, one of which makes A nullable. Every answer
// given while the rule set held still must equal a fresh Earley
// engine's over the same rules. The update compiles the parser's view
// under the write lock; a parse that compiled one would read the
// grammar's analysis beside the writer and the other readers, which
// -race reports.
func TestEarleyReadersBesideRuleUpdates(t *testing.T) {
	masks := 1 << len(earleyUpdateRules)
	// want[mask][i] answers input i (recognition, then trees), step
	// [mask][i] prefix i, each from a fresh engine over mask's rules.
	want := make([][][2]earleyAnswer, masks)
	step := make([][]string, masks)
	for m := range masks {
		fg := earleyUpdateGrammar(t, m)
		fresh := engine.NewEarley(fg, "fresh")
		for _, toks := range tokenize(fg, earleyUpdateInputs) {
			want[m] = append(want[m], [2]earleyAnswer{
				answerOf(engine.ParseGuarded(fresh, toks, false, nil, nil)),
				answerOf(engine.ParseGuarded(fresh, toks, true, nil, nil)),
			})
		}
		for _, toks := range tokenize(fg, earleyUpdatePrefix) {
			var set engine.TermSet
			s := &engine.CursorStep{Engine: fresh, Restore: -1, Accepts: &set}
			res, err := engine.ParseGuarded(s, toks, false, nil, nil)
			step[m] = append(step[m], stepAnswer(res, err, &set))
			s.Cursor.Close()
		}
	}
	if want[0][1] == want[1][1] {
		t.Fatal("making A nullable does not change the answer on \"b\"; the test lost its point")
	}

	// The readers tokenize up front: the writer's updates intern rules
	// in the symbol table.
	g := earleyUpdateGrammar(t, 0)
	e := engine.NewEarley(g, "live")
	rules := earleyUpdateRuleSet(t, g)
	inputs, prefixes := tokenize(g, earleyUpdateInputs), tokenize(g, earleyUpdatePrefix)

	// seq is odd while the writer updates; mask is the rule set while
	// seq is even. A reply whose reader saw the same even seq before
	// and after ran on that rule set alone. A reader's body runs one
	// operation and returns the check of its reply against a rule set,
	// or nil when there is nothing to check.
	var seq atomic.Uint64
	var mask atomic.Int32
	done := make(chan struct{})
	var wg sync.WaitGroup
	var checked [3]atomic.Int64
	reader := func(id int, body func(i int) (check func(m int))) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			s1, m := seq.Load(), int(mask.Load())
			if check := body(i); check != nil && s1%2 == 0 && seq.Load() == s1 {
				check(m)
				checked[id].Add(1)
			}
		}
	}
	wg.Add(3)
	go reader(0, func(i int) func(int) {
		k, tr := i%len(earleyUpdateInputs), i%2
		got := answerOf(engine.ParseGuarded(e, inputs[k], tr == 1, nil, nil))
		return func(m int) {
			if w := want[m][k][tr]; got != w {
				t.Errorf("parse %q (trees %v) under rules %b: %+v, fresh engine %+v", earleyUpdateInputs[k], tr == 1, m, got, w)
			}
		}
	})
	sess, err := engine.OpenSession(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	go reader(1, func(i int) func(int) {
		k, tr := i%len(earleyUpdateInputs), i%2
		if err := sess.Splice(0, sess.Len(), inputs[k]); err != nil {
			return func(int) { t.Errorf("splice %q: %v", earleyUpdateInputs[k], err) }
		}
		got := answerOf(engine.ParseGuarded(sess, nil, tr == 1, nil, nil))
		return func(m int) {
			if w := want[m][k][tr]; got != w {
				t.Errorf("session reparse %q (trees %v) under rules %b: %+v, fresh engine %+v", earleyUpdateInputs[k], tr == 1, m, got, w)
			}
		}
	})
	var cur engine.Cursor
	defer func() {
		if cur != nil {
			cur.Close()
		}
	}()
	go reader(2, func(i int) func(int) {
		k := i % len(earleyUpdatePrefix)
		var set engine.TermSet
		s := &engine.CursorStep{Engine: e, Cursor: cur, Restore: 0, Accepts: &set}
		if cur == nil {
			s.Restore = -1
		}
		res, err := engine.ParseGuarded(s, prefixes[k], false, nil, nil)
		cur = s.Cursor
		if errors.Is(err, engine.ErrCursorStale) {
			cur.Close()
			cur = nil
			return nil
		}
		got := stepAnswer(res, err, &set)
		return func(m int) {
			if w := step[m][k]; got != w {
				t.Errorf("cursor step %q under rules %b: %s, fresh engine %s", earleyUpdatePrefix[k], m, got, w)
			}
		}
	})

	// The writer walks the masks 0 → 1 → 3 → 2 → 0, each update one
	// rule. Before the next update it waits until every reader has
	// checked two more replies, so each reader sees every rule set.
	held := 0
	for n := 0; n < 32; n++ {
		i := n % len(rules)
		next := held ^ (1 << i)
		seq.Add(1)
		var err error
		if next&(1<<i) != 0 {
			err = e.AddRule(rules[i])
		} else {
			err = e.DeleteRule(rules[i])
		}
		if err != nil {
			t.Error(err)
			break
		}
		mask.Store(int32(next))
		seq.Add(1)
		held = next
		for id := range checked {
			for target := checked[id].Load() + 2; checked[id].Load() < target; {
				runtime.Gosched()
			}
		}
	}
	close(done)
	wg.Wait()
}
