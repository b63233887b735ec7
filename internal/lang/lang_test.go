package lang_test

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"ipg/internal/grammar"
	"ipg/internal/isg"
	"ipg/internal/lang"
)

// loadCalc loads testdata/Calc.sdf: NAT numbers, SPACE layout and the
// operators + - * / ^ ( ).
func loadCalc(t *testing.T) *lang.Front {
	t.Helper()
	src, err := os.ReadFile("../../testdata/Calc.sdf")
	if err != nil {
		t.Fatal(err)
	}
	f, err := lang.LoadSDF(string(src), "")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// terms looks up terminal names, EOF-terminated, the way InputTokens
// returns a stream.
func terms(t *testing.T, f *lang.Front, names ...string) []grammar.Symbol {
	t.Helper()
	var out []grammar.Symbol
	for _, n := range names {
		s, ok := f.Grammar().Symbols().Lookup(n)
		if !ok {
			t.Fatalf("no symbol %q", n)
		}
		out = append(out, s)
	}
	return append(out, grammar.EOF)
}

func addRules(f *lang.Front, text string) error {
	_, err := f.UpdateRules(text, true, f.Grammar().AddRule)
	return err
}

// TestUpdateRulesTeachesLiteral: once UpdateRules teaches the scanner a
// fresh literal, the next InputTokens maps it to its terminal, and
// ScanText agrees.
func TestUpdateRulesTeachesLiteral(t *testing.T) {
	f := loadCalc(t)
	if _, err := f.InputTokens("7 % 2"); err == nil {
		t.Fatal(`"%" scans before any rule names it`)
	}
	if err := addRules(f, `EXP ::= EXP "%" EXP`); err != nil {
		t.Fatal(err)
	}
	want := terms(t, f, "NAT", "%", "NAT")
	got, err := f.InputTokens("7 % 2")
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("InputTokens after the update = %v, %v; want %v", got, err, want)
	}
	syms, toks, err := f.ScanText("7 % 2")
	if err != nil || !slices.Equal(syms, want[:3]) || len(toks) != 3 || toks[1].Text != "%" {
		t.Fatalf("ScanText after the update = %v, %+v, %v", syms, toks, err)
	}
}

// TestUnmappedSortError: a lexical sort that names no grammar symbol
// fails with its sort and line:col, a scan error anywhere in the text
// comes first, and the sort maps once a rule update interns its name.
func TestUnmappedSortError(t *testing.T) {
	f := loadCalc(t)
	if err := f.Scanner().AddRule(isg.Rule{Sort: "BANG", Pattern: isg.Lit("!")}); err != nil {
		t.Fatal(err)
	}
	const wantSort = `sdf: token sort "BANG" (at 2:3) is not a terminal of the SDF grammar`
	const wantScan = `isg: 2:7: unexpected character "@"`
	for _, tc := range []struct{ text, want string }{
		{"1 +\n  ! 2", wantSort},
		{"1 +\n  ! 2 @", wantScan},
	} {
		if _, err := f.InputTokens(tc.text); err == nil || err.Error() != tc.want {
			t.Errorf("InputTokens(%q) error %v, want %s", tc.text, err, tc.want)
		}
		if _, _, err := f.ScanText(tc.text); err == nil || err.Error() != tc.want {
			t.Errorf("ScanText(%q) error %v, want %s", tc.text, err, tc.want)
		}
	}
	if err := addRules(f, `EXP ::= EXP "BANG" EXP`); err != nil {
		t.Fatal(err)
	}
	want := terms(t, f, "NAT", "BANG", "NAT")
	if got, err := f.InputTokens("1 ! 2"); err != nil || !slices.Equal(got, want) {
		t.Errorf("InputTokens once BANG is a terminal = %v, %v; want %v", got, err, want)
	}
}

// TestInputTokensBesideUpdateRules runs scans under a shared lock beside
// rule updates that teach fresh literals under the exclusive one, the
// locking a Front's callers keep; run it under -race.
func TestInputTokensBesideUpdateRules(t *testing.T) {
	f := loadCalc(t)
	var mu sync.RWMutex
	const updates = 40
	var wg sync.WaitGroup
	defer wg.Wait()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				mu.RLock()
				got, err := f.InputTokens("(1 + 2) * 3")
				_, _, serr := f.ScanText("4 ^ 5")
				mu.RUnlock()
				if err != nil || len(got) != 8 || serr != nil {
					t.Errorf("scan beside updates: %v, %v, %v", got, err, serr)
					return
				}
			}
		}()
	}
	for i := range updates {
		kw := fmt.Sprintf("kw%d", i)
		mu.Lock()
		err := addRules(f, `EXP ::= EXP "`+kw+`" EXP`)
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		mu.RLock()
		got, err := f.InputTokens("1 " + kw + " 2")
		mu.RUnlock()
		if want := terms(t, f, "NAT", kw, "NAT"); err != nil || !slices.Equal(got, want) {
			t.Fatalf("InputTokens after teaching %s = %v, %v; want %v", kw, got, err, want)
		}
	}
}
