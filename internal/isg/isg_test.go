package isg

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func identRules(t *testing.T) []Rule {
	t.Helper()
	letter, err := ParseClass("[a-zA-Z]")
	if err != nil {
		t.Fatal(err)
	}
	digit, err := ParseClass("[0-9]")
	if err != nil {
		t.Fatal(err)
	}
	space, err := ParseClass("[ \\t\\n]")
	if err != nil {
		t.Fatal(err)
	}
	return []Rule{
		{Sort: "IF", Pattern: Lit("if")}, // keyword beats ID on ties (earlier rule)
		{Sort: "ID", Pattern: Seq(Class(letter), Star(Alt(Class(letter), Class(digit))))},
		{Sort: "NUM", Pattern: Plus(Class(digit))},
		{Sort: "LPAREN", Pattern: Lit("(")},
		{Sort: "RPAREN", Pattern: Lit(")")},
		{Sort: "WS", Pattern: Plus(Class(space)), Layout: true},
	}
}

func sorts(toks []Token) string {
	parts := make([]string, len(toks))
	for i, tk := range toks {
		parts[i] = tk.Sort
	}
	return strings.Join(parts, " ")
}

func TestCharClassBasics(t *testing.T) {
	c, err := ParseClass("[a-zA-Z0-9]")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range "azAZ09" {
		if !c.Contains(r) {
			t.Errorf("class should contain %c", r)
		}
	}
	for _, r := range " -!~" {
		if c.Contains(r) {
			t.Errorf("class should not contain %c", r)
		}
	}
	neg := c.Negate()
	if neg.Contains('a') || !neg.Contains(' ') {
		t.Error("negation wrong")
	}
	// Double negation round-trips.
	if neg.Negate().String() != c.String() {
		t.Errorf("double negation: %s vs %s", neg.Negate(), c)
	}
}

func TestCharClassNormalization(t *testing.T) {
	c := NewCharClass(RuneRange{'c', 'f'}, RuneRange{'a', 'd'}, RuneRange{'g', 'h'})
	if len(c.Ranges()) != 1 {
		t.Errorf("overlapping/adjacent ranges should merge: %s", c)
	}
	if c.String() != "[a-h]" {
		t.Errorf("merged class renders as %s", c)
	}
}

func TestCharClassEscapes(t *testing.T) {
	c, err := ParseClass(`[ \t\n\r\f]`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range " \t\n\r\f" {
		if !c.Contains(r) {
			t.Errorf("escape class should contain %q", r)
		}
	}
	if _, err := ParseClass(`[z-a]`); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := ParseClass(`abc`); err == nil {
		t.Error("unbracketed class should fail")
	}
}

func TestScanBasic(t *testing.T) {
	sc, err := NewScanner(identRules(t))
	if err != nil {
		t.Fatal(err)
	}
	toks, err := sc.Scan("if foo42 ( 123 )")
	if err != nil {
		t.Fatal(err)
	}
	if got := sorts(toks); got != "IF ID LPAREN NUM RPAREN" {
		t.Errorf("token sorts = %s", got)
	}
	if toks[1].Text != "foo42" {
		t.Errorf("ID text = %q", toks[1].Text)
	}
}

func TestLongestMatch(t *testing.T) {
	sc, err := NewScanner(identRules(t))
	if err != nil {
		t.Fatal(err)
	}
	// "iffy" must scan as one ID, not IF + ID.
	toks, err := sc.Scan("iffy")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Sort != "ID" || toks[0].Text != "iffy" {
		t.Errorf("longest match violated: %+v", toks)
	}
	// Exactly "if" is the keyword (earlier rule wins the tie).
	toks, err = sc.Scan("if")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Sort != "IF" {
		t.Errorf("keyword priority violated: %+v", toks)
	}
}

func TestScanPositions(t *testing.T) {
	sc, err := NewScanner(identRules(t))
	if err != nil {
		t.Fatal(err)
	}
	toks, err := sc.Scan("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("first token at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("second token at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
	if toks[1].Offset != 4 {
		t.Errorf("second token offset %d, want 4", toks[1].Offset)
	}
}

func TestScanError(t *testing.T) {
	sc, err := NewScanner(identRules(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sc.Scan("abc @ def")
	var serr *ScanError
	if !errors.As(err, &serr) {
		t.Fatalf("want ScanError, got %v", err)
	}
	if serr.Line != 1 || serr.Col != 5 {
		t.Errorf("error at %d:%d, want 1:5", serr.Line, serr.Col)
	}
}

func TestLazyDFAMaterialization(t *testing.T) {
	sc, err := NewScanner(identRules(t))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Stats.DFAStates != 1 {
		t.Fatalf("before scanning: %d DFA states, want 1 (start)", sc.Stats.DFAStates)
	}
	if _, err := sc.Scan("abc abc abc"); err != nil {
		t.Fatal(err)
	}
	after := sc.Stats
	if after.DFAStates < 2 {
		t.Error("scanning should materialize DFA states")
	}
	// Scanning the same input again computes no new transitions.
	if _, err := sc.Scan("abc abc"); err != nil {
		t.Fatal(err)
	}
	if sc.Stats.DFATransitions != after.DFATransitions {
		t.Errorf("repeat scan computed %d new transitions",
			sc.Stats.DFATransitions-after.DFATransitions)
	}
	// New characters force new transitions only.
	if _, err := sc.Scan("( 42 )"); err != nil {
		t.Fatal(err)
	}
	if sc.Stats.DFATransitions == after.DFATransitions {
		t.Error("new input classes should add transitions")
	}
}

func TestIncrementalAddRule(t *testing.T) {
	sc, err := NewScanner(identRules(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Scan("foo"); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Scan("+"); err == nil {
		t.Fatal("'+' should not scan before the modification")
	}
	if err := sc.AddRule(Rule{Sort: "PLUS", Pattern: Lit("+")}); err != nil {
		t.Fatal(err)
	}
	if sc.Stats.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", sc.Stats.Invalidations)
	}
	toks, err := sc.Scan("foo + bar")
	if err != nil {
		t.Fatal(err)
	}
	if got := sorts(toks); got != "ID PLUS ID" {
		t.Errorf("after AddRule: %s", got)
	}
}

func TestIncrementalRemoveSort(t *testing.T) {
	sc, err := NewScanner(identRules(t))
	if err != nil {
		t.Fatal(err)
	}
	n, err := sc.RemoveSort("IF")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("removed %d rules, want 1", n)
	}
	toks, err := sc.Scan("if")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Sort != "ID" {
		t.Errorf("'if' should scan as ID after removal: %+v", toks)
	}
	if n, _ := sc.RemoveSort("NOPE"); n != 0 {
		t.Error("removing unknown sort should be a no-op")
	}
}

func TestAddRuleRollbackOnError(t *testing.T) {
	sc, err := NewScanner(identRules(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.AddRule(Rule{Sort: "BAD", Pattern: Ref("NOSUCH")}); err == nil {
		t.Fatal("reference to undefined sort should fail")
	}
	// The scanner must still work with the original rules.
	if _, err := sc.Scan("foo 42"); err != nil {
		t.Errorf("scanner broken after failed AddRule: %v", err)
	}
}

func TestRefInlining(t *testing.T) {
	letter, _ := ParseClass("[a-z]")
	rules := []Rule{
		{Sort: "LETTER", Pattern: Class(letter)},
		{Sort: "WORD", Pattern: Plus(Ref("LETTER"))},
		{Sort: "WS", Pattern: Lit(" "), Layout: true},
	}
	sc, err := NewScanner(rules)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := sc.Scan("abc de")
	if err != nil {
		t.Fatal(err)
	}
	// WORD and LETTER both match single letters; LETTER wins single
	// letters (earlier), WORD wins longer runs (longest match).
	if got := sorts(toks); got != "WORD WORD" {
		t.Errorf("sorts = %s, want WORD WORD", got)
	}
}

func TestRecursiveRefRejected(t *testing.T) {
	rules := []Rule{
		{Sort: "A", Pattern: Seq(Lit("x"), Ref("A"))},
	}
	if _, err := NewScanner(rules); err == nil {
		t.Fatal("recursive lexical sort should be rejected")
	}
}

func TestOptAndAltPatterns(t *testing.T) {
	digit, _ := ParseClass("[0-9]")
	rules := []Rule{
		{Sort: "NUM", Pattern: Seq(Opt(Alt(Lit("+"), Lit("-"))), Plus(Class(digit)))},
		{Sort: "WS", Pattern: Lit(" "), Layout: true},
	}
	sc, err := NewScanner(rules)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := sc.Scan("-12 +3 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 {
		t.Errorf("tokens: %+v", toks)
	}
}

// matchPattern is a reference interpreter: the set of end positions where
// p matches input starting at pos. Used to cross-check the lazy DFA.
func matchPattern(p *Pattern, byName map[string]*Pattern, input []rune, pos int) map[int]bool {
	out := map[int]bool{}
	switch p.Kind {
	case PatLiteral:
		lit := []rune(p.Str)
		if pos+len(lit) <= len(input) && string(input[pos:pos+len(lit)]) == p.Str {
			out[pos+len(lit)] = true
		}
	case PatClass:
		if pos < len(input) && p.Class.Contains(input[pos]) {
			out[pos+1] = true
		}
	case PatConcat:
		cur := map[int]bool{pos: true}
		for _, sub := range p.Subs {
			next := map[int]bool{}
			for at := range cur {
				for e := range matchPattern(sub, byName, input, at) {
					next[e] = true
				}
			}
			cur = next
		}
		for e := range cur {
			out[e] = true
		}
	case PatAlt:
		for _, sub := range p.Subs {
			for e := range matchPattern(sub, byName, input, pos) {
				out[e] = true
			}
		}
	case PatStar, PatPlus:
		reach := map[int]bool{pos: true}
		frontier := []int{pos}
		for len(frontier) > 0 {
			at := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for e := range matchPattern(p.Subs[0], byName, input, at) {
				if e == at || reach[e] {
					continue
				}
				reach[e] = true
				frontier = append(frontier, e)
			}
		}
		for e := range reach {
			if p.Kind == PatPlus && e == pos {
				continue
			}
			out[e] = true
		}
	case PatOpt:
		out[pos] = true
		for e := range matchPattern(p.Subs[0], byName, input, pos) {
			out[e] = true
		}
	case PatRef:
		if target, ok := byName[p.Str]; ok {
			return matchPattern(target, byName, input, pos)
		}
	}
	return out
}

// refScan tokenizes src like Scan, by greedy repeated application of
// matchPattern: the longest match wins, ties go to the earliest rule,
// and private rules match only through references. src is decoded as
// Scan decodes it, an invalid byte being one utf8.RuneError.
func refScan(rules []Rule, src string) ([]Token, *ScanError) {
	byName := map[string]*Pattern{}
	for _, r := range rules {
		if prev, ok := byName[r.Sort]; ok {
			byName[r.Sort] = Alt(prev, r.Pattern)
		} else {
			byName[r.Sort] = r.Pattern
		}
	}
	var runes []rune
	var offs []int // offs[i] is the byte offset of runes[i]
	for i := 0; i < len(src); {
		r, size := utf8.DecodeRuneInString(src[i:])
		runes, offs = append(runes, r), append(offs, i)
		i += size
	}
	offs = append(offs, len(src))
	var toks []Token
	line, col := 1, 1
	for pos := 0; pos < len(runes); {
		best, bestRule := pos, -1
		for ri, r := range rules {
			if r.Private {
				continue
			}
			for e := range matchPattern(r.Pattern, byName, runes, pos) {
				if e > best {
					best, bestRule = e, ri
				}
			}
		}
		if bestRule < 0 {
			return toks, &ScanError{Offset: offs[pos], Line: line, Col: col}
		}
		if r := rules[bestRule]; !r.Layout {
			toks = append(toks, Token{Sort: r.Sort, Text: src[offs[pos]:offs[best]], Offset: offs[pos], Line: line, Col: col})
		}
		for _, r := range runes[pos:best] {
			if r == '\n' {
				line, col = line+1, 1
			} else {
				col++
			}
		}
		pos = best
	}
	return toks, nil
}

// checkScan compares Scan on src with refScan: every token field, and
// the error position.
func checkScan(t *testing.T, sc *Scanner, rules []Rule, src string) {
	t.Helper()
	want, wantErr := refScan(rules, src)
	got, err := sc.Scan(src)
	var gotErr *ScanError
	if err != nil && !errors.As(err, &gotErr) {
		t.Fatalf("input %q: %v is not a ScanError", src, err)
	}
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("input %q: reference error %v, scanner error %v", src, wantErr, err)
	case wantErr != nil && (wantErr.Offset != gotErr.Offset || wantErr.Line != gotErr.Line || wantErr.Col != gotErr.Col):
		t.Fatalf("input %q: reference error at %d (%d:%d), scanner at %d (%d:%d)", src,
			wantErr.Offset, wantErr.Line, wantErr.Col, gotErr.Offset, gotErr.Line, gotErr.Col)
	}
	if len(want) != len(got) {
		t.Fatalf("input %q: reference %d tokens %#v, scanner %d %#v", src, len(want), want, len(got), got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("input %q token %d: reference %#v, scanner %#v", src, i, want[i], got[i])
		}
	}
}

// Property: the lazy DFA scanner tokenizes exactly like greedy repeated
// application of the reference interpreter.
func TestScannerMatchesReference(t *testing.T) {
	letter, _ := ParseClass("[ab]")
	digit, _ := ParseClass("[01]")
	rules := []Rule{
		{Sort: "KW", Pattern: Lit("ab")},
		{Sort: "ID", Pattern: Plus(Class(letter))},
		{Sort: "NUM", Pattern: Seq(Plus(Class(digit)), Opt(Seq(Lit("."), Plus(Class(digit)))))},
		{Sort: "WS", Pattern: Plus(Lit(" ")), Layout: true},
	}
	sc, err := NewScanner(rules)
	if err != nil {
		t.Fatal(err)
	}
	alphabet := []rune("ab01. ")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		checkScan(t, sc, rules, b.String())
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestScanInvalidUTF8 scans across an invalid byte: token texts are the
// input's bytes at their offsets, the invalid byte's included, and an
// error after it reports its byte offset.
func TestScanInvalidUTF8(t *testing.T) {
	letter, _ := ParseClass("[a-z]")
	rules := []Rule{
		{Sort: "ID", Pattern: Plus(Class(letter))},
		{Sort: "BAD", Pattern: Class(ClassOf(utf8.RuneError))},
		{Sort: "WS", Pattern: Lit(" "), Layout: true},
	}
	sc, err := NewScanner(rules)
	if err != nil {
		t.Fatal(err)
	}
	src := "ab \xff cd !"
	toks, err := sc.Scan(src)
	var serr *ScanError
	if !errors.As(err, &serr) || serr.Offset != 8 || serr.Col != 9 {
		t.Errorf("error %v, want one at offset 8, column 9", err)
	}
	want := []struct {
		text   string
		offset int
	}{{"ab", 0}, {"\xff", 3}, {"cd", 5}}
	if len(toks) != len(want) {
		t.Fatalf("tokens %+v", toks)
	}
	for i, tk := range toks {
		if tk.Text != want[i].text || tk.Offset != want[i].offset || tk.Text != src[tk.Offset:tk.Offset+len(tk.Text)] {
			t.Errorf("token %d: %q at %d, want %q at %d", i, tk.Text, tk.Offset, want[i].text, want[i].offset)
		}
	}
}

// FuzzScan checks the DFA scanner against refScan on arbitrary bytes,
// over keywords, classes, a multi-byte class (which holds
// utf8.RuneError, so invalid bytes scan), a reference to a private rule,
// and layout across lines. One scanner serves every input, so its DFA
// grows warm as the fuzzer runs.
func FuzzScan(f *testing.F) {
	for _, seed := range []string{"ab01. ", "ab \xff cd", "λx αβ\n01.1 ab!", "\xffω\n\n b"} {
		f.Add(seed)
	}
	ab, _ := ParseClass("[ab]")
	digit, _ := ParseClass("[01]")
	space, _ := ParseClass("[ \n]")
	greek := NewCharClass(RuneRange{'α', 'ω'}, RuneRange{utf8.RuneError, utf8.RuneError})
	rules := []Rule{
		{Sort: "KW", Pattern: Lit("ab")},
		{Sort: "LAMBDA", Pattern: Lit("λx")},
		{Sort: "ID", Pattern: Plus(Class(ab))},
		{Sort: "NUM", Pattern: Seq(Ref("DIGITS"), Opt(Seq(Lit("."), Ref("DIGITS"))))},
		{Sort: "GREEK", Pattern: Plus(Class(greek))},
		{Sort: "WS", Pattern: Plus(Class(space)), Layout: true},
		{Sort: "DIGITS", Pattern: Plus(Class(digit)), Private: true},
	}
	sc, err := NewScanner(rules)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64 {
			t.Skip("the reference interpreter is slow on long inputs")
		}
		checkScan(t, sc, rules, src)
	})
}
