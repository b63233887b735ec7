package isg_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipg/internal/isg"
	"ipg/internal/sdf"
)

// TestAddRuleMatchesRebuild checks the incremental AddRule against a
// scanner built from scratch: the SDF definition of SDF is taught fresh
// keywords and punctuation (literals that overlap, extend and shadow
// existing tokens, added after scans have materialized DFA states), and
// after every addition both scanners must produce the same token
// streams, or the same error, on every testdata fixture.
func TestAddRuleMatchesRebuild(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata")
	src, err := os.ReadFile(filepath.Join(dir, "SDF.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	def, err := sdf.ParseDefinition(string(src))
	if err != nil {
		t.Fatal(err)
	}
	conv, err := sdf.Convert(def, "")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, string(b))
	}
	inc, err := conv.Scanner()
	if err != nil {
		t.Fatal(err)
	}
	scan := func(sc *isg.Scanner, text string) string {
		toks, err := sc.Scan(text)
		var b strings.Builder
		for _, tk := range toks {
			fmt.Fprintf(&b, "%s:%q@%d:%d ", tk.Sort, tk.Text, tk.Line, tk.Col)
		}
		if err != nil {
			b.WriteString("error: " + err.Error())
		}
		return b.String()
	}
	for _, text := range texts {
		scan(inc, text) // materialize DFA states before the additions
	}
	rules := append([]isg.Rule(nil), conv.LexRules...)
	for _, lit := range []string{"module", "modules", "context-free syntax", "lexical syntax", "->>", "kw0", "ID", "||", "E", "{"} {
		r := isg.Rule{Sort: "lit " + lit, Pattern: isg.Lit(lit)}
		if err := inc.AddRule(r); err != nil {
			t.Fatalf("add %q: %v", lit, err)
		}
		rules = append(rules, r)
		fresh, err := isg.NewScanner(rules)
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range texts {
			if got, want := scan(inc, text), scan(fresh, text); got != want {
				t.Fatalf("after adding %q, %s scans differently:\nincremental: %.300s\nrebuilt:     %.300s",
					lit, filepath.Base(files[i]), got, want)
			}
		}
	}
}
