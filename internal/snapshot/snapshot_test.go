package snapshot

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipg/internal/grammar"
)

func testGrammar(t *testing.T) *grammar.Grammar {
	t.Helper()
	g, err := grammar.Parse(`
START ::= B
B ::= "true" | "false"
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testSnap(name string, payload string) *Snapshot {
	return &Snapshot{
		Meta:    Meta{Name: name, Form: "rules", Version: 1, GrammarHash: "abc", CreatedUnix: Now()},
		Payload: []byte(payload),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := testSnap("calc", "ipg-table v2\nstart 0\n")
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "calc" || got.Version != 1 || got.GrammarHash != "abc" {
		t.Errorf("meta mangled: %+v", got.Meta)
	}
	if string(got.Payload) != string(snap.Payload) {
		t.Errorf("payload mangled: %q", got.Payload)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	snap := testSnap("x", strings.Repeat("payload line\n", 20))
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	for name, mangle := range map[string]func([]byte) []byte{
		"truncated payload": func(b []byte) []byte { return b[:len(b)-7] },
		"flipped bit":       func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-3] ^= 0x40; return c },
		"bad magic":         func(b []byte) []byte { return append([]byte("nope\n"), b...) },
		"no header":         func(b []byte) []byte { return []byte(magic + "\n") },
		"garbage header":    func(b []byte) []byte { return []byte(magic + "\n{not json\n") },
		"trailing header":   func(b []byte) []byte { return bytes.Replace(b, []byte("}\n"), []byte("} x\n"), 1) },
	} {
		t.Run(name, func(t *testing.T) {
			_, err := Decode(bytes.NewReader(mangle(whole)))
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("want ErrCorrupt, got %v", err)
			}
		})
	}
}

func TestStoreSaveLoad(t *testing.T) {
	st, err := NewStore(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testSnap("calc", "table bytes")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load("calc")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "table bytes" {
		t.Errorf("payload: %q", got.Payload)
	}
	if _, err := st.Load("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing snapshot: %v", err)
	}
	// Atomic write leaves no temp files behind.
	entries, _ := os.ReadDir(st.Dir())
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
	// Overwrite replaces, List sees one name.
	if err := st.Save(testSnap("calc", "newer bytes")); err != nil {
		t.Fatal(err)
	}
	got, _ = st.Load("calc")
	if string(got.Payload) != "newer bytes" {
		t.Errorf("overwrite lost: %q", got.Payload)
	}
	names, err := st.List()
	if err != nil || len(names) != 1 || names[0] != "calc" {
		t.Errorf("list: %v %v", names, err)
	}
	if !st.Remove("calc") || st.Remove("calc") {
		t.Error("remove semantics")
	}
}

func TestStoreEscapesNames(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	weird := "team/x grammar..v2"
	if err := st.Save(testSnap(weird, "p")); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(st.Path(weird)), "team%2F") {
		t.Errorf("path not escaped: %s", st.Path(weird))
	}
	if _, err := st.Load(weird); err != nil {
		t.Fatal(err)
	}
	names, _ := st.List()
	if len(names) != 1 || names[0] != weird {
		t.Errorf("list round-trip: %v", names)
	}
}

func TestGrammarHash(t *testing.T) {
	g1 := testGrammar(t)
	g2 := testGrammar(t)
	if Hash(g1) != Hash(g2) {
		t.Error("identical grammars must hash equal")
	}
	m := Meta{GrammarHash: Hash(g1)}
	if err := m.ValidateFor(g2); err != nil {
		t.Errorf("validate: %v", err)
	}
	// A rule change must change the hash.
	tmp, err := grammar.Parse(`B ::= "maybe"`, g2.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tmp.Rules() {
		if err := g2.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	if Hash(g1) == Hash(g2) {
		t.Error("modified grammar must hash differently")
	}
	if err := m.ValidateFor(g2); !errors.Is(err, ErrGrammarMismatch) {
		t.Errorf("want ErrGrammarMismatch, got %v", err)
	}
}

func TestCorruptFileOnDisk(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testSnap("g", strings.Repeat("x", 100))); err != nil {
		t.Fatal(err)
	}
	path := st.Path("g")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("g"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated file: want ErrCorrupt, got %v", err)
	}
}

// TestDecodeRejectsUnknownEncoding: a header that names a payload
// encoding, as gzip-compressed snapshots once did, decodes as corrupt
// whatever its checksum says, so its entry starts cold.
func TestDecodeRejectsUnknownEncoding(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testSnap("calc", "payload")); err != nil {
		t.Fatal(err)
	}
	env := strings.Replace(buf.String(), `"payload_len"`, `"encoding":"gzip","payload_len"`, 1)
	if _, err := Decode(strings.NewReader(env)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a header naming an encoding decodes with %v, want ErrCorrupt", err)
	}
}

// TestWriteFileKeepsOldFileOnError: a write that fails leaves the
// previous file in place and no temp file behind; one that succeeds
// replaces it with a world-readable file.
func TestWriteFileKeepsOldFileOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session.ipgsnap")
	write := func(text string, err error) func(io.Writer) error {
		return func(w io.Writer) error {
			if _, werr := io.WriteString(w, text); werr != nil {
				return werr
			}
			return err
		}
	}
	if err := WriteFile(path, write("old", nil)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, write("partial", boom)); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("after a failed write the file holds %q (%v), want the old contents", got, err)
	}
	if err := WriteFile(path, write("new", nil)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" || info.Mode().Perm() != 0o644 {
		t.Errorf("file holds %q with mode %v, want \"new\" with 0644", got, info.Mode().Perm())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d files, want only the written one", len(entries))
	}
}
