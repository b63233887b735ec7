// Package snapshot persists parse-table state across process restarts.
//
// The paper's economics depend on the lazily generated parse table being
// an asset: real workloads only ever generate ~60% of it (section 5.2),
// and every parse after the warm-up reuses that frontier for free. A
// service that throws the table away on restart forfeits exactly those
// savings. This package writes per-grammar snapshot files that a
// restarted service loads to resume its lazy frontiers instantly.
//
// A snapshot file is a small envelope around the lr table format:
//
//	ipg-snapshot v1\n
//	{...json header...}\n
//	<payload bytes>
//
// The header carries a grammar hash (so a stale snapshot is rejected
// instead of corrupting a live table), the payload length and a SHA-256
// checksum (so truncation and bit rot are detected), plus descriptive
// metadata for stats endpoints. Files are written atomically — temp file
// in the same directory, fsync, rename — so a crash mid-write leaves the
// previous snapshot intact, never a torn one.
package snapshot

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ipg/internal/core"
	"ipg/internal/grammar"
	"ipg/internal/lr"
)

const magic = "ipg-snapshot v1"

// ErrNotFound is returned by Store.Load when no snapshot exists for the
// requested name.
var ErrNotFound = errors.New("snapshot: not found")

// ErrCorrupt wraps integrity failures: truncated payloads, checksum
// mismatches, malformed headers. Callers fall back to cold generation.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrGrammarMismatch is returned by Meta.ValidateFor when the snapshot
// was taken from a different grammar than the one being registered.
var ErrGrammarMismatch = errors.New("snapshot: grammar hash mismatch")

// Meta is the snapshot header: everything needed to validate the payload
// before trusting it, plus descriptive fields for stats.
type Meta struct {
	// Name is the registry name the snapshot was taken under.
	Name string `json:"name"`
	// Form is the source form ("rules", "sdf") of the entry.
	Form string `json:"form,omitempty"`
	// Version is the entry's grammar revision at snapshot time.
	Version uint64 `json:"version"`
	// GrammarHash fingerprints the rule set (see Hash); a snapshot only
	// restores onto a grammar with the same hash.
	GrammarHash string `json:"grammar_hash"`
	// CreatedUnix is the snapshot time (seconds).
	CreatedUnix int64 `json:"created_unix"`
	// PayloadLen and PayloadSHA256 guard the payload against truncation
	// and corruption.
	PayloadLen    int    `json:"payload_len"`
	PayloadSHA256 string `json:"payload_sha256"`
	// States/Complete describe the table at snapshot time (for stats).
	States   int `json:"states"`
	Complete int `json:"complete"`
}

// ValidateFor checks that the snapshot was taken from g's exact rule
// set. A mismatch means the grammar changed between sessions; restoring
// would corrupt the table, so callers must generate cold instead.
func (m Meta) ValidateFor(g *grammar.Grammar) error {
	if h := Hash(g); h != m.GrammarHash {
		return fmt.Errorf("%w: snapshot %s, grammar %s", ErrGrammarMismatch, short(m.GrammarHash), short(h))
	}
	return nil
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// Snapshot is one persisted table: validated header plus the serialized
// lr automaton (the payload lr.Load reads).
type Snapshot struct {
	Meta
	Payload []byte
}

// Take serializes a table generated for g through save (the
// SaveTable method of core.Generator or of a persistable engine) into a
// snapshot named name. The header records g's hash and the table
// coverage save reports; callers may add the descriptive fields.
func Take(name string, g *grammar.Grammar, save func(io.Writer) (core.CoverageStats, error)) (*Snapshot, error) {
	var buf bytes.Buffer
	cov, err := save(&buf)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Meta: Meta{
			Name:        name,
			GrammarHash: Hash(g),
			CreatedUnix: Now(),
			States:      cov.Initial + cov.Complete + cov.Dirty,
			Complete:    cov.Complete,
		},
		Payload: buf.Bytes(),
	}, nil
}

// Restore validates the snapshot against g — a mismatch wraps
// ErrGrammarMismatch — and loads its graph of item sets over g, ready to
// resume (core.NewFromAutomaton, or a persistable engine's
// RestoreTable).
func (s *Snapshot) Restore(g *grammar.Grammar) (*lr.Automaton, error) {
	if err := s.ValidateFor(g); err != nil {
		return nil, err
	}
	return lr.Load(g, bytes.NewReader(s.Payload))
}

// Hash fingerprints a grammar's observable rule set: the start symbol
// and the sorted rule renderings. Two grammars with the same hash accept
// the same language with the same rule identities, which is exactly the
// condition under which a saved table resolves correctly at load time.
func Hash(g *grammar.Grammar) string {
	h := sha256.New()
	io.WriteString(h, g.Symbols().Name(g.Start()))
	io.WriteString(h, "\x00")
	for _, r := range g.SortedRuleStrings() {
		io.WriteString(h, r)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Encode writes the envelope: magic, header line, payload. The header's
// integrity fields are computed here, so callers only fill the
// descriptive ones.
func Encode(w io.Writer, snap *Snapshot) error {
	m := snap.Meta
	m.PayloadLen = len(snap.Payload)
	sum := sha256.Sum256(snap.Payload)
	m.PayloadSHA256 = hex.EncodeToString(sum[:])
	header, err := json.Marshal(m)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, magic)
	bw.Write(header)
	bw.WriteByte('\n')
	bw.Write(snap.Payload)
	return bw.Flush()
}

// Decode reads and verifies an envelope: magic, header syntax, payload
// length and checksum. Any integrity failure is reported as ErrCorrupt
// so callers can distinguish "broken file" from "wrong grammar"; so is
// a header field Meta does not know, such as the payload encoding older
// writers could record.
func Decode(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	magicLine, err := br.ReadString('\n')
	if err != nil || strings.TrimRight(magicLine, "\n") != magic {
		return nil, fmt.Errorf("%w: missing %q header", ErrCorrupt, magic)
	}
	headerLine, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	var m Meta
	dec := json.NewDecoder(bytes.NewReader(headerLine))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: bad header: %v", ErrCorrupt, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: bad header: data after the JSON object", ErrCorrupt)
	}
	payload, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrCorrupt, err)
	}
	if len(payload) != m.PayloadLen {
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d (truncated?)", ErrCorrupt, len(payload), m.PayloadLen)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != m.PayloadSHA256 {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	return &Snapshot{Meta: m, Payload: payload}, nil
}

// Store manages the snapshot files of one directory, one file per
// grammar name. All methods are safe for concurrent use by multiple
// goroutines (atomic rename is the only mutation).
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a snapshot directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("snapshot: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

const fileExt = ".ipgsnap"

// Path returns the file path a grammar name maps to. Names are
// percent-escaped so arbitrary registry names (slashes, dots, spaces)
// produce exactly one safe filename each.
func (st *Store) Path(name string) string {
	return filepath.Join(st.dir, url.PathEscape(name)+fileExt)
}

// Save writes snap over its name's previous snapshot, atomically (see
// WriteFile).
func (st *Store) Save(snap *Snapshot) error {
	err := WriteFile(st.Path(snap.Name), func(w io.Writer) error { return Encode(w, snap) })
	if err != nil {
		return fmt.Errorf("snapshot: save %q: %w", snap.Name, err)
	}
	return nil
}

// WriteFile replaces the file at path with what write produces,
// atomically: write fills a temp file in the same directory, which is
// fsynced, made world-readable and renamed over path. A crash at any
// point leaves either the old file or the new one — never a torn or
// empty file.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*"+filepath.Ext(path))
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads and verifies the snapshot for name. It returns ErrNotFound
// when no file exists and wraps ErrCorrupt on any integrity failure.
func (st *Store) Load(name string) (*Snapshot, error) {
	f, err := os.Open(st.Path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: load %q: %w", name, err)
	}
	defer f.Close()
	snap, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot: load %q: %w", name, err)
	}
	return snap, nil
}

// Remove deletes the snapshot for name, reporting whether one existed.
func (st *Store) Remove(name string) bool {
	return os.Remove(st.Path(name)) == nil
}

// List returns the names with a snapshot file, sorted.
func (st *Store) List() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var names []string
	for _, e := range entries {
		base := e.Name()
		if e.IsDir() || !strings.HasSuffix(base, fileExt) || strings.HasPrefix(base, ".tmp-") {
			continue
		}
		name, err := url.PathUnescape(strings.TrimSuffix(base, fileExt))
		if err != nil {
			continue // foreign file; not ours
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Now is the clock Save headers use; tests may override CreatedUnix
// directly instead.
func Now() int64 { return time.Now().Unix() }
