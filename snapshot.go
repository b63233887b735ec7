package ipg

import (
	"io"

	"ipg/internal/core"
	"ipg/internal/lang"
	"ipg/internal/snapshot"
)

// This file re-exports the snapshot/warm-restart subsystem: persisted
// parse tables carry the full lazy state (frontier, publication flags,
// invalidation history), are validated by grammar hash and checksum,
// and a store writes them atomically so a crash never leaves a torn
// snapshot. See internal/snapshot for the file format.

// SnapshotStore manages a directory of checksummed per-grammar table
// snapshots with atomic writes.
type SnapshotStore = snapshot.Store

// Snapshot is one persisted parse table with its validated header.
type Snapshot = snapshot.Snapshot

// SnapshotMeta is a snapshot's header: grammar hash, payload checksum
// and table statistics.
type SnapshotMeta = snapshot.Meta

// NewSnapshotStore opens (creating if needed) a snapshot directory.
func NewSnapshotStore(dir string) (*SnapshotStore, error) { return snapshot.NewStore(dir) }

// GrammarHash fingerprints a grammar's rule set; a snapshot restores
// only onto a grammar with the same hash.
func GrammarHash(g *Grammar) string { return snapshot.Hash(g) }

// SaveSnapshot persists the parser's table inside the checksummed
// snapshot envelope: unlike the raw SaveTable format, the result
// records the grammar hash, so LoadSnapshotParser can reject a stale
// file instead of resolving it against the wrong grammar, and detects
// truncation or corruption by checksum.
func (p *Parser) SaveSnapshot(w io.Writer, name string) error {
	p.mu.RLock()
	snap, err := snapshot.Take(name, p.Grammar(), p.gen.SaveTable)
	p.mu.RUnlock()
	if err != nil {
		return err
	}
	return snapshot.Encode(w, snap)
}

// LoadSnapshotParser rebuilds a parser from a snapshot written by
// SaveSnapshot, after verifying the payload checksum and that g's rule
// set matches the snapshot's grammar hash. On any validation failure it
// returns an error and the caller should build a cold parser instead.
func LoadSnapshotParser(g *Grammar, r io.Reader, opts *Options) (*Parser, error) {
	snap, err := snapshot.Decode(r)
	if err != nil {
		return nil, err
	}
	auto, err := snap.Restore(g)
	if err != nil {
		return nil, err
	}
	return newParser(lang.New(g), core.NewFromAutomaton(auto, nil), opts), nil
}
