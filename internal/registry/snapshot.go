package registry

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"ipg/internal/engine"
	"ipg/internal/faultinject"
	"ipg/internal/obs"
	"ipg/internal/snapshot"
)

// This file wires table snapshots through the registry: entries resume
// their lazily generated tables from a snapshot store on registration
// (when the grammar hash matches), and can be snapshotted at any time —
// on demand, on an interval, or at shutdown — while other goroutines
// keep parsing. A snapshot only blocks lazy expansion and modification,
// never the already-published fast path.

// ErrNoStore is returned by the snapshot methods when no snapshot store
// has been configured (SetSnapshotStore).
var ErrNoStore = errors.New("registry: no snapshot store configured")

// ErrUnknownGrammar is returned (wrapped with the name) when a snapshot
// is requested for a name with no registered entry.
var ErrUnknownGrammar = errors.New("registry: unknown grammar")

// ErrNotSnapshottable is returned when a snapshot is requested for an
// entry whose engine keeps no persistable table (only lazy GLR does).
// SnapshotAll skips such entries instead of failing.
var ErrNotSnapshottable = errors.New("registry: entry's engine does not support snapshots")

// SetSnapshotStore enables snapshot persistence through st (nil
// disables it). Call before serving traffic; it is not synchronized
// against concurrent Register/Snapshot calls.
func (r *Registry) SetSnapshotStore(st *snapshot.Store) { r.store = st }

// SetSnapshotRetry configures the bounded retry of failed snapshot
// saves: up to retries re-attempts per save, sleeping backoff, 2×
// backoff, 4× backoff … (capped at one second) between attempts. Zero
// retries (the default) fails on the first error. Call before serving
// traffic.
func (r *Registry) SetSnapshotRetry(retries int, backoff time.Duration) {
	r.snapRetryMax = retries
	r.snapRetryBackoff = backoff
}

// saveSnapshot writes snap through the store with the configured
// bounded-backoff retry. The fault-injection site lets the chaos
// harness fail writes deterministically.
func (r *Registry) saveSnapshot(snap *snapshot.Snapshot) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = r.trySave(snap)
		if err == nil {
			return nil
		}
		if attempt >= r.snapRetryMax {
			return err
		}
		r.snapRetries.Add(1)
		if d := r.snapRetryBackoff; d > 0 {
			d <<= attempt
			if d > time.Second {
				d = time.Second
			}
			time.Sleep(d)
		}
	}
}

func (r *Registry) trySave(snap *snapshot.Snapshot) error {
	if faultinject.Armed() {
		if ferr := faultinject.Fire(faultinject.SiteSnapshotSave); ferr != nil {
			return ferr
		}
	}
	return r.store.Save(snap)
}

// SnapshotRetries counts snapshot save attempts that were retried.
func (r *Registry) SnapshotRetries() uint64 { return r.snapRetries.Load() }

// SnapshotStore returns the configured store (nil when disabled).
func (r *Registry) SnapshotStore() *snapshot.Store { return r.store }

// SetLogger directs the registry's structured log events — snapshot
// restores, fallbacks and failures — to l. Call before serving
// traffic; nil silences logging.
func (r *Registry) SetLogger(l *slog.Logger) { r.logger = l }

// SetDefaultLimits sets the admission control applied to every spec
// registered with zero Limits. Call before serving traffic.
func (r *Registry) SetDefaultLimits(l Limits) { r.defaultLimits = l }

// SetDefaultEngine sets the backend applied to every spec registered
// with engine.KindDefault (the zero value keeps lazy GLR). Call before
// serving traffic.
func (r *Registry) SetDefaultEngine(k engine.Kind) { r.defaultEngine = k }

// log returns the configured logger, or a discard logger so call sites
// never nil-check. Logging happens off the parse hot path only
// (registration, snapshot writes), so the indirection costs nothing
// where it matters.
func (r *Registry) log() *slog.Logger {
	if r.logger != nil {
		return r.logger
	}
	return obs.NopLogger()
}

// tryRestore replaces the engine's cold table with one resumed from the
// store's snapshot, when the engine supports snapshots (lazy GLR) and a
// snapshot exists whose grammar hash matches the freshly compiled
// grammar. Every failure mode — unsupported engine, corrupt file, stale
// hash, unloadable table — logs a reason and leaves the cold table in
// place: a snapshot can be lost, but it must never corrupt a table or
// fail a registration.
func (r *Registry) tryRestore(e *Entry) {
	if r.store == nil {
		return
	}
	snapper := engine.SnapshotterOf(e.eng)
	if snapper == nil {
		r.log().Info("snapshot skipped: engine keeps no persistable table, generating cold",
			"grammar", e.name, "engine", e.eng.Kind().String())
		return
	}
	snap, err := r.store.Load(e.name)
	switch {
	case errors.Is(err, snapshot.ErrNotFound):
		return
	case err != nil:
		r.snapErrors.Add(1)
		r.log().Warn("snapshot unreadable, generating cold",
			"grammar", e.name, "err", err)
		return
	}
	auto, err := snap.Restore(e.Grammar())
	switch {
	case errors.Is(err, snapshot.ErrGrammarMismatch):
		r.snapRejected.Add(1)
		r.log().Warn("snapshot stale, generating cold",
			"grammar", e.name, "err", err)
		return
	case err != nil:
		r.snapErrors.Add(1)
		r.log().Warn("snapshot table load failed, generating cold",
			"grammar", e.name, "err", err)
		return
	}
	snapper.RestoreTable(auto)
	e.restored = true
	r.snapRestores.Add(1)
	r.log().Info("snapshot resumed",
		"grammar", e.name, "states", snap.States, "complete", snap.Complete,
		"path", r.store.Path(e.name))
}

// Snapshot serializes the entry's table — lazy frontier, publication
// flags, dirty history and work stats — into a validated snapshot. It
// returns ErrNotSnapshottable (wrapped) for engines without persistable
// tables. Concurrent parses on already-expanded states proceed while
// the table is serialized; expansions and rule updates wait.
func (e *Entry) Snapshot() (*snapshot.Snapshot, error) {
	e.updateMu.RLock()
	defer e.updateMu.RUnlock()
	snapper := engine.SnapshotterOf(e.eng)
	if snapper == nil {
		return nil, fmt.Errorf("%w: %q uses engine %s", ErrNotSnapshottable, e.name, e.eng.Kind())
	}
	snap, err := snapshot.Take(e.name, e.Grammar(), snapper.SaveTable)
	if err != nil {
		return nil, fmt.Errorf("registry: snapshot %q: %w", e.name, err)
	}
	snap.Form = e.form.String()
	snap.Version = e.version.Load()
	return snap, nil
}

// SnapshotEntry snapshots one entry to the store and returns the
// written header. It reports ErrUnknownGrammar (wrapped) when name has
// no entry — e.g. it was removed concurrently.
func (r *Registry) SnapshotEntry(name string) (snapshot.Meta, error) {
	if r.store == nil {
		return snapshot.Meta{}, ErrNoStore
	}
	e, ok := r.Get(name)
	if !ok {
		return snapshot.Meta{}, fmt.Errorf("%w: %q", ErrUnknownGrammar, name)
	}
	return r.snapshotEntry(e)
}

// snapshotEntry persists one already-resolved entry.
func (r *Registry) snapshotEntry(e *Entry) (snapshot.Meta, error) {
	snap, err := e.Snapshot()
	if errors.Is(err, ErrNotSnapshottable) {
		// Capability gap, not a failure: leave the error counters alone.
		return snapshot.Meta{}, err
	}
	if err != nil {
		r.snapErrors.Add(1)
		return snapshot.Meta{}, err
	}
	if err := r.saveSnapshot(snap); err != nil {
		r.snapErrors.Add(1)
		return snapshot.Meta{}, err
	}
	r.snapSaves.Add(1)
	e.snapSaves.Add(1)
	r.lastSnapUnix.Store(time.Now().Unix())
	return snap.Meta, nil
}

// SnapshotAll snapshots every registered entry whose engine supports
// it, returning how many were written and the joined errors of the rest
// (entries on non-persistable engines are skipped silently — a capability
// gap, not a failure). Call it on shutdown and on a timer so a restarted
// service resumes warm.
func (r *Registry) SnapshotAll() (int, error) {
	if r.store == nil {
		return 0, ErrNoStore
	}
	var errs []error
	saved := 0
	for _, e := range r.Entries() {
		if _, err := r.snapshotEntry(e); err != nil {
			if !errors.Is(err, ErrNotSnapshottable) {
				errs = append(errs, err)
			}
			continue
		}
		saved++
	}
	return saved, errors.Join(errs...)
}

// SnapshotGC removes the snapshot files of grammars explicitly
// unregistered (Remove) since the last pass — the compaction side of a
// long-lived snapshot directory, where tenants come and go but their
// envelope files would otherwise accumulate forever. It returns the
// reclaimed names.
//
// Only explicit removals are compacted: a name merely absent from the
// registry may be an HTTP-registered grammar of a previous process run
// whose snapshot is exactly the warm restart it expects on
// re-registration, so absence is not treated as removal (use
// snapshot.Store.GC directly for a keep-list sweep). A name that a
// registration has cleared since, mid-flight or published, is likewise
// never touched: the name is checked and its file deleted under the
// lock Register clears it under.
func (r *Registry) SnapshotGC() ([]string, error) {
	if r.store == nil {
		return nil, ErrNoStore
	}
	r.mu.RLock()
	candidates := make([]string, 0, len(r.removed))
	for name := range r.removed {
		candidates = append(candidates, name)
	}
	r.mu.RUnlock()

	var reclaimed []string
	for _, name := range candidates {
		r.mu.Lock()
		if r.removed[name] {
			r.store.Remove(name)
			// Forget the name whether or not a file existed; re-removal
			// after a future registration re-records it.
			delete(r.removed, name)
			reclaimed = append(reclaimed, name)
		}
		r.mu.Unlock()
	}
	sort.Strings(reclaimed)
	return reclaimed, nil
}

// SnapshotStats describes the snapshot subsystem for stats endpoints.
type SnapshotStats struct {
	// Enabled reports whether a store is configured; Dir is its
	// directory when enabled.
	Enabled bool
	Dir     string
	// Saves/Restores/Rejected/Errors count snapshot writes, successful
	// restores at registration, hash-mismatch rejections and
	// corrupt/unreadable failures; Retries counts save attempts that
	// were re-tried after a write error.
	Saves, Restores, Rejected, Errors, Retries uint64
	// LastSaveUnix is the time of the most recent successful save
	// (0 = never).
	LastSaveUnix int64
}

// SnapshotStats samples the snapshot subsystem counters.
func (r *Registry) SnapshotStats() SnapshotStats {
	st := SnapshotStats{
		Saves:        r.snapSaves.Load(),
		Restores:     r.snapRestores.Load(),
		Rejected:     r.snapRejected.Load(),
		Errors:       r.snapErrors.Load(),
		Retries:      r.snapRetries.Load(),
		LastSaveUnix: r.lastSnapUnix.Load(),
	}
	if r.store != nil {
		st.Enabled = true
		st.Dir = r.store.Dir()
	}
	return st
}
