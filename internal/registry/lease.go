// Leases: the one lifecycle of the per-client state the registry keeps
// between requests — document sessions (session.go) and completion
// cursors (complete.go). A lease is addressed by id and bound to the
// entry that opened it. It is inserted only once its first operation
// succeeded, and it ends exactly once: closed by id, evicted idle,
// closed with its entry when the grammar is replaced or removed, or
// closed by a drain. leaseTable owns that lifecycle for one kind; the
// kinds keep only their engine object, work counters and request
// bodies.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LeaseTotals is one lease kind's lifecycle accounting. The counters
// move under the table lock together with the table, so every read
// sees Opened == Open + Closed + Evicted.
type LeaseTotals struct {
	Open    int
	Opened  uint64
	Evicted uint64
	// Closed counts leases closed by id, with their entry, or by a
	// drain.
	Closed uint64
}

// leaseLimits are one kind's population limits: SessionLimits and
// CompletionLimits in the kind-neutral shape. Zero means unlimited
// (and, for idle, never evict).
type leaseLimits struct {
	max    int // open leases across all grammars
	tokens int // tokens per lease, at open and after every later request
	idle   time.Duration
}

// lease is the part of per-client state every kind embeds.
type lease struct {
	id    string
	entry *Entry
	reg   *Registry
	// maxTokens is the kind's token budget when the lease opened.
	maxTokens int
	lastUsed  atomic.Int64 // unix nanoseconds

	// mu serializes the lease's requests and guards the embedding
	// kind's engine object and work counters; closed is set once,
	// under mu, when the engine object is released.
	mu     sync.Mutex
	closed bool
}

func (l *lease) base() *lease { return l }

func (l *lease) touch() { l.lastUsed.Store(time.Now().UnixNano()) }

func (l *lease) idleFor(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, l.lastUsed.Load()))
}

// ID returns the lease's registry-wide identifier.
func (l *lease) ID() string { return l.id }

// Entry returns the owning registry entry.
func (l *lease) Entry() *Entry { return l.entry }

// leased is a lease kind: a pointer to a struct embedding lease.
type leased interface {
	base() *lease
	// release closes the engine object. It runs once per lease, under
	// its mu or before the lease is published.
	release()
}

// closeLease releases x's engine object unless that already happened.
func closeLease[T leased](x T) {
	l := x.base()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		x.release()
	}
}

// leaseWork counts the work of all leases where it happens, so reading
// it waits on no lease's request and a lease's work outlives the lease.
// An open counts its first operation once the lease is inserted: a
// failed open or a one-shot query adds nothing.
type leaseWork struct {
	splices, reparses, fullReparses, setsReused, setsRebuilt atomic.Uint64
	queries, feeds                                           atomic.Uint64
}

// tooLong reports n tokens over a lease's token budget max (0 means
// unlimited) as err, the kind's size error.
func tooLong(err error, n, max int) error {
	if max > 0 && n > max {
		return fmt.Errorf("%w (%d tokens, limit %d)", err, n, max)
	}
	return nil
}

// leaseTable is the population of one lease kind.
type leaseTable[T leased] struct {
	idFormat string // formats (grammar name, sequence number) into an id
	errFull  error  // the kind's population-cap error

	mu                      sync.Mutex
	limits                  leaseLimits
	m                       map[string]T
	seq                     uint64
	opened, evicted, closed uint64
}

func (t *leaseTable[T]) setLimits(l leaseLimits) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.limits = l
}

func (t *leaseTable[T]) getLimits() leaseLimits {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limits
}

// fullLocked reports the population cap max as reached. Callers hold
// t.mu.
func (t *leaseTable[T]) fullLocked(max int) error {
	if max > 0 && len(t.m) >= max {
		return fmt.Errorf("%w (limit %d)", t.errFull, max)
	}
	return nil
}

// open opens one lease inside the caller's admitted request. A full
// table refuses before start runs. start builds the lease under the
// kind's token budget — entry and reg set, engine object open — and
// runs its first operation, releasing what it built when that fails. The lease is inserted only when start succeeded and the cap,
// checked again under the lock since concurrent opens may have raced
// past the first check, still has room; only then does it get its id
// and count as opened.
func (t *leaseTable[T]) open(start func(maxTokens int) (T, error)) (T, error) {
	var none T
	t.mu.Lock()
	limits := t.limits
	err := t.fullLocked(limits.max)
	t.mu.Unlock()
	if err != nil {
		return none, err
	}
	x, err := start(limits.tokens)
	if err != nil {
		return none, err
	}
	l := x.base()
	t.mu.Lock()
	if err := t.fullLocked(limits.max); err != nil {
		t.mu.Unlock()
		x.release()
		return none, err
	}
	t.seq++
	l.id = fmt.Sprintf(t.idFormat, l.entry.name, t.seq)
	l.touch()
	if t.m == nil {
		t.m = map[string]T{}
	}
	t.m[l.id] = x
	t.opened++
	t.mu.Unlock()
	return x, nil
}

func (t *leaseTable[T]) get(id string) (T, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	x, ok := t.m[id]
	return x, ok
}

// close closes and forgets the lease registered under id, reporting
// whether it existed.
func (t *leaseTable[T]) close(id string) bool {
	t.mu.Lock()
	x, ok := t.m[id]
	if ok {
		delete(t.m, id)
		t.closed++
	}
	t.mu.Unlock()
	if ok {
		closeLease(x)
	}
	return ok
}

// sweep removes every lease match selects, counting each as evicted or
// closed under the table lock, then closes them outside it (a lease
// mid-request holds its mu). It returns how many it removed.
func (t *leaseTable[T]) sweep(evict bool, match func(*lease) bool) int {
	t.mu.Lock()
	var victims []T
	for id, x := range t.m {
		if match(x.base()) {
			delete(t.m, id)
			victims = append(victims, x)
		}
	}
	if evict {
		t.evicted += uint64(len(victims))
	} else {
		t.closed += uint64(len(victims))
	}
	t.mu.Unlock()
	for _, x := range victims {
		closeLease(x)
	}
	return len(victims)
}

// evictIdle reclaims the leases untouched for longer than the idle
// limit (none when it is zero).
func (t *leaseTable[T]) evictIdle(now time.Time) int {
	idle := t.getLimits().idle
	if idle <= 0 {
		return 0
	}
	return t.sweep(true, func(l *lease) bool { return l.idleFor(now) > idle })
}

func (t *leaseTable[T]) closeAll() int {
	return t.sweep(false, func(*lease) bool { return true })
}

// closeOf closes the leases bound to e: its engine is being replaced
// or removed, and their engine objects refer to it.
func (t *leaseTable[T]) closeOf(e *Entry) int {
	return t.sweep(false, func(l *lease) bool { return l.entry == e })
}

func (t *leaseTable[T]) totals() LeaseTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return LeaseTotals{Open: len(t.m), Opened: t.opened, Evicted: t.evicted, Closed: t.closed}
}

// list returns the open leases, sorted by id.
func (t *leaseTable[T]) list() []T {
	t.mu.Lock()
	open := make([]T, 0, len(t.m))
	for _, x := range t.m {
		open = append(open, x)
	}
	t.mu.Unlock()
	sort.Slice(open, func(i, j int) bool { return open[i].base().id < open[j].base().id })
	return open
}
