package registry

// This file is the registry's fault-tolerance layer: per-request
// cancellation armed from the request context, panic quarantine fed by
// the guarded engine dispatch, a per-grammar circuit breaker, the
// draining flag a graceful shutdown raises, a global memory budget
// across entries, and a latency shedder that rejects a fraction of
// requests while the service's p99 is inflated. Everything here is
// off the warm path or costs a handful of atomic loads; nothing
// allocates unless the request is actually cancellable or rejected.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ipg/internal/cancel"
)

// ErrQuarantined reports a breaker rejection: the grammar's engine
// panicked repeatedly and the entry is quarantined until a cooldown
// probe succeeds. Serve maps it to 503 with Retry-After.
var ErrQuarantined = errors.New("registry: grammar quarantined after repeated engine panics")

// ErrDraining reports a drain rejection: the service is shutting down
// and no longer admits new parses. Serve maps it to 503.
var ErrDraining = errors.New("registry: service is draining")

// ErrMemoryBudget reports an admission rejection against the global
// memory budget: the estimated retained bytes across all entries and
// sessions exceed the configured cap. Serve maps it to 429.
var ErrMemoryBudget = errors.New("registry: global memory budget exceeded")

// ErrShed reports a load-shedding rejection: the service's p99 latency
// is inflated beyond its baseline and a fraction of requests is being
// dropped to let it recover. Serve maps it to 429.
var ErrShed = errors.New("registry: request shed (latency inflation)")

// QuarantineError is the concrete breaker rejection: it matches
// ErrQuarantined via errors.Is and carries the suggested retry delay.
type QuarantineError struct {
	Grammar    string
	RetryAfter time.Duration
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("registry: grammar %q quarantined after repeated engine panics (retry in %s)",
		e.Grammar, e.RetryAfter.Round(time.Millisecond))
}

// Is makes errors.Is(err, ErrQuarantined) match.
func (e *QuarantineError) Is(target error) bool { return target == ErrQuarantined }

// BreakerConfig configures the per-grammar circuit breaker. The zero
// value disables it.
type BreakerConfig struct {
	// Threshold is how many consecutive engine panics open the breaker
	// (0 disables the breaker).
	Threshold int
	// Cooldown is how long an open breaker rejects before admitting a
	// half-open probe parse.
	Cooldown time.Duration
}

// Breaker states. The breaker is a standard three-state circuit:
// closed (serving), open (rejecting until cooldown), half-open (one
// probe parse in flight decides).
const (
	breakerClosed uint32 = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one entry's panic circuit. All fields are atomics: the
// admission check is lock-free and the state transitions are CAS-based,
// so a tripped tenant costs concurrent healthy tenants nothing.
type breaker struct {
	state    atomic.Uint32
	fails    atomic.Uint32 // consecutive engine panics
	openedNS atomic.Int64  // when the breaker last opened
	probing  atomic.Bool   // a half-open probe is in flight
	probeNS  atomic.Int64  // when the probe was admitted
	trips    atomic.Uint64
	rejected atomic.Uint64
}

// admit decides whether a request may proceed. On rejection it returns
// the suggested retry delay. In the half-open state exactly one request
// is admitted as the probe; a probe that never reports back (its
// request failed before the parse) is taken over after another
// cooldown, so the breaker cannot wedge half-open forever.
func (b *breaker) admit(cooldown time.Duration) (ok bool, retryAfter time.Duration) {
	now := time.Now().UnixNano()
	switch b.state.Load() {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if rem := cooldown - time.Duration(now-b.openedNS.Load()); rem > 0 {
			return false, rem
		}
		// Cooldown over: move to half-open. Whoever wins (or loses) the
		// CAS falls into the probe election below.
		b.state.CompareAndSwap(breakerOpen, breakerHalfOpen)
	}
	// Half-open: elect one probe.
	if b.probing.CompareAndSwap(false, true) {
		b.probeNS.Store(now)
		return true, 0
	}
	if time.Duration(now-b.probeNS.Load()) > cooldown {
		// The elected probe vanished (failed before parsing); take over.
		b.probeNS.Store(now)
		return true, 0
	}
	return false, cooldown
}

// onPanic records an engine panic: the probe failing reopens the
// breaker; enough consecutive failures trip a closed one.
func (b *breaker) onPanic(threshold int) {
	n := b.fails.Add(1)
	if b.state.Load() == breakerHalfOpen {
		b.reopen()
		return
	}
	if threshold > 0 && int(n) >= threshold &&
		b.state.CompareAndSwap(breakerClosed, breakerOpen) {
		b.openedNS.Store(time.Now().UnixNano())
		b.trips.Add(1)
	}
}

// onSuccess records a completed, panic-free parse: the failure streak
// resets and a successful probe closes the breaker.
func (b *breaker) onSuccess() {
	b.fails.Store(0)
	if b.state.Load() == breakerHalfOpen &&
		b.state.CompareAndSwap(breakerHalfOpen, breakerClosed) {
		b.probing.Store(false)
	}
}

// onInconclusive releases a probe whose parse neither succeeded nor
// panicked (canceled mid-drive): the breaker stays half-open and the
// next request probes again.
func (b *breaker) onInconclusive() {
	if b.state.Load() == breakerHalfOpen {
		b.probing.Store(false)
	}
}

func (b *breaker) reopen() {
	b.state.Store(breakerOpen)
	b.openedNS.Store(time.Now().UnixNano())
	b.trips.Add(1)
	b.probing.Store(false)
}

// stateName names the breaker state for stats and metrics.
func (b *breaker) stateName() string {
	switch b.state.Load() {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// BreakerStats snapshots one entry's circuit breaker.
type BreakerStats struct {
	// State is "closed", "open" or "half_open".
	State string
	// ConsecutiveFailures is the current panic streak.
	ConsecutiveFailures uint32
	// Trips counts closed→open (and probe-failure reopen) transitions.
	Trips uint64
	// Rejected counts requests refused while open.
	Rejected uint64
}

// resilience is the registry-global fault-tolerance state, shared with
// every entry by pointer (like the profile-label switch) so the
// admission gate reads it without reaching back into the registry.
type resilience struct {
	brkThreshold atomic.Int64
	brkCooldown  atomic.Int64 // nanoseconds

	draining      atomic.Bool
	drainRejected atomic.Uint64

	memBudget   atomic.Int64 // bytes; 0 = unlimited
	memUsage    atomic.Int64 // last RefreshMemoryUsage estimate
	memRejected atomic.Uint64

	shedActive atomic.Bool
	shedMod    atomic.Int64 // reject one request in shedMod while active
	shedSeq    atomic.Uint64
	shedShed   atomic.Uint64

	// Shedder tick state (serialized; ticks are infrequent).
	shedMu         sync.Mutex
	shedPrev       LatencySnapshot
	shedPrevOK     bool
	shedBaselineUS float64
}

// SetBreakerConfig installs the per-grammar circuit breaker
// configuration (applies to every entry; zero Threshold disables).
// Safe to call while serving.
func (r *Registry) SetBreakerConfig(cfg BreakerConfig) {
	r.res.brkThreshold.Store(int64(cfg.Threshold))
	r.res.brkCooldown.Store(int64(cfg.Cooldown))
}

// BreakerConfig returns the current breaker configuration.
func (r *Registry) BreakerConfig() BreakerConfig {
	return BreakerConfig{
		Threshold: int(r.res.brkThreshold.Load()),
		Cooldown:  time.Duration(r.res.brkCooldown.Load()),
	}
}

// SetDraining raises (or clears) the draining flag: while set, every
// admission is rejected with ErrDraining. In-flight parses are not
// interrupted by the flag itself — the serving layer cancels their
// request contexts when the drain timeout expires, which fires their
// cancellation flags with reason Shutdown.
func (r *Registry) SetDraining(on bool) { r.res.draining.Store(on) }

// Draining reports whether the registry is refusing new work.
func (r *Registry) Draining() bool { return r.res.draining.Load() }

// SetMemoryBudget installs the global retained-memory budget in bytes
// (0 disables). The budget is compared against the estimate refreshed
// by RefreshMemoryUsage; call that periodically (the serve layer's
// janitor does) or the check never fires.
func (r *Registry) SetMemoryBudget(bytes int64) { r.res.memBudget.Store(bytes) }

// Rough per-unit retained-size estimates for the global memory budget.
// They intentionally overestimate: an admission budget should fail
// early, and the point is bounding growth, not accounting bytes.
const (
	stateEstimateBytes = 768 // one parse-table state (actions + gotos + items)
	itemEstimateBytes  = 48  // one retained Earley item
	nodeEstimateBytes  = 96  // one retained forest node
	tokenEstimateBytes = 8   // one retained document token
)

// RefreshMemoryUsage recomputes the coarse estimate of retained bytes
// across every entry's parse table and every open session's chart,
// forest and document, and publishes it for the admission check. It
// returns the new estimate.
func (r *Registry) RefreshMemoryUsage() int64 {
	var total int64
	for _, e := range r.Entries() {
		e.updateMu.RLock()
		info := e.eng.TableInfo()
		e.updateMu.RUnlock()
		total += int64(info.States) * stateEstimateBytes
	}
	for _, st := range r.SessionStats() {
		total += int64(st.Items)*itemEstimateBytes +
			int64(st.ForestNodes)*nodeEstimateBytes +
			int64(st.Tokens)*tokenEstimateBytes
	}
	r.res.memUsage.Store(total)
	return total
}

// ShedConfig configures the p99-inflation load shedder. The zero value
// disables it.
type ShedConfig struct {
	// Factor activates shedding when the latest window's p99 exceeds
	// Factor times the healthy baseline (must be > 1).
	Factor float64
	// MinSamples ignores windows with fewer requests than this, so a
	// quiet service never sheds on noise.
	MinSamples uint64
	// DropPer rejects one request in DropPer while shedding is active
	// (e.g. 4 sheds 25% of load).
	DropPer int
}

// ShedTick advances the latency shedder by one window: it diffs the
// aggregate request-latency histogram against the previous tick,
// compares the window's p99 with an exponentially weighted baseline of
// healthy windows, and switches shedding on or off. The serve layer
// calls it on a timer; it reports whether shedding is now active.
func (r *Registry) ShedTick(cfg ShedConfig) bool {
	rs := &r.res
	if cfg.Factor <= 1 || cfg.DropPer < 1 {
		rs.shedActive.Store(false)
		return false
	}
	cur := r.aggregateLatency()
	rs.shedMu.Lock()
	defer rs.shedMu.Unlock()
	if !rs.shedPrevOK {
		rs.shedPrev, rs.shedPrevOK = cur, true
		return false
	}
	win := subLatency(cur, rs.shedPrev)
	rs.shedPrev = cur
	if win.Count < cfg.MinSamples {
		rs.shedActive.Store(false)
		return false
	}
	p99 := float64(win.PercentileUS(0.99))
	active := rs.shedBaselineUS > 0 && p99 > cfg.Factor*rs.shedBaselineUS
	if !active {
		// Learn the baseline from healthy windows only: while shedding,
		// the baseline stays frozen so recovery is judged against the
		// pre-incident norm.
		if rs.shedBaselineUS == 0 {
			rs.shedBaselineUS = p99
		} else {
			rs.shedBaselineUS = 0.8*rs.shedBaselineUS + 0.2*p99
		}
	}
	rs.shedMod.Store(int64(cfg.DropPer))
	rs.shedActive.Store(active)
	return active
}

// aggregateLatency merges every entry's request-latency histogram.
func (r *Registry) aggregateLatency() LatencySnapshot {
	var agg LatencySnapshot
	for _, e := range r.Entries() {
		agg.Add(e.lat.snapshot())
	}
	return agg
}

// subLatency diffs two snapshots of a monotone histogram (cur - prev).
func subLatency(cur, prev LatencySnapshot) LatencySnapshot {
	var d LatencySnapshot
	for i := range cur.Buckets {
		d.Buckets[i] = cur.Buckets[i] - prev.Buckets[i]
	}
	d.Count = cur.Count - prev.Count
	d.SumUS = cur.SumUS - prev.SumUS
	return d
}

// ResilienceStats samples the registry-global fault-tolerance state
// for stats endpoints and /metrics.
type ResilienceStats struct {
	Draining        bool
	DrainRejected   uint64
	Breaker         BreakerConfig
	MemBudgetBytes  int64
	MemUsageBytes   int64
	MemRejected     uint64
	ShedActive      bool
	Shed            uint64
	SnapshotRetries uint64
}

// Resilience samples the fault-tolerance counters.
func (r *Registry) Resilience() ResilienceStats {
	return ResilienceStats{
		Draining:        r.res.draining.Load(),
		DrainRejected:   r.res.drainRejected.Load(),
		Breaker:         r.BreakerConfig(),
		MemBudgetBytes:  r.res.memBudget.Load(),
		MemUsageBytes:   r.res.memUsage.Load(),
		MemRejected:     r.res.memRejected.Load(),
		ShedActive:      r.res.shedActive.Load(),
		Shed:            r.res.shedShed.Load(),
		SnapshotRetries: r.snapRetries.Load(),
	}
}

// admitResilience runs the registry-global admission checks shared by
// every entry: drain, breaker, memory budget, shedder. It is called
// from Entry.admit with e.res possibly nil (entries constructed outside
// a registry, e.g. in tests, skip all of it).
func (e *Entry) admitResilience() error {
	rs := e.res
	if rs == nil {
		return nil
	}
	if rs.draining.Load() {
		rs.drainRejected.Add(1)
		e.rejected.Add(1)
		return ErrDraining
	}
	if th := rs.brkThreshold.Load(); th > 0 {
		cooldown := time.Duration(rs.brkCooldown.Load())
		if ok, retry := e.brk.admit(cooldown); !ok {
			e.brk.rejected.Add(1)
			e.rejected.Add(1)
			return &QuarantineError{Grammar: e.name, RetryAfter: retry}
		}
	}
	if budget := rs.memBudget.Load(); budget > 0 {
		if usage := rs.memUsage.Load(); usage > budget {
			rs.memRejected.Add(1)
			e.rejected.Add(1)
			return fmt.Errorf("%w (estimated %d bytes, budget %d)", ErrMemoryBudget, usage, budget)
		}
	}
	if rs.shedActive.Load() {
		if mod := rs.shedMod.Load(); mod > 0 && rs.shedSeq.Add(1)%uint64(mod) == 0 {
			rs.shedShed.Add(1)
			e.rejected.Add(1)
			return fmt.Errorf("%w (1 in %d)", ErrShed, mod)
		}
	}
	return nil
}

// armCancel builds the parse's cancellation flag from the request
// context. Uncancellable contexts (Background — the warm path) arm
// nothing and return a nil flag, keeping the parse at 0 allocs/op.
// Cancellable contexts take a pooled flag and register an AfterFunc
// that fires it with the right reason: deadline expiry, client
// disconnect, or drain-timeout shutdown.
func (e *Entry) armCancel(ctx context.Context) (*cancel.Flag, func() bool) {
	if ctx == nil || ctx.Done() == nil {
		return nil, nil
	}
	fl := cancel.GetFlag()
	rs := e.res
	stop := context.AfterFunc(ctx, func() {
		reason := cancel.ClientGone
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			reason = cancel.Deadline
		} else if rs != nil && rs.draining.Load() {
			reason = cancel.Shutdown
		}
		fl.Cancel(reason)
	})
	return fl, stop
}

// disarmCancel undoes armCancel after the parse: the flag is recycled
// only when the AfterFunc provably never ran (stop returned true);
// otherwise it is left to the garbage collector, since the callback
// may still be touching it.
func disarmCancel(fl *cancel.Flag, stop func() bool) {
	if fl == nil {
		return
	}
	if stop() {
		cancel.PutFlag(fl)
	}
}
