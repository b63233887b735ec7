// Package faultinject is a deterministic fault-injection harness for
// exercising the service's failure paths in tests and CI chaos runs:
// injected delays (to make a parse deliberately slow enough to hit its
// deadline), panics (to trip the quarantine breaker), write errors
// (to exercise snapshot retry), and cancellation at chosen token
// positions.
//
// Hooks are compiled into production code but atomically gated: when
// no fault is armed, a hook is a single atomic load. Faults are keyed
// by site name and fire deterministically — an optional position gate
// (At) and a shot budget (Times) make "panic on the next 3 parses,
// then recover" expressible without wall-clock or randomness.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipg/internal/cancel"
)

// Kind selects the effect of an armed fault.
type Kind uint8

const (
	// Delay sleeps for Fault.Delay at each fire.
	Delay Kind = iota
	// Panic panics with a recognizable message.
	Panic
	// Error makes Fire return ErrInjected.
	Error
	// Cancel fires the cancellation flag passed to Step.
	Cancel
)

func (k Kind) String() string {
	switch k {
	case Delay:
		return "delay"
	case Panic:
		return "panic"
	case Error:
		return "error"
	case Cancel:
		return "cancel"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ErrInjected is returned by Fire for Error-kind faults.
var ErrInjected = errors.New("faultinject: injected error")

// Fault describes one armed fault.
type Fault struct {
	// Kind selects the effect.
	Kind Kind
	// Delay is the sleep duration for Delay faults.
	Delay time.Duration
	// At gates position-aware sites: the fault fires only when the
	// position passed to Step is >= At. Ignored by Fire.
	At int
	// Times bounds how often the fault fires; 0 means unlimited.
	// Exhausted faults go inert (the site recovers), which is how the
	// chaos harness expresses "panic three times, then heal".
	Times int64
}

type armedFault struct {
	f         Fault
	remaining atomic.Int64 // <0 = unlimited
	fired     atomic.Uint64
}

// take claims one shot; false when the budget is exhausted.
func (a *armedFault) take() bool {
	for {
		r := a.remaining.Load()
		if r < 0 {
			a.fired.Add(1)
			return true
		}
		if r == 0 {
			return false
		}
		if a.remaining.CompareAndSwap(r, r-1) {
			a.fired.Add(1)
			return true
		}
	}
}

var (
	armed  atomic.Bool
	mu     sync.RWMutex
	faults = map[string]*armedFault{}
)

// Armed reports whether any fault is armed. This is the hot-path gate:
// hooks bail out on a single atomic load when it is false.
func Armed() bool { return armed.Load() }

// Set arms fault f at site, replacing any previous fault there.
func Set(site string, f Fault) {
	a := &armedFault{f: f}
	if f.Times > 0 {
		a.remaining.Store(f.Times)
	} else {
		a.remaining.Store(-1)
	}
	mu.Lock()
	faults[site] = a
	armed.Store(true)
	mu.Unlock()
}

// Reset disarms every fault and zeroes all counters.
func Reset() {
	mu.Lock()
	faults = map[string]*armedFault{}
	armed.Store(false)
	mu.Unlock()
}

func lookup(site string) *armedFault {
	mu.RLock()
	a := faults[site]
	mu.RUnlock()
	return a
}

// Fire triggers the fault armed at site, if any: Delay sleeps, Panic
// panics, Error returns ErrInjected. Position-gated kinds (Cancel) do
// nothing here — they only make sense at Step sites. Callers must
// check Armed() first so disabled builds pay one atomic load.
func Fire(site string) error {
	a := lookup(site)
	if a == nil {
		return nil
	}
	switch a.f.Kind {
	case Delay:
		if a.take() {
			time.Sleep(a.f.Delay)
		}
	case Panic:
		if a.take() {
			panic(fmt.Sprintf("faultinject: panic at %s", site))
		}
	case Error:
		if a.take() {
			return fmt.Errorf("%w (site %s)", ErrInjected, site)
		}
	}
	return nil
}

// Step triggers position-aware faults from a drive-loop checkpoint:
// Delay sleeps at every position >= At (making the parse deterministic
// slow from that point), Cancel fires fl with cancel.Injected once
// position reaches At. Callers must check Armed() first.
func Step(site string, pos int, fl *cancel.Flag) {
	a := lookup(site)
	if a == nil || pos < a.f.At {
		return
	}
	switch a.f.Kind {
	case Delay:
		if a.take() {
			time.Sleep(a.f.Delay)
		}
	case Cancel:
		if a.take() {
			fl.Cancel(cancel.Injected)
		}
	case Panic:
		if a.take() {
			panic(fmt.Sprintf("faultinject: panic at %s pos %d", site, pos))
		}
	}
}

// SiteCount reports how often one armed site has fired.
type SiteCount struct {
	Site  string
	Kind  Kind
	Fired uint64
}

// Stats returns fire counts for all armed sites, sorted by site name,
// for the ipg_fault_injections_total metrics family.
func Stats() []SiteCount {
	mu.RLock()
	out := make([]SiteCount, 0, len(faults))
	for site, a := range faults {
		out = append(out, SiteCount{Site: site, Kind: a.f.Kind, Fired: a.fired.Load()})
	}
	mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Parse decodes a -fault flag value of the form
//
//	site=kind[,d=DURATION][,at=N][,n=N]
//
// e.g. "drive.token=delay,d=1ms", "dispatch.parse=panic,n=3",
// "snapshot.save=error,n=2", "drive.token=cancel,at=50".
func Parse(spec string) (site string, f Fault, err error) {
	eq := strings.IndexByte(spec, '=')
	if eq <= 0 {
		return "", f, fmt.Errorf("faultinject: spec %q: want site=kind[,opts]", spec)
	}
	site = spec[:eq]
	parts := strings.Split(spec[eq+1:], ",")
	switch parts[0] {
	case "delay":
		f.Kind = Delay
	case "panic":
		f.Kind = Panic
	case "error":
		f.Kind = Error
	case "cancel":
		f.Kind = Cancel
	default:
		return "", f, fmt.Errorf("faultinject: spec %q: unknown kind %q", spec, parts[0])
	}
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return "", f, fmt.Errorf("faultinject: spec %q: bad option %q", spec, p)
		}
		switch k {
		case "d":
			d, derr := time.ParseDuration(v)
			if derr != nil {
				return "", f, fmt.Errorf("faultinject: spec %q: %v", spec, derr)
			}
			f.Delay = d
		case "at":
			n, nerr := strconv.Atoi(v)
			if nerr != nil {
				return "", f, fmt.Errorf("faultinject: spec %q: %v", spec, nerr)
			}
			f.At = n
		case "n":
			n, nerr := strconv.ParseInt(v, 10, 64)
			if nerr != nil {
				return "", f, fmt.Errorf("faultinject: spec %q: %v", spec, nerr)
			}
			f.Times = n
		default:
			return "", f, fmt.Errorf("faultinject: spec %q: unknown option %q", spec, k)
		}
	}
	if f.Kind == Delay && f.Delay <= 0 {
		return "", f, fmt.Errorf("faultinject: spec %q: delay needs d=DURATION", spec)
	}
	return site, f, nil
}

// Canonical site names. Production hooks reference these constants so
// tests and the -fault flag agree on spelling.
const (
	// SiteDispatch fires at engine dispatch, before the drive starts.
	SiteDispatch = "dispatch.parse"
	// SiteDriveToken fires at every drive-loop token checkpoint on
	// all engines (position-aware).
	SiteDriveToken = "drive.token"
	// SiteSnapshotSave fires before each snapshot store write.
	SiteSnapshotSave = "snapshot.save"
)
