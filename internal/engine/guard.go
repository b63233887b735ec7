package engine

import (
	"fmt"
	"runtime/debug"

	"ipg/internal/cancel"
	"ipg/internal/faultinject"
	"ipg/internal/grammar"
	"ipg/internal/obs"
)

// This file is the fault-tolerant engine dispatch: ParseGuarded is what
// the registry drives every parse and session reparse through. It (1)
// threads the drive's cancellation flag into the backend's drive loop,
// (2) recovers panics — a grammar or input that crashes an engine must
// cost the service one structured error, not the process — and (3)
// hosts the dispatch-level fault-injection site the chaos harness uses
// to simulate both.

// PanicError is an engine panic recovered at dispatch, converted into a
// structured error so the serving layer can count it, feed the
// per-grammar quarantine breaker, and answer 500 instead of dying.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: parse panicked: %v", e.Value)
}

// ParseGuarded runs one drive of d — an Engine parsing input, or a
// Session (handed nil input) reparsing its retained document — with
// lifecycle tracing (nil tr traces nothing), cancellation (nil fl
// never cancels; both cost only nil checks, keeping the warm path 0
// allocs/op), and panic quarantine. A cancel.Abort panicked by the
// lazy-expansion checkpoint surfaces as the flag's structured
// *cancel.Error; any other panic surfaces as a *PanicError.
func ParseGuarded(d Driver, input []grammar.Symbol, buildTrees bool, tr *obs.ParseTrace, fl *cancel.Flag) (res Result, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		res = Result{}
		if a, ok := r.(cancel.Abort); ok {
			// Cancellation observed inside the table machinery, not a
			// fault: position is unknown at this layer, the work
			// counter carries the partial progress.
			n := len(input)
			if s, ok := d.(Session); ok {
				n = s.Len()
			}
			err = a.Flag.Err(0, n, a.Work)
			return
		}
		err = &PanicError{Value: r, Stack: debug.Stack()}
	}()
	if faultinject.Armed() {
		if ferr := faultinject.Fire(faultinject.SiteDispatch); ferr != nil {
			return Result{}, ferr
		}
	}
	return d.drive(input, buildTrees, tr, fl)
}
