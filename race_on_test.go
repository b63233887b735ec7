//go:build race

package ipg_test

// raceEnabled reports that the race detector is active: its
// instrumentation skews timings, so timing gates skip under it.
const raceEnabled = true
