//go:build !race

package ipg_test

// raceEnabled reports that the race detector is active; see
// race_on_test.go.
const raceEnabled = false
