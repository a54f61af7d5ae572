//go:build race

package core

// raceEnabled reports a build with the race detector, under which the
// compute-bound tests that drive a reverse search to its node cap skip.
const raceEnabled = true
