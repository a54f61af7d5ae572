//go:build race

package revsketch

// raceEnabled reports a build with the race detector, under which the
// reference comparison skips the paper geometries: their searches are
// compute-bound and single-goroutine, so the detector only slows them.
const raceEnabled = true
