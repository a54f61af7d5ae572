package sketch

import "fmt"

// Grid is a stages×buckets array of float64 values with the same geometry
// as a sketch's counter array. Grids carry derived per-bucket signals —
// EWMA forecasts and forecast errors — between the time-series module and
// the sketches, which own the hash functions needed to read them
// (EstimateGrid, INFERENCE).
type Grid [][]float64

// NewGrid allocates a zeroed grid.
func NewGrid(stages, buckets int) Grid {
	g := make(Grid, stages)
	backing := make([]float64, stages*buckets)
	for i := range g {
		g[i] = backing[i*buckets : (i+1)*buckets : (i+1)*buckets]
	}
	return g
}

// Stages returns the number of stages (rows).
func (g Grid) Stages() int { return len(g) }

// Buckets returns the number of buckets per stage, 0 for an empty grid.
func (g Grid) Buckets() int {
	if len(g) == 0 {
		return 0
	}
	return len(g[0])
}

// Zero resets every value in place.
func (g Grid) Zero() {
	for i := range g {
		row := g[i]
		for j := range row {
			row[j] = 0
		}
	}
}

// AddCounts accumulates integer sketch counters into the grid, scaled by c.
func (g Grid) AddCounts(counts [][]int32, c float64) error {
	if len(counts) != len(g) {
		return fmt.Errorf("grid: stage mismatch %d != %d", len(counts), len(g))
	}
	for i := range g {
		if len(counts[i]) != len(g[i]) {
			return fmt.Errorf("grid: bucket mismatch at stage %d: %d != %d", i, len(counts[i]), len(g[i]))
		}
		row, crow := g[i], counts[i]
		for j := range row {
			row[j] += c * float64(crow[j])
		}
	}
	return nil
}

// Sum returns the total of one stage's values.
func (g Grid) Sum(stage int) float64 {
	var s float64
	for _, v := range g[stage] {
		s += v
	}
	return s
}
