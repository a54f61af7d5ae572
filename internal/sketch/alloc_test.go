package sketch

import "testing"

// The per-packet operations must not allocate: at OC-192 rates every
// Update allocation is a GC assist on the capture path, and Estimate runs
// once per candidate key during change detection. The hotpath-alloc lint
// rule guards the source; this test guards the runtime behavior (escape
// analysis regressions the AST rule cannot see).

func TestUpdateAllocs(t *testing.T) {
	s, err := New(Params{Stages: 5, Buckets: 1 << 12}, 42)
	if err != nil {
		t.Fatal(err)
	}
	var key uint64
	allocs := testing.AllocsPerRun(1000, func() {
		s.Update(key, 1)
		key++
	})
	if allocs != 0 {
		t.Errorf("Update allocates %v times per call, want 0", allocs)
	}
}

func TestEstimateAllocs(t *testing.T) {
	s, err := New(Params{Stages: 5, Buckets: 1 << 12}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		s.Update(k, int32(k%7)+1)
	}
	var key uint64
	allocs := testing.AllocsPerRun(1000, func() {
		_ = s.Estimate(key)
		key++
	})
	if allocs != 0 {
		t.Errorf("Estimate allocates %v times per call, want 0", allocs)
	}
}

func TestEstimateGridAtLeastAllocs(t *testing.T) {
	s, err := New(Params{Stages: 6, Buckets: 1 << 12}, 42)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGrid(6, 1<<12)
	for i := range g {
		for b := range g[i] {
			g[i][b] = float64((i + b) % 9)
		}
	}
	var key uint64
	allocs := testing.AllocsPerRun(1000, func() {
		_ = s.EstimateGridAtLeast(g, 3, key, 4)
		key++
	})
	if allocs != 0 {
		t.Errorf("EstimateGridAtLeast allocates %v times per call, want 0", allocs)
	}
}
