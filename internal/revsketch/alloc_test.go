package revsketch

import (
	"math/rand"
	"testing"
)

// UPDATE and ESTIMATE are the reversible sketch's per-packet and
// per-candidate operations; neither may allocate (see the matching tests
// in internal/sketch and the hotpath-alloc lint rule).

func allocTestSketch(t *testing.T) *Sketch {
	t.Helper()
	s, err := New(Params{KeyBits: 32, Words: 4, Stages: 5, Buckets: 1 << 12}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUpdateAllocs(t *testing.T) {
	s := allocTestSketch(t)
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
	s := allocTestSketch(t)
	for k := uint64(0); k < 100; k++ {
		s.Update(k, int32(k%5)+1)
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

// TestInferenceCountsAllocs: the counter grid lives in the sketch's
// search run, so once warm a raw-count search allocates only the clone
// of the keys it returns.
func TestInferenceCountsAllocs(t *testing.T) {
	s, err := New(Params48(), 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		s.Update(uint64(rng.Int63n(1<<48)), 1)
	}
	// Verify stands in for a verifier sketch: it passes the heavy keys
	// and rejects their modular-hash aliases.
	heavy := make(map[uint64]bool)
	for i := 0; i < 5; i++ {
		key := uint64(rng.Int63n(1 << 48))
		heavy[key] = true
		s.Update(key, 500)
	}
	opts := InferenceOptions{Verify: func(key uint64, _ float64) bool { return heavy[key] }}
	var keys []KeyEstimate
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if keys, err = s.InferenceCounts(250, opts); err != nil {
			t.Fatal(err)
		}
	})
	if len(keys) != len(heavy) {
		t.Fatalf("recovered %d keys, want the %d heavy ones", len(keys), len(heavy))
	}
	if allocs != 1 {
		t.Errorf("warm InferenceCounts allocates %v times per call, want 1 (the returned keys)", allocs)
	}
}
