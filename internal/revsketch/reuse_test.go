package revsketch

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/hifind/hifind/internal/sketch"
)

// The reverse search keeps one run per sketch and records no set of the
// keys it has emitted; these tests pin the two facts that make both
// safe.

// TestInferenceEmitsEachKeyOnce saturates a sketch so the search runs
// into its node cap, and records every candidate that reaches Verify:
// none may come twice, since every leaf is a distinct word prefix.
func TestInferenceEmitsEachKeyOnce(t *testing.T) {
	p := smallParams()
	s := mustNew(t, p, 5)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		s.Update(uint64(rng.Intn(1<<p.KeyBits)), 100)
	}
	seen := make(map[uint64]bool)
	// Verify rejects everything, so the output never fills and only the
	// node cap can end the search.
	got, err := s.InferenceCounts(50, InferenceOptions{
		MaxNodes: 300_000,
		Verify: func(key uint64, _ float64) bool {
			if seen[key] {
				t.Fatalf("candidate %#x reached Verify twice", key)
			}
			seen[key] = true
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("%d keys returned though Verify rejected all", len(got))
	}
	st := s.LastInference()
	if !st.BudgetHit || st.Nodes != 300_000 {
		t.Errorf("search did not saturate: %+v", st)
	}
	if len(seen) < 10_000 || len(seen) > st.Leaves {
		t.Errorf("%d candidates verified from %d leaves", len(seen), st.Leaves)
	}
}

// TestInferenceReuse runs one sketch's search on grids of different
// sizes in turn: each call must equal a fresh sketch's, including its
// work counts, and must leave earlier results untouched.
func TestInferenceReuse(t *testing.T) {
	p := smallParams()
	const seed = 11
	grid := func(rngSeed int64, heavy int) sketch.Grid {
		src := mustNew(t, p, seed)
		rng := rand.New(rand.NewSource(rngSeed))
		for i := 0; i < 2000; i++ {
			src.Update(uint64(rng.Intn(1<<p.KeyBits)), 1)
		}
		for i := 0; i < heavy; i++ {
			src.Update(uint64(rng.Intn(1<<p.KeyBits)), 400)
		}
		g := sketch.NewGrid(p.Stages, p.Buckets)
		if err := g.AddCounts(src.Counts, 1); err != nil {
			t.Fatal(err)
		}
		return g
	}
	infer := func(s *Sketch, g sketch.Grid, opts InferenceOptions) ([]KeyEstimate, InferenceStats) {
		keys, err := s.Inference(g, 200, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) == 0 {
			t.Fatal("no keys recovered")
		}
		return keys, s.LastInference()
	}
	light, dense := grid(1, 5), grid(2, 300)
	s := mustNew(t, p, seed)
	for i, call := range []struct {
		g    sketch.Grid
		opts InferenceOptions
	}{
		{light, InferenceOptions{}},
		{dense, InferenceOptions{}}, // grows the run's buffers
		{light, InferenceOptions{MaxHeavyBuckets: 64, MaxKeys: 3}},
		{dense, InferenceOptions{Quorum: p.Stages}},
	} {
		first, _ := infer(s, light, InferenceOptions{})
		kept := slices.Clone(first)
		got, gotStats := infer(s, call.g, call.opts)
		want, wantStats := infer(mustNew(t, p, seed), call.g, call.opts)
		if !slices.Equal(got, want) || gotStats != wantStats {
			t.Errorf("call %d: reused sketch returned %d keys (%+v), fresh sketch %d (%+v)",
				i, len(got), gotStats, len(want), wantStats)
		}
		if !slices.Equal(first, kept) {
			t.Errorf("call %d overwrote the previous call's result", i)
		}
	}
}

// TestSiblingHashesLikeItsSource: a sibling shares its source's hashing
// and search run but not its counters. Fed the same updates as a sketch
// built fresh from the same seed, it must encode the same bytes, leave
// its source untouched, and search to the same keys and work.
func TestSiblingHashesLikeItsSource(t *testing.T) {
	p := smallParams()
	const seed = 17
	src := mustNew(t, p, seed)
	sib := src.Sibling()
	fresh := mustNew(t, p, seed)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		key, v := uint64(rng.Intn(1<<p.KeyBits)), int32(1)
		if i%400 == 0 {
			v = 400
		}
		sib.Update(key, v)
		fresh.Update(key, v)
	}
	sibBytes, _ := sib.MarshalBinary()
	freshBytes, _ := fresh.MarshalBinary()
	if !slices.Equal(sibBytes, freshBytes) {
		t.Fatal("sibling counters differ from a fresh sketch's under the same updates")
	}
	if src.Sum != 0 || src.Occupancy() != 0 {
		t.Fatal("updating a sibling wrote into its source")
	}
	got, err := sib.InferenceCounts(200, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotStats := sib.LastInference()
	want, err := fresh.InferenceCounts(200, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || !slices.Equal(got, want) || gotStats != fresh.LastInference() {
		t.Errorf("sibling search: %d keys (%+v), fresh sketch %d (%+v)",
			len(got), gotStats, len(want), fresh.LastInference())
	}
	if src.LastInference() != gotStats {
		t.Error("source and sibling report different last searches from one shared run")
	}
	if err := src.AddBinary(sibBytes, true); err != nil {
		t.Fatalf("source refuses its sibling's encoding: %v", err)
	}
}
