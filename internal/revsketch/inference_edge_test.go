package revsketch

// Edge-case coverage for the reverse-hashing search: intervals with no
// traffic at all, heavy-bucket sets overflowing the per-stage cap, and
// the fully saturated grids a massive DDoS produces. The search is the
// detector's only offender-key recovery, so its behavior at the
// boundaries must stay pinned.

import (
	"testing"

	"github.com/hifind/hifind/internal/sketch"
)

// edgeParams is small enough that a fully saturated search finishes in
// test time even with generous budgets.
func edgeParams() Params { return Params{KeyBits: 16, Words: 2, Stages: 3, Buckets: 1 << 8} }

// TestInferenceEmptyInterval: an all-zero grid (no traffic, or a
// forecast matching reality exactly) has no heavy buckets — the search
// must return an empty key set without error, not a degenerate scan.
func TestInferenceEmptyInterval(t *testing.T) {
	s, err := New(edgeParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := s.InferenceCounts(1, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("empty sketch yielded %d keys, want 0", len(keys))
	}
	g := sketch.NewGrid(edgeParams().Stages, edgeParams().Buckets)
	keys, err = s.Inference(g, 1, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("zero grid yielded %d keys, want 0", len(keys))
	}
}

// TestInferenceHeavyBucketOverflow: when more buckets exceed the
// threshold than MaxHeavyBuckets admits, the cap keeps the largest —
// so the strongest keys must survive the truncation.
func TestInferenceHeavyBucketOverflow(t *testing.T) {
	s, err := New(edgeParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	// Two dominant keys over a carpet of barely heavy ones.
	s.Update(0x1111, 5000)
	s.Update(0x2222, 4000)
	for k := uint64(0); k < 200; k++ {
		s.Update(0x8000|k, 15)
	}
	keys, err := s.InferenceCounts(10, InferenceOptions{MaxHeavyBuckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for _, ke := range keys {
		got[ke.Key] = true
	}
	if !got[0x1111] || !got[0x2222] {
		t.Fatalf("dominant keys lost under heavy-bucket truncation: got %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i].Estimate > keys[i-1].Estimate {
			t.Fatal("results not sorted by estimate descending")
		}
	}
}

// TestInferenceAllBucketsSaturated: a grid where every bucket of every
// stage is heavy is the worst-case search input (the paper's 46.9 s
// stress regime). The budgets must make the search terminate and
// return at most MaxKeys keys, every one of them genuinely above the
// threshold — never an error, never a stall.
func TestInferenceAllBucketsSaturated(t *testing.T) {
	p := edgeParams()
	s, err := New(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := sketch.NewGrid(p.Stages, p.Buckets)
	for j := 0; j < p.Stages; j++ {
		for b := 0; b < p.Buckets; b++ {
			g[j][b] = 100
		}
	}
	keys, err := s.Inference(g, 50, InferenceOptions{
		MaxKeys:  32,
		MaxNodes: 100_000,
		MaxOps:   1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) > 32 {
		t.Fatalf("MaxKeys cap violated: %d keys", len(keys))
	}
	for _, ke := range keys {
		if ke.Estimate < 50 {
			t.Fatalf("key %#x estimate %v below threshold", ke.Key, ke.Estimate)
		}
	}
	// The run above stopped on a budget; a saturated grid with room to
	// search exhaustively must also terminate on the key cap alone.
	keys, err = s.Inference(g, 50, InferenceOptions{MaxKeys: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) > 8 {
		t.Fatalf("MaxKeys cap violated without budget stop: %d keys", len(keys))
	}
}
