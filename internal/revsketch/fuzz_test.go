package revsketch

import (
	"encoding/binary"
	"slices"
	"testing"

	"github.com/hifind/hifind/internal/sketch"
)

// FuzzInference drives the reverse-hashing search with arbitrary update
// streams on a small geometry and checks its output invariants: no panic,
// every estimate at or above the threshold, keys within the key space,
// deduplicated, sorted largest-estimate first, and a second call on the
// same sketch equal to a fresh sketch's. Under fuzzed small budgets (0
// asks for the default) and a Verify that rejects every third key, the
// search must also equal the reference search of reference_test.go.
func FuzzInference(f *testing.F) {
	// Seeds: empty stream, one heavy key, a heavy key plus background
	// noise, and a few colliding keys.
	f.Add([]byte{}, uint16(0), uint16(0), uint8(0))
	one := make([]byte, 0, 64)
	for i := 0; i < 20; i++ {
		one = binary.BigEndian.AppendUint16(one, 0xbeef)
		one = append(one, 5)
	}
	f.Add(one, uint16(0), uint16(0), uint8(0))
	mixed := append([]byte(nil), one...)
	for i := 0; i < 10; i++ {
		mixed = binary.BigEndian.AppendUint16(mixed, uint16(i*257))
		mixed = append(mixed, 1)
	}
	f.Add(mixed, uint16(0), uint16(0), uint8(0))
	f.Add(mixed, uint16(7), uint16(0), uint8(0))
	f.Add(mixed, uint16(0), uint16(9), uint8(0))
	f.Add(mixed, uint16(0), uint16(0), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, maxNodes, maxOps uint16, maxKeys uint8) {
		// Small geometry keeps each fuzz execution fast: 16-bit keys split
		// into 2 words of 8 bits, 3 stages of 16 buckets (2-bit chunks).
		params := Params{KeyBits: 16, Words: 2, Stages: 3, Buckets: 16}
		build := func() *Sketch {
			s, err := New(params, 0x5eed)
			if err != nil {
				t.Fatal(err)
			}
			// Consume 3 bytes per update: 2 key bytes, 1 signed value byte.
			for d := data; len(d) >= 3; d = d[3:] {
				s.Update(uint64(binary.BigEndian.Uint16(d)), int32(int8(d[2])))
			}
			return s
		}
		s := build()

		const threshold = 8.0
		opts := InferenceOptions{
			MaxHeavyBuckets: 64,
			MaxNodes:        100_000,
			MaxOps:          1_000_000,
			MaxKeys:         256,
		}
		got, err := s.InferenceCounts(threshold, opts)
		if err != nil {
			t.Fatalf("InferenceCounts: %v", err)
		}
		keySpace := uint64(1) << uint(params.KeyBits)
		seen := make(map[uint64]bool, len(got))
		for i, ke := range got {
			if ke.Key >= keySpace {
				t.Fatalf("key %#x outside the %d-bit key space", ke.Key, params.KeyBits)
			}
			if ke.Estimate < threshold {
				t.Fatalf("key %#x returned with estimate %v < threshold %v", ke.Key, ke.Estimate, threshold)
			}
			if seen[ke.Key] {
				t.Fatalf("key %#x returned twice", ke.Key)
			}
			seen[ke.Key] = true
			if i > 0 && ke.Estimate > got[i-1].Estimate {
				t.Fatalf("results not sorted: estimate %v after %v", ke.Estimate, got[i-1].Estimate)
			}
			// INFERENCE must agree with ESTIMATE on the keys it reports.
			if est := s.Estimate(ke.Key); est != ke.Estimate {
				t.Fatalf("key %#x: inference estimate %v, point estimate %v", ke.Key, ke.Estimate, est)
			}
		}

		// The search state is reused across calls: a second call on the
		// same sketch, at a lower threshold so its search differs, must
		// equal a fresh sketch's.
		again, err := s.InferenceCounts(threshold/2, opts)
		if err != nil {
			t.Fatalf("second InferenceCounts: %v", err)
		}
		want, err := build().InferenceCounts(threshold/2, opts)
		if err != nil {
			t.Fatalf("fresh InferenceCounts: %v", err)
		}
		if !slices.Equal(again, want) {
			t.Fatalf("reused sketch returned %v, fresh sketch %v", again, want)
		}

		g := sketch.NewGrid(params.Stages, params.Buckets)
		if err := g.AddCounts(s.Snapshot(), 1); err != nil {
			t.Fatal(err)
		}
		budgets := InferenceOptions{
			MaxHeavyBuckets: 64,
			MaxNodes:        int(maxNodes),
			MaxOps:          int64(maxOps),
			MaxKeys:         int(maxKeys),
			Verify:          func(key uint64, _ float64) bool { return key%3 != 0 },
		}
		ref, refStats, _ := referenceInference(s, g, threshold/2, budgets)
		cut, err := s.Inference(g, threshold/2, budgets)
		if err != nil {
			t.Fatalf("budgeted Inference: %v", err)
		}
		sameSearch(t, cut, s.LastInference(), ref, refStats)
	})
}
