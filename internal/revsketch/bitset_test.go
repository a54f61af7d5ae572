package revsketch

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuorumMaskMatchesPopcount checks the carry-save majority circuit
// against a naive per-bit popcount for random stage bitsets and every
// quorum value.
func TestQuorumMaskMatchesPopcount(t *testing.T) {
	const words = 8
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		nStages := 1 + rng.Intn(15)
		sets := make([][]uint64, nStages)
		for i := range sets {
			sets[i] = make([]uint64, words)
			for k := range sets[i] {
				sets[i][k] = rng.Uint64()
			}
		}
		// Build planes with the same carry-save addition the search uses.
		var planes [4][]uint64
		for i := range planes {
			planes[i] = make([]uint64, words)
		}
		for _, set := range sets {
			for k := 0; k < words; k++ {
				x := set[k]
				c0 := planes[0][k] & x
				planes[0][k] ^= x
				c1 := planes[1][k] & c0
				planes[1][k] ^= c0
				c2 := planes[2][k] & c1
				planes[2][k] ^= c1
				planes[3][k] |= c2
			}
		}
		out := make([]uint64, words)
		for quorum := 1; quorum <= nStages+1; quorum++ {
			quorumMask(planes, quorum, out)
			for k := 0; k < words; k++ {
				for bit := 0; bit < 64; bit++ {
					count := 0
					for _, set := range sets {
						if set[k]>>uint(bit)&1 == 1 {
							count++
						}
					}
					want := count >= quorum
					got := out[k]>>uint(bit)&1 == 1
					if got != want {
						t.Fatalf("trial %d stages %d quorum %d word %d bit %d: got %v want %v (count %d)",
							trial, nStages, quorum, k, bit, got, want, count)
					}
				}
			}
		}
	}
}

// TestRevBitsetsPartitionWordSpace checks the precomputed chunk bitsets
// form an exact partition of the word space per (stage, position).
func TestRevBitsetsPartitionWordSpace(t *testing.T) {
	s := mustNew(t, smallParams(), 77)
	s.reverseTables()
	p := s.params
	wordSpace := 1 << uint(p.KeyBits/p.Words)
	for j := 0; j < p.Stages; j++ {
		for i := 0; i < p.Words; i++ {
			// Union must cover everything exactly once.
			seen := make([]int, wordSpace)
			for c, set := range s.revBits[j][i] {
				for k, bitsWord := range set {
					for bitsWord != 0 {
						w := k<<6 + bits.TrailingZeros64(bitsWord)
						bitsWord &= bitsWord - 1
						seen[w]++
						if int(s.wordTab[j][i][w]) != c {
							t.Fatalf("stage %d word %d: bitset %d contains word %d with chunk %d",
								j, i, c, w, s.wordTab[j][i][w])
						}
					}
				}
			}
			for w, n := range seen {
				if n != 1 {
					t.Fatalf("stage %d word %d: word %d appears %d times", j, i, w, n)
				}
			}
		}
	}
}

// TestInferenceWithManyHeavyKeys exercises a loaded interval: twenty
// concurrent heavy keys in the 64-bit geometry. Reverse hashing's cost
// grows steeply once the per-stage heavy-bucket count passes the chunk
// space (16 here) — the regime behind the paper's 46.9-second stress
// detections — so twenty keys is the sustainable "dozens" load the
// online path must recover exhaustively.
func TestInferenceWithManyHeavyKeys(t *testing.T) {
	s := mustNew(t, Params64(), 99)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30000; i++ {
		s.Update(rng.Uint64(), 1)
	}
	want := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		k := rng.Uint64()
		want[k] = true
		s.Update(k, 500)
	}
	got, err := s.InferenceCounts(250, InferenceOptions{MaxOps: 4_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, ke := range got {
		if want[ke.Key] {
			found++
		}
	}
	if found < 19 {
		t.Errorf("recovered %d/20 heavy keys under load", found)
	}
}

// TestInferenceBestFirstUnderBudget checks that when the work budget
// truncates a search, the strongest anomalies are the ones recovered —
// the property the paper's "top 100 anomalies" stress mode relies on.
func TestInferenceBestFirstUnderBudget(t *testing.T) {
	s := mustNew(t, Params64(), 101)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30000; i++ {
		s.Update(rng.Uint64(), 1)
	}
	const big = uint64(0xfeedfacecafebeef)
	s.Update(big, 50000) // towering anomaly
	for i := 0; i < 30; i++ {
		s.Update(rng.Uint64(), 300) // a crowd of modest ones
	}
	got, err := s.InferenceCounts(250, InferenceOptions{MaxOps: 60_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, ke := range got {
		if ke.Key == big {
			return // strongest key survived truncation
		}
	}
	t.Errorf("budget-truncated search lost the dominant anomaly (%d keys returned)", len(got))
}

// TestInferenceOpsBudget confirms the work cap terminates the search and
// still returns a usable (sorted) partial result.
func TestInferenceOpsBudget(t *testing.T) {
	s := mustNew(t, Params64(), 100)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		s.Update(rng.Uint64(), 400)
	}
	got, err := s.InferenceCounts(200, InferenceOptions{MaxOps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Estimate > got[i-1].Estimate {
			t.Fatal("budget-truncated output not sorted")
		}
	}
}

func TestQuorumMaskProperty(t *testing.T) {
	// Single-word random property check via testing/quick: for six stage
	// words, quorum 5 equals the majority-of-bits definition.
	f := func(a, b, c, d, e, g uint64) bool {
		sets := [][]uint64{{a}, {b}, {c}, {d}, {e}, {g}}
		var planes [4][]uint64
		for i := range planes {
			planes[i] = make([]uint64, 1)
		}
		for _, set := range sets {
			x := set[0]
			c0 := planes[0][0] & x
			planes[0][0] ^= x
			c1 := planes[1][0] & c0
			planes[1][0] ^= c0
			c2 := planes[2][0] & c1
			planes[2][0] ^= c1
			planes[3][0] |= c2
		}
		out := make([]uint64, 1)
		quorumMask(planes, 5, out)
		for bit := 0; bit < 64; bit++ {
			n := 0
			for _, set := range sets {
				n += int(set[0] >> uint(bit) & 1)
			}
			if (out[0]>>uint(bit)&1 == 1) != (n >= 5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
