package sketch

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestHashPowMatchesHash pins the recorder update's core identity: the
// power-basis polynomial evaluation equals Horner's rule bit-for-bit,
// for every hash function and every key — including keys at and above
// the field modulus, where reduction order could plausibly diverge.
func TestHashPowMatchesHash(t *testing.T) {
	state := uint64(0xfeedface)
	rng := rand.New(rand.NewSource(7))
	corners := []uint64{0, 1, mersenne61 - 1, mersenne61, mersenne61 + 1, ^uint64(0)}
	for f := 0; f < 32; f++ {
		p := NewPoly4(&state)
		keys := append([]uint64{}, corners...)
		for i := 0; i < 256; i++ {
			keys = append(keys, rng.Uint64())
		}
		for _, k := range keys {
			kp := PowersOf(k)
			if got, want := p.HashPow(kp), p.Hash(k); got != want {
				t.Fatalf("fn %d key %#x: HashPow=%d Hash=%d", f, k, got, want)
			}
			for _, n := range []int{2, 64, 1 << 12, 1 << 16} {
				if got, want := p.HashRangePow(kp, n), p.HashRange(k, n); got != want {
					t.Fatalf("fn %d key %#x n=%d: HashRangePow=%d HashRange=%d", f, k, n, got, want)
				}
			}
		}
	}
}

// TestWeightedUpdateEquivalence is the linearity property the O(1)
// NetFlow replay rests on: Update(k, v·c) ≡ c repeated Update(k, v),
// byte-for-byte in serialized state. Quick-check over random keys plus
// exhaustive small corners including c=0 and negative v.
func TestWeightedUpdateEquivalence(t *testing.T) {
	params := Params{Stages: 6, Buckets: 1 << 10}
	rng := rand.New(rand.NewSource(99))
	counts := []int32{0, 1, 2, 3, 17, 100}
	values := []int32{-3, -1, 1, 2, 5}
	for trial := 0; trial < 20; trial++ {
		weighted, err := New(params, 0x51ed)
		if err != nil {
			t.Fatal(err)
		}
		repeated, err := New(params, 0x51ed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			k := rng.Uint64()
			v := values[rng.Intn(len(values))]
			c := counts[rng.Intn(len(counts))]
			weighted.Update(k, v*c)
			for j := int32(0); j < c; j++ {
				repeated.Update(k, v)
			}
		}
		wb, err := weighted.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := repeated.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, rb) {
			t.Fatalf("trial %d: weighted and repeated update state diverged", trial)
		}
	}
}

// TestPlanUpdateEquivalence proves the plan path writes exactly the
// buckets Update writes: filling a plan from shared key powers and
// applying UpdateAt leaves serialized state identical to direct Update.
func TestPlanUpdateEquivalence(t *testing.T) {
	params := Params{Stages: 6, Buckets: 1 << 12}
	direct, err := New(params, 0xabcd)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := New(params, 0xabcd)
	if err != nil {
		t.Fatal(err)
	}
	plan := planned.NewPlan()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		k := rng.Uint64()
		v := int32(rng.Intn(9) - 4)
		direct.Update(k, v)
		planned.FillPlan(PowersOf(k), plan)
		planned.UpdateAt(plan, v)
	}
	db, err := direct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := planned.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(db, pb) {
		t.Fatal("planned update state diverged from direct Update")
	}
}
