package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0.01, 1); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := New(100, 0, 1); err == nil {
		t.Error("fp rate 0 accepted")
	}
	if _, err := New(100, 1, 1); err == nil {
		t.Error("fp rate 1 accepted")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f, err := New(10000, 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for %#x", k)
		}
	}
	if f.Len() != 10000 {
		t.Errorf("Len = %d", f.Len())
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	f, err := New(10000, 0.01, 43)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		f.Add(rng.Uint64())
	}
	fp := 0
	const probes = 50000
	for i := 0; i < probes; i++ {
		if f.Contains(rng.Uint64()) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 { // 3× slack over the 1% design point
		t.Errorf("false-positive rate %.4f, want ≤0.03", rate)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f, err := New(100, 0.01, 44)
	if err != nil {
		t.Fatal(err)
	}
	fp := 0
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if f.Contains(rng.Uint64()) {
			fp++
		}
	}
	if fp != 0 {
		t.Errorf("empty filter claimed %d members", fp)
	}
	if f.FillRatio() != 0 {
		t.Error("empty filter has set bits")
	}
}

func TestReset(t *testing.T) {
	f, err := New(100, 0.01, 45)
	if err != nil {
		t.Fatal(err)
	}
	f.Add(7)
	f.Reset()
	if f.Contains(7) {
		t.Error("key survives Reset")
	}
	if f.Len() != 0 {
		t.Error("Len nonzero after Reset")
	}
}

func TestAddThenContainsProperty(t *testing.T) {
	f, err := New(1000, 0.01, 46)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(key uint64) bool {
		f.Add(key)
		return f.Contains(key)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryScalesWithCapacity(t *testing.T) {
	small, err := New(1000, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(1000000, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.MemoryBytes() >= big.MemoryBytes() {
		t.Errorf("memory did not scale: %d vs %d", small.MemoryBytes(), big.MemoryBytes())
	}
	// ~1.2 MB for a million keys at 1%: the active-service memory stays
	// within HiFIND's small-memory budget.
	if big.MemoryBytes() > 4<<20 {
		t.Errorf("1M-key filter uses %d bytes, want ≤4MiB", big.MemoryBytes())
	}
}

func TestFillRatioGrows(t *testing.T) {
	f, err := New(1000, 0.01, 47)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	prev := f.FillRatio()
	for i := 0; i < 5; i++ {
		for j := 0; j < 200; j++ {
			f.Add(rng.Uint64())
		}
		cur := f.FillRatio()
		if cur < prev {
			t.Fatal("fill ratio decreased")
		}
		prev = cur
	}
	if prev <= 0 || prev >= 1 {
		t.Errorf("fill ratio %v suspicious", prev)
	}
}

func TestUnion(t *testing.T) {
	a, err := New(1000, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(1000, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	a.Add(1)
	b.Add(2)
	union := func(dst, src *Filter) error {
		data, err := src.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return dst.AddBinary(data, true)
	}
	if err := union(a, b); err != nil {
		t.Fatal(err)
	}
	if !a.Contains(1) || !a.Contains(2) {
		t.Error("union lost keys")
	}
	d, err := New(1<<20, 0.01, 7) // different size
	if err != nil {
		t.Fatal(err)
	}
	if err := union(a, d); err == nil {
		t.Error("union of different sizes accepted")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	a, err := New(1000, 0.01, 9)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		a.Add(k * 977)
	}
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(1000, 0.01, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if !b.Contains(k * 977) {
			t.Fatalf("key %d lost in round trip", k*977)
		}
	}
	if b.Len() != a.Len() {
		t.Error("Len not preserved")
	}
	wrong, err := New(100, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.UnmarshalBinary(data); err == nil {
		t.Error("shape mismatch accepted")
	}
	if err := b.UnmarshalBinary(data[:4]); err == nil {
		t.Error("truncated accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 1
	if err := b.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic accepted")
	}
}
