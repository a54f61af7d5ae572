package revsketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hifind/hifind/internal/sketch"
)

func mustNew(t *testing.T, p Params, seed uint64) *Sketch {
	t.Helper()
	s, err := New(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bucketOf is the bucket key selects in one stage, hashed as Update
// hashes it.
func bucketOf(s *Sketch, stage int, key uint64) int {
	return s.bucketIndex(stage, s.splitWords(s.mangler.Mangle(key)))
}

// small geometry keeps exhaustive tests fast: 24-bit keys, 4 words of
// 6 bits, 6 stages of 2^12 buckets (3-bit chunks).
func smallParams() Params {
	return Params{KeyBits: 24, Words: 4, Stages: 6, Buckets: 1 << 12}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{name: "paper 48-bit", p: Params48()},
		{name: "paper 64-bit", p: Params64()},
		{name: "small", p: smallParams()},
		{name: "zero", p: Params{}, wantErr: true},
		{name: "keybits too wide", p: Params{KeyBits: 65, Words: 4, Stages: 6, Buckets: 1 << 12}, wantErr: true},
		{name: "words dont divide key", p: Params{KeyBits: 50, Words: 4, Stages: 6, Buckets: 1 << 12}, wantErr: true},
		{name: "words dont divide buckets", p: Params{KeyBits: 48, Words: 4, Stages: 6, Buckets: 1 << 13}, wantErr: true},
		{name: "non power of two buckets", p: Params{KeyBits: 48, Words: 4, Stages: 6, Buckets: 1000}, wantErr: true},
		{name: "word too wide for tabulation", p: Params{KeyBits: 64, Words: 2, Stages: 6, Buckets: 1 << 12}, wantErr: true},
		{name: "chunk wider than word", p: Params{KeyBits: 8, Words: 4, Stages: 2, Buckets: 1 << 16}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate(%+v) err=%v wantErr=%v", tt.p, err, tt.wantErr)
			}
		})
	}
}

func TestUpdateEstimate(t *testing.T) {
	s := mustNew(t, Params48(), 1)
	key := uint64(0x0a00000100000050) & (1<<48 - 1)
	s.Update(key, 500)
	if got := s.Estimate(key); math.Abs(got-500) > 1 {
		t.Errorf("Estimate = %.1f, want ≈500", got)
	}
	if got := s.Estimate(key + 1); math.Abs(got) > 1 {
		t.Errorf("absent key Estimate = %.1f, want ≈0", got)
	}
}

func TestEstimateUnderNoise(t *testing.T) {
	s := mustNew(t, Params64(), 2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		s.Update(rng.Uint64(), 1)
	}
	const heavy = uint64(0xdeadbeefcafe)
	s.Update(heavy, 3000)
	if got := s.Estimate(heavy); math.Abs(got-3000) > 300 {
		t.Errorf("Estimate = %.1f, want within 10%% of 3000", got)
	}
}

func TestBucketIndexInRange(t *testing.T) {
	s := mustNew(t, Params48(), 3)
	f := func(key uint64) bool {
		key &= 1<<48 - 1
		for j := 0; j < 6; j++ {
			if idx := bucketOf(s, j, key); idx < 0 || idx >= 1<<12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBucketIndexDeterministic(t *testing.T) {
	a := mustNew(t, Params48(), 42)
	b := mustNew(t, Params48(), 42)
	for key := uint64(0); key < 5000; key += 13 {
		for j := 0; j < 6; j++ {
			if bucketOf(a, j, key) != bucketOf(b, j, key) {
				t.Fatal("same-seed sketches disagree on bucket index")
			}
		}
	}
}

func TestInferenceRecoversInjectedKeys(t *testing.T) {
	// The defining property of the reversible sketch: heavy keys can be
	// recovered from the buckets alone, without a key list.
	s := mustNew(t, Params48(), 4)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30000; i++ {
		s.Update(rng.Uint64()&(1<<48-1), 1)
	}
	want := map[uint64]int32{
		0x0a0000010050: 900,
		0xc0a801c801bb: 700,
		0x030201040016: 550,
	}
	for k, v := range want {
		s.Update(k, v)
	}
	got, err := s.InferenceCounts(300, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]float64{}
	for _, ke := range got {
		found[ke.Key] = ke.Estimate
	}
	for k, v := range want {
		est, ok := found[k]
		if !ok {
			t.Errorf("key %#x (value %d) not recovered; got %d keys", k, v, len(got))
			continue
		}
		if math.Abs(est-float64(v)) > float64(v)/5 {
			t.Errorf("key %#x estimate %.1f, want ≈%d", k, est, v)
		}
	}
	// No huge flood of false keys: everything returned must clear the
	// threshold estimate, which random keys shouldn't.
	if len(got) > len(want)+5 {
		t.Errorf("inference returned %d keys, want close to %d", len(got), len(want))
	}
}

func TestInference64BitGeometry(t *testing.T) {
	s := mustNew(t, Params64(), 5)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		s.Update(rng.Uint64(), 1)
	}
	const key = uint64(0x0a000001c0a80102)
	s.Update(key, 800)
	got, err := s.InferenceCounts(400, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Modular hashing admits a few aliases that agree with the true key in
	// ≥ quorum stages (the verifier sketch in internal/core removes them);
	// the true key itself must be recovered with an accurate estimate.
	var est float64
	found := false
	for _, ke := range got {
		if ke.Key == key {
			found, est = true, ke.Estimate
		}
	}
	if !found {
		t.Fatalf("64-bit inference lost the injected key: %+v", got)
	}
	if math.Abs(est-800) > 80 {
		t.Errorf("estimate %.1f, want ≈800", est)
	}
	if len(got) > 8 {
		t.Errorf("inference returned %d keys, expected only a few aliases", len(got))
	}
}

func TestInferenceManyKeys(t *testing.T) {
	// A horizontal scan seen by RS({SIP,Dport}) is one heavy key, but a
	// flood of scanners is many: recover 50 simultaneous heavy keys.
	s := mustNew(t, smallParams(), 6)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		s.Update(rng.Uint64()&(1<<24-1), 1)
	}
	want := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		k := rng.Uint64() & (1<<24 - 1)
		want[k] = true
		s.Update(k, 400)
	}
	got, err := s.InferenceCounts(200, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, ke := range got {
		if want[ke.Key] {
			recovered++
		}
	}
	if recovered < 45 {
		t.Errorf("recovered %d/50 heavy keys", recovered)
	}
}

func TestInferenceQuorumToleratesOneBadStage(t *testing.T) {
	s := mustNew(t, smallParams(), 7)
	const key = uint64(0xabcdef) & (1<<24 - 1)
	s.Update(key, 1000)
	// Sabotage stage 0: cancel the key's bucket so it is not heavy there.
	s.Counts[0][bucketOf(s, 0, key)] = 0
	got, err := s.InferenceCounts(500, InferenceOptions{Quorum: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Median estimate over 6 stages with one zeroed stage still ≥ thresh.
	found := false
	for _, ke := range got {
		if ke.Key == key {
			found = true
		}
	}
	if !found {
		t.Error("key lost after a single damaged stage despite quorum H−1")
	}
	// With a full-quorum requirement the damaged stage must kill it.
	got, err = s.InferenceCounts(500, InferenceOptions{Quorum: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, ke := range got {
		if ke.Key == key {
			t.Error("key recovered despite failing full quorum")
		}
	}
}

func TestInferenceOnForecastErrorGrid(t *testing.T) {
	// Simulate the HiFIND pipeline: error grid = current − forecast.
	s := mustNew(t, smallParams(), 8)
	rng := rand.New(rand.NewSource(5))
	// "Forecast": steady background recorded into a second sketch.
	base := mustNew(t, smallParams(), 8)
	for i := 0; i < 10000; i++ {
		k := rng.Uint64() & (1<<24 - 1)
		s.Update(k, 1)
		base.Update(k, 1)
	}
	const attacker = uint64(0x123456) & (1<<24 - 1)
	s.Update(attacker, 600) // the anomaly appears only in the current interval
	g := sketch.NewGrid(6, 1<<12)
	if err := g.AddCounts(s.Snapshot(), 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddCounts(base.Snapshot(), -1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Inference(g, 300, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != attacker {
		t.Fatalf("error-grid inference = %+v, want only %#x", got, attacker)
	}
}

func TestInferenceValidation(t *testing.T) {
	s := mustNew(t, smallParams(), 9)
	g := sketch.NewGrid(2, 4)
	if _, err := s.Inference(g, 10, InferenceOptions{}); err == nil {
		t.Error("mismatched grid accepted")
	}
	good := sketch.NewGrid(6, 1<<12)
	if _, err := s.Inference(good, 0, InferenceOptions{}); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := s.Inference(good, -5, InferenceOptions{}); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestInferenceMaxKeysCap(t *testing.T) {
	s := mustNew(t, smallParams(), 10)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		s.Update(rng.Uint64()&(1<<24-1), 500)
	}
	got, err := s.InferenceCounts(100, InferenceOptions{MaxKeys: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 10 {
		t.Errorf("MaxKeys=10 returned %d keys", len(got))
	}
	// Results must be sorted by estimate, largest first.
	for i := 1; i < len(got); i++ {
		if got[i].Estimate > got[i-1].Estimate {
			t.Error("results not sorted by estimate")
		}
	}
}

func TestInferenceEmptySketch(t *testing.T) {
	s := mustNew(t, smallParams(), 11)
	got, err := s.InferenceCounts(10, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty sketch produced %d keys", len(got))
	}
}

func TestCombineThenInference(t *testing.T) {
	// Multi-router scenario: an attack split over 3 routers is invisible
	// at each router alone (per-router share under threshold) but the
	// combined sketch recovers it — the paper's core aggregation claim.
	const seed = 12
	p := smallParams()
	routers := []*Sketch{mustNew(t, p, seed), mustNew(t, p, seed), mustNew(t, p, seed)}
	rng := rand.New(rand.NewSource(7))
	const attacker = uint64(0x00fedc)
	for i := 0; i < 9000; i++ {
		routers[rng.Intn(3)].Update(rng.Uint64()&(1<<24-1), 1)
	}
	for i := 0; i < 600; i++ {
		routers[rng.Intn(3)].Update(attacker, 1)
	}
	for _, r := range routers {
		got, err := r.InferenceCounts(450, InferenceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ke := range got {
			if ke.Key == attacker {
				t.Fatal("per-router share should be under the threshold")
			}
		}
	}
	agg := mustNew(t, p, seed)
	addAll(t, agg, routers...)
	got, err := agg.InferenceCounts(450, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].Key != attacker {
		t.Fatalf("aggregated inference = %+v, want %#x", got, attacker)
	}
}

func TestCombineRejectsIncompatible(t *testing.T) {
	a := mustNew(t, smallParams(), 1)
	b := mustNew(t, smallParams(), 2)
	if err := a.AddBinary(mustMarshal(t, b), true); err == nil {
		t.Error("different seeds accepted")
	}
}

// addAll adds each source's MarshalBinary encoding into dst.
func addAll(t *testing.T, dst *Sketch, srcs ...*Sketch) {
	t.Helper()
	for _, src := range srcs {
		if err := dst.AddBinary(mustMarshal(t, src), true); err != nil {
			t.Fatal(err)
		}
	}
}

// mustMarshal serializes a sketch.
func mustMarshal(t *testing.T, s *Sketch) []byte {
	t.Helper()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestResetKeepsHashing(t *testing.T) {
	s := mustNew(t, smallParams(), 13)
	idxBefore := bucketOf(s, 3, 12345)
	s.Update(12345, 100)
	s.Reset()
	if s.Sum != 0 {
		t.Error("Total nonzero after Reset")
	}
	if bucketOf(s, 3, 12345) != idxBefore {
		t.Error("hashing changed across Reset")
	}
	if got := s.Estimate(12345); math.Abs(got) > 0.5 {
		t.Errorf("Estimate after Reset = %.2f", got)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := mustNew(t, smallParams(), 14)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		s.Update(rng.Uint64()&(1<<24-1), int32(rng.Intn(5)+1))
	}
	s.Update(0x777777&(1<<24-1), 900)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := mustNew(t, s.Params(), s.seed)
	if err := back.AddBinary(data, true); err != nil {
		t.Fatal(err)
	}
	if back.Sum != s.Sum {
		t.Fatal("metadata differs after round trip")
	}
	// Inference over the deserialized sketch must still reverse keys.
	got, err := back.InferenceCounts(500, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].Key != 0x777777&(1<<24-1) {
		t.Fatal("deserialized sketch lost reversibility")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	s := mustNew(t, smallParams(), 15)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := mustNew(t, s.Params(), s.seed)
	if err := back.AddBinary(data[:8], true); err == nil {
		t.Error("truncated header accepted")
	}
	if err := back.AddBinary(data[:len(data)-1], true); err == nil {
		t.Error("short body accepted")
	}
	bad := append([]byte(nil), data...)
	bad[3] ^= 0x80
	if err := back.AddBinary(bad, true); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestWordSplitJoinRoundTrip(t *testing.T) {
	s := mustNew(t, Params64(), 16)
	f := func(key uint64) bool {
		w := s.splitWords(key)
		return s.joinWords(w[:4]) == key
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytes(t *testing.T) {
	if got := mustNew(t, Params48(), 1).MemoryBytes(); got != 6*(1<<12)*4 {
		t.Errorf("48-bit MemoryBytes = %d", got)
	}
	if got := mustNew(t, Params64(), 1).MemoryBytes(); got != 6*(1<<16)*4 {
		t.Errorf("64-bit MemoryBytes = %d", got)
	}
}

func TestEstimateGridMatchesEstimate(t *testing.T) {
	s := mustNew(t, smallParams(), 17)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		s.Update(rng.Uint64()&(1<<24-1), 1)
	}
	g := sketch.NewGrid(6, 1<<12)
	if err := g.AddCounts(s.Snapshot(), 1); err != nil {
		t.Fatal(err)
	}
	totals := make([]float64, g.Stages())
	for j := range totals {
		totals[j] = g.Sum(j)
	}
	for key := uint64(0); key < 3000; key += 101 {
		a, b := s.Estimate(key), estimateGrid(s, g, totals, key)
		if math.Abs(a-b) > 1e-6 {
			t.Fatalf("estimateGrid(%d)=%f, Estimate=%f", key, b, a)
		}
	}
}

func TestInferenceDeterministic(t *testing.T) {
	build := func() []KeyEstimate {
		s := mustNew(t, smallParams(), 18)
		rng := rand.New(rand.NewSource(10))
		for i := 0; i < 8000; i++ {
			s.Update(rng.Uint64()&(1<<24-1), 1)
		}
		for i := 0; i < 5; i++ {
			s.Update(uint64(i*7919)&(1<<24-1), 400)
		}
		got, err := s.InferenceCounts(200, InferenceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic inference: %d vs %d keys", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic inference ordering")
		}
	}
}

func TestOccupancy(t *testing.T) {
	s := mustNew(t, Params48(), 11)
	if s.Occupancy() != 0 {
		t.Fatalf("empty sketch occupancy = %v", s.Occupancy())
	}
	s.Update(0xDEAD_BEEF_CAFE, 3)
	p := s.Params()
	want := float64(p.Stages) / float64(p.Stages*p.Buckets)
	if occ := s.Occupancy(); occ != want {
		t.Fatalf("occupancy = %v, want %v", occ, want)
	}
	s.Reset()
	if s.Occupancy() != 0 {
		t.Fatalf("occupancy after reset = %v", s.Occupancy())
	}
}
