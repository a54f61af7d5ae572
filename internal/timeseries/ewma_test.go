package timeseries

import (
	"math"
	"testing"
)

func mustEWMA(t *testing.T, alpha float64, stages, buckets int) *EWMA {
	t.Helper()
	e, err := NewEWMA(alpha, stages, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func counts(vals ...int32) [][]int32 {
	return [][]int32{vals}
}

func TestNewEWMAValidation(t *testing.T) {
	if _, err := NewEWMA(0, 1, 1); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewEWMA(1.5, 1, 1); err == nil {
		t.Error("alpha 1.5 accepted")
	}
	if _, err := NewEWMA(0.5, 0, 1); err == nil {
		t.Error("0 stages accepted")
	}
	if _, err := NewEWMA(0.5, 1, 0); err == nil {
		t.Error("0 buckets accepted")
	}
	if _, err := NewEWMA(1, 2, 4); err != nil {
		t.Errorf("alpha 1 rejected: %v", err)
	}
}

func TestFirstIntervalHasNoForecast(t *testing.T) {
	e := mustEWMA(t, 0.5, 1, 3)
	g, ok, err := e.Observe(counts(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if ok || g != nil {
		t.Error("first interval must not produce an error grid")
	}
	if e.Intervals() != 1 {
		t.Errorf("Intervals = %d", e.Intervals())
	}
}

func TestSecondIntervalUsesFirstAsForecast(t *testing.T) {
	// Paper eq. (1): Mf(2) = M0(1), so e(2) = M0(2) − M0(1).
	e := mustEWMA(t, 0.5, 1, 2)
	if _, _, err := e.Observe(counts(10, 20)); err != nil {
		t.Fatal(err)
	}
	g, ok, err := e.Observe(counts(15, 18))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("second interval must produce an error grid")
	}
	if g[0][0] != 5 || g[0][1] != -2 {
		t.Errorf("error grid = %v, want [5 -2]", g[0])
	}
}

func TestEWMARecursion(t *testing.T) {
	// With α=0.5: Mf(3) = 0.5·M0(2) + 0.5·Mf(2).
	e := mustEWMA(t, 0.5, 1, 1)
	if _, _, err := e.Observe(counts(100)); err != nil { // Mf=100
		t.Fatal(err)
	}
	if _, _, err := e.Observe(counts(200)); err != nil { // e=100, Mf=150
		t.Fatal(err)
	}
	g, ok, err := e.Observe(counts(150))
	if err != nil || !ok {
		t.Fatal(err)
	}
	if math.Abs(g[0][0]-0) > 1e-9 { // 150 − 150
		t.Errorf("e(3) = %v, want 0", g[0][0])
	}
	// Forecast rolled to 0.5·150 + 0.5·150 = 150, so a silent interval
	// reads e(4) = 0 − 150.
	g, _, err = e.Observe(counts(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g[0][0]+150) > 1e-9 {
		t.Errorf("e(4) = %v, want −150 (Mf(4) = 150)", g[0][0])
	}
}

func TestAlphaOneTracksLastObservation(t *testing.T) {
	e := mustEWMA(t, 1, 1, 1)
	if _, _, err := e.Observe(counts(5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Observe(counts(7)); err != nil {
		t.Fatal(err)
	}
	g, _, err := e.Observe(counts(9))
	if err != nil {
		t.Fatal(err)
	}
	if g[0][0] != 2 { // 9 − M0(2)=7
		t.Errorf("α=1 error = %v, want 2", g[0][0])
	}
}

func TestSteadyTrafficYieldsZeroError(t *testing.T) {
	// Constant background should produce vanishing forecast error — the
	// noise-removal property the pipeline depends on.
	e := mustEWMA(t, 0.3, 2, 4)
	steady := [][]int32{{10, 20, 30, 40}, {40, 30, 20, 10}}
	var last float64
	for i := 0; i < 20; i++ {
		g, ok, err := e.Observe(steady)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		last = 0
		for j := range g {
			for _, v := range g[j] {
				last += math.Abs(v)
			}
		}
	}
	if last > 1e-6 {
		t.Errorf("steady traffic error = %v, want ≈0", last)
	}
}

func TestSpikeShowsUpInError(t *testing.T) {
	e := mustEWMA(t, 0.5, 1, 2)
	for i := 0; i < 10; i++ {
		if _, _, err := e.Observe(counts(100, 100)); err != nil {
			t.Fatal(err)
		}
	}
	g, ok, err := e.Observe(counts(100, 700)) // attack adds 600 to bucket 1
	if err != nil || !ok {
		t.Fatal(err)
	}
	if math.Abs(g[0][0]) > 1e-6 {
		t.Errorf("quiet bucket error %v", g[0][0])
	}
	if math.Abs(g[0][1]-600) > 1e-6 {
		t.Errorf("attacked bucket error %v, want 600", g[0][1])
	}
}

func TestObserveValidatesGeometry(t *testing.T) {
	e := mustEWMA(t, 0.5, 2, 3)
	if _, _, err := e.Observe(counts(1, 2, 3)); err == nil {
		t.Error("wrong stage count accepted")
	}
	if _, _, err := e.Observe([][]int32{{1, 2}, {3, 4}}); err == nil {
		t.Error("wrong bucket count accepted")
	}
}

func TestErrorGridIsReused(t *testing.T) {
	e := mustEWMA(t, 0.5, 1, 1)
	if _, _, err := e.Observe(counts(0)); err != nil {
		t.Fatal(err)
	}
	g1, _, err := e.Observe(counts(10))
	if err != nil {
		t.Fatal(err)
	}
	if g1[0][0] != 10 {
		t.Fatalf("e(2) = %v, want 10", g1[0][0])
	}
	g2, _, err := e.Observe(counts(500))
	if err != nil {
		t.Fatal(err)
	}
	// Mf(3) = 0.5·10 + 0.5·0 = 5, so e(3) = 495, written into g1's buffer.
	if &g2[0][0] != &g1[0][0] || g1[0][0] != 495 {
		t.Errorf("second error grid not written in place: g1 = %v, g2 = %v", g1[0][0], g2[0][0])
	}
}

func TestReset(t *testing.T) {
	e := mustEWMA(t, 0.5, 1, 1)
	if _, _, err := e.Observe(counts(50)); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if e.Intervals() != 0 {
		t.Error("Intervals nonzero after Reset")
	}
	g, ok, err := e.Observe(counts(5))
	if err != nil {
		t.Fatal(err)
	}
	if ok || g != nil {
		t.Error("after Reset the first interval must again produce no error")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	e := mustEWMA(t, 0.5, 2, 4)
	if _, _, err := e.Observe([][]int32{{1, 2, 3, 4}, {5, 6, 7, 8}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Observe([][]int32{{2, 3, 4, 5}, {6, 7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := mustEWMA(t, 0.5, 2, 4)
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.Intervals() != e.Intervals() {
		t.Error("clock not restored")
	}
	// Both must produce identical errors from here on.
	next := [][]int32{{10, 10, 10, 10}, {10, 10, 10, 10}}
	g1, _, err := e.Observe(next)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := restored.Observe(next)
	if err != nil {
		t.Fatal(err)
	}
	for j := range g1 {
		for i := range g1[j] {
			if g1[j][i] != g2[j][i] {
				t.Fatal("restored forecaster diverged")
			}
		}
	}
	// Mismatches rejected.
	other := mustEWMA(t, 0.5, 2, 8)
	if err := other.UnmarshalBinary(data); err == nil {
		t.Error("geometry mismatch accepted")
	}
	otherAlpha := mustEWMA(t, 0.25, 2, 4)
	if err := otherAlpha.UnmarshalBinary(data); err == nil {
		t.Error("alpha mismatch accepted")
	}
	if err := restored.UnmarshalBinary(data[:10]); err == nil {
		t.Error("truncated accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 1
	if err := restored.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestObserveDoesNotRetainCounts: the detector passes a sketch's live
// counters and resets them right after, so Observe must have taken all
// it needs from counts by the time it returns.
func TestObserveDoesNotRetainCounts(t *testing.T) {
	e := mustEWMA(t, 0.5, 1, 2)
	live := [][]int32{{40, 8}}
	if _, _, err := e.Observe(live); err != nil {
		t.Fatal(err)
	}
	clear(live[0])
	g, _, err := e.Observe([][]int32{{40, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if g[0][0] != 0 || g[0][1] != 0 {
		t.Errorf("e(2) = %v, want [0 0]: the forecast followed the cleared counters", g[0])
	}
}
