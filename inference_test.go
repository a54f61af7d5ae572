package hifind_test

// Cross-engine differential suite for the inference subsystem: every
// golden scenario is replayed through the reverse-hashing engine (the
// independently written witness) and the invertible-sketch decode
// engine, and the complete per-interval alert output must agree
// exactly. Decoded keys are re-estimated against the
// same reversible-sketch error grids the witness uses, so when the
// recovered key sets match, the rendered alerts are identical down to
// the magnitudes — which is what this suite pins on the same traces the
// golden regression corpus uses.

import (
	"bytes"
	"fmt"
	"testing"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/trace"
)

func TestInferenceDifferentialGoldenTraces(t *testing.T) {
	for name, sc := range goldenScenarios() {
		t.Run(name, func(t *testing.T) {
			cfg := sc.cfg
			g, err := trace.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			w := pcap.NewWriter(&buf)
			if err := g.Stream(w.WritePacket); err != nil {
				t.Fatal(err)
			}
			capture := buf.Bytes()
			edge := []string{fmt.Sprintf("%s/16", cfg.InternalPrefix)}

			variants := []struct {
				name   string
				replay func(t *testing.T) string
			}{
				{"reverse-sequential", func(t *testing.T) string {
					return replayGolden(t, capture, edge, newCompact(t, sc.options()...))
				}},
				{"invertible-sequential", func(t *testing.T) string {
					return replayGolden(t, capture, edge,
						newCompact(t, sc.options(hifind.WithInvertibleInference())...))
				}},
			}
			want := variants[0].replay(t)
			if name != "benign-only" && want == "" {
				t.Fatal("witness variant produced no output; the equivalence would be vacuous")
			}
			for _, v := range variants[1:] {
				if got := v.replay(t); got != want {
					t.Errorf("%s diverged from reverse-sequential:\n%s", v.name, goldenDiff(want, got))
				}
			}
		})
	}
}

// TestInferenceEngineAccessors pins the facade's engine-name surface —
// the CLI logs it and operators key dashboards off it.
func TestInferenceEngineAccessors(t *testing.T) {
	if got := newCompact(t).InferenceEngine(); got != "reverse" {
		t.Fatalf("default engine = %q, want reverse", got)
	}
	if got := newCompact(t, hifind.WithInvertibleInference()).InferenceEngine(); got != "invertible" {
		t.Fatalf("invertible engine = %q, want invertible", got)
	}
}

// TestInferenceModeStateIsIncompatible: the invertible engine extends
// the recorder's structure set, so shipping a reverse-mode snapshot into
// an invertible-mode aggregation site (or vice versa) must fail loudly
// instead of silently dropping the extra sketches.
func TestInferenceModeStateIsIncompatible(t *testing.T) {
	rec, err := hifind.NewRecorder(hifind.WithCompactSketches())
	if err != nil {
		t.Fatal(err)
	}
	state, err := rec.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	det := newCompact(t, hifind.WithInvertibleInference())
	if _, err := det.EndIntervalMerged(state); err == nil {
		t.Fatal("merging a reverse-mode snapshot into an invertible-mode detector must fail")
	}
}
