package hifind_test

// Facade-level differential suite for the fused update engine: every
// golden scenario is replayed through the fused and the legacy engine
// and the complete per-interval alert output must agree exactly. Together with the byte-identity
// tests in internal/core this proves the fused engine changes only
// speed, never detection behavior, on the same traces the golden
// regression suite pins.

import (
	"bytes"
	"fmt"
	"testing"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/trace"
)

func TestEngineDifferentialGoldenTraces(t *testing.T) {
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
				{"fused-sequential", func(t *testing.T) string {
					return replayGolden(t, capture, edge, newCompact(t, sc.options()...))
				}},
				{"legacy-sequential", func(t *testing.T) string {
					return replayGolden(t, capture, edge,
						newCompact(t, sc.options(hifind.WithLegacyEngine())...))
				}},
			}
			want := variants[0].replay(t)
			if name != "benign-only" && want == "" {
				t.Fatal("baseline variant produced no output; the equivalence would be vacuous")
			}
			for _, v := range variants[1:] {
				if got := v.replay(t); got != want {
					t.Errorf("%s diverged from fused-sequential:\n%s", v.name, goldenDiff(want, got))
				}
			}
		})
	}
}

func replayGolden(t *testing.T, capture []byte, edge []string, d hifind.Replayable) string {
	t.Helper()
	results, err := hifind.ReplayPcap(bytes.NewReader(capture), edge, d)
	if err != nil {
		t.Fatal(err)
	}
	return formatGolden(results)
}
