package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/burst"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/trace"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/recorder-wire.sha256 with the observed digests")

// TestRecorderWireDigest pins Recorder.MarshalBinary absolutely: a
// deterministic trace drives a recorder holding every block type (the
// three reversible sketches, verifiers, original sketch, 2D sketches,
// Bloom filter, burst monitor and reflection monitor), and each
// interval's encoding, taken before Reset, must hash to the digest
// checked in at testdata/recorder-wire.sha256. Regenerate with
// `go test ./internal/core -run TestRecorderWireDigest -update` only
// when the wire format changes on purpose.
func TestRecorderWireDigest(t *testing.T) {
	rcfg := TestRecorderConfig(0x5eed)
	rcfg.BurstWindow = time.Minute / burst.Slots
	rcfg.Reflection = true
	rec, err := NewRecorder(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseTraceConfig(77, 4)
	prefix := cfg.InternalPrefix
	cfg.Attacks = []trace.Attack{
		{Type: trace.SYNFlood, Spoofed: true, Victim: prefix | 0x4d01, Ports: []uint16{80},
			StartInterval: 1, EndInterval: 3, Rate: 600, ResponseRate: 0.1, Cause: "flood"},
		{Type: trace.HorizontalScan, Attackers: []netmodel.IPv4{0x3f200118}, Victim: prefix & 0xffff0000,
			Ports: []uint16{445}, Targets: 500, StartInterval: 1, EndInterval: 3, Rate: 120,
			ResponseRate: 0.02, Cause: "scan"},
		{Type: trace.BurstPulse, Spoofed: true, Victim: prefix | 0x9b01, Ports: []uint16{443},
			StartInterval: 1, EndInterval: 3, Rate: 48, BurstOffset: 2 * rcfg.BurstWindow,
			BurstWidth: 4 * time.Second, Cause: "pulse"},
		{Type: trace.Reflection, Victim: prefix | 0x93c5, Ports: []uint16{53}, Reflectors: 24,
			StartInterval: 1, EndInterval: 3, Rate: 200, Cause: "reflection"},
	}
	gen, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < cfg.Intervals; i++ {
		pkts, err := gen.GenerateInterval(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			rec.Observe(p)
		}
		if i > 0 && rec.Reflect.Sum <= 0 {
			t.Fatalf("interval %d: the reflection monitor recorded no unsolicited SYN/ACKs", i)
		}
		data, err := rec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got = append(got, hex.EncodeToString(sum[:]))
		rec.Reset()
	}

	path := filepath.Join("testdata", "recorder-wire.sha256")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Fields(string(want))
	if len(wantLines) != len(got) {
		t.Fatalf("%d digests checked in, %d intervals encoded", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("interval %d: MarshalBinary digest %s, want %s", i, got[i], wantLines[i])
		}
	}
}
