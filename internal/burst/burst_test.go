package burst

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/invsketch"
	"github.com/hifind/hifind/internal/sketch"
)

func testConfig() Config {
	return Config{
		Slots:  8,
		Window: 7500 * time.Millisecond,
		Params: invsketch.Params{KeyBits: 16, Stages: 3, Buckets: 64},
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []Config{
		{Slots: 0, Window: time.Second, Params: invsketch.Params{KeyBits: 16, Stages: 3, Buckets: 64}},
		{Slots: MaxSlots + 1, Window: time.Second, Params: invsketch.Params{KeyBits: 16, Stages: 3, Buckets: 64}},
		{Slots: 4, Window: 0, Params: invsketch.Params{KeyBits: 16, Stages: 3, Buckets: 64}},
		{Slots: 4, Window: time.Second, Params: invsketch.Params{KeyBits: 0, Stages: 3, Buckets: 64}},
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, cfg)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestSlotMapping(t *testing.T) {
	a, err := New(testConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 2*a.Config().Slots; i++ {
		ts := start.Add(time.Duration(i) * a.Config().Window)
		want := i % a.Config().Slots
		if got := a.Slot(ts); got != want {
			t.Errorf("slot(%v) = %d, want %d", ts, got, want)
		}
		// Last nanosecond of the window still maps to the same slot.
		if got := a.Slot(ts.Add(a.Config().Window - time.Nanosecond)); got != want {
			t.Errorf("slot(end of window %d) = %d, want %d", i, got, want)
		}
	}
	if got := a.Slot(time.Unix(-3, -1)); got < 0 || got >= a.Config().Slots {
		t.Errorf("negative timestamp slot %d out of range", got)
	}
}

func TestDetectPulseAndSuppressSustained(t *testing.T) {
	a, err := New(testConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	const pulseKey, sustainedKey = uint64(0xBEEF), uint64(0xCAFE)
	a.Update(3, pulseKey, 48) // one-slot pulse, total 48 < 60
	for i := 0; i < a.Config().Slots; i++ {
		a.Update(i, sustainedKey, 75) // long-duration flood, total 600
	}
	got, err := a.Detect(30, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Detect returned %d findings, want 1: %+v", len(got), got)
	}
	f := got[0]
	if f.Key != pulseKey || f.Slot != 3 {
		t.Errorf("finding = %+v, want key %#x slot 3", f, pulseKey)
	}
	if f.Peak < 40 || f.Peak > 56 {
		t.Errorf("peak %.1f far from 48", f.Peak)
	}
	if f.Total >= 60 {
		t.Errorf("total %.1f should stay under the suppress threshold", f.Total)
	}
}

func TestDetectMaxKeysAndOrder(t *testing.T) {
	a, err := New(testConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	a.Update(0, 0x0101, 50)
	a.Update(1, 0x0202, 40)
	a.Update(2, 0x0303, 45)
	all, err := a.Detect(30, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("got %d findings, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Peak < all[i].Peak {
			t.Errorf("findings not peak-descending: %+v", all)
		}
	}
	capped, err := a.Detect(30, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 2 || capped[0] != all[0] || capped[1] != all[1] {
		t.Errorf("maxKeys cap broke prefix property: %+v vs %+v", capped, all)
	}
}

func TestPlanMatchesUpdate(t *testing.T) {
	cfg := testConfig()
	direct, err := New(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := New(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	p := planned.NewPlan()
	keys := []uint64{1, 0xFFFF, 0x1234, 0xBEEF}
	for i, key := range keys {
		slot := i % cfg.Slots
		direct.Update(slot, key, int32(i+1))
		planned.FillPlan(key, sketch.PowersOf(key), p)
		planned.UpdateAt(slot, p, int32(i+1))
	}
	db, _ := direct.MarshalBinary()
	pb, _ := planned.MarshalBinary()
	if !bytes.Equal(db, pb) {
		t.Fatal("planned updates diverge from direct updates")
	}
}

func TestCombineMarshalRoundTrip(t *testing.T) {
	cfg := testConfig()
	a, _ := New(cfg, 5)
	b, _ := New(cfg, 5)
	a.Update(2, 0xAAAA, 20)
	b.Update(2, 0xAAAA, 15)
	b.Update(5, 0xBBBB, 31)
	merged, _ := New(cfg, 5)
	for _, src := range []*Array{a, b} {
		blob, err := src.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.AddBinary(blob, true); err != nil {
			t.Fatal(err)
		}
	}
	if est := merged.SlotSketch(2).Estimate(0xAAAA); est < 30 || est > 40 {
		t.Errorf("combined estimate %.1f, want ≈35", est)
	}
	blob, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, _ := New(cfg, 5)
	if err := back.AddBinary(blob, true); err != nil {
		t.Fatal(err)
	}
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("marshal round trip not byte-identical")
	}
	other, _ := New(cfg, 6)
	if err := other.AddBinary(blob, true); err == nil {
		t.Fatal("AddBinary accepted mismatched seeds")
	}
}

func TestResetAndMemory(t *testing.T) {
	a, _ := New(testConfig(), 3)
	a.Update(0, 0x7777, 100)
	if a.MemoryBytes() == 0 {
		t.Fatal("zero memory footprint")
	}
	a.Reset()
	got, err := a.Detect(30, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("findings after reset: %+v", got)
	}
}

// FuzzBurstDetect drives random update streams through the monitor and
// checks Detect never panics, returns a deterministic order, and every
// finding respects the peak/suppress contract.
func FuzzBurstDetect(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{
			Slots:  4,
			Window: time.Second,
			Params: invsketch.Params{KeyBits: 16, Stages: 2, Buckets: 16},
		}
		a, err := New(cfg, 1234)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= 12 {
			slot := int(data[0]) % cfg.Slots
			key := uint64(binary.LittleEndian.Uint16(data[1:]))
			v := int32(binary.LittleEndian.Uint32(data[3:]) % 201)
			if data[7]&1 == 1 {
				v = -v
			}
			a.Update(slot, key, v)
			data = data[12:]
		}
		got, err := a.Detect(20, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		again, err := a.Detect(20, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(again) {
			t.Fatalf("decode order nondeterministic: %d vs %d findings", len(got), len(again))
		}
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("decode nondeterministic at %d: %+v vs %+v", i, got[i], again[i])
			}
			if got[i].Peak < 20 {
				t.Errorf("finding %d peak %.1f below threshold", i, got[i].Peak)
			}
			if got[i].Total >= 100 {
				t.Errorf("finding %d total %.1f not suppressed", i, got[i].Total)
			}
			if i > 0 && got[i-1].Peak < got[i].Peak {
				t.Errorf("findings not peak-descending at %d", i)
			}
		}
	})
}
