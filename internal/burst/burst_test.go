package burst

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/revsketch"
)

const window = 7500 * time.Millisecond

func newArray(t *testing.T, seed uint64) *Array {
	t.Helper()
	a, err := New(revsketch.Params48(), window, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// only returns detection options whose Verify passes exactly the given
// keys, standing in for the recorder's verifier sketch: it rejects the
// modular-hash aliases reverse hashing recovers next to every heavy key.
func only(keys ...uint64) revsketch.InferenceOptions {
	return revsketch.InferenceOptions{Verify: func(key uint64, _ float64) bool {
		return slices.Contains(keys, key)
	}}
}

func ignoreSearch(revsketch.InferenceStats) {}

func TestNewValidates(t *testing.T) {
	for _, w := range []time.Duration{0, -time.Second} {
		if _, err := New(revsketch.Params48(), w, 1); err == nil {
			t.Errorf("New accepted window %v", w)
		}
	}
	if _, err := New(revsketch.Params{KeyBits: 48, Words: 4, Stages: 6, Buckets: 1000}, window, 1); err == nil {
		t.Error("New accepted a non-power-of-two bucket count")
	}
}

func TestSlotMapping(t *testing.T) {
	a := newArray(t, 42)
	start := time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 2*Slots; i++ {
		ts := start.Add(time.Duration(i) * window)
		want := i % Slots
		if got := a.Slot(ts); got != want {
			t.Errorf("slot(%v) = %d, want %d", ts, got, want)
		}
		// Last nanosecond of the window still maps to the same slot.
		if got := a.Slot(ts.Add(window - time.Nanosecond)); got != want {
			t.Errorf("slot(end of window %d) = %d, want %d", i, got, want)
		}
	}
	if got := a.Slot(time.Unix(-3, -1)); got < 0 || got >= Slots {
		t.Errorf("negative timestamp slot %d out of range", got)
	}
}

func TestDetectPulseAndSuppressSustained(t *testing.T) {
	a := newArray(t, 7)
	const pulseKey, sustainedKey = uint64(0xBEEF), uint64(0xCAFE)
	a.Update(3, pulseKey, 48) // one-slot pulse, total 48 < 60
	for i := 0; i < Slots; i++ {
		a.Update(i, sustainedKey, 75) // long-duration flood, total 600
	}
	got, err := a.Detect(30, 60, only(pulseKey, sustainedKey), ignoreSearch)
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
	a := newArray(t, 11)
	a.Update(0, 0x0101, 50)
	a.Update(1, 0x0202, 40)
	a.Update(2, 0x0303, 45)
	opts := only(0x0101, 0x0202, 0x0303)
	var searches int
	all, err := a.Detect(30, 1000, opts, func(revsketch.InferenceStats) { searches++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("got %d findings, want 3", len(all))
	}
	if searches != Slots {
		t.Errorf("Detect reported %d searches, want one per slot (%d)", searches, Slots)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Peak < all[i].Peak {
			t.Errorf("findings not peak-descending: %+v", all)
		}
	}
	opts.MaxKeys = 2
	capped, err := a.Detect(30, 1000, opts, ignoreSearch)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 2 || capped[0] != all[0] || capped[1] != all[1] {
		t.Errorf("maxKeys cap broke prefix property: %+v vs %+v", capped, all)
	}
}

func TestCombineMarshalRoundTrip(t *testing.T) {
	a, b := newArray(t, 5), newArray(t, 5)
	a.Update(2, 0xAAAA, 20)
	b.Update(2, 0xAAAA, 15)
	b.Update(5, 0xBBBB, 31)
	merged := newArray(t, 5)
	for _, src := range []*Array{a, b} {
		blob, err := src.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.AddBinary(blob, true); err != nil {
			t.Fatal(err)
		}
	}
	got, err := merged.Detect(30, 1000, only(0xAAAA, 0xBBBB), ignoreSearch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key != 0xAAAA || got[0].Slot != 2 || got[0].Peak < 30 || got[0].Peak > 40 {
		t.Errorf("combined findings %+v, want 0xAAAA ≈35 in slot 2 first", got)
	}
	blob, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := newArray(t, 5)
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
	if err := newArray(t, 6).AddBinary(blob, true); err == nil {
		t.Fatal("AddBinary accepted mismatched seeds")
	}
	other, err := New(revsketch.Params48(), 2*window, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AddBinary(blob, true); err == nil {
		t.Fatal("AddBinary accepted a mismatched window")
	}
}

func TestResetAndMemory(t *testing.T) {
	a := newArray(t, 3)
	a.Update(0, 0x7777, 100)
	if want := Slots * 6 * 4096 * 4; a.MemoryBytes() != want {
		t.Fatalf("memory footprint %d bytes, want %d (one RS48 counter array per slot)", a.MemoryBytes(), want)
	}
	a.Reset()
	got, err := a.Detect(30, 1000, revsketch.InferenceOptions{}, ignoreSearch)
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
		a, err := New(revsketch.Params{KeyBits: 16, Words: 4, Stages: 2, Buckets: 16}, time.Second, 1234)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= 12 {
			slot := int(data[0]) % Slots
			key := uint64(binary.LittleEndian.Uint16(data[1:]))
			v := int32(binary.LittleEndian.Uint32(data[3:]) % 201)
			if data[7]&1 == 1 {
				v = -v
			}
			a.Update(slot, key, v)
			data = data[12:]
		}
		opts := revsketch.InferenceOptions{}
		got, err := a.Detect(20, 100, opts, ignoreSearch)
		if err != nil {
			t.Fatal(err)
		}
		again, err := a.Detect(20, 100, opts, ignoreSearch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(again) {
			t.Fatalf("detect order nondeterministic: %d vs %d findings", len(got), len(again))
		}
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("detect nondeterministic at %d: %+v vs %+v", i, got[i], again[i])
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
