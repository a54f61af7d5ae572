package invsketch

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzInvertibleDecode drives the bucket decode with arbitrary update
// streams on a small geometry and checks its output invariants: no
// panic, every estimate at or above the threshold, keys within the key
// space, deduplicated, sorted largest-estimate first, decode agreeing
// with point estimation, and the marshal round trip byte-identical.
func FuzzInvertibleDecode(f *testing.F) {
	// Seeds: empty stream, one heavy key, a heavy key plus background
	// noise, and negative (SYN/ACK-style) updates.
	f.Add([]byte{})
	one := make([]byte, 0, 64)
	for i := 0; i < 20; i++ {
		one = binary.BigEndian.AppendUint16(one, 0xbeef)
		one = append(one, 5)
	}
	f.Add(one)
	mixed := append([]byte(nil), one...)
	for i := 0; i < 10; i++ {
		mixed = binary.BigEndian.AppendUint16(mixed, uint16(i*257))
		mixed = append(mixed, 1)
	}
	f.Add(mixed)
	neg := append([]byte(nil), one...)
	for i := 0; i < 5; i++ {
		neg = binary.BigEndian.AppendUint16(neg, 0xbeef)
		neg = append(neg, byte(0x100-2)) // v = −2
	}
	f.Add(neg)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Small geometry keeps each fuzz execution fast: 16-bit keys,
		// 2 stages of 16 buckets (18 fields per bucket).
		params := Params{KeyBits: 16, Stages: 2, Buckets: 16}
		s, err := New(params, 0x5eed)
		if err != nil {
			t.Fatal(err)
		}
		// Consume 3 bytes per update: 2 key bytes, 1 signed value byte.
		for len(data) >= 3 {
			key := uint64(binary.BigEndian.Uint16(data))
			v := int32(int8(data[2]))
			s.Update(key, v)
			data = data[3:]
		}

		const threshold = 8.0
		got, err := s.DecodeCounts(threshold, DecodeOptions{MaxKeys: 256})
		if err != nil {
			t.Fatalf("DecodeCounts: %v", err)
		}
		keySpace := uint64(1) << uint(params.KeyBits)
		seen := make(map[uint64]bool, len(got))
		for i, ke := range got {
			if ke.Key >= keySpace {
				t.Fatalf("key %#x outside the %d-bit key space", ke.Key, params.KeyBits)
			}
			if ke.Estimate < threshold {
				t.Fatalf("key %#x returned with estimate %v < threshold %v", ke.Key, ke.Estimate, threshold)
			}
			if seen[ke.Key] {
				t.Fatalf("key %#x returned twice", ke.Key)
			}
			seen[ke.Key] = true
			if i > 0 && ke.Estimate > got[i-1].Estimate {
				t.Fatalf("results not sorted: estimate %v after %v", ke.Estimate, got[i-1].Estimate)
			}
			// Decode must agree with ESTIMATE on the keys it reports.
			if est := s.Estimate(ke.Key); est != ke.Estimate {
				t.Fatalf("key %#x: decode estimate %v, point estimate %v", ke.Key, ke.Estimate, est)
			}
		}

		// Serialization survives arbitrary counter states.
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		loaded, err := New(params, 0x5eed)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.AddBinary(blob, true); err != nil {
			t.Fatalf("AddBinary: %v", err)
		}
		blob2, err := loaded.MarshalBinary()
		if err != nil {
			t.Fatalf("re-MarshalBinary: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatal("marshal round trip not byte-identical")
		}
	})
}
