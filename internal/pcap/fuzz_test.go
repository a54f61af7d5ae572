package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"github.com/hifind/hifind/internal/netmodel"
)

// fuzzSeedCapture builds a well-formed capture via the Writer so the fuzzer
// starts from inputs that exercise the deep decode paths, not just the
// magic-number check.
func fuzzSeedCapture(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, p := range samplePackets() {
		if err := w.WritePacket(p); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// fuzzSeedNGCapture is fuzzSeedCapture in pcapng, via the NGWriter.
func fuzzSeedNGCapture(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewNGWriter(&buf)
	for _, p := range samplePackets() {
		if err := w.WritePacket(p); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// endsOnBoundary walks a capture's record lengths (classic pcap) or
// block lengths (pcapng) from its first record and reports whether the
// walk lands exactly on the end of data.
func endsOnBoundary(data []byte) bool {
	if len(data) < 12 {
		return false
	}
	var order binary.ByteOrder = binary.LittleEndian
	// A classic record's length is its header plus the incl_len field at
	// offset 8; a pcapng block's is the total-length field at offset 4.
	off, lenAt, lenAdd := globalHeaderLen, 8, packetHeaderLen
	if binary.LittleEndian.Uint32(data) == blockSHB {
		off, lenAt, lenAdd = 0, 4, 0
		if binary.LittleEndian.Uint32(data[8:]) != byteOrderMagic {
			order = binary.BigEndian
		}
	} else if m := binary.LittleEndian.Uint32(data); m != MagicMicroseconds && m != MagicNanoseconds {
		order = binary.BigEndian
	}
	for off < len(data) {
		if len(data)-off < lenAt+4 {
			return false
		}
		n := lenAdd + int(order.Uint32(data[off+lenAt:]))
		if n == 0 {
			return false
		}
		off += n
	}
	return off == len(data)
}

// FuzzReadPacket feeds arbitrary bytes through OpenReader/Next — both
// capture formats — and the raw frame decoders. Malformed input must
// surface as an error, never as a panic, an out-of-range slice access,
// or an unbounded allocation. Next may report io.EOF, bare or wrapped,
// only when the input ends exactly on a record boundary: replay loops
// take it as a complete capture.
func FuzzReadPacket(f *testing.F) {
	valid := fuzzSeedCapture(f)
	firstRecord := globalHeaderLen + packetHeaderLen + ethernetLen + ipv4MinLen + tcpMinLen
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:globalHeaderLen])             // header only, no records
	f.Add(valid[:globalHeaderLen+7])           // truncated record header
	f.Add(valid[:len(valid)-5])                // truncated record body
	f.Add(valid[:firstRecord+packetHeaderLen]) // cut right after a record header
	f.Add(bytes.Repeat([]byte{0xff}, 64))      // bad magic
	ng := fuzzSeedNGCapture(f)
	var one bytes.Buffer
	if err := NewNGWriter(&one).WritePacket(samplePackets()[0]); err != nil {
		f.Fatal(err)
	}
	f.Add(ng)
	f.Add(ng[:len(ng)-5])   // truncated block body
	f.Add(ng[:one.Len()+8]) // cut right after a block header

	// A record header claiming an implausibly large body must be rejected
	// up front, not trusted as an allocation size.
	huge := append([]byte(nil), valid[:globalHeaderLen]...)
	var rec [packetHeaderLen]byte
	binary.LittleEndian.PutUint32(rec[8:], 1<<30)
	f.Add(append(huge, rec[:]...))

	edge, err := netmodel.NewEdgeNetwork("10.0.0.0/8")
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, e := range []*netmodel.EdgeNetwork{nil, edge} {
			r, err := OpenReader(bytes.NewReader(data), e)
			if err != nil {
				continue
			}
			// Each Next consumes ≥ 12 bytes or errors, so the loop
			// terminates; the bound is pure paranoia.
			for i := 0; i <= len(data)/8; i++ {
				pkt, err := r.Next()
				if errors.Is(err, io.EOF) && (err != io.EOF || !endsOnBoundary(data)) {
					t.Fatalf("Next = %v on a %d-byte input that does not end on a record boundary", err, len(data))
				}
				if err != nil {
					break
				}
				if e != nil && pkt.Dir != netmodel.Inbound && pkt.Dir != netmodel.Outbound {
					t.Fatalf("edge-classified packet has direction %v", pkt.Dir)
				}
			}
			if r.Skipped() < 0 {
				t.Fatalf("negative skip count %d", r.Skipped())
			}
		}
		// The frame decoders must also hold on arbitrary raw input.
		if _, err := DecodeEthernet(data); err == nil {
			// A successful decode implies the frame really carried the
			// minimum Ethernet+IPv4+TCP layout.
			if len(data) < ethernetLen+ipv4MinLen+tcpMinLen {
				t.Fatalf("DecodeEthernet accepted a %d-byte frame", len(data))
			}
		}
		_, _ = DecodeIPv4(data)
	})
}
