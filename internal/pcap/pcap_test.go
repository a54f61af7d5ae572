package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
)

func testEdge(t *testing.T) *netmodel.EdgeNetwork {
	t.Helper()
	e, err := netmodel.NewEdgeNetwork("10.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func samplePackets() []netmodel.Packet {
	base := time.Date(2005, 5, 10, 12, 0, 0, 0, time.UTC)
	return []netmodel.Packet{
		{
			Timestamp: base,
			SrcIP:     netmodel.MustParseIPv4("192.168.9.9"),
			DstIP:     netmodel.MustParseIPv4("10.1.2.3"),
			SrcPort:   31337, DstPort: 80,
			Flags: netmodel.FlagSYN,
			Dir:   netmodel.Inbound,
			Wire:  60,
		},
		{
			Timestamp: base.Add(3 * time.Millisecond),
			SrcIP:     netmodel.MustParseIPv4("10.1.2.3"),
			DstIP:     netmodel.MustParseIPv4("192.168.9.9"),
			SrcPort:   80, DstPort: 31337,
			Flags: netmodel.FlagSYN | netmodel.FlagACK,
			Dir:   netmodel.Outbound,
			Wire:  60,
		},
		{
			Timestamp: base.Add(7 * time.Second),
			SrcIP:     netmodel.MustParseIPv4("172.16.5.5"),
			DstIP:     netmodel.MustParseIPv4("10.200.0.1"),
			SrcPort:   4000, DstPort: 443,
			Flags: netmodel.FlagRST,
			Dir:   netmodel.Inbound,
			Wire:  40,
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := samplePackets()
	for _, p := range want {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf, testEdge(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, exp := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if got.SrcIP != exp.SrcIP || got.DstIP != exp.DstIP ||
			got.SrcPort != exp.SrcPort || got.DstPort != exp.DstPort {
			t.Errorf("packet %d addressing mismatch: %+v", i, got)
		}
		if got.Flags != exp.Flags {
			t.Errorf("packet %d flags %v, want %v", i, got.Flags, exp.Flags)
		}
		if got.Dir != exp.Dir {
			t.Errorf("packet %d direction %v, want %v", i, got.Dir, exp.Dir)
		}
		if !got.Timestamp.Equal(exp.Timestamp) {
			t.Errorf("packet %d timestamp %v, want %v", i, got.Timestamp, exp.Timestamp)
		}
		if got.Wire != exp.Wire && got.Wire != 54 {
			t.Errorf("packet %d wire %d", i, got.Wire)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

func TestReaderSkipsNonEdgeTraffic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pkts := samplePackets()
	// internal-to-internal packet must be skipped
	internal := pkts[0]
	internal.SrcIP = netmodel.MustParseIPv4("10.0.0.1")
	internal.DstIP = netmodel.MustParseIPv4("10.0.0.2")
	if err := w.WritePacket(internal); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(pkts[0]); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, testEdge(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != pkts[0].SrcIP {
		t.Error("skipping logic returned wrong packet")
	}
	if r.Skipped() != 1 {
		t.Errorf("Skipped = %d, want 1", r.Skipped())
	}
}

func TestReaderNilEdgeKeepsEverything(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(samplePackets()[0]); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Dir != netmodel.Inbound {
		t.Error("nil edge should default to Inbound")
	}
}

func TestNewReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("definitely not pcap data....")), nil); err == nil {
		t.Error("garbage magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte{1, 2}), nil); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestNewReaderRejectsNonEthernet(t *testing.T) {
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], MagicMicroseconds)
	le.PutUint32(hdr[20:], 101) // LINKTYPE_RAW
	if _, err := NewReader(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Error("non-Ethernet link type accepted")
	}
}

func TestBigEndianCapture(t *testing.T) {
	// Synthesize a big-endian capture of one frame by writing LE and then
	// byte-swapping the global and record headers.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(samplePackets()[0]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	be := make([]byte, len(data))
	copy(be, data)
	swap32 := func(b []byte) {
		b[0], b[1], b[2], b[3] = b[3], b[2], b[1], b[0]
	}
	swap16 := func(b []byte) { b[0], b[1] = b[1], b[0] }
	swap32(be[0:4])
	swap16(be[4:6])
	swap16(be[6:8])
	swap32(be[8:12])
	swap32(be[12:16])
	swap32(be[16:20])
	swap32(be[20:24])
	for off := 24; off < 24+16; off += 4 {
		swap32(be[off : off+4])
	}
	r, err := NewReader(bytes.NewReader(be), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.DstPort != 80 {
		t.Errorf("big-endian decode wrong: %+v", got)
	}
}

func TestDecodeIPv4Errors(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WritePacket(samplePackets()[0]); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[24+16+14:] // strip global hdr, record hdr, ethernet
	}
	t.Run("valid baseline", func(t *testing.T) {
		if _, err := DecodeIPv4(valid()); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeIPv4(valid()[:10]); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("ipv6 version", func(t *testing.T) {
		p := valid()
		p[0] = 0x65
		if _, err := DecodeIPv4(p); !errors.Is(err, ErrNotTCP) {
			t.Errorf("want ErrNotTCP, got %v", err)
		}
	})
	t.Run("udp", func(t *testing.T) {
		p := valid()
		p[9] = 17
		if _, err := DecodeIPv4(p); !errors.Is(err, ErrNotTCP) {
			t.Errorf("want ErrNotTCP, got %v", err)
		}
	})
	t.Run("fragment", func(t *testing.T) {
		p := valid()
		binary.BigEndian.PutUint16(p[6:], 100) // nonzero fragment offset
		if _, err := DecodeIPv4(p); !errors.Is(err, ErrNotTCP) {
			t.Errorf("want ErrNotTCP, got %v", err)
		}
	})
	t.Run("bad ihl", func(t *testing.T) {
		p := valid()
		p[0] = 0x42 // IHL 2 words
		if _, err := DecodeIPv4(p); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("short tcp", func(t *testing.T) {
		if _, err := DecodeIPv4(valid()[:25]); err == nil {
			t.Error("accepted")
		}
	})
}

func TestDecodeEthernetNonIP(t *testing.T) {
	frame := make([]byte, 60)
	binary.BigEndian.PutUint16(frame[12:], 0x0806) // ARP
	if _, err := DecodeEthernet(frame); !errors.Is(err, ErrNotTCP) {
		t.Errorf("want ErrNotTCP, got %v", err)
	}
	if _, err := DecodeEthernet(frame[:5]); err == nil || errors.Is(err, ErrNotTCP) {
		t.Errorf("short frame should be a hard error, got %v", err)
	}
}

func TestIPChecksumValid(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(samplePackets()[0]); err != nil {
		t.Fatal(err)
	}
	ipHdr := buf.Bytes()[24+16+14 : 24+16+14+20]
	// Recomputing the checksum over a valid header (checksum included)
	// must yield zero.
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ipHdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if ^uint16(sum) != 0 {
		t.Errorf("IP checksum invalid: residual %#x", ^uint16(sum))
	}
}

func TestEdgeNetworkParsing(t *testing.T) {
	if _, err := netmodel.NewEdgeNetwork(); err == nil {
		t.Error("empty prefix list accepted")
	}
	if _, err := netmodel.NewEdgeNetwork("10.0.0.0"); err == nil {
		t.Error("missing length accepted")
	}
	if _, err := netmodel.NewEdgeNetwork("10.0.0.0/33"); err == nil {
		t.Error("length 33 accepted")
	}
	if _, err := netmodel.NewEdgeNetwork("bogus/8"); err == nil {
		t.Error("bad address accepted")
	}
	e, err := netmodel.NewEdgeNetwork("129.105.0.0/16", "165.124.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Contains(netmodel.MustParseIPv4("129.105.7.7")) {
		t.Error("inside address not matched")
	}
	if e.Contains(netmodel.MustParseIPv4("8.8.8.8")) {
		t.Error("outside address matched")
	}
	if dir, ok := e.Classify(netmodel.MustParseIPv4("8.8.8.8"), netmodel.MustParseIPv4("165.124.1.1")); !ok || dir != netmodel.Inbound {
		t.Error("inbound classification failed")
	}
	if dir, ok := e.Classify(netmodel.MustParseIPv4("165.124.1.1"), netmodel.MustParseIPv4("8.8.8.8")); !ok || dir != netmodel.Outbound {
		t.Error("outbound classification failed")
	}
	if _, ok := e.Classify(netmodel.MustParseIPv4("8.8.8.8"), netmodel.MustParseIPv4("9.9.9.9")); ok {
		t.Error("transit traffic classified")
	}
	if _, ok := e.Classify(netmodel.MustParseIPv4("129.105.1.1"), netmodel.MustParseIPv4("165.124.1.1")); ok {
		t.Error("internal traffic classified")
	}
}

func TestZeroLengthPrefixMatchesAll(t *testing.T) {
	e, err := netmodel.NewEdgeNetwork("0.0.0.0/0")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Contains(netmodel.MustParseIPv4("203.0.113.7")) {
		t.Error("/0 should match everything")
	}
}

// TestReaderNextAllocs pins the reader to its record buffer: once warm,
// decoding edge-crossing TCP frames allocates nothing per Next.
func TestReaderNextAllocs(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := samplePackets()
	for _, p := range want {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	records := buf.Bytes()[globalHeaderLen:]
	src := bytes.NewReader(buf.Bytes())
	r, err := NewReader(src, testEdge(t))
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(records)
		for i := range want {
			if got, err := r.Next(); err != nil || got.SrcIP != want[i].SrcIP {
				bad++
			}
		}
	})
	if bad != 0 {
		t.Fatalf("%d packets misread", bad)
	}
	if allocs != 0 {
		t.Errorf("decoding %d packets allocates %v times, want 0 per Next", len(want), allocs)
	}
}

// TestReaderCutAfterRecordHeaderIsTruncated holds the end-of-capture
// contract replay loops rely on: Next returns a bare io.EOF only when
// the capture ends on a record boundary. A capture cut right after a
// record header has lost that record's body, so it must report
// truncation, not a clean end.
func TestReaderCutAfterRecordHeaderIsTruncated(t *testing.T) {
	full := fuzzSeedCapture(t)
	first := globalHeaderLen + packetHeaderLen + ethernetLen + ipv4MinLen + tcpMinLen
	r, err := NewReader(bytes.NewReader(full[:first+packetHeaderLen]), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, err = r.Next()
	if errors.Is(err, io.EOF) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("capture cut after a record header: err = %v, want io.ErrUnexpectedEOF", err)
	}

	r, err = NewReader(bytes.NewReader(full[:first]), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("capture ending on a record boundary: err = %v, want io.EOF", err)
	}
}
