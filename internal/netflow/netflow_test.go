package netflow

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
)

func testEdge(t *testing.T) *netmodel.EdgeNetwork {
	t.Helper()
	e, err := netmodel.NewEdgeNetwork("129.105.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sampleRecords() []Record {
	return []Record{
		{
			SrcAddr: netmodel.MustParseIPv4("8.8.8.8"), DstAddr: netmodel.MustParseIPv4("129.105.1.1"),
			SrcPort: 40000, DstPort: 80, Packets: 5, Octets: 2000,
			FirstMs: 1000, LastMs: 2500,
			TCPFlags: uint8(netmodel.FlagSYN | netmodel.FlagACK | netmodel.FlagFIN), Protocol: protoTCP,
		},
		{
			SrcAddr: netmodel.MustParseIPv4("129.105.1.1"), DstAddr: netmodel.MustParseIPv4("8.8.8.8"),
			SrcPort: 80, DstPort: 40000, Packets: 4, Octets: 1800,
			FirstMs: 1100, LastMs: 2400,
			TCPFlags: uint8(netmodel.FlagSYN | netmodel.FlagACK), Protocol: protoTCP,
		},
		{
			SrcAddr: netmodel.MustParseIPv4("203.0.113.1"), DstAddr: netmodel.MustParseIPv4("129.105.2.2"),
			SrcPort: 55555, DstPort: 1433, Packets: 1, Octets: 40,
			FirstMs: 3000, LastMs: 3000,
			TCPFlags: uint8(netmodel.FlagSYN), Protocol: protoTCP,
		},
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	hdr := Header{SysUptimeMs: 60000, UnixSecs: 1115700000, UnixNsecs: 12345, FlowSequence: 99}
	recs := sampleRecords()
	data, err := Marshal(hdr, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != HeaderLen+RecordLen*len(recs) {
		t.Fatalf("packet length %d", len(data))
	}
	gotHdr, gotRecs, err := Unmarshal(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr.SysUptimeMs != hdr.SysUptimeMs || gotHdr.UnixSecs != hdr.UnixSecs ||
		gotHdr.FlowSequence != hdr.FlowSequence {
		t.Errorf("header mismatch: %+v", gotHdr)
	}
	if int(gotHdr.Count) != len(recs) {
		t.Errorf("count %d", gotHdr.Count)
	}
	for i := range recs {
		if gotRecs[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, gotRecs[i], recs[i])
		}
	}
}

func TestMarshalValidation(t *testing.T) {
	if _, err := Marshal(Header{}, nil); err == nil {
		t.Error("empty packet accepted")
	}
	if _, err := Marshal(Header{}, make([]Record, 31)); err == nil {
		t.Error("31 records accepted")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	data, err := Marshal(Header{}, sampleRecords())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Unmarshal(data[:10], nil); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := Unmarshal(data[:HeaderLen+5], nil); err == nil {
		t.Error("truncated records accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0], bad[1] = 0, 9 // version 9
	if _, _, err := Unmarshal(bad, nil); err == nil {
		t.Error("wrong version accepted")
	}
	bad = append([]byte(nil), data...)
	bad[2], bad[3] = 0xff, 0xff // absurd count
	if _, _, err := Unmarshal(bad, nil); err == nil {
		t.Error("absurd count accepted")
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	boot := time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC)
	w := NewWriter(&buf, boot)
	// 65 records exercise packet boundaries (30+30+5).
	want := make([]Record, 65)
	for i := range want {
		want[i] = Record{
			SrcAddr: netmodel.IPv4(0x08000000 + uint32(i)), DstAddr: netmodel.MustParseIPv4("129.105.1.1"),
			SrcPort: uint16(1000 + i), DstPort: 80, Packets: 1, Octets: 40,
			TCPFlags: uint8(netmodel.FlagSYN), Protocol: protoTCP,
		}
		if err := w.Add(want[i], boot.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i := range want {
		got, hdr, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("record %d mismatch", i)
		}
		if hdr.Count == 0 {
			t.Fatal("header not populated")
		}
	}
	if _, _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}))
	if _, _, err := r.Next(); err == nil {
		t.Error("implausible frame length accepted")
	}
	r = NewReader(bytes.NewReader([]byte{0, 0, 0, 100, 1, 2, 3}))
	if _, _, err := r.Next(); err == nil {
		t.Error("truncated frame accepted")
	}
	// A stream cut right after a length prefix is truncated, not ended:
	// replay loops stop at errors.Is(err, io.EOF).
	r = NewReader(bytes.NewReader([]byte{0, 0, 0, 100}))
	if _, _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("frame cut after its length prefix read as %v, want a non-EOF error", err)
	}
}

func TestToFlowRecordDirectionAndCounts(t *testing.T) {
	edge := testEdge(t)
	hdr := Header{SysUptimeMs: 10000, UnixSecs: 1115700010}
	recs := sampleRecords()

	// Inbound client flow with SYN (and ACKs later in the flow): the OR'd
	// flags include SYN+ACK, but direction says client side ⇒ one SYN.
	fr, ok := ToFlowRecord(recs[0], hdr, edge)
	if !ok {
		t.Fatal("client flow rejected")
	}
	if fr.Dir != netmodel.Inbound || fr.SYNs != 1 || fr.SYNACKs != 0 {
		t.Errorf("client flow: %+v", fr)
	}
	if fr.FINs != 1 {
		t.Error("FIN lost")
	}

	// Outbound server flow with SYN+ACK ⇒ one SYN/ACK.
	fr, ok = ToFlowRecord(recs[1], hdr, edge)
	if !ok {
		t.Fatal("server flow rejected")
	}
	if fr.Dir != netmodel.Outbound || fr.SYNACKs != 1 || fr.SYNs != 0 {
		t.Errorf("server flow: %+v", fr)
	}

	// Scan probe: single inbound SYN.
	fr, ok = ToFlowRecord(recs[2], hdr, edge)
	if !ok || fr.SYNs != 1 {
		t.Errorf("probe flow: ok=%v %+v", ok, fr)
	}
}

func TestToFlowRecordFilters(t *testing.T) {
	edge := testEdge(t)
	hdr := Header{}
	udp := sampleRecords()[0]
	udp.Protocol = 17
	if _, ok := ToFlowRecord(udp, hdr, edge); ok {
		t.Error("UDP accepted")
	}
	noHandshake := sampleRecords()[0]
	noHandshake.TCPFlags = uint8(netmodel.FlagACK)
	if _, ok := ToFlowRecord(noHandshake, hdr, edge); ok {
		t.Error("pure-ACK flow accepted")
	}
	transit := sampleRecords()[0]
	transit.DstAddr = netmodel.MustParseIPv4("9.9.9.9")
	if _, ok := ToFlowRecord(transit, hdr, edge); ok {
		t.Error("transit flow accepted")
	}
}

func TestToFlowRecordTimes(t *testing.T) {
	edge := testEdge(t)
	export := time.Date(2005, 5, 10, 12, 0, 0, 0, time.UTC)
	hdr := Header{SysUptimeMs: 100000, UnixSecs: uint32(export.Unix())}
	rec := sampleRecords()[2]
	rec.FirstMs, rec.LastMs = 40000, 70000
	fr, ok := ToFlowRecord(rec, hdr, edge)
	if !ok {
		t.Fatal("rejected")
	}
	boot := export.Add(-100 * time.Second)
	if !fr.Start.Equal(boot.Add(40 * time.Second)) {
		t.Errorf("start = %v", fr.Start)
	}
	if !fr.End.Equal(boot.Add(70 * time.Second)) {
		t.Errorf("end = %v", fr.End)
	}
}

func TestFromPacketsAggregates(t *testing.T) {
	boot := time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC)
	src := netmodel.MustParseIPv4("8.8.8.8")
	dst := netmodel.MustParseIPv4("129.105.1.1")
	pkts := []netmodel.Packet{
		{Timestamp: boot.Add(time.Second), SrcIP: src, DstIP: dst, SrcPort: 1000, DstPort: 80,
			Flags: netmodel.FlagSYN, Wire: 40},
		{Timestamp: boot.Add(2 * time.Second), SrcIP: src, DstIP: dst, SrcPort: 1000, DstPort: 80,
			Flags: netmodel.FlagACK, Wire: 60},
		{Timestamp: boot.Add(3 * time.Second), SrcIP: src, DstIP: dst, SrcPort: 1001, DstPort: 80,
			Flags: netmodel.FlagSYN, Wire: 40},
	}
	recs := FromPackets(pkts, boot)
	if len(recs) != 2 {
		t.Fatalf("aggregated into %d flows, want 2", len(recs))
	}
	first := recs[0]
	if first.Packets != 2 || first.Octets != 100 {
		t.Errorf("flow aggregation wrong: %+v", first)
	}
	if first.TCPFlags != uint8(netmodel.FlagSYN|netmodel.FlagACK) {
		t.Errorf("flags not OR'd: %#x", first.TCPFlags)
	}
	if first.FirstMs != 1000 || first.LastMs != 2000 {
		t.Errorf("times wrong: %+v", first)
	}
}

// TestEndToEndWithRecorder checks the NetFlow path feeds HiFIND's recorder
// equivalently to the packet path for handshake accounting.
func TestEndToEndWithRecorder(t *testing.T) {
	boot := time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC)
	edge := testEdge(t)
	var buf bytes.Buffer
	w := NewWriter(&buf, boot)
	// A small flood: 40 client SYN flows, 2 answered.
	for i := 0; i < 40; i++ {
		rec := Record{
			SrcAddr: netmodel.IPv4(0x08000000 + uint32(i)), DstAddr: netmodel.MustParseIPv4("129.105.9.9"),
			SrcPort: uint16(2000 + i), DstPort: 25, Packets: 1, Octets: 40,
			TCPFlags: uint8(netmodel.FlagSYN), Protocol: protoTCP,
		}
		if err := w.Add(rec, boot.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		rec := Record{
			SrcAddr: netmodel.MustParseIPv4("129.105.9.9"), DstAddr: netmodel.IPv4(0x08000000 + uint32(i)),
			SrcPort: 25, DstPort: uint16(2000 + i), Packets: 1, Octets: 40,
			TCPFlags: uint8(netmodel.FlagSYN | netmodel.FlagACK), Protocol: protoTCP,
		}
		if err := w.Add(rec, boot.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	syns, synacks := 0, 0
	for {
		rec, hdr, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		fr, ok := ToFlowRecord(rec, hdr, edge)
		if !ok {
			continue
		}
		syns += fr.SYNs
		synacks += fr.SYNACKs
	}
	if syns != 40 || synacks != 2 {
		t.Errorf("replayed SYNs=%d SYN/ACKs=%d, want 40/2", syns, synacks)
	}
}

func TestUnmarshalNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		_, _, _ = Unmarshal(data, nil) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMarshalUnmarshalProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, pk, oc uint32, flags uint8, seq uint32) bool {
		rec := Record{
			SrcAddr: netmodel.IPv4(src), DstAddr: netmodel.IPv4(dst),
			SrcPort: sp, DstPort: dp, Packets: pk, Octets: oc,
			TCPFlags: flags, Protocol: protoTCP,
		}
		data, err := Marshal(Header{FlowSequence: seq}, []Record{rec})
		if err != nil {
			return false
		}
		hdr, recs, err := Unmarshal(data, nil)
		if err != nil || len(recs) != 1 {
			return false
		}
		return recs[0] == rec && hdr.FlowSequence == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
