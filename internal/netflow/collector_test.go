package netflow

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/telemetry"
)

// collectAll starts a collector whose handler appends into a synchronized
// slice, returning accessors.
func collectAll(t *testing.T) (*Collector, func() []Record) {
	t.Helper()
	var mu sync.Mutex
	var got []Record
	c, err := Listen("127.0.0.1:0", func(r Record, _ Header) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, func() []Record {
		mu.Lock()
		defer mu.Unlock()
		out := make([]Record, len(got))
		copy(out, got)
		return out
	}
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestCollectorReceivesExportedRecords(t *testing.T) {
	c, got := collectAll(t)
	e, err := NewExporter(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetClock(60000, 1115700000)
	// 65 records: two full datagrams plus a flushed partial.
	want := make([]Record, 65)
	for i := range want {
		want[i] = Record{
			SrcAddr: netmodel.IPv4(0x08000000 + uint32(i)), DstAddr: netmodel.MustParseIPv4("129.105.1.1"),
			SrcPort: uint16(1000 + i), DstPort: 80, Packets: 1, Octets: 40,
			TCPFlags: uint8(netmodel.FlagSYN), Protocol: 6,
		}
		if err := e.Add(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got()) == 65 })
	recs := got()
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d mismatch: %+v != %+v", i, recs[i], want[i])
		}
	}
	pkts, nrecs, malformed := c.Stats()
	if pkts != 3 || nrecs != 65 || malformed != 0 {
		t.Errorf("Stats = %d/%d/%d, want 3/65/0", pkts, nrecs, malformed)
	}
}

func TestCollectorDropsMalformedDatagrams(t *testing.T) {
	c, got := collectAll(t)
	e, err := NewExporter(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Raw garbage straight at the socket.
	if _, err := e.conn.Write([]byte("not netflow at all")); err != nil {
		t.Fatal(err)
	}
	// Followed by a valid record, proving the loop survived.
	if err := e.Add(Record{SrcAddr: 1, DstAddr: 2, Protocol: 6}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got()) == 1 })
	_, _, malformed := c.Stats()
	if malformed != 1 {
		t.Errorf("malformed = %d, want 1", malformed)
	}
}

// TestCollectorMalformedDatagramTelemetry feeds every malformed shape
// Unmarshal rejects — truncated header, wrong version, impossible record
// count, header claiming more records than the payload carries — and
// checks that each one increments the parse-error counter while the
// receive loop keeps decoding valid traffic.
func TestCollectorMalformedDatagramTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var got []Record
	c, err := Listen("127.0.0.1:0", func(r Record, _ Header) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	}, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e, err := NewExporter(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	valid, err := Marshal(Header{UnixSecs: 1115700000}, []Record{
		{SrcAddr: 1, DstAddr: 2, DstPort: 80, Protocol: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func([]byte)) []byte {
		d := append([]byte(nil), valid...)
		mutate(d)
		return d
	}
	malformed := [][]byte{
		valid[:HeaderLen-1], // truncated: shorter than the fixed header
		corrupt(func(d []byte) { binary.BigEndian.PutUint16(d[0:], 9) }),  // version 9, want 5
		corrupt(func(d []byte) { binary.BigEndian.PutUint16(d[2:], 31) }), // count over the v5 limit
		corrupt(func(d []byte) { binary.BigEndian.PutUint16(d[2:], 2) }),  // claims 2 records, carries 1
	}
	for _, d := range malformed {
		if _, err := e.conn.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	// A valid datagram after the garbage proves the loop survived.
	if _, err := e.conn.Write(valid); err != nil {
		t.Fatal(err)
	}

	waitFor(t, func() bool {
		snap := reg.Snapshot()
		parseErrs, _ := snap["netflow_parse_errors_total"].(int64)
		records, _ := snap["netflow_records_total"].(int64)
		return parseErrs == int64(len(malformed)) && records == 1
	})
	snap := reg.Snapshot()
	if n, _ := snap["netflow_datagrams_total"].(int64); n != int64(len(malformed))+1 {
		t.Errorf("netflow_datagrams_total = %v, want %d", n, len(malformed)+1)
	}
	_, _, statMalformed := c.Stats()
	if statMalformed != int64(len(malformed)) {
		t.Errorf("Stats malformed = %d, want %d", statMalformed, len(malformed))
	}
	mu.Lock()
	decoded := len(got)
	mu.Unlock()
	if decoded != 1 {
		t.Errorf("decoded %d records after malformed burst, want 1", decoded)
	}
}

func TestCollectorCloseIsIdempotentAndUnblocks(t *testing.T) {
	c, _ := collectAll(t)
	done := make(chan error, 2)
	go func() { done <- c.Close() }()
	go func() { done <- c.Close() }()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("Close blocked")
		}
	}
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", nil); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := Listen("bogus::::address", func(Record, Header) {}); err == nil {
		t.Error("bad address accepted")
	}
	if _, err := NewExporter("bogus::::address"); err == nil {
		t.Error("bad exporter address accepted")
	}
}

// TestLivePipeline wires exporter → collector → recorder, the deployment
// shape of the paper's on-site NU experiment.
func TestLivePipeline(t *testing.T) {
	edge, err := netmodel.NewEdgeNetwork("129.105.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	syns := 0
	c, err := Listen("127.0.0.1:0", func(r Record, hdr Header) {
		if fr, ok := ToFlowRecord(r, hdr, edge); ok {
			mu.Lock()
			syns += fr.SYNs
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e, err := NewExporter(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 50; i++ {
		err := e.Add(Record{
			SrcAddr: netmodel.IPv4(0x08000000 + uint32(i)), DstAddr: netmodel.MustParseIPv4("129.105.9.9"),
			SrcPort: uint16(2000 + i), DstPort: 25, Packets: 1, Octets: 40,
			TCPFlags: uint8(netmodel.FlagSYN), Protocol: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return syns == 50
	})
}

// TestCollectorReusesBuffersSafely sends datagrams of 30 records, 1, a
// malformed one (a 30-record frame cut after 10 records) and 5: the
// collector decodes each into the same buffers, so the handler must see
// exactly the 36 valid records in order, none of an earlier datagram's.
func TestCollectorReusesBuffersSafely(t *testing.T) {
	c, got := collectAll(t)
	e, err := NewExporter(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var want []Record
	// datagram encodes n records numbered after the ones already sent.
	datagram := func(n int) ([]byte, []Record) {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{
				SrcAddr: netmodel.IPv4(0x08000000 + uint32(len(want)+i)), DstAddr: netmodel.MustParseIPv4("129.105.1.1"),
				SrcPort: uint16(1000 + i), DstPort: uint16(n), Packets: uint32(1 + i), Octets: 40,
				TCPFlags: uint8(netmodel.FlagSYN), Protocol: 6,
			}
		}
		d, err := Marshal(Header{UnixSecs: 1115700000}, recs)
		if err != nil {
			t.Fatal(err)
		}
		return d, recs
	}
	send := func(d []byte) {
		t.Helper()
		if _, err := e.conn.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	sendValid := func(n int) {
		t.Helper()
		d, recs := datagram(n)
		send(d)
		want = append(want, recs...)
	}
	sendValid(30)
	sendValid(1)
	cut, _ := datagram(30)
	send(cut[:HeaderLen+10*RecordLen])
	sendValid(5)

	waitFor(t, func() bool { pkts, _, _ := c.Stats(); return pkts == 4 })
	c.Close() // waits for the receive loop, so every handler call is done
	pkts, nrecs, malformed := c.Stats()
	if pkts != 4 || nrecs != int64(len(want)) || malformed != 1 {
		t.Errorf("Stats = %d/%d/%d, want 4/%d/1", pkts, nrecs, malformed, len(want))
	}
	recs := got()
	if len(recs) != len(want) {
		t.Fatalf("handler saw %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d: %+v, want %+v", i, recs[i], want[i])
		}
	}
}
