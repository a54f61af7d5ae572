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

// ngBuilder assembles pcapng streams for tests.
type ngBuilder struct {
	buf   bytes.Buffer
	order binary.ByteOrder
}

func newNGBuilder() *ngBuilder { return &ngBuilder{order: binary.LittleEndian} }

func (b *ngBuilder) block(blockType uint32, body []byte) {
	for len(body)%4 != 0 {
		body = append(body, 0)
	}
	total := uint32(12 + len(body))
	hdr := make([]byte, 8)
	b.order.PutUint32(hdr[0:], blockType)
	b.order.PutUint32(hdr[4:], total)
	b.buf.Write(hdr)
	b.buf.Write(body)
	tail := make([]byte, 4)
	b.order.PutUint32(tail, total)
	b.buf.Write(tail)
}

func (b *ngBuilder) shb() {
	body := make([]byte, 16)
	b.order.PutUint32(body[0:], byteOrderMagic)
	b.order.PutUint16(body[4:], 1) // major
	// section length: -1 (unknown)
	b.order.PutUint64(body[8:], ^uint64(0))
	b.block(blockSHB, body)
}

// idb appends an interface description; tsresol 0 means "omit option".
func (b *ngBuilder) idb(linkType uint16, tsresol byte) {
	body := make([]byte, 8)
	b.order.PutUint16(body[0:], linkType)
	b.order.PutUint32(body[4:], 65535) // snaplen
	if tsresol != 0 {
		opt := make([]byte, 8)
		b.order.PutUint16(opt[0:], 9) // if_tsresol
		b.order.PutUint16(opt[2:], 1)
		opt[4] = tsresol
		body = append(body, opt...)
	}
	b.block(blockIDB, body)
}

// epb appends an enhanced packet block holding a synthesized TCP frame.
func (b *ngBuilder) epb(ifID uint32, ts uint64, pkt netmodel.Packet) {
	frame := synthFrame(pkt)
	body := make([]byte, 20, 20+len(frame))
	b.order.PutUint32(body[0:], ifID)
	b.order.PutUint32(body[4:], uint32(ts>>32))
	b.order.PutUint32(body[8:], uint32(ts))
	b.order.PutUint32(body[12:], uint32(len(frame)))
	b.order.PutUint32(body[16:], uint32(len(frame)))
	body = append(body, frame...)
	b.block(blockEPB, body)
}

// synthFrame builds an Ethernet/IPv4/TCP frame via the classic writer.
func synthFrame(pkt netmodel.Packet) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(pkt); err != nil {
		panic(err)
	}
	return buf.Bytes()[globalHeaderLen+packetHeaderLen:]
}

func TestNGReaderBasic(t *testing.T) {
	b := newNGBuilder()
	b.shb()
	b.idb(linkTypeEthernet, 6) // microseconds, explicit
	want := samplePackets()
	for i, p := range want {
		b.epb(0, uint64(p.Timestamp.UnixMicro()), p)
		_ = i
	}
	r, err := NewNGReader(bytes.NewReader(b.buf.Bytes()), testEdge(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, exp := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if got.SrcIP != exp.SrcIP || got.DstPort != exp.DstPort || got.Flags != exp.Flags {
			t.Errorf("packet %d: %+v", i, got)
		}
		if !got.Timestamp.Equal(exp.Timestamp) {
			t.Errorf("packet %d timestamp %v, want %v", i, got.Timestamp, exp.Timestamp)
		}
		if got.Dir != exp.Dir {
			t.Errorf("packet %d dir %v, want %v", i, got.Dir, exp.Dir)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestNGReaderNanosecondResolution(t *testing.T) {
	b := newNGBuilder()
	b.shb()
	b.idb(linkTypeEthernet, 9) // nanoseconds
	p := samplePackets()[0]
	p.Timestamp = time.Date(2005, 5, 10, 12, 0, 0, 123456789, time.UTC)
	b.epb(0, uint64(p.Timestamp.UnixNano()), p)
	r, err := NewNGReader(bytes.NewReader(b.buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Timestamp.Equal(p.Timestamp) {
		t.Errorf("nanosecond timestamp %v, want %v", got.Timestamp, p.Timestamp)
	}
}

func TestNGReaderDefaultResolution(t *testing.T) {
	b := newNGBuilder()
	b.shb()
	b.idb(linkTypeEthernet, 0) // no tsresol option ⇒ microseconds
	p := samplePackets()[0]
	b.epb(0, uint64(p.Timestamp.UnixMicro()), p)
	r, err := NewNGReader(bytes.NewReader(b.buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Timestamp.Equal(p.Timestamp) {
		t.Errorf("default-resolution timestamp %v, want %v", got.Timestamp, p.Timestamp)
	}
}

func TestNGReaderSkipsUnknownBlocksAndInterfaces(t *testing.T) {
	b := newNGBuilder()
	b.shb()
	b.idb(linkTypeEthernet, 6)
	b.idb(101, 6) // raw-IP interface: packets from it are skipped
	b.block(0x0BAD0001, []byte{1, 2, 3, 4})
	p := samplePackets()[0]
	b.epb(1, 0, p) // wrong interface link type
	b.epb(7, 0, p) // unknown interface id
	b.epb(0, uint64(p.Timestamp.UnixMicro()), p)
	r, err := NewNGReader(bytes.NewReader(b.buf.Bytes()), testEdge(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != p.SrcIP {
		t.Error("wrong packet surfaced")
	}
	if r.Skipped() != 2 {
		t.Errorf("Skipped = %d, want 2", r.Skipped())
	}
}

func TestNGReaderRejectsGarbage(t *testing.T) {
	if _, err := NewNGReader(bytes.NewReader([]byte("garbage stream here!")), nil); err == nil {
		t.Error("garbage accepted")
	}
	// SHB with a broken byte-order magic.
	raw := make([]byte, 12)
	binary.LittleEndian.PutUint32(raw[0:], blockSHB)
	binary.LittleEndian.PutUint32(raw[4:], 28)
	binary.LittleEndian.PutUint32(raw[8:], 0xDEADBEEF)
	if _, err := NewNGReader(bytes.NewReader(raw), nil); err == nil {
		t.Error("bad byte-order magic accepted")
	}
}

func TestNGReaderTruncationIsError(t *testing.T) {
	b := newNGBuilder()
	b.shb()
	b.idb(linkTypeEthernet, 6)
	b.epb(0, 0, samplePackets()[0])
	full := b.buf.Bytes()
	for cut := 1; cut < len(full); cut += 13 {
		r, err := NewNGReader(bytes.NewReader(full[:cut]), nil)
		if err != nil {
			continue
		}
		for {
			if _, err := r.Next(); err != nil {
				break // error or EOF; must not hang or panic
			}
		}
	}
}

func TestOpenReaderAutoDetects(t *testing.T) {
	// Classic capture.
	var classic bytes.Buffer
	w := NewWriter(&classic)
	if err := w.WritePacket(samplePackets()[0]); err != nil {
		t.Fatal(err)
	}
	src, err := OpenReader(&classic, testEdge(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*Reader); !ok {
		t.Errorf("classic capture opened as %T", src)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}

	// pcapng capture.
	b := newNGBuilder()
	b.shb()
	b.idb(linkTypeEthernet, 6)
	b.epb(0, 0, samplePackets()[0])
	src, err = OpenReader(bytes.NewReader(b.buf.Bytes()), testEdge(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*NGReader); !ok {
		t.Errorf("pcapng capture opened as %T", src)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenReader(bytes.NewReader([]byte{1}), nil); err == nil {
		t.Error("one-byte stream accepted")
	}
}

// TestNGReaderCutAfterBlockHeaderIsTruncated is the pcapng side of the
// end-of-capture contract: a capture cut right after a block header
// reports truncation, and one ending on a block boundary a bare io.EOF.
func TestNGReaderCutAfterBlockHeaderIsTruncated(t *testing.T) {
	b := newNGBuilder()
	b.shb()
	b.idb(linkTypeEthernet, 6)
	boundary := b.buf.Len()
	b.epb(0, 0, samplePackets()[0])
	full := b.buf.Bytes()

	r, err := NewNGReader(bytes.NewReader(full[:boundary+8]), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if errors.Is(err, io.EOF) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("capture cut after a block header: err = %v, want io.ErrUnexpectedEOF", err)
	}

	r, err = NewNGReader(bytes.NewReader(full[:boundary]), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("capture ending on a block boundary: err = %v, want io.EOF", err)
	}
}
