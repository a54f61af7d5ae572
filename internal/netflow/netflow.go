// Package netflow implements the NetFlow version 5 export format, the
// form in which both of the paper's evaluation traces arrive ("the router
// exports netflow data continuously which is recorded with sketches of
// HiFIND on the fly", §5.1). The package encodes and decodes standard v5
// export packets — a 24-byte header followed by up to 30 fixed 48-byte
// flow records — and converts records to the internal flow model,
// recovering direction from an edge-network description.
package netflow

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
)

const (
	// Version is the only NetFlow version this package speaks.
	Version = 5
	// HeaderLen and RecordLen are the fixed v5 wire sizes.
	HeaderLen = 24
	RecordLen = 48
	// MaxRecordsPerPacket is the v5 limit.
	MaxRecordsPerPacket = 30

	protoTCP = 6
)

// Header is the v5 export-packet header.
type Header struct {
	Count        uint16 // records in this packet
	SysUptimeMs  uint32
	UnixSecs     uint32
	UnixNsecs    uint32
	FlowSequence uint32
	EngineType   uint8
	EngineID     uint8
	SamplingInfo uint16
}

// Record is one v5 flow record (TCP fields only; HiFIND ignores the
// routing fields, which encode as zero).
type Record struct {
	SrcAddr  netmodel.IPv4
	DstAddr  netmodel.IPv4
	Packets  uint32
	Octets   uint32
	FirstMs  uint32 // sysuptime at flow start
	LastMs   uint32 // sysuptime at flow end
	SrcPort  uint16
	DstPort  uint16
	TCPFlags uint8 // OR of all packet flags seen in the flow
	Protocol uint8
	Tos      uint8
}

// Marshal encodes an export packet. len(records) must be 1..30.
func Marshal(hdr Header, records []Record) ([]byte, error) {
	if len(records) == 0 || len(records) > MaxRecordsPerPacket {
		return nil, fmt.Errorf("netflow: %d records per packet (want 1..%d)",
			len(records), MaxRecordsPerPacket)
	}
	buf := make([]byte, HeaderLen+RecordLen*len(records))
	be := binary.BigEndian
	be.PutUint16(buf[0:], Version)
	be.PutUint16(buf[2:], uint16(len(records)))
	be.PutUint32(buf[4:], hdr.SysUptimeMs)
	be.PutUint32(buf[8:], hdr.UnixSecs)
	be.PutUint32(buf[12:], hdr.UnixNsecs)
	be.PutUint32(buf[16:], hdr.FlowSequence)
	buf[20] = hdr.EngineType
	buf[21] = hdr.EngineID
	be.PutUint16(buf[22:], hdr.SamplingInfo)
	for i, r := range records {
		off := HeaderLen + i*RecordLen
		be.PutUint32(buf[off+0:], uint32(r.SrcAddr))
		be.PutUint32(buf[off+4:], uint32(r.DstAddr))
		// next-hop (8..12) stays zero
		// input/output SNMP ifindexes (12..16) stay zero
		be.PutUint32(buf[off+16:], r.Packets)
		be.PutUint32(buf[off+20:], r.Octets)
		be.PutUint32(buf[off+24:], r.FirstMs)
		be.PutUint32(buf[off+28:], r.LastMs)
		be.PutUint16(buf[off+32:], r.SrcPort)
		be.PutUint16(buf[off+34:], r.DstPort)
		// pad (36)
		buf[off+37] = r.TCPFlags
		buf[off+38] = r.Protocol
		buf[off+39] = r.Tos
		// AS numbers, masks, pad (40..48) stay zero
	}
	return buf, nil
}

// Unmarshal decodes one export packet, appending its records to dst and
// returning the extended slice; pass dst[:0] to reuse a buffer. On error
// dst comes back unchanged.
func Unmarshal(data []byte, dst []Record) (Header, []Record, error) {
	if len(data) < HeaderLen {
		return Header{}, dst, fmt.Errorf("netflow: packet of %d bytes shorter than header", len(data))
	}
	be := binary.BigEndian
	if v := be.Uint16(data[0:]); v != Version {
		return Header{}, dst, fmt.Errorf("netflow: version %d, want %d", v, Version)
	}
	hdr := Header{
		Count:        be.Uint16(data[2:]),
		SysUptimeMs:  be.Uint32(data[4:]),
		UnixSecs:     be.Uint32(data[8:]),
		UnixNsecs:    be.Uint32(data[12:]),
		FlowSequence: be.Uint32(data[16:]),
		EngineType:   data[20],
		EngineID:     data[21],
		SamplingInfo: be.Uint16(data[22:]),
	}
	if int(hdr.Count) > MaxRecordsPerPacket {
		return Header{}, dst, fmt.Errorf("netflow: header claims %d records", hdr.Count)
	}
	want := HeaderLen + RecordLen*int(hdr.Count)
	if len(data) < want {
		return Header{}, dst, fmt.Errorf("netflow: %d bytes for %d records (want %d)",
			len(data), hdr.Count, want)
	}
	for off := HeaderLen; off < want; off += RecordLen {
		dst = append(dst, Record{
			SrcAddr:  netmodel.IPv4(be.Uint32(data[off+0:])),
			DstAddr:  netmodel.IPv4(be.Uint32(data[off+4:])),
			Packets:  be.Uint32(data[off+16:]),
			Octets:   be.Uint32(data[off+20:]),
			FirstMs:  be.Uint32(data[off+24:]),
			LastMs:   be.Uint32(data[off+28:]),
			SrcPort:  be.Uint16(data[off+32:]),
			DstPort:  be.Uint16(data[off+34:]),
			TCPFlags: data[off+37],
			Protocol: data[off+38],
			Tos:      data[off+39],
		})
	}
	return hdr, dst, nil
}

// Writer streams flow records as length-delimited v5 export packets to an
// io.Writer (the length prefix substitutes for UDP datagram framing when
// exports are written to a file). Records buffer until a packet fills;
// Flush emits a partial packet.
type Writer struct {
	w        io.Writer
	boot     time.Time
	pending  []Record
	sequence uint32
	lastTime time.Time
}

// NewWriter builds a writer; boot anchors the sysuptime clock.
func NewWriter(w io.Writer, boot time.Time) *Writer {
	return &Writer{w: w, boot: boot, pending: make([]Record, 0, MaxRecordsPerPacket)}
}

// Add buffers one flow; ts is the flow's end time (export time).
func (nw *Writer) Add(rec Record, ts time.Time) error {
	nw.pending = append(nw.pending, rec)
	nw.lastTime = ts
	if len(nw.pending) == MaxRecordsPerPacket {
		return nw.Flush()
	}
	return nil
}

// Flush writes buffered records as one export packet.
func (nw *Writer) Flush() error {
	if len(nw.pending) == 0 {
		return nil
	}
	hdr := Header{
		SysUptimeMs:  uint32(nw.lastTime.Sub(nw.boot).Milliseconds()),
		UnixSecs:     uint32(nw.lastTime.Unix()),
		UnixNsecs:    uint32(nw.lastTime.Nanosecond()),
		FlowSequence: nw.sequence,
	}
	pkt, err := Marshal(hdr, nw.pending)
	if err != nil {
		return err
	}
	var lenPrefix [4]byte
	binary.BigEndian.PutUint32(lenPrefix[:], uint32(len(pkt)))
	if _, err := nw.w.Write(lenPrefix[:]); err != nil {
		return fmt.Errorf("netflow: write frame: %w", err)
	}
	if _, err := nw.w.Write(pkt); err != nil {
		return fmt.Errorf("netflow: write frame: %w", err)
	}
	nw.sequence += uint32(len(nw.pending))
	nw.pending = nw.pending[:0]
	return nil
}

// maxFrameLen is the largest legal export packet: a header and 30 records.
const maxFrameLen = HeaderLen + RecordLen*MaxRecordsPerPacket

// Reader streams flow records back from a length-delimited export file.
// It decodes every frame into the same frame buffer and record slice, so
// a warm stream allocates nothing.
type Reader struct {
	r       io.Reader
	frame   [maxFrameLen]byte
	queue   []Record
	hdr     Header
	nextIdx int
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, queue: make([]Record, 0, MaxRecordsPerPacket)}
}

// Next returns the next record and the export header it arrived under, or
// io.EOF at end of stream.
func (nr *Reader) Next() (Record, Header, error) {
	for nr.nextIdx >= len(nr.queue) {
		// The length prefix is read into the frame buffer, which the body
		// then overwrites.
		if _, err := io.ReadFull(nr.r, nr.frame[:4]); err != nil {
			if err == io.EOF {
				return Record{}, Header{}, io.EOF
			}
			return Record{}, Header{}, fmt.Errorf("netflow: frame length: %w", err)
		}
		n := binary.BigEndian.Uint32(nr.frame[:4])
		if n < HeaderLen || n > maxFrameLen {
			return Record{}, Header{}, fmt.Errorf("netflow: implausible frame of %d bytes", n)
		}
		if _, err := io.ReadFull(nr.r, nr.frame[:n]); err != nil {
			if err == io.EOF {
				// A stream cut after a length prefix is truncated, not ended.
				err = io.ErrUnexpectedEOF
			}
			return Record{}, Header{}, fmt.Errorf("netflow: frame body: %w", err)
		}
		hdr, records, err := Unmarshal(nr.frame[:n], nr.queue[:0])
		nr.queue, nr.nextIdx = records, 0
		if err != nil {
			return Record{}, Header{}, err
		}
		nr.hdr = hdr
	}
	rec := nr.queue[nr.nextIdx]
	nr.nextIdx++
	return rec, nr.hdr, nil
}

// ToFlowRecord converts a v5 record to the internal flow model, deriving
// direction from the edge network and SYN/SYN-ACK counts from the flow's
// OR'd TCP flags. NetFlow does not count handshake packets separately and
// ORs all flags together, so the conversion must decide which side
// originated the flow: a flow with SYN but no ACK is a connection attempt
// (scan probes and unanswered floods look exactly like this); when both
// SYN and ACK appear the flow could be a client's (its later ACKs OR in)
// or a server's (the SYN/ACK itself), and the standard port heuristic
// breaks the tie — the side with the numerically lower port is taken as
// the server. Flows that are not TCP, carry no handshake flags, or do not
// cross the edge return ok=false.
func ToFlowRecord(r Record, hdr Header, edge *netmodel.EdgeNetwork) (netmodel.FlowRecord, bool) {
	if r.Protocol != protoTCP {
		return netmodel.FlowRecord{}, false
	}
	dir, ok := edge.Classify(r.SrcAddr, r.DstAddr)
	if !ok {
		return netmodel.FlowRecord{}, false
	}
	flags := netmodel.TCPFlags(r.TCPFlags)
	out := netmodel.FlowRecord{
		SrcIP:   r.SrcAddr,
		DstIP:   r.DstAddr,
		SrcPort: r.SrcPort,
		DstPort: r.DstPort,
		Dir:     dir,
		Packets: int(r.Packets),
		Bytes:   int(r.Octets),
	}
	exportTime := time.Unix(int64(hdr.UnixSecs), int64(hdr.UnixNsecs)).UTC()
	uptime := time.Duration(hdr.SysUptimeMs) * time.Millisecond
	boot := exportTime.Add(-uptime)
	out.Start = boot.Add(time.Duration(r.FirstMs) * time.Millisecond)
	out.End = boot.Add(time.Duration(r.LastMs) * time.Millisecond)
	hasSYN := flags&netmodel.FlagSYN != 0
	hasACK := flags&netmodel.FlagACK != 0
	switch {
	case !hasSYN:
		return netmodel.FlowRecord{}, false
	case !hasACK || r.DstPort < r.SrcPort:
		// Pure SYN, or SYN+ACK with the remote port looking like the
		// service: a client-originated attempt.
		out.SYNs = 1
	default:
		// SYN+ACK originating at the lower (service) port: the server's
		// answer flow.
		out.SYNACKs = 1
	}
	if flags.IsFIN() {
		out.FINs = 1
	}
	if flags.IsRST() {
		out.RSTs = 1
	}
	return out, true
}

// FromPackets aggregates a packet stream into unidirectional v5 records
// keyed by the 5-tuple, for building export files from packet traces. It
// is an offline helper (tests, tracegen), not a line-rate flow cache.
func FromPackets(pkts []netmodel.Packet, boot time.Time) []Record {
	type key struct {
		src, dst netmodel.IPv4
		sp, dp   uint16
	}
	order := make([]key, 0, len(pkts))
	agg := make(map[key]*Record, len(pkts))
	for _, p := range pkts {
		k := key{src: p.SrcIP, dst: p.DstIP, sp: p.SrcPort, dp: p.DstPort}
		r := agg[k]
		if r == nil {
			r = &Record{
				SrcAddr: p.SrcIP, DstAddr: p.DstIP,
				SrcPort: p.SrcPort, DstPort: p.DstPort,
				Protocol: protoTCP,
				FirstMs:  uint32(p.Timestamp.Sub(boot).Milliseconds()),
			}
			agg[k] = r
			order = append(order, k)
		}
		r.Packets++
		r.Octets += uint32(maxInt(p.Wire, 40))
		r.TCPFlags |= uint8(p.Flags)
		r.LastMs = uint32(p.Timestamp.Sub(boot).Milliseconds())
	}
	out := make([]Record, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
