// Package pcap reads and writes libpcap capture files and encodes/decodes
// the Ethernet/IPv4/TCP headers HiFIND consumes. It replaces the gopacket
// dependency the paper's tooling would use: the repository is stdlib-only,
// and HiFIND needs just the TCP control-plane fields (addresses, ports,
// flags), which a few dozen lines of fixed-offset parsing deliver at a
// fraction of a general decoder's cost.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
)

const (
	// MagicMicroseconds is the classic little-endian pcap magic.
	MagicMicroseconds = 0xa1b2c3d4
	// MagicNanoseconds marks captures with nanosecond timestamps.
	MagicNanoseconds = 0xa1b23c4d

	linkTypeEthernet = 1

	globalHeaderLen = 24
	packetHeaderLen = 16
	ethernetLen     = 14
	ipv4MinLen      = 20
	tcpMinLen       = 20

	etherTypeIPv4 = 0x0800
	protoTCP      = 6
)

// ErrNotTCP is returned by decode paths when a frame is well-formed but
// not an IPv4/TCP packet; readers skip such frames silently.
var ErrNotTCP = errors.New("pcap: not an IPv4/TCP packet")

// Writer writes a pcap file of synthesized Ethernet/IPv4/TCP frames.
type Writer struct {
	w        io.Writer
	wroteHdr bool
	snaplen  uint32
	frame    [ethernetLen + ipv4MinLen + tcpMinLen]byte
	hdr      [packetHeaderLen]byte
}

// NewWriter wraps w. The global header is emitted lazily on the first
// packet so that constructing a Writer never performs I/O.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, snaplen: 65535}
}

// writeGlobalHeader emits the classic microsecond-resolution header.
func (pw *Writer) writeGlobalHeader() error {
	var hdr [globalHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], MagicMicroseconds)
	le.PutUint16(hdr[4:], 2) // major
	le.PutUint16(hdr[6:], 4) // minor
	// thiszone and sigfigs stay zero.
	le.PutUint32(hdr[16:], pw.snaplen)
	le.PutUint32(hdr[20:], linkTypeEthernet)
	_, err := pw.w.Write(hdr[:])
	return err
}

// WritePacket synthesizes a minimal Ethernet+IPv4+TCP frame for the packet
// event and appends it to the capture. The frame is 54 bytes on the wire;
// the pcap record's orig_len preserves pkt.Wire when it is larger, so
// traffic-volume accounting survives the round trip.
func (pw *Writer) WritePacket(pkt netmodel.Packet) error {
	if !pw.wroteHdr {
		if err := pw.writeGlobalHeader(); err != nil {
			return fmt.Errorf("pcap: global header: %w", err)
		}
		pw.wroteHdr = true
	}
	frame := pw.frame[:]
	// Ethernet: synthetic MACs, IPv4 ethertype.
	for i := 0; i < 12; i++ {
		frame[i] = 0x02 // locally administered, deterministic
	}
	binary.BigEndian.PutUint16(frame[12:], etherTypeIPv4)

	ip := frame[ethernetLen:]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:], ipv4MinLen+tcpMinLen)
	binary.BigEndian.PutUint16(ip[4:], 0)      // id
	binary.BigEndian.PutUint16(ip[6:], 0x4000) // DF
	ip[8] = 64                                 // ttl
	ip[9] = protoTCP
	binary.BigEndian.PutUint16(ip[10:], 0) // checksum placeholder
	src, dst := pkt.SrcIP.Octets(), pkt.DstIP.Octets()
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:ipv4MinLen]))

	tcp := ip[ipv4MinLen:]
	binary.BigEndian.PutUint16(tcp[0:], pkt.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:], pkt.DstPort)
	binary.BigEndian.PutUint32(tcp[4:], 0) // seq
	binary.BigEndian.PutUint32(tcp[8:], 0) // ack
	tcp[12] = 5 << 4                       // data offset 5 words
	tcp[13] = byte(pkt.Flags)
	binary.BigEndian.PutUint16(tcp[14:], 65535) // window
	binary.BigEndian.PutUint16(tcp[16:], 0)     // checksum (not validated by readers here)
	binary.BigEndian.PutUint16(tcp[18:], 0)     // urgent

	origLen := len(frame)
	if pkt.Wire > origLen {
		origLen = pkt.Wire
	}
	le := binary.LittleEndian
	ts := pkt.Timestamp
	le.PutUint32(pw.hdr[0:], uint32(ts.Unix()))
	le.PutUint32(pw.hdr[4:], uint32(ts.Nanosecond()/1000))
	le.PutUint32(pw.hdr[8:], uint32(len(frame)))
	le.PutUint32(pw.hdr[12:], uint32(origLen))
	if _, err := pw.w.Write(pw.hdr[:]); err != nil {
		return fmt.Errorf("pcap: record header: %w", err)
	}
	if _, err := pw.w.Write(frame); err != nil {
		return fmt.Errorf("pcap: record body: %w", err)
	}
	return nil
}

// Reader decodes a pcap file into packet events, skipping non-IPv4/TCP
// frames. Direction is derived from the supplied edge network; frames that
// do not cross the edge are skipped too.
type Reader struct {
	r       io.Reader
	order   binary.ByteOrder
	nanos   bool
	edge    *netmodel.EdgeNetwork
	buf     []byte
	hdr     [packetHeaderLen]byte
	skipped int
}

// NewReader parses the global header and prepares to stream packets.
// edge may be nil, in which case every packet is reported with direction
// Inbound (useful when the capture point already filtered one direction).
func NewReader(r io.Reader, edge *netmodel.EdgeNetwork) (*Reader, error) {
	var hdr [globalHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: global header: %w", err)
	}
	pr := &Reader{r: r, edge: edge, buf: make([]byte, 0, 2048)}
	magicLE := binary.LittleEndian.Uint32(hdr[0:])
	magicBE := binary.BigEndian.Uint32(hdr[0:])
	switch {
	case magicLE == MagicMicroseconds:
		pr.order = binary.LittleEndian
	case magicLE == MagicNanoseconds:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicBE == MagicMicroseconds:
		pr.order = binary.BigEndian
	case magicBE == MagicNanoseconds:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("pcap: unrecognized magic %#x", magicLE)
	}
	if lt := pr.order.Uint32(hdr[20:]); lt != linkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d (want Ethernet)", lt)
	}
	return pr, nil
}

// Skipped reports how many frames were dropped as non-TCP, truncated, or
// not edge-crossing.
func (pr *Reader) Skipped() int { return pr.skipped }

// Next returns the next TCP packet event, or io.EOF at end of capture.
func (pr *Reader) Next() (netmodel.Packet, error) {
	for {
		if _, err := io.ReadFull(pr.r, pr.hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return netmodel.Packet{}, io.EOF
			}
			return netmodel.Packet{}, fmt.Errorf("pcap: record header: %w", err)
		}
		sec := pr.order.Uint32(pr.hdr[0:])
		frac := pr.order.Uint32(pr.hdr[4:])
		inclLen := pr.order.Uint32(pr.hdr[8:])
		origLen := pr.order.Uint32(pr.hdr[12:])
		if inclLen > 1<<20 {
			return netmodel.Packet{}, fmt.Errorf("pcap: implausible record length %d", inclLen)
		}
		if cap(pr.buf) < int(inclLen) {
			pr.buf = make([]byte, inclLen)
		}
		data := pr.buf[:inclLen]
		if _, err := io.ReadFull(pr.r, data); err != nil {
			if err == io.EOF {
				// A capture cut after a record header is truncated, not ended.
				err = io.ErrUnexpectedEOF
			}
			return netmodel.Packet{}, fmt.Errorf("pcap: record body: %w", err)
		}
		ns := int64(frac) * 1000
		if pr.nanos {
			ns = int64(frac)
		}
		pkt, err := DecodeEthernet(data)
		if err != nil {
			pr.skipped++
			continue
		}
		pkt.Timestamp = time.Unix(int64(sec), ns).UTC()
		pkt.Wire = int(origLen)
		if pr.edge != nil {
			dir, ok := pr.edge.Classify(pkt.SrcIP, pkt.DstIP)
			if !ok {
				pr.skipped++
				continue
			}
			pkt.Dir = dir
		} else {
			pkt.Dir = netmodel.Inbound
		}
		return pkt, nil
	}
}

// DecodeEthernet parses an Ethernet frame carrying IPv4/TCP into a packet
// event (timestamp, wire length and direction left for the caller).
// Returns ErrNotTCP for other traffic.
func DecodeEthernet(frame []byte) (netmodel.Packet, error) {
	if len(frame) < ethernetLen {
		return netmodel.Packet{}, fmt.Errorf("pcap: frame too short (%d bytes)", len(frame))
	}
	if binary.BigEndian.Uint16(frame[12:]) != etherTypeIPv4 {
		return netmodel.Packet{}, ErrNotTCP
	}
	return DecodeIPv4(frame[ethernetLen:])
}

// DecodeIPv4 parses an IPv4 packet carrying TCP.
func DecodeIPv4(pkt []byte) (netmodel.Packet, error) {
	if len(pkt) < ipv4MinLen {
		return netmodel.Packet{}, fmt.Errorf("pcap: IPv4 header truncated (%d bytes)", len(pkt))
	}
	if pkt[0]>>4 != 4 {
		return netmodel.Packet{}, ErrNotTCP
	}
	ihl := int(pkt[0]&0x0f) * 4
	if ihl < ipv4MinLen || len(pkt) < ihl {
		return netmodel.Packet{}, fmt.Errorf("pcap: bad IHL %d", ihl)
	}
	if pkt[9] != protoTCP {
		return netmodel.Packet{}, ErrNotTCP
	}
	// Fragments past offset zero carry no TCP header.
	if fragOff := binary.BigEndian.Uint16(pkt[6:]) & 0x1fff; fragOff != 0 {
		return netmodel.Packet{}, ErrNotTCP
	}
	tcp := pkt[ihl:]
	if len(tcp) < tcpMinLen {
		return netmodel.Packet{}, fmt.Errorf("pcap: TCP header truncated (%d bytes)", len(tcp))
	}
	return netmodel.Packet{
		SrcIP:   netmodel.IPv4(binary.BigEndian.Uint32(pkt[12:])),
		DstIP:   netmodel.IPv4(binary.BigEndian.Uint32(pkt[16:])),
		SrcPort: binary.BigEndian.Uint16(tcp[0:]),
		DstPort: binary.BigEndian.Uint16(tcp[2:]),
		Flags:   netmodel.TCPFlags(tcp[13]),
	}, nil
}

// ipChecksum computes the standard Internet checksum over the IPv4 header.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	if len(hdr)%2 == 1 {
		sum += uint32(hdr[len(hdr)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
