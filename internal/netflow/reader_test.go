package netflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
)

// exportStream writes one length-prefixed frame per entry of sizes, each
// carrying that many distinct records, and returns the stream and every
// record in order.
func exportStream(tb testing.TB, sizes ...int) ([]byte, []Record) {
	tb.Helper()
	var buf bytes.Buffer
	boot := time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC)
	w := NewWriter(&buf, boot)
	var all []Record
	for f, size := range sizes {
		for i := 0; i < size; i++ {
			rec := Record{
				SrcAddr: netmodel.IPv4(0x08000000 + uint32(len(all))), DstAddr: netmodel.MustParseIPv4("129.105.1.1"),
				SrcPort: uint16(1000 + i), DstPort: uint16(80 + f), Packets: uint32(1 + i), Octets: 40,
				TCPFlags: uint8(netmodel.FlagSYN), Protocol: protoTCP,
			}
			if err := w.Add(rec, boot.Add(time.Duration(len(all))*time.Second)); err != nil {
				tb.Fatal(err)
			}
			all = append(all, rec)
		}
		if err := w.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes(), all
}

// TestReaderNextAllocs pins the replay decoder to its own frame buffer
// and record slice: once warm, draining full and partial frames
// allocates nothing.
func TestReaderNextAllocs(t *testing.T) {
	img, want := exportStream(t, 30, 1, 30, 7)
	src := bytes.NewReader(img)
	r := NewReader(src)
	bad := 0
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(img)
		for i := range want {
			if rec, _, err := r.Next(); err != nil || rec != want[i] {
				bad++
			}
		}
	})
	if bad != 0 {
		t.Fatalf("%d records misread", bad)
	}
	if allocs != 0 {
		t.Errorf("draining %d records allocates %v times, want 0 per Next", len(want), allocs)
	}
}

// frameResult is what a standalone decode of one frame says Next must
// return: its records under its header, or one error.
type frameResult struct {
	hdr  Header
	recs []Record
	err  bool
}

// decodeStream splits a length-prefixed stream into frames and decodes
// each with a fresh Unmarshal. It stops at the first framing error (a
// short prefix, an implausible length or a short body), which leaves the
// stream unreadable, and reports cut; a frame that Unmarshal rejects is
// consumed whole, so decoding resumes after it.
func decodeStream(data []byte) (frames []frameResult, cut bool) {
	for len(data) > 0 {
		if len(data) < 4 {
			return append(frames, frameResult{err: true}), true
		}
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if n < HeaderLen || n > maxFrameLen || len(data) < n {
			return append(frames, frameResult{err: true}), true
		}
		hdr, recs, err := Unmarshal(data[:n], nil)
		data = data[n:]
		frames = append(frames, frameResult{hdr: hdr, recs: recs, err: err != nil})
	}
	return frames, false
}

// FuzzReader holds the reusing Reader to a fresh decode of every frame:
// each (Record, Header) from Next equals the standalone decode's, a short
// or rejected frame after a long one yields none of the long one's
// records, and Next errors exactly where the standalone decode does.
func FuzzReader(f *testing.F) {
	long, _ := exportStream(f, 30, 5)
	f.Add(long)
	f.Add([]byte{})
	f.Add(long[:3])           // short length prefix
	f.Add(long[:4])           // length prefix and no body
	f.Add(long[:4+HeaderLen]) // body cut short
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	// A full frame, the same frame with its record count over the limit,
	// a frame whose header claims more records than it carries, then a
	// one-record frame: the two rejected frames and the short one must not
	// replay anything of the first.
	full, _ := exportStream(f, 30)
	overCount := append([]byte(nil), full...)
	binary.BigEndian.PutUint16(overCount[4+2:], MaxRecordsPerPacket+1)
	shortBody := append([]byte(nil), full[:4+HeaderLen+RecordLen]...)
	binary.BigEndian.PutUint32(shortBody, HeaderLen+RecordLen)
	one, _ := exportStream(f, 1)
	f.Add(bytes.Join([][]byte{full, overCount, shortBody, one}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		frames, cut := decodeStream(data)
		for fi, fr := range frames {
			if fr.err {
				if _, _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
					t.Fatalf("frame %d: Next returned %v where a fresh decode fails", fi, err)
				}
				continue
			}
			for i, want := range fr.recs {
				rec, hdr, err := r.Next()
				if err != nil {
					t.Fatalf("frame %d record %d: %v", fi, i, err)
				}
				if rec != want || hdr != fr.hdr {
					t.Fatalf("frame %d record %d: got %+v under %+v, fresh decode %+v under %+v",
						fi, i, rec, hdr, want, fr.hdr)
				}
			}
		}
		// A stream cut by a framing error may leave bytes Next would read
		// on; one consumed whole must end at io.EOF.
		if !cut {
			if rec, _, err := r.Next(); !errors.Is(err, io.EOF) {
				t.Fatalf("after the last frame Next returned %+v, %v, want io.EOF", rec, err)
			}
		}
	})
}
