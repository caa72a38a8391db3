package pcap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// refReader is the copying reader the in-place Peek/Discard decoder
// replaced, frozen verbatim as the differential reference: io.ReadFull of
// a local header array, four ByteOrder interface reads, and every body
// read in readChunk steps into a reused buffer.
type refReader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nanos    bool
	linkType LinkType
	snapLen  uint32
	buf      []byte
}

func newRefReader(r io.Reader) (*refReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("global header: %w", err)
	}
	var (
		order binary.ByteOrder
		nanos bool
	)
	switch le := binary.LittleEndian.Uint32(hdr[0:4]); le {
	case magicMicros:
		order = binary.LittleEndian
	case magicNanos:
		order, nanos = binary.LittleEndian, true
	default:
		switch be := binary.BigEndian.Uint32(hdr[0:4]); be {
		case magicMicros:
			order = binary.BigEndian
		case magicNanos:
			order, nanos = binary.BigEndian, true
		default:
			return nil, fmt.Errorf("%w: 0x%08x", ErrBadMagic, le)
		}
	}
	return &refReader{
		r:        br,
		order:    order,
		nanos:    nanos,
		linkType: LinkType(order.Uint32(hdr[20:24])),
		snapLen:  order.Uint32(hdr[16:20]),
	}, nil
}

func (r *refReader) Next() (Record, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("record header: %w", err)
	}
	sec := int64(r.order.Uint32(hdr[0:4]))
	sub := int64(r.order.Uint32(hdr[4:8]))
	inclLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])

	if r.snapLen > 0 && inclLen > r.snapLen {
		return Record{}, fmt.Errorf("%w: incl=%d snap=%d", ErrSnapLen, inclLen, r.snapLen)
	}
	if inclLen > origLen {
		return Record{}, fmt.Errorf("%w: incl=%d orig=%d", ErrCorruptHdr, inclLen, origLen)
	}
	if r.snapLen == 0 && inclLen > maxRecordBytes {
		return Record{}, fmt.Errorf("%w: incl=%d exceeds %d-byte cap", ErrCorruptHdr, inclLen, maxRecordBytes)
	}

	r.buf = r.buf[:0]
	for remaining := int(inclLen); remaining > 0; {
		n := min(remaining, readChunk)
		off := len(r.buf)
		if cap(r.buf) < off+n {
			grown := make([]byte, off+n, max(off+n, 2*cap(r.buf)))
			copy(grown, r.buf)
			r.buf = grown
		} else {
			r.buf = r.buf[:off+n]
		}
		if _, err := io.ReadFull(r.r, r.buf[off:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return Record{}, fmt.Errorf("record body: %w", err)
		}
		remaining -= n
	}

	ts := sec * 1e9
	if r.nanos {
		ts += sub
	} else {
		ts += sub * 1e3
	}
	return Record{TS: ts, WireLen: int(origLen), Data: r.buf}, nil
}

// errClass buckets an error by the sentinel it wraps.
func errClass(err error) string {
	for _, c := range []struct {
		name string
		err  error
	}{
		{"nil", nil}, {"EOF", io.EOF}, {"ErrUnexpectedEOF", io.ErrUnexpectedEOF},
		{"ErrBadMagic", ErrBadMagic}, {"ErrSnapLen", ErrSnapLen}, {"ErrCorruptHdr", ErrCorruptHdr},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other"
}

// compareReaders runs the reference and the current reader over data,
// each through its own wrap of a fresh bytes.Reader, and fails on the
// first divergence in records or error class. Reading continues for a few
// calls past the first error, so the stream position an error leaves
// behind is compared too.
func compareReaders(t *testing.T, name string, data []byte, wrap func(io.Reader) io.Reader) {
	t.Helper()
	ref, refErr := newRefReader(wrap(bytes.NewReader(data)))
	got, gotErr := NewReader(wrap(bytes.NewReader(data)))
	if errClass(refErr) != errClass(gotErr) {
		t.Fatalf("%s: NewReader err = %v, reference %v", name, gotErr, refErr)
	}
	if refErr != nil {
		return
	}
	if got.LinkType() != ref.linkType || got.SnapLen() != int(ref.snapLen) {
		t.Fatalf("%s: header link=%d snap=%d, reference link=%d snap=%d",
			name, got.LinkType(), got.SnapLen(), ref.linkType, ref.snapLen)
	}
	errs := 0
	for i := 0; errs < 3; i++ {
		want, wErr := ref.Next()
		rec, rErr := got.Next()
		if errClass(wErr) != errClass(rErr) {
			t.Fatalf("%s: record %d err = %v, reference %v", name, i, rErr, wErr)
		}
		if wErr != nil {
			errs++
			continue
		}
		if rec.TS != want.TS || rec.WireLen != want.WireLen || !bytes.Equal(rec.Data, want.Data) {
			t.Fatalf("%s: record %d = {ts %d wire %d len %d}, reference {ts %d wire %d len %d}",
				name, i, rec.TS, rec.WireLen, len(rec.Data), want.TS, want.WireLen, len(want.Data))
		}
	}
}

// readerWraps vary how the stream arrives, so Peek's fill loop and the
// reference's ReadFull see short reads and data-with-EOF as well as whole
// buffers.
var readerWraps = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"onebyte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"dataerr", iotest.DataErrReader},
}

// testRecord is one record of a hand-built capture.
type testRecord struct {
	sec, sub, incl, orig uint32
	data                 []byte
}

// buildCapture encodes a capture in the given byte order and timestamp
// magic; incl is written as given, so records may lie about their length.
func buildCapture(order binary.ByteOrder, magic, snapLen uint32, link LinkType, recs []testRecord) []byte {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	order.PutUint32(hdr[0:4], magic)
	order.PutUint16(hdr[4:6], 2)
	order.PutUint16(hdr[6:8], 4)
	order.PutUint32(hdr[16:20], snapLen)
	order.PutUint32(hdr[20:24], uint32(link))
	buf.Write(hdr)
	for _, r := range recs {
		var rh [16]byte
		order.PutUint32(rh[0:4], r.sec)
		order.PutUint32(rh[4:8], r.sub)
		order.PutUint32(rh[8:12], r.incl)
		order.PutUint32(rh[12:16], r.orig)
		buf.Write(rh[:])
		buf.Write(r.data)
	}
	return buf.Bytes()
}

// randomRecords returns n well-formed records of up to maxLen bytes.
func randomRecords(rng *rand.Rand, n, maxLen int) []testRecord {
	recs := make([]testRecord, n)
	for i := range recs {
		data := make([]byte, rng.Intn(maxLen+1))
		rng.Read(data)
		incl := uint32(len(data))
		recs[i] = testRecord{sec: rng.Uint32(), sub: rng.Uint32() % 1e6, incl: incl, orig: incl + uint32(rng.Intn(64)), data: data}
	}
	return recs
}

// readerCorpus loads the committed FuzzReader corpus files.
func readerCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReader", "*"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-value fuzz corpus file", p)
		}
		lit, ok := strings.CutPrefix(lines[1], "[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: value is not a []byte literal", p)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out["corpus/"+filepath.Base(p)] = []byte(s)
	}
	if len(out) == 0 {
		t.Fatal("no FuzzReader corpus files found")
	}
	return out
}

// TestReaderMatchesReference runs the in-place reader and the frozen
// copying reader side by side over the FuzzReader seeds and corpus plus
// generated captures — both byte orders, µs and ns magic, a snap-length-0
// capture with bodies above the 64 KiB read buffer (the chunked path), and
// every truncation of a small capture — and requires identical records and
// error classes.
func TestReaderMatchesReference(t *testing.T) {
	inputs := readerCorpus(t)
	for i, seed := range readerSeeds() {
		inputs[fmt.Sprintf("seed/%d", i)] = seed
	}

	rng := rand.New(rand.NewSource(12))
	orders := []struct {
		name  string
		order binary.ByteOrder
	}{{"le", binary.LittleEndian}, {"be", binary.BigEndian}}
	magics := []struct {
		name  string
		magic uint32
	}{{"us", magicMicros}, {"ns", magicNanos}}
	for _, o := range orders {
		for _, m := range magics {
			name := "gen/" + o.name + "_" + m.name
			inputs[name] = buildCapture(o.order, m.magic, 65535, LinkEthernet, randomRecords(rng, 200, 1600))
		}
	}

	// Snap length 0: bodies above the read buffer take the chunked path,
	// in-buffer bodies on either side of them the Peek path.
	big := randomRecords(rng, 5, 200)
	for _, n := range []int{readChunk + 1, 2*readChunk + 77} {
		data := make([]byte, n)
		rng.Read(data)
		big = append(big, testRecord{sec: 1, incl: uint32(n), orig: uint32(n), data: data}, big[0])
	}
	bigCap := buildCapture(binary.LittleEndian, magicNanos, 0, LinkRaw, big)
	inputs["gen/snap0_chunked"] = bigCap
	inputs["gen/snap0_chunked_truncated"] = bigCap[:len(bigCap)-readChunk]

	// Header-check failures: snap length, incl > orig, and the
	// no-snap-length cap.
	ok := randomRecords(rng, 1, 100)[0]
	inputs["gen/snaplen"] = buildCapture(binary.LittleEndian, magicNanos, 64, LinkEthernet,
		[]testRecord{ok, {incl: 65, orig: 65, data: make([]byte, 65)}, ok})
	inputs["gen/incl_gt_orig"] = buildCapture(binary.BigEndian, magicMicros, 0, LinkEthernet,
		[]testRecord{ok, {incl: 10, orig: 9, data: make([]byte, 10)}, ok})
	inputs["gen/over_cap"] = buildCapture(binary.LittleEndian, magicMicros, 0, LinkEthernet,
		[]testRecord{{incl: maxRecordBytes + 1, orig: maxRecordBytes + 1}})

	// Every prefix of a small capture: truncated global header, record
	// header and body at each byte offset.
	small := buildCapture(binary.BigEndian, magicNanos, 65535, LinkEthernet, randomRecords(rng, 3, 40))
	for cut := 0; cut <= len(small); cut++ {
		inputs[fmt.Sprintf("gen/prefix_%03d", cut)] = small[:cut]
	}

	for name, data := range inputs {
		for _, w := range readerWraps {
			compareReaders(t, name+"/"+w.name, data, w.wrap)
		}
	}
}
