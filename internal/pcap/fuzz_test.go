package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes through NewReader/Next. The reader must
// never panic, never hand back a record longer than the declared snap
// length, and never allocate beyond the per-chunk bound no matter what the
// headers claim. It must also agree record for record, and error class
// for error class, with the frozen copying reader.
func FuzzReader(f *testing.F) {
	for _, seed := range readerSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		compareReaders(t, "fuzz", data, func(r io.Reader) io.Reader { return r })
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		snap := r.SnapLen()
		for i := 0; i < 64; i++ {
			rec, err := r.Next()
			if err != nil {
				return
			}
			if snap > 0 && len(rec.Data) > snap {
				t.Fatalf("record of %d bytes exceeds snap length %d", len(rec.Data), snap)
			}
			if rec.WireLen < len(rec.Data) {
				t.Fatalf("wire length %d below captured length %d", rec.WireLen, len(rec.Data))
			}
		}
	})
}

// readerSeeds is FuzzReader's structured seed set, shared with the
// reference-reader differential test.
func readerSeeds() [][]byte {
	// A valid two-record nanosecond capture.
	var valid bytes.Buffer
	w := NewWriter(&valid, LinkEthernet, 128)
	_ = w.Write(1e9, 64, make([]byte, 64))
	_ = w.Write(2e9, 200, make([]byte, 128))
	_ = w.Flush()

	// A big-endian microsecond header with no records.
	var be [24]byte
	binary.BigEndian.PutUint32(be[0:4], magicMicros)
	binary.BigEndian.PutUint32(be[16:20], 65535)
	binary.BigEndian.PutUint32(be[20:24], uint32(LinkRaw))

	// A header whose first record claims a huge body.
	huge := append([]byte{}, valid.Bytes()[:24]...)
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[8:12], 1<<30)
	binary.LittleEndian.PutUint32(rec[12:16], 1<<30)

	return [][]byte{valid.Bytes(), be[:], append(huge, rec[:]...)}
}
