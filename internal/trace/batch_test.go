package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"instameasure/internal/packet"
	"instameasure/internal/pcap"
)

// drainBatches reads src to exhaustion through NextBatch with the given
// buffer size, checking the contract as it goes: errors only with n == 0,
// buffer filled from the front.
func drainBatches(t *testing.T, src BatchSource, bufSize int) []packet.Packet {
	t.Helper()
	var out []packet.Packet
	buf := make([]packet.Packet, bufSize)
	for {
		n, err := src.NextBatch(buf)
		if err != nil {
			if n != 0 {
				t.Fatalf("NextBatch returned n=%d with err=%v; errors must come alone", n, err)
			}
			if !errors.Is(err, io.EOF) {
				t.Fatalf("NextBatch err = %v, want EOF", err)
			}
			return out
		}
		if n <= 0 || n > bufSize {
			t.Fatalf("NextBatch n = %d with nil error, want 1..%d", n, bufSize)
		}
		out = append(out, buf[:n]...)
	}
}

func TestSliceSourceNextBatch(t *testing.T) {
	var pkts []packet.Packet
	for i := 0; i < 1000; i++ {
		pkts = append(pkts, mkPkt(i%37, 100, int64(i)))
	}
	tr := NewTrace(pkts)

	for _, bufSize := range []int{1, 7, 256, 999, 1000, 4096} {
		src := tr.Source().(BatchSource)
		got := drainBatches(t, src, bufSize)
		if len(got) != len(tr.Packets) {
			t.Fatalf("bufSize %d: read %d packets, want %d", bufSize, len(got), len(tr.Packets))
		}
		for i := range got {
			if got[i] != tr.Packets[i] {
				t.Fatalf("bufSize %d: packet %d mismatch", bufSize, i)
			}
		}
		// Exhausted source keeps returning EOF.
		if n, err := src.NextBatch(make([]packet.Packet, 4)); n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("bufSize %d: after EOF got n=%d err=%v", bufSize, n, err)
		}
	}
}

func TestPcapSourceNextBatch(t *testing.T) {
	tr, err := GenerateZipf(ZipfConfig{Flows: 40, TotalPackets: 530, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf, 0); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 530 packets through 64-packet batches: the tail is a 18-packet short
	// read with nil error, EOF arrives on the call after.
	src, err := NewPcapSource(r)
	if err != nil {
		t.Fatal(err)
	}
	got := drainBatches(t, src, 64)
	if len(got) != len(tr.Packets) {
		t.Fatalf("read %d packets, want %d", len(got), len(tr.Packets))
	}
	for i := range got {
		if got[i].Key != tr.Packets[i].Key || got[i].TS != tr.Packets[i].TS {
			t.Fatalf("packet %d mismatch", i)
		}
	}
}

func TestPcapSourceDeferredErrorDelivery(t *testing.T) {
	// Truncate a capture mid-frame: NextBatch must deliver the packets it
	// parsed with a nil error and surface the parse failure on the next
	// read, never both at once.
	tr, err := GenerateZipf(ZipfConfig{Flows: 10, TotalPackets: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	r, err := pcap.NewReader(bytes.NewReader(raw[:len(raw)-7]))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewPcapSource(r)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]packet.Packet, 4096)
	n, err := src.NextBatch(batch)
	if err != nil {
		t.Fatalf("first NextBatch: n=%d err=%v; the error must be deferred past the partial read", n, err)
	}
	if n == 0 || n >= len(tr.Packets) {
		t.Fatalf("first NextBatch n = %d, want a partial read of <%d packets", n, len(tr.Packets))
	}
	if n2, err2 := src.NextBatch(batch); n2 != 0 || err2 == nil {
		t.Fatalf("second NextBatch: n=%d err=%v, want the deferred truncation error", n2, err2)
	}
}

// fakeClock drives pacedSource deterministically: sleeps advance the clock
// instead of blocking.
type fakeClock struct {
	t     time.Time
	slept time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleep(d time.Duration) {
	c.slept += d
	c.t = c.t.Add(d)
}

func TestPacedSourceNextBatchSchedule(t *testing.T) {
	var pkts []packet.Packet
	for i := 0; i < 5000; i++ {
		pkts = append(pkts, mkPkt(i%11, 100, int64(i)))
	}
	tr := NewTrace(pkts)
	clock := &fakeClock{t: time.Unix(0, 0)}
	ps := NewPacedSource(tr.Source(), 1024).(*pacedSource) // 1024 pps = one chunk per second
	ps.now = clock.now
	ps.sleep = clock.sleep

	got := drainBatches(t, ps, 4096)
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, want %d", len(got), len(pkts))
	}
	// 5000 packets at 1024 pps with chunked pacing: ~4 whole chunk waits.
	if clock.slept < 3*time.Second || clock.slept > 5*time.Second {
		t.Errorf("paced source slept %v for 5000 pkts at 1024 pps, want ~4s", clock.slept)
	}
}

func TestPacedSourceNextBatchCapsBurst(t *testing.T) {
	var pkts []packet.Packet
	for i := 0; i < 3000; i++ {
		pkts = append(pkts, mkPkt(1, 100, int64(i)))
	}
	clock := &fakeClock{t: time.Unix(0, 0)}
	ps := NewPacedSource(NewTrace(pkts).Source(), 1e6).(*pacedSource)
	ps.now = clock.now
	ps.sleep = clock.sleep
	n, err := ps.NextBatch(make([]packet.Packet, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if n != ps.chunk {
		t.Errorf("burst = %d packets, want capped at one pacing chunk (%d)", n, ps.chunk)
	}
}

func TestPacedSourceNextBatchScalarFallback(t *testing.T) {
	// A scalar-only inner source still works through the paced batch path,
	// including partial-read-then-EOF at the tail.
	pkts := []packet.Packet{mkPkt(1, 10, 1), mkPkt(2, 10, 2), mkPkt(3, 10, 3)}
	clock := &fakeClock{t: time.Unix(0, 0)}
	inner := NewTrace(pkts).Source()
	ps := NewPacedSource(scalarOnly{inner}, 1e6).(*pacedSource)
	ps.now = clock.now
	ps.sleep = clock.sleep
	got := drainBatches(t, ps, 2)
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, want %d", len(got), len(pkts))
	}
}

type scalarOnly struct{ inner Source }

func (s scalarOnly) Next() (packet.Packet, error) { return s.inner.Next() }

// TestPcapSourceNextBatchZeroAlloc: decoding and parsing a batch of
// well-formed Ethernet frames allocates nothing in the steady state.
func TestPcapSourceNextBatchZeroAlloc(t *testing.T) {
	const (
		runs  = 200
		batch = 16
	)
	tr, err := GenerateZipf(ZipfConfig{Flows: 100, TotalPackets: (runs + 2) * batch, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf, 64); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewPcapSource(r)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]packet.Packet, batch)
	var batchErr error
	allocs := testing.AllocsPerRun(runs, func() {
		if n, err := src.NextBatch(pkts); err != nil || n != batch {
			batchErr = fmt.Errorf("NextBatch = %d, %v; want a full batch", n, err)
		}
	})
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if allocs != 0 {
		t.Errorf("PcapSource.NextBatch: %.2f allocs/batch, want 0", allocs)
	}
	if src.Skipped != 0 {
		t.Errorf("skipped %d frames of a well-formed capture", src.Skipped)
	}
}
