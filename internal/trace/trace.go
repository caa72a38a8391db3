// Package trace provides the workload substrate for every experiment:
// deterministic synthetic trace generators shaped like the paper's two
// datasets (the CAIDA 2016 one-hour trace and the 113-hour campus gateway
// capture), exact ground-truth accounting, heavy-hitter injection, and
// replay sources for both in-memory traces and pcap files.
//
// The paper's datasets are not redistributable, so the generators reproduce
// the properties the evaluation actually depends on: a Zipf-like flow-size
// distribution, a realistic flow/packet ratio, protocol mix, per-flow packet
// sizes, and (for the campus trace) diurnal load. Every generator takes an
// explicit seed and is fully deterministic.
package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"instameasure/internal/packet"
	"instameasure/internal/pcap"
)

// Source is a stream of packets in timestamp order. Next returns io.EOF
// after the last packet.
type Source interface {
	Next() (packet.Packet, error)
}

// BatchSource is an optional Source extension for bulk consumers: the
// pipeline manager reads whole bursts through it, paying one interface
// call per batch instead of one per packet. NextBatch fills buf from the
// front, returning how many packets were written. A short count with a nil
// error is a partial read (e.g. the tail of the stream); errors — io.EOF
// included — are only returned with n == 0, so callers never have to
// process packets and handle an error from the same call.
type BatchSource interface {
	Source
	NextBatch(buf []packet.Packet) (int, error)
}

// FlowTruth is the exact ground truth for one flow.
type FlowTruth struct {
	Pkts    uint64
	Bytes   uint64
	FirstTS int64
	LastTS  int64
}

// Trace is a materialized packet trace with exact per-flow ground truth.
type Trace struct {
	Packets []packet.Packet
	truth   map[packet.FlowKey]*FlowTruth
}

// FromPackets builds a Trace from packets in arbitrary order: the slice is
// copied, sorted by timestamp, and accounted.
func FromPackets(pkts []packet.Packet) *Trace {
	sorted := make([]packet.Packet, len(pkts))
	copy(sorted, pkts)
	sortByTS(sorted)
	return NewTrace(sorted)
}

// NewTrace builds a Trace from packets, computing ground truth. The slice
// is retained, not copied.
func NewTrace(pkts []packet.Packet) *Trace {
	t := &Trace{Packets: pkts, truth: make(map[packet.FlowKey]*FlowTruth)}
	for i := range pkts {
		t.account(&pkts[i])
	}
	return t
}

func (t *Trace) account(p *packet.Packet) {
	ft := t.truth[p.Key]
	if ft == nil {
		ft = &FlowTruth{FirstTS: p.TS, LastTS: p.TS}
		t.truth[p.Key] = ft
	}
	ft.Pkts++
	ft.Bytes += uint64(p.Len)
	if p.TS < ft.FirstTS {
		ft.FirstTS = p.TS
	}
	if p.TS > ft.LastTS {
		ft.LastTS = p.TS
	}
}

// Truth returns the ground truth for key, or nil if the flow never
// appeared.
func (t *Trace) Truth(key packet.FlowKey) *FlowTruth {
	return t.truth[key]
}

// Flows returns the number of distinct flows.
func (t *Trace) Flows() int { return len(t.truth) }

// EachTruth calls fn for every flow. Iteration order is unspecified.
func (t *Trace) EachTruth(fn func(packet.FlowKey, *FlowTruth)) {
	for k, ft := range t.truth {
		fn(k, ft)
	}
}

// TopTruth returns the k largest flows by the given metric (e.g. packets
// or bytes), largest first.
func (t *Trace) TopTruth(k int, metric func(*FlowTruth) float64) []packet.FlowKey {
	keys := make([]packet.FlowKey, 0, len(t.truth))
	for key := range t.truth {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		mi := metric(t.truth[keys[i]])
		mj := metric(t.truth[keys[j]])
		if mi != mj {
			return mi > mj
		}
		// Deterministic tiebreak for reproducible Top-K sets.
		return keys[i].SrcPort < keys[j].SrcPort
	})
	if k < len(keys) {
		keys = keys[:k]
	}
	return keys
}

// Duration returns LastTS−FirstTS across the trace, or 0 for empty traces.
func (t *Trace) Duration() int64 {
	if len(t.Packets) == 0 {
		return 0
	}
	return t.Packets[len(t.Packets)-1].TS - t.Packets[0].TS
}

// Source returns a replay Source over the trace.
func (t *Trace) Source() Source {
	return &sliceSource{pkts: t.Packets}
}

// Merge combines traces into one timestamp-ordered trace with merged
// ground truth.
func Merge(traces ...*Trace) *Trace {
	var total int
	for _, tr := range traces {
		total += len(tr.Packets)
	}
	pkts := make([]packet.Packet, 0, total)
	for _, tr := range traces {
		pkts = append(pkts, tr.Packets...)
	}
	sortByTS(pkts)
	return NewTrace(pkts)
}

type sliceSource struct {
	pkts []packet.Packet
	i    int
}

func (s *sliceSource) Next() (packet.Packet, error) {
	if s.i >= len(s.pkts) {
		return packet.Packet{}, io.EOF
	}
	p := s.pkts[s.i]
	s.i++
	return p, nil
}

// NextBatch copies up to len(buf) packets into buf — one memmove instead
// of per-packet interface calls.
func (s *sliceSource) NextBatch(buf []packet.Packet) (int, error) {
	if s.i >= len(s.pkts) {
		return 0, io.EOF
	}
	n := copy(buf, s.pkts[s.i:])
	s.i += n
	return n, nil
}

// ErrLinkType rejects a capture whose link layer PcapSource cannot parse.
var ErrLinkType = errors.New("trace: unsupported link type")

// PcapSource replays a pcap stream as a Source, parsing each frame into a
// flow key. Frames that are not IP or carry an unsupported L4 protocol are
// counted and skipped.
type PcapSource struct {
	r *pcap.Reader
	// raw is the link type resolved once at open: bare IP (DLT_RAW)
	// rather than Ethernet framing.
	raw     bool
	Skipped int
	// deferred holds an error encountered mid-NextBatch, delivered on the
	// next read so partial batches are never paired with an error.
	deferred error
}

// NewPcapSource wraps an open pcap reader. A capture whose link type is
// neither Ethernet nor raw IP is rejected here, before any record is read.
func NewPcapSource(r *pcap.Reader) (*PcapSource, error) {
	switch lt := r.LinkType(); lt {
	case pcap.LinkEthernet:
		return &PcapSource{r: r}, nil
	case pcap.LinkRaw:
		return &PcapSource{r: r, raw: true}, nil
	default:
		return nil, fmt.Errorf("%w %d", ErrLinkType, lt)
	}
}

// Next returns the next parseable packet, io.EOF at end of stream.
func (s *PcapSource) Next() (packet.Packet, error) {
	var p [1]packet.Packet
	if _, err := s.NextBatch(p[:]); err != nil {
		return packet.Packet{}, err
	}
	return p[0], nil
}

// read parses the next parseable frame into *p, skipping (and counting)
// frames that are not IP or lack ports. On error *p is the zero Packet.
func (s *PcapSource) read(p *packet.Packet) error {
	for {
		rec, err := s.r.Next()
		if err != nil {
			return err
		}
		if s.raw {
			*p, err = packet.ParseIP(rec.Data, rec.WireLen, rec.TS)
		} else {
			*p, err = packet.ParseEthernet(rec.Data, rec.WireLen, rec.TS)
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, packet.ErrNotIP) || errors.Is(err, packet.ErrUnsupportedL4) ||
			errors.Is(err, packet.ErrTruncated) {
			s.Skipped++
			continue
		}
		return err
	}
}

// NextBatch parses up to len(buf) frames straight into buf. The tail of the
// capture is delivered as a short read; the terminating error (io.EOF or a
// parse failure) follows on the next call.
func (s *PcapSource) NextBatch(buf []packet.Packet) (int, error) {
	if s.deferred != nil {
		err := s.deferred
		s.deferred = nil
		return 0, err
	}
	for n := range buf {
		if err := s.read(&buf[n]); err != nil {
			if n > 0 {
				s.deferred = err
				return n, nil
			}
			return 0, err
		}
	}
	return len(buf), nil
}

// WritePcap writes the trace to w as an Ethernet pcap capture with the
// given snap length (0 means full frames).
func (t *Trace) WritePcap(w io.Writer, snapLen int) error {
	pw := pcap.NewWriter(w, pcap.LinkEthernet, snapLen)
	for i := range t.Packets {
		p := t.Packets[i]
		frame, err := packet.BuildEthernet(p, snapLen)
		if err != nil {
			return fmt.Errorf("packet %d: %w", i, err)
		}
		if err := pw.Write(p.TS, int(p.Len), frame); err != nil {
			return fmt.Errorf("packet %d: %w", i, err)
		}
	}
	return pw.Flush()
}

// ReadPcap materializes a pcap stream into a Trace.
func ReadPcap(r io.Reader) (*Trace, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	src, err := NewPcapSource(pr)
	if err != nil {
		return nil, err
	}
	var pkts []packet.Packet
	for {
		p, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, p)
	}
	return NewTrace(pkts), nil
}

func sortByTS(pkts []packet.Packet) {
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].TS < pkts[j].TS })
}
