package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer: name, start, end, the span that
// caused it, and the pass (and, in fleet_epochs, the epoch) it belongs to.
// Times are nanoseconds since the log's creation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Pass   int    `json:"pass"`
	Epoch  int64  `json:"epoch,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced passes share the traced code path. It is
// safe for concurrent use (cluster workers read their stripes in
// parallel).
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	pass  int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

const noParent = -1

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent int32, epoch int64, start, end time.Time) int32 {
	if l == nil {
		return noParent
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Name: name, Start: int64(start.Sub(l.base)), End: int64(end.Sub(l.base)),
		Parent: parent, Pass: l.pass, Epoch: epoch,
	})
	return int32(len(l.spans) - 1)
}

// begin opens a span whose end is set later by end.
func (l *spanLog) begin(name string, parent int32, epoch int64) int32 {
	now := time.Now()
	return l.add(name, parent, epoch, now, now)
}

func (l *spanLog) end(id int32) {
	if l == nil || id < 0 {
		return
	}
	now := int64(time.Since(l.base))
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

func (l *spanLog) setPass(i int) {
	if l != nil {
		l.pass = i
	}
}

// durations returns the durations of every span named name, in
// milliseconds.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// total is the summed duration of every span named name.
func (l *spanLog) total(name string) time.Duration {
	var t int64
	for _, s := range l.spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return time.Duration(t)
}

// selfTime is the summed self time of every span named name: each
// span's duration minus the part of it covered by its child spans.
func (l *spanLog) selfTime(name string) time.Duration {
	children := map[int32][][2]int64{}
	for _, s := range l.spans {
		if s.Parent >= 0 && l.spans[s.Parent].Name == name {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var self int64
	for i, s := range l.spans {
		if s.Name != name {
			continue
		}
		self += (s.End - s.Start) - covered(s.Start, s.End, children[int32(i)])
	}
	return time.Duration(self)
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var n, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			n += b - a
			cur = b
		}
	}
	return n
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
