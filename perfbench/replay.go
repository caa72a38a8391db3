package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"instameasure"
	"instameasure/internal/flowreg"
	"instameasure/internal/hotcache"
	"instameasure/internal/rcc"
	"instameasure/internal/trace"
	"instameasure/internal/wsaf"
)

// The engine's inner layers share one public call (ProcessBatch), so
// their time comes from a replay: the workload's own packet stream is fed
// through each layer's exported entry point — FlowKey.Hash64, then
// flowreg.Regulator.ProcessBatch, then wsaf.Table.AccumulateBatch on the
// regulator's emissions — timing each call. The layers are built the way
// the engine builds them from the meter's Config and seed.

const replayBatch = 256

// engineShape is the Config a workload's meter or cluster runs under.
type engineShape struct {
	seed         uint64 // Config.Seed
	workers      int    // 1 for a Meter
	wsafEntries  int
	cacheEntries int
}

type replayStats struct {
	packets   uint64 // packets replayed
	regulated uint64 // packets that reached the regulator (cache misses)
	emissions uint64
	ops       uint64 // WSAF accumulates, demotion folds included
	hashTime  time.Duration
	regTime   time.Duration
	wsafTime  time.Duration
}

// replayWorker is one engine's layers: what a Meter holds, or one
// Cluster worker.
type replayWorker struct {
	reg   *flowreg.Regulator
	table *wsaf.Table
	cache *hotcache.Cache

	pending []instameasure.Packet
	hashes  []uint64
	lens    []int
	ems     []flowreg.Emission
	oks     []bool
	ops     []wsaf.Op
	outs    []wsaf.Outcome
	victim  hotcache.Entry
}

func newReplayWorker(sh engineShape, w int) (*replayWorker, error) {
	// The cluster derives per-worker sketch seeds from the configured
	// seed and shares it as the hash seed (internal/pipeline); worker 0
	// of a cluster and a Meter both run under the seed itself.
	seed := sh.seed + uint64(w)*0x9E3779B97F4A7C15
	reg, err := flowreg.New(flowreg.Config{Layer: rcc.Config{MemoryBytes: 32 << 10, VectorBits: 8, Seed: seed}})
	if err != nil {
		return nil, err
	}
	table, err := wsaf.New(wsaf.Config{Entries: sh.wsafEntries, Seed: sh.seed})
	if err != nil {
		return nil, err
	}
	// Clearing the fresh table faults its pages in, so the replay times
	// accumulates on a warm table as the warmed-up meter runs them.
	table.Reset()
	rw := &replayWorker{reg: reg, table: table,
		hashes: make([]uint64, 0, replayBatch), lens: make([]int, replayBatch),
		ems: make([]flowreg.Emission, replayBatch), oks: make([]bool, replayBatch),
		outs: make([]wsaf.Outcome, replayBatch)}
	if sh.cacheEntries > 0 {
		rw.cache, err = hotcache.New(hotcache.Config{Entries: sh.cacheEntries, Seed: seed ^ 0xCAC4E5EED})
		if err != nil {
			return nil, err
		}
	}
	return rw, nil
}

// flush runs the worker's pending packets (already hashed) through the
// cache, the regulator and the WSAF.
func (rw *replayWorker) flush(st *replayStats) {
	pkts, hashes := rw.pending, rw.hashes
	if len(pkts) == 0 {
		return
	}
	idx := make([]int, 0, len(pkts))
	misses := hashes[:0:0]
	if rw.cache == nil {
		for i := range pkts {
			idx = append(idx, i)
		}
		misses = hashes
	} else {
		misses = make([]uint64, 0, len(pkts))
		for i := range pkts {
			if rw.cache.Bump(hashes[i], &pkts[i].Key, pkts[i].Len, pkts[i].TS) {
				continue
			}
			idx = append(idx, i)
			misses = append(misses, hashes[i])
		}
	}
	for j, i := range idx {
		rw.lens[j] = int(pkts[i].Len)
	}
	t := time.Now()
	rw.reg.ProcessBatch(misses, rw.lens, rw.ems, rw.oks)
	st.regTime += time.Since(t)
	st.regulated += uint64(len(misses))

	rw.ops = rw.ops[:0]
	for j, ok := range rw.oks[:len(misses)] {
		if ok {
			p := &pkts[idx[j]]
			rw.ops = append(rw.ops, wsaf.Op{Hash: misses[j], Key: p.Key,
				Pkts: rw.ems[j].EstPkts, Bytes: rw.ems[j].EstBytes, TS: p.TS})
		}
	}
	st.emissions += uint64(len(rw.ops))
	if rw.cache == nil {
		t = time.Now()
		rw.table.AccumulateBatch(rw.ops, rw.outs)
		st.wsafTime += time.Since(t)
		st.ops += uint64(len(rw.ops))
	} else {
		// With the cache in front every passthrough may promote its flow
		// and demote an incumbent, whose exact delta folds back into the
		// WSAF — the engine's admit step — so accumulates run one by one.
		for i := range rw.ops {
			op := &rw.ops[i]
			t = time.Now()
			_, e := rw.table.AccumulateHashed(op.Hash, op.Key, op.Pkts, op.Bytes, op.TS)
			st.wsafTime += time.Since(t)
			st.ops++
			if e == nil {
				continue
			}
			if rw.cache.Admit(op.Hash, &op.Key, op.TS, e.Pkts, e.Bytes, &rw.victim) == hotcache.AdmittedReplaced {
				v := &rw.victim
				if v.Pkts > 0 || v.Bytes > 0 {
					t = time.Now()
					rw.table.AccumulateHashed(v.Hash, v.Key, float64(v.Pkts), float64(v.Bytes), v.LastUpdate)
					st.wsafTime += time.Since(t)
					st.ops++
				}
			}
		}
	}
	rw.pending = rw.pending[:0]
	rw.hashes = rw.hashes[:0]
}

// replayEngine streams src through the engine layers of sh.
func replayEngine(src trace.BatchSource, sh engineShape) (replayStats, error) {
	var st replayStats
	workers := make([]*replayWorker, sh.workers)
	for w := range workers {
		rw, err := newReplayWorker(sh, w)
		if err != nil {
			return st, err
		}
		workers[w] = rw
	}
	buf := make([]instameasure.Packet, replayBatch)
	hashes := make([]uint64, replayBatch)
	for {
		n, err := src.NextBatch(buf)
		if n > 0 {
			t := time.Now()
			for i := range buf[:n] {
				hashes[i] = buf[i].Key.Hash64(sh.seed)
			}
			st.hashTime += time.Since(t)
			st.packets += uint64(n)
			for i := range buf[:n] {
				// The cluster's default shard policy: the hash's high 32
				// bits scaled into [0, workers).
				w := int((hashes[i] >> 32) * uint64(sh.workers) >> 32)
				rw := workers[w]
				rw.pending = append(rw.pending, buf[i])
				rw.hashes = append(rw.hashes, hashes[i])
				if len(rw.pending) == replayBatch {
					rw.flush(&st)
				}
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return st, err
		}
	}
	for _, rw := range workers {
		rw.flush(&st)
	}
	return st, nil
}

// replayTolerance bounds the relative gap between the replay's
// regulation rate and the meter's. A Meter replays bit-identically; a
// cached cluster worker differs slightly because its batches interleave
// its own stripe with packets exchanged from the other worker.
const replayTolerance = 0.02

// setReplayLayers publishes the replay's per-layer costs if its
// regulation rate matches the meter's, and the match flag either way.
func setReplayLayers(r *result, st replayStats, meterRate float64) {
	r.setLayer("replay.packets", "count", float64(st.packets))
	r.setLayer("replay.regulated_packets", "count", float64(st.regulated))
	r.setLayer("replay.wsaf_ops", "count", float64(st.ops))
	rate := float64(st.emissions) / float64(st.packets)
	r.info["replay_regulation_rate"] = rate
	if meterRate == 0 || math.Abs(rate-meterRate)/meterRate > replayTolerance {
		r.info["replay_mismatch"] = fmt.Sprintf("replay rate %.6f vs meter %.6f", rate, meterRate)
		return
	}
	r.setLayer("replay.rate_match", "bool", 1)
	r.setLayer("flowreg.regulation_rate", "fraction", rate)
	r.setLayer("flowhash.ns_per_pkt", "ns", float64(st.hashTime)/float64(st.packets))
	if st.regulated > 0 {
		r.setLayer("flowreg.ns_per_pkt", "ns", float64(st.regTime)/float64(st.regulated))
	}
	if st.ops > 0 {
		r.setLayer("wsaf.ns_per_op", "ns", float64(st.wsafTime)/float64(st.ops))
	}
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}
