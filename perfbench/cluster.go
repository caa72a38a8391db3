package main

import (
	"fmt"
	"path/filepath"
	"time"

	"instameasure"
	"instameasure/internal/trace"
)

// skewed_cluster: an in-memory Zipf 1.2 trace through a two-worker
// Cluster on shared-nothing sharded ingest, with a 4096-entry hot cache
// and a 2^19-entry WSAF per worker.
const (
	clusterPackets = 4_000_000
	clusterFlows   = 200_000
	clusterSkew    = 1.2
	clusterWorkers = 2
	clusterCache   = 4096
	clusterWSAF    = 1 << 19
	clusterRecall  = 0.9
)

func runSkewedCluster(o options, res *result) error {
	seed := deriveSeed(o.seed, "skewed_cluster/cluster")
	traceSeed := deriveSeed(o.seed, "skewed_cluster/trace")
	res.info["cluster_seed"] = seed
	res.info["trace_seed"] = traceSeed

	tr, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{
		Flows: clusterFlows, TotalPackets: clusterPackets, Skew: clusterSkew, Seed: traceSeed})
	if err != nil {
		return err
	}
	offered := uint64(len(tr.Packets))
	truth := newTruth(tr)
	pkts, err := offHeapPackets(tr.Packets)
	if err != nil {
		return err
	}
	tr = &instameasure.Trace{Packets: pkts}
	releaseGenerated()
	res.info["packets"] = offered

	cfg := instameasure.ClusterConfig{
		Meter:   instameasure.Config{HotCacheEntries: clusterCache, WSAFEntries: clusterWSAF, Seed: seed},
		Workers: clusterWorkers,
	}
	var log *spanLog
	if o.trace {
		initLayers(res)
		log = newSpanLog()
	}
	var (
		e2e                 e2eSamples
		tracedPPS, reported []float64
		tracedPkts          uint64
		tracedWall          time.Duration
		last                engineCounters
	)

	pass := func(i int, traced bool) error {
		var l *spanLog
		if traced {
			l = log
			l.setPass(i)
		}
		base := heapBaseline()
		t0 := time.Now()
		c, err := instameasure.NewCluster(cfg)
		if err != nil {
			return err
		}
		setup := time.Since(t0)

		hs := startHeapSampler()
		src := tr.Source()
		id := l.begin("pipeline.run", noParent, 0)
		if traced {
			src = &timedSplitSource{SplittableSource: src.(trace.SplittableSource), log: l, parent: id}
		}
		t1 := time.Now()
		rep, err := c.Run(src)
		elapsed := time.Since(t1)
		l.end(id)
		peak := hs.Stop()
		if err != nil {
			return err
		}

		t2 := time.Now()
		top := c.TopKPackets(100)
		l.add("pipeline.topk", noParent, 0, t2, time.Now())
		counters, err := readCounters(c.Telemetry())
		if err != nil {
			return err
		}

		res.op(offered, uint64(counters.dropped))
		res.check(rep.Packets == offered, "pass %d: cluster counted %d packets, %d offered", i, rep.Packets, offered)
		recall := truth.recall(keysOf(top), 100)
		res.check(recall >= clusterRecall, "pass %d: top100_recall %.3f below floor %.2f", i, recall, clusterRecall)
		if i == 0 {
			return nil
		}
		rate := float64(rep.Packets) / elapsed.Seconds()
		if traced {
			tracedPPS = append(tracedPPS, rate)
			tracedPkts += rep.Packets
			tracedWall += elapsed
			reported = append(reported, rep.MPPS)
			last = counters
			return nil
		}
		e2e.pps = append(e2e.pps, rate)
		e2e.setups = append(e2e.setups, setup.Seconds())
		e2e.heaps = append(e2e.heaps, mib(peak-min(peak, base)))
		e2e.recalls = append(e2e.recalls, recall)
		est := map[instameasure.FlowKey]float64{}
		for _, f := range c.Flows() {
			est[f.Key] = f.Pkts
		}
		e2e.relErrs = append(e2e.relErrs, truth.relErr(1000, func(k instameasure.FlowKey) (float64, bool) {
			v, ok := est[k]
			return v, ok
		}))
		return nil
	}
	if err := passLoop(time.Duration(o.seconds)*time.Second, 3, o.trace, pass); err != nil {
		return err
	}
	if !o.trace {
		e2e.publish(res)
		return nil
	}

	traceOverhead(res, e2e.pps, tracedPPS)
	res.setLayer("traced.packets", "count", float64(tracedPkts))
	// Worker time outside stripe reads: both workers run for the whole
	// Run call, so their combined time is workers × wall.
	workerTime := time.Duration(clusterWorkers)*tracedWall - log.total("pipeline.stripe_read")
	res.setLayer("core.ns_per_pkt", "ns", float64(workerTime)/float64(tracedPkts))
	merge := median(log.durations("pipeline.topk"))
	res.setLayer("pipeline.merge_ms", "ms", merge)
	res.setLayer("wsaf.snapshot_ms_p50", "ms", merge)
	res.setLayer("pipeline.reported_mpps", "Mpkt/s", median(reported))
	res.setLayer("pipeline.shard_imbalance", "ratio", last.imbalance)
	res.setLayer("pipeline.dropped", "count", last.dropped)
	setEngineLayers(res, last)

	// Allocations of one worker's engine (a Meter with the worker config)
	// over the whole trace.
	m, err := instameasure.New(cfg.Meter)
	if err != nil {
		return err
	}
	allocs, err := mallocs(func() error {
		_, err := m.ProcessSource(tr.Source())
		return err
	})
	if err != nil {
		return err
	}
	res.setLayer("core.allocs_per_pkt", "allocs/pkt", float64(allocs)/float64(offered))

	st, err := replayEngine(tr.Source().(trace.BatchSource), engineShape{
		seed: seed, workers: clusterWorkers, wsafEntries: clusterWSAF, cacheEntries: clusterCache})
	if err != nil {
		return err
	}
	setReplayLayers(res, st, last.delegations/last.packets)
	if err := log.write(filepath.Join(workdir, fmt.Sprintf("spans-skewed_cluster-seed%d.jsonl", o.seed))); err != nil {
		return err
	}
	return checkLayers(res)
}
