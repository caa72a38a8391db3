package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"instameasure"
	"instameasure/internal/core"
	"instameasure/internal/oracle"
	"instameasure/internal/trace"
)

// pcap_ingest: a CAIDA-like Ethernet pcap held in memory is streamed
// through OpenPcapStream into one paper-default Meter via ProcessSource
// (the CLI's -pcap path), with heavy-hitter detection armed.
const (
	pcapPackets   = 4_000_000
	pcapFlows     = 200_000
	pcapSkew      = 1.0
	pcapSnapLen   = 64
	pcapHHPackets = 5000 // heavy-hitter threshold, packets
	pcapRecall    = 0.9  // top100_recall floor
	hhSigmas      = 5    // width of the estimator error envelope for heavy-hitter checks
)

func runPcapIngest(o options, res *result) error {
	meterSeed := deriveSeed(o.seed, "pcap_ingest/meter")
	traceSeed := deriveSeed(o.seed, "pcap_ingest/trace")
	res.info["meter_seed"] = meterSeed
	res.info["trace_seed"] = traceSeed
	res.info["hh_threshold_pkts"] = pcapHHPackets

	t0 := time.Now()
	tr, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{
		Flows: pcapFlows, TotalPackets: pcapPackets, Skew: pcapSkew, Seed: traceSeed})
	if err != nil {
		return err
	}
	frames := uint64(len(tr.Packets))
	cross := crossings(tr.Packets, pcapHHPackets)
	var pcapBuf bytes.Buffer
	pcapBuf.Grow(len(tr.Packets) * (16 + pcapSnapLen))
	if err := instameasure.WritePcap(&pcapBuf, tr, pcapSnapLen); err != nil {
		return err
	}
	pcapBytes, err := offHeapBytes(pcapBuf.Bytes())
	if err != nil {
		return err
	}
	truth := newTruth(tr)
	releaseGenerated() // the packets and the heap copy of the pcap are garbage now
	res.info["generate_s"] = time.Since(t0).Seconds()
	res.info["frames"] = frames
	res.info["pcap_bytes"] = len(pcapBytes)

	cfg := instameasure.Config{Seed: meterSeed}
	// A flow whose true count sits just under the threshold can be
	// estimated over it; an event is a false positive only beyond the
	// estimator's analytic error envelope.
	env, err := oracle.NewEnvelope(core.Config{Seed: meterSeed}, hhSigmas)
	if err != nil {
		return err
	}
	var log *spanLog
	if o.trace {
		initLayers(res)
		log = newSpanLog()
	}
	var (
		e2e        e2eSamples
		hhDelays   []float64
		tracedPPS  []float64
		tracedPkts uint64
		last       engineCounters
		skipped    float64
	)

	pass := func(i int, traced bool) error {
		var l *spanLog
		if traced {
			l = log
			l.setPass(i)
		}
		base := heapBaseline()
		t0 := time.Now()
		m, err := instameasure.New(cfg)
		if err != nil {
			return err
		}
		events := make([]instameasure.HeavyHitterEvent, 0, 1024)
		if err := m.OnHeavyHitter(pcapHHPackets, 0, func(ev instameasure.HeavyHitterEvent) {
			events = append(events, ev)
		}); err != nil {
			return err
		}
		src, err := instameasure.OpenPcapStream(bytes.NewReader(pcapBytes))
		if err != nil {
			return err
		}
		setup := time.Since(t0)

		hs := startHeapSampler()
		var rd instameasure.PacketSource = src
		id := l.begin("core.process_source", noParent, 0)
		if traced {
			rd = &timedSource{inner: src.(trace.BatchSource), log: l, parent: id, name: "pcap.read"}
		}
		t1 := time.Now()
		n, err := m.ProcessSource(rd)
		elapsed := time.Since(t1)
		l.end(id)
		peak := hs.Stop()
		if err != nil {
			return err
		}

		t2 := time.Now()
		top := m.TopKPackets(100)
		l.add("wsaf.topk", noParent, 0, t2, time.Now())
		st := m.Stats()
		skip := uint64(src.(*trace.PcapSource).Skipped)

		res.op(frames, skip)
		res.check(n+skip == frames, "pass %d: %d packets + %d skipped frames != %d frames offered", i, n, skip, frames)
		res.check(st.Packets == n, "pass %d: meter counted %d packets, source delivered %d", i, st.Packets, n)
		recall := truth.recall(keysOf(top), 100)
		res.check(recall >= pcapRecall, "pass %d: top100_recall %.3f below floor %.2f", i, recall, pcapRecall)
		var delays []float64
		for _, ev := range events {
			if ts, ok := cross[ev.Key]; ok {
				delays = append(delays, float64(ev.TS-ts)/1e6)
				continue
			}
			n := float64(truth.counts[ev.Key])
			res.check(n*(1+env.PktBound(n)) >= pcapHHPackets,
				"pass %d: heavy-hitter event for %v: true count %.0f is below threshold %d by more than the %.0f-sigma error envelope (%.3f)",
				i, ev.Key, n, pcapHHPackets, env.Sigmas, env.PktBound(n))
		}
		if i == 0 {
			return nil
		}
		hhDelays = append(hhDelays, median(delays))
		rate := float64(n) / elapsed.Seconds()
		if traced {
			tracedPPS = append(tracedPPS, rate)
			tracedPkts += n
			last, err = readCounters(m.Telemetry())
			if err != nil {
				return err
			}
			skipped = float64(skip)
			return nil
		}
		e2e.pps = append(e2e.pps, rate)
		e2e.setups = append(e2e.setups, setup.Seconds())
		e2e.heaps = append(e2e.heaps, mib(peak-min(peak, base)))
		e2e.recalls = append(e2e.recalls, recall)
		e2e.relErrs = append(e2e.relErrs, truth.relErr(1000, func(k instameasure.FlowKey) (float64, bool) {
			r, ok := m.Lookup(k)
			return r.Pkts, ok
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

	// Traced run: span-derived layer times, counters, then the replays.
	traceOverhead(res, e2e.pps, tracedPPS)
	res.setLayer("traced.packets", "count", float64(tracedPkts))
	res.setLayer("pcap.ns_per_pkt", "ns", float64(log.total("pcap.read"))/float64(tracedPkts))
	res.setLayer("core.ns_per_pkt", "ns", float64(log.selfTime("core.process_source"))/float64(tracedPkts))
	res.setLayer("pcap.skipped_frames", "count", skipped)
	res.setLayer("hh_delay_trace_ms_p50", "trace_ms", median(hhDelays))
	res.setLayer("wsaf.snapshot_ms_p50", "ms", median(log.durations("wsaf.topk")))
	setEngineLayers(res, last)

	decodeAllocs, err := mallocs(func() error {
		src, err := instameasure.OpenPcapStream(bytes.NewReader(pcapBytes))
		if err != nil {
			return err
		}
		buf := make([]instameasure.Packet, replayBatch)
		bs := src.(trace.BatchSource)
		for {
			if _, err := bs.NextBatch(buf); errors.Is(err, io.EOF) {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	res.setLayer("pcap.allocs_per_pkt", "allocs/pkt", float64(decodeAllocs)/float64(frames))
	m, err := instameasure.New(cfg)
	if err != nil {
		return err
	}
	totalAllocs, err := mallocs(func() error {
		src, err := instameasure.OpenPcapStream(bytes.NewReader(pcapBytes))
		if err != nil {
			return err
		}
		_, err = m.ProcessSource(src)
		return err
	})
	if err != nil {
		return err
	}
	res.setLayer("core.allocs_per_pkt", "allocs/pkt", float64(totalAllocs-min(totalAllocs, decodeAllocs))/float64(frames))

	src, err := instameasure.OpenPcapStream(bytes.NewReader(pcapBytes))
	if err != nil {
		return err
	}
	st, err := replayEngine(src.(trace.BatchSource), engineShape{seed: meterSeed, workers: 1, wsafEntries: 1 << 20})
	if err != nil {
		return err
	}
	setReplayLayers(res, st, last.delegations/last.packets)
	if err := log.write(filepath.Join(workdir, fmt.Sprintf("spans-pcap_ingest-seed%d.jsonl", o.seed))); err != nil {
		return err
	}
	return checkLayers(res)
}
