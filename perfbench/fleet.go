package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"instameasure"
	"instameasure/internal/trace"
)

// fleet_epochs: two paper-default Meters ("edge-1" with a spoofed-source
// flood over Zipf background, "edge-2" with background only) driven in
// lockstep from one goroutine. Every fleetEpoch packets per site the
// site's epoch is cut and exported over loopback TCP to one Collector
// with the fleet tier (DDoS-victim detector) and a collector-side
// FlowStore; after each epoch round a windowed TopK and a Timeline query
// run against the store.
const (
	fleetBackground1 = 1_600_000 // edge-1 background packets
	fleetBackground2 = 2_400_000 // edge-2 background packets
	fleetFlowShare   = 20        // background packets per flow
	fleetSources     = 4000      // flood sources
	fleetPerSource   = 200       // packets per flood source
	fleetFloodStart  = 400 * time.Millisecond
	fleetEpoch       = 50_000
	fleetQueryEpochs = 10 // windowed query span, epochs
	fleetRecall      = 0.9
	fleetStoreAgree  = 0.98 // share of the top-100 the store and fleet must agree on
	fleetWait        = 10 * time.Second
	// fleetThresholdShare sets the DDoS threshold as this share of the
	// most flood sources the fleet can see in one detector window.
	fleetThresholdShare = 0.5
	// flightEvery bounds the rounds between flight-recorder snapshots in
	// traced passes: a site's packet spans share ring 0 with its cut and
	// encode events, which a 2048-event ring keeps for about five rounds.
	flightEvery = 4
)

var siteNames = [2]string{"edge-1", "edge-2"}

type fleetInputs struct {
	sites      [2][]instameasure.Packet
	seeds      [2]uint64
	truth      *truth
	floodKeys  map[instameasure.FlowKey]bool
	victim     string
	floodEpoch int64 // first epoch holding a flood packet
	rounds     int
	heavy      instameasure.FlowKey // the flow the Timeline query follows
}

func makeFleetInputs(o options) (*fleetInputs, error) {
	in := &fleetInputs{floodKeys: map[instameasure.FlowKey]bool{}}
	bg1, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{
		Flows: fleetBackground1 / fleetFlowShare, TotalPackets: fleetBackground1,
		Seed: deriveSeed(o.seed, "fleet_epochs/edge-1")})
	if err != nil {
		return nil, err
	}
	flood, atk, err := instameasure.GenerateSpoofedDDoSTrace(instameasure.SpoofedDDoSConfig{
		Sources: fleetSources, PacketsPerSource: fleetPerSource,
		StartTS: int64(fleetFloodStart), Seed: deriveSeed(o.seed, "fleet_epochs/flood")})
	if err != nil {
		return nil, err
	}
	flood.EachTruth(func(k instameasure.FlowKey, _ *instameasure.FlowTruth) { in.floodKeys[k] = true })
	in.victim = atk.Host.String()
	edge1 := instameasure.MergeTraces(bg1, flood)
	bg2, err := instameasure.GenerateZipfTrace(instameasure.ZipfTraceConfig{
		Flows: fleetBackground2 / fleetFlowShare, TotalPackets: fleetBackground2,
		Seed: deriveSeed(o.seed, "fleet_epochs/edge-2")})
	if err != nil {
		return nil, err
	}
	in.truth = newTruth(edge1, bg2)
	for s, tr := range []*instameasure.Trace{edge1, bg2} {
		if in.sites[s], err = offHeapPackets(tr.Packets); err != nil {
			return nil, err
		}
	}
	in.heavy = in.truth.top[0]
	for i, p := range edge1.Packets {
		if in.floodKeys[p.Key] {
			in.floodEpoch = int64(i/fleetEpoch) + 1
			break
		}
	}
	for s := range in.sites {
		in.seeds[s] = deriveSeed(o.seed, "fleet_epochs/meter/"+siteNames[s])
		in.rounds = max(in.rounds, (len(in.sites[s])+fleetEpoch-1)/fleetEpoch)
	}
	return in, nil
}

// visibleFloodSources replays edge-1 through a meter identical to the
// workload's and returns, per epoch, how many flood sources' WSAF records
// advanced: what the fleet's DDoS detector can count in that window.
func visibleFloodSources(in *fleetInputs) ([]int, error) {
	m, err := instameasure.New(instameasure.Config{Seed: in.seeds[0]})
	if err != nil {
		return nil, err
	}
	prev := map[instameasure.FlowKey]float64{}
	var out []int
	pkts := in.sites[0]
	for lo := 0; lo < len(pkts); lo += fleetEpoch {
		m.ProcessBatch(pkts[lo:min(lo+fleetEpoch, len(pkts))])
		n := 0
		for k := range in.floodKeys {
			if r, ok := m.Lookup(k); ok && r.Pkts != prev[k] {
				prev[k] = r.Pkts
				n++
			}
		}
		out = append(out, n)
	}
	return out, nil
}

type fleetSite struct {
	name string
	pkts []instameasure.Packet
	m    *instameasure.Meter
	e    *instameasure.Exporter
}

func runFleetEpochs(o options, res *result) error {
	t0 := time.Now()
	in, err := makeFleetInputs(o)
	if err != nil {
		return err
	}
	releaseGenerated()
	visible, err := visibleFloodSources(in)
	if err != nil {
		return err
	}
	peakVisible := 0
	for _, v := range visible {
		peakVisible = max(peakVisible, v)
	}
	threshold := math.Round(fleetThresholdShare * float64(peakVisible))
	if threshold < 1 {
		return fmt.Errorf("no flood source reaches the WSAF in any epoch; no DDoS threshold can be set")
	}
	offered := uint64(len(in.sites[0]) + len(in.sites[1]))
	res.info["generate_s"] = time.Since(t0).Seconds()
	res.info["meter_seeds"] = in.seeds
	res.info["packets"] = offered
	res.info["victim"] = in.victim
	res.info["flood_first_epoch"] = in.floodEpoch
	res.info["flood_visible_sources_per_epoch"] = visible
	res.info["ddos_threshold_sources"] = threshold

	var log *spanLog
	if o.trace {
		initLayers(res)
		log = newSpanLog()
	}
	var (
		e2e                             e2eSamples
		tracedPPS                       []float64
		tracedPkts                      uint64
		events                          []instameasure.FlightEvent
		passWindows                     [][2]int64
		alertDelays                     []float64
		last                            engineCounters
		exportErrors, records, alertsN  float64
		drops, segments, appendFailures float64
		edge1Rate                       float64
	)

	pass := func(i int, traced bool) error {
		var l *spanLog
		if traced {
			l = log
			l.setPass(i)
		}
		dir := filepath.Join(workdir, fmt.Sprintf("store-%d-%d", os.Getpid(), i))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		var (
			amu    sync.Mutex
			alerts []instameasure.FleetAlert
		)
		base := heapBaseline()

		t0 := time.Now()
		store, err := instameasure.OpenFlowStore(dir, instameasure.StoreOptions{})
		if err != nil {
			return err
		}
		defer store.Close()
		col, err := instameasure.NewCollector("127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		defer col.Close()
		fl, err := col.EnableFleet(instameasure.FleetConfig{DDoSSources: threshold,
			OnAlert: func(a instameasure.FleetAlert) {
				amu.Lock()
				alerts = append(alerts, a)
				amu.Unlock()
			}})
		if err != nil {
			return err
		}
		col.WithStore(store)
		tel := instameasure.NewTelemetry()
		var sites [2]*fleetSite
		for s := range sites {
			m, err := instameasure.New(instameasure.Config{Seed: in.seeds[s]})
			if err != nil {
				return err
			}
			e, err := instameasure.DialCollector(col.Addr())
			if err != nil {
				return err
			}
			defer e.Close()
			if err := e.WithSite(siteNames[s]); err != nil {
				return err
			}
			e.Instrument(tel)
			sites[s] = &fleetSite{name: siteNames[s], pkts: in.sites[s], m: m, e: e}
		}
		setup := time.Since(t0)

		hs := startHeapSampler()
		start := time.Now()
		var sent uint64
		for r := 1; r <= in.rounds; r++ {
			epoch := int64(r)
			for _, s := range sites {
				lo, hi := min((r-1)*fleetEpoch, len(s.pkts)), min(r*fleetEpoch, len(s.pkts))
				for b := lo; b < hi; b += replayBatch {
					tb := time.Now()
					s.m.ProcessBatch(s.pkts[b:min(b+replayBatch, hi)])
					if l != nil {
						l.add("core.process_batch", noParent, epoch, tb, time.Now())
					}
				}
				tc := time.Now()
				s.m.MarkEpochCut(epoch)
				err := s.e.ExportMeter(s.m, epoch)
				te := time.Now()
				l.add("epoch.close", noParent, epoch, tc, te)
				if err != nil {
					res.op(1, 1)
					continue
				}
				res.op(1, 0)
				sent++
				// Wait for the collector to merge, store and fleet-ingest
				// this batch before the next site cuts, so each site's
				// flight events fall inside its own span.
				for fl.Stats().Batches < sent {
					if time.Since(te) > fleetWait {
						return fmt.Errorf("epoch %d %s: batch not ingested after %s", epoch, s.name, fleetWait)
					}
					time.Sleep(50 * time.Microsecond)
				}
				l.add("epoch.commit_wait", noParent, epoch, te, time.Now())
			}
			w := instameasure.EpochWindow{From: max(1, epoch-fleetQueryEpochs+1), To: epoch}
			tq := time.Now()
			_, err := store.TopK(w, 100, false)
			res.op(1, boolCount(err != nil))
			tt := time.Now()
			l.add("store.query_topk", noParent, epoch, tq, tt)
			_, err = store.Timeline(in.heavy, w)
			res.op(1, boolCount(err != nil))
			l.add("store.query_timeline", noParent, epoch, tt, time.Now())
			if traced && r%flightEvery == 0 {
				events = append(events, instameasure.FlightSnapshot().Events...)
			}
		}
		elapsed := time.Since(start)
		peak := hs.Stop()
		if traced {
			events = append(events, instameasure.FlightSnapshot().Events...)
			passWindows = append(passWindows, [2]int64{start.UnixNano(), time.Now().UnixNano()})
		}

		// Output checks.
		res.op(offered, 0)
		for _, s := range sites {
			got := s.m.Stats().Packets
			res.check(got == uint64(len(s.pkts)), "pass %d: %s counted %d packets, %d offered", i, s.name, got, len(s.pkts))
		}
		batches, _ := col.Stats()
		ss := store.Stats()
		res.op(batches, batches-min(batches, ss.Appends))
		amu.Lock()
		got := append([]instameasure.FleetAlert(nil), alerts...)
		amu.Unlock()
		res.check(len(got) == 1, "pass %d: %d fleet alerts, want exactly one (the victim %s): %+v", i, len(got), in.victim, got)
		for _, a := range got {
			res.check(a.Host == in.victim, "pass %d: alert names %s, not the victim %s", i, a.Host, in.victim)
			for _, site := range a.Sites {
				res.check(site == siteNames[0], "pass %d: alert attributed to %s, which saw no flood", i, site)
			}
		}
		netTop := fl.TopKPackets(100)
		storeTop, err := store.TopK(instameasure.EpochWindow{}, 100, false)
		res.check(err == nil, "pass %d: full-window store TopK: %v", i, err)
		agree := topAgreement(netTop, storeTop)
		res.check(agree >= fleetStoreAgree, "pass %d: store and fleet top-100 agree on %.2f, want >= %.2f", i, agree, fleetStoreAgree)
		netKeys := make([]instameasure.FlowKey, len(netTop))
		for j, f := range netTop {
			netKeys[j] = f.Key
		}
		recall := in.truth.recall(netKeys, 100)
		res.check(recall >= fleetRecall, "pass %d: top100_recall %.3f below floor %.2f", i, recall, fleetRecall)
		if i == 0 {
			return nil
		}

		rate := float64(offered) / elapsed.Seconds()
		if traced {
			tracedPPS = append(tracedPPS, rate)
			tracedPkts += offered
			last = engineCounters{}
			for _, s := range sites {
				c, err := readCounters(s.m.Telemetry())
				if err != nil {
					return err
				}
				if s == sites[0] {
					edge1Rate = c.delegations / c.packets
				}
				last.add(c)
			}
			fs := fl.Stats()
			exportErrors = tel.Value("instameasure_export_errors_total")
			records, alertsN = float64(fs.Records), float64(fs.Alerts)
			drops = 0
			for _, d := range fs.Detectors {
				drops += float64(d.Drops)
			}
			segments = float64(ss.Segments)
			appendFailures = float64(batches - min(batches, ss.Appends))
			for _, a := range got {
				alertDelays = append(alertDelays, float64(a.Epoch-in.floodEpoch))
			}
			return nil
		}
		e2e.pps = append(e2e.pps, rate)
		e2e.setups = append(e2e.setups, setup.Seconds())
		e2e.heaps = append(e2e.heaps, mib(peak-min(peak, base)))
		e2e.recalls = append(e2e.recalls, recall)
		est := map[instameasure.FlowKey]float64{}
		for _, f := range fl.TopKPackets(5000) {
			est[f.Key] = f.Pkts
		}
		e2e.relErrs = append(e2e.relErrs, in.truth.relErr(1000, func(k instameasure.FlowKey) (float64, bool) {
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
	res.setLayer("core.ns_per_pkt", "ns", float64(log.total("core.process_batch"))/float64(tracedPkts))
	setEngineLayers(res, last)
	// The replay is of edge-1, so it is checked against edge-1's rate.
	res.setLayer("meter.regulation_rate", "fraction", edge1Rate)
	res.setTail("epoch_close_ms", log.durations("epoch.close"))
	topk, timeline := log.durations("store.query_topk"), log.durations("store.query_timeline")
	res.setTail("query_ms", append(append([]float64(nil), topk...), timeline...))
	res.setLayer("store.query_topk_ms_p50", "ms", median(topk))
	res.setLayer("store.query_timeline_ms_p50", "ms", median(timeline))
	res.setLayer("export.errors", "count", exportErrors)
	res.setLayer("fleet.records", "count", records)
	res.setLayer("fleet.alerts", "count", alertsN)
	res.setLayer("fleet.detector_drops", "count", drops)
	res.setLayer("store.segments", "count", segments)
	res.setLayer("store.append_failures", "count", appendFailures)
	res.setLayer("ddos_alert_delay_epochs", "epochs", median(alertDelays))
	res.setLayer("ddos_threshold_sources", "sources", threshold)
	setFlightLayers(res, events, passWindows)

	// Engine allocations and the layer replay, on edge-1's stream.
	m, err := instameasure.New(instameasure.Config{Seed: in.seeds[0]})
	if err != nil {
		return err
	}
	edge1 := &instameasure.Trace{Packets: in.sites[0]}
	allocs, err := mallocs(func() error {
		_, err := m.ProcessSource(edge1.Source())
		return err
	})
	if err != nil {
		return err
	}
	res.setLayer("core.allocs_per_pkt", "allocs/pkt", float64(allocs)/float64(len(in.sites[0])))
	st, err := replayEngine(edge1.Source().(trace.BatchSource), engineShape{seed: in.seeds[0], workers: 1, wsafEntries: 1 << 20})
	if err != nil {
		return err
	}
	setReplayLayers(res, st, edge1Rate)
	if err := log.write(filepath.Join(workdir, fmt.Sprintf("spans-fleet_epochs-seed%d.jsonl", o.seed))); err != nil {
		return err
	}
	return checkLayers(res)
}

func boolCount(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// topAgreement is the share of the fleet's network top-k that the
// store's full-window top-k holds with the same packet total.
func topAgreement(net []instameasure.FleetFlow, stored []instameasure.FlowDelta) float64 {
	if len(net) == 0 {
		return 0
	}
	got := map[instameasure.FlowKey]float64{}
	for _, d := range stored {
		got[d.Key] = d.Pkts
	}
	n := 0
	for _, f := range net {
		if v, ok := got[f.Key]; ok && math.Abs(v-f.Pkts) <= 1e-6*math.Max(1, f.Pkts) {
			n++
		}
	}
	return float64(n) / float64(len(net))
}

// setFlightLayers splits the flight recorder's epoch events into the
// export, collector, fleet and store stages, keeping only events inside a
// traced pass. Both sites record under the same epoch ids; each site's
// batch is ingested before the next site cuts, so within an epoch the
// k-th cut pairs with the k-th fleet ingest.
func setFlightLayers(r *result, events []instameasure.FlightEvent, windows [][2]int64) {
	type evKey struct {
		at    int64
		stage string
		epoch int64
		w     int
	}
	seen := map[evKey]bool{}
	by := map[string][]instameasure.FlightEvent{}
	for _, ev := range events {
		k := evKey{ev.At, ev.StageName, ev.Epoch, ev.Worker}
		if seen[k] {
			continue
		}
		in := false
		for _, w := range windows {
			in = in || (ev.At >= w[0] && ev.At <= w[1])
		}
		if !in {
			continue
		}
		seen[k] = true
		by[ev.StageName] = append(by[ev.StageName], ev)
	}
	durs := func(stage string) []float64 {
		var out []float64
		for _, ev := range by[stage] {
			out = append(out, float64(ev.Dur)/1e6)
		}
		return out
	}
	r.setLayer("wsaf.snapshot_ms_p50", "ms", median(durs("encode")))
	r.setLayer("export.send_ms_p50", "ms", median(durs("send")))
	r.setLayer("collector.merge_ms_p50", "ms", median(durs("receive")))
	r.setLayer("fleet.ingest_ms_p50", "ms", median(durs("aggregate")))
	r.setLayer("store.append_ms_p50", "ms", median(durs("commit")))
	var sendBytes, sendRecs, commitBytes []float64
	for _, ev := range by["send"] {
		sendBytes = append(sendBytes, float64(ev.Bytes))
		sendRecs = append(sendRecs, float64(ev.Count))
	}
	for _, ev := range by["commit"] {
		commitBytes = append(commitBytes, float64(ev.Bytes))
	}
	r.setLayer("export.bytes_per_epoch", "bytes", median(sendBytes))
	r.setLayer("export.records_per_epoch", "count", median(sendRecs))
	r.setLayer("store.append_bytes_per_epoch", "bytes", median(commitBytes))

	// Pair cuts with fleet ingests per (pass, epoch).
	type group struct {
		pass  int
		epoch int64
	}
	passOf := func(at int64) int {
		for i, w := range windows {
			if at >= w[0] && at <= w[1] {
				return i
			}
		}
		return -1
	}
	cuts, ingests := map[group][]int64{}, map[group][]int64{}
	for _, ev := range by["cut"] {
		g := group{passOf(ev.At), ev.Epoch}
		cuts[g] = append(cuts[g], ev.At)
	}
	for _, ev := range by["aggregate"] {
		g := group{passOf(ev.At), ev.Epoch}
		ingests[g] = append(ingests[g], ev.At+int64(ev.Dur))
	}
	var c2c []float64
	for g, cs := range cuts {
		is := ingests[g]
		if len(cs) != len(is) {
			continue // an event left the ring before its snapshot
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		sort.Slice(is, func(i, j int) bool { return is[i] < is[j] })
		for k := range cs {
			c2c = append(c2c, float64(is[k]-cs[k])/1e6)
		}
	}
	r.setTail("cut_to_commit_ms", c2c)
}

func (c *engineCounters) add(o engineCounters) {
	c.packets += o.packets
	c.delegations += o.delegations
	c.l1 += o.l1
	c.l2 += o.l2
	c.wsafOps += o.wsafOps
	c.evicted += o.evicted
	c.probeSum += o.probeSum
	c.probeN += o.probeN
	c.occupancy += o.occupancy
	c.capacity += o.capacity
	c.cacheHits += o.cacheHits
	c.promotions += o.promotions
	c.demotions += o.demotions
	c.foldDrops += o.foldDrops
	c.dropped += o.dropped
	c.imbalance = max(c.imbalance, o.imbalance)
}
