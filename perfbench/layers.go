package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"instameasure"
	"instameasure/internal/trace"
)

// layerMetrics is every per-layer metric a traced run prints, in
// BENCHMARK.json order. Every workload prints all of them: a layer the
// workload does not load reads 0 (see WORKLOADS.md for which are idle
// where). Latency distributions add _tail_pct and _samples companions
// (setTail), and each ratio's base is printed under its own name.
var layerMetrics = []struct{ name, unit string }{
	{"pcap.ns_per_pkt", "ns"},
	{"pcap.allocs_per_pkt", "allocs/pkt"},
	{"pcap.skipped_frames", "count"},
	{"flowhash.ns_per_pkt", "ns"},
	{"flowreg.ns_per_pkt", "ns"},
	{"flowreg.regulation_rate", "fraction"},
	{"flowreg.l1_recycles_per_pkt", "1/pkt"},
	{"flowreg.l2_recycles_per_pkt", "1/pkt"},
	{"hotcache.hit_rate", "fraction"},
	{"hotcache.promotions", "count"},
	{"hotcache.demotions", "count"},
	{"hotcache.fold_drops", "count"},
	{"wsaf.ns_per_op", "ns"},
	{"wsaf.ops_per_pkt", "1/pkt"},
	{"wsaf.evictions", "count"},
	{"wsaf.probe_len_mean", "slots"},
	{"wsaf.load_factor", "fraction"},
	{"wsaf.snapshot_ms_p50", "ms"},
	{"core.ns_per_pkt", "ns"},
	{"core.allocs_per_pkt", "allocs/pkt"},
	{"pipeline.reported_mpps", "Mpkt/s"},
	{"pipeline.shard_imbalance", "ratio"},
	{"pipeline.dropped", "count"},
	{"pipeline.merge_ms", "ms"},
	{"export.send_ms_p50", "ms"},
	{"export.bytes_per_epoch", "bytes"},
	{"export.records_per_epoch", "count"},
	{"export.errors", "count"},
	{"collector.merge_ms_p50", "ms"},
	{"fleet.ingest_ms_p50", "ms"},
	{"fleet.records", "count"},
	{"fleet.alerts", "count"},
	{"fleet.detector_drops", "count"},
	{"store.append_ms_p50", "ms"},
	{"store.append_bytes_per_epoch", "bytes"},
	{"store.query_topk_ms_p50", "ms"},
	{"store.query_timeline_ms_p50", "ms"},
	{"store.segments", "count"},
	{"store.append_failures", "count"},
	{"hh_delay_trace_ms_p50", "trace_ms"},
	{"ddos_alert_delay_epochs", "epochs"},
	{"ddos_threshold_sources", "sources"},
	{"epoch_close_ms_p50", "ms"},
	{"epoch_close_ms_tail", "ms"},
	{"epoch_close_ms_tail_pct", "percentile"},
	{"epoch_close_ms_samples", "count"},
	{"cut_to_commit_ms_p50", "ms"},
	{"cut_to_commit_ms_tail", "ms"},
	{"cut_to_commit_ms_tail_pct", "percentile"},
	{"cut_to_commit_ms_samples", "count"},
	{"query_ms_p50", "ms"},
	{"query_ms_tail", "ms"},
	{"query_ms_tail_pct", "percentile"},
	{"query_ms_samples", "count"},
	{"replay.packets", "count"},
	{"replay.regulated_packets", "count"},
	{"replay.wsaf_ops", "count"},
	{"replay.rate_match", "bool"},
	{"meter.regulation_rate", "fraction"},
	{"traced.packets", "count"},
	{"traced_pkts_per_s", "pkt/s"},
	{"untraced_pkts_per_s", "pkt/s"},
	{"trace_overhead_frac", "fraction"},
}

// initLayers sets every per-layer metric to 0 so each workload only
// fills the layers it loads.
func initLayers(r *result) {
	for _, m := range layerMetrics {
		r.setLayer(m.name, m.unit, 0)
	}
}

// checkLayers guards the printed set against drift from layerMetrics.
func checkLayers(r *result) error {
	if len(r.layer) != len(layerMetrics) {
		return fmt.Errorf("per-layer metric set drifted: %d printed, %d declared", len(r.layer), len(layerMetrics))
	}
	return nil
}

// traceOverhead fills the traced/untraced throughput pair and the
// overhead fraction derived from them.
func traceOverhead(r *result, untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	r.setLayer("untraced_pkts_per_s", "pkt/s", u)
	r.setLayer("traced_pkts_per_s", "pkt/s", t)
	if u > 0 {
		r.setLayer("trace_overhead_frac", "fraction", 1-t/u)
	}
}

// engineCounters reads an engine registry's counters after a pass: the
// regulator recycles, WSAF ops and probe lengths, and the hot cache.
type engineCounters struct {
	packets, delegations, l1, l2       float64
	wsafOps, evicted, probeSum, probeN float64
	occupancy, capacity                float64
	cacheHits, promotions, demotions   float64
	foldDrops, dropped, imbalance      float64
}

func readCounters(t *instameasure.Telemetry) (engineCounters, error) {
	var c engineCounters
	t.Each(func(series string, v float64) {
		name, labels, _ := strings.Cut(series, "{")
		switch strings.TrimPrefix(name, "instameasure_") {
		case "packets_total":
			c.packets += v
		case "wsaf_delegations_total":
			c.delegations += v
		case "l1_recycles_total":
			c.l1 += v
		case "l2_recycles_total":
			c.l2 += v
		case "wsaf_ops_total":
			c.wsafOps += v
			if strings.Contains(labels, `"evicted"`) {
				c.evicted += v
			}
		case "wsaf_occupancy":
			c.occupancy += v
		case "wsaf_capacity_entries":
			c.capacity += v
		case "hotcache_hits_total":
			c.cacheHits += v
		case "hotcache_promotions_total":
			c.promotions += v
		case "hotcache_demotions_total":
			c.demotions += v
		case "hotcache_fold_drops_total":
			c.foldDrops += v
		case "worker_dropped_total":
			c.dropped += v
		case "shard_imbalance":
			c.imbalance = v
		}
	})
	// Histograms are not scalar series; their _sum/_count lines come from
	// the Prometheus exposition.
	var buf bytes.Buffer
	if err := t.WritePrometheus(&buf); err != nil {
		return c, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, "{")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "instameasure_wsaf_probe_length_sum":
			c.probeSum += v
		case "instameasure_wsaf_probe_length_count":
			c.probeN += v
		}
	}
	return c, nil
}

// setEngineLayers publishes the counters of the last timed pass.
func setEngineLayers(r *result, c engineCounters) {
	if c.packets == 0 {
		return
	}
	r.setLayer("flowreg.l1_recycles_per_pkt", "1/pkt", c.l1/c.packets)
	r.setLayer("flowreg.l2_recycles_per_pkt", "1/pkt", c.l2/c.packets)
	r.setLayer("meter.regulation_rate", "fraction", c.delegations/c.packets)
	r.setLayer("wsaf.ops_per_pkt", "1/pkt", c.wsafOps/c.packets)
	r.setLayer("wsaf.evictions", "count", c.evicted)
	if c.probeN > 0 {
		r.setLayer("wsaf.probe_len_mean", "slots", c.probeSum/c.probeN)
	}
	if c.capacity > 0 {
		r.setLayer("wsaf.load_factor", "fraction", c.occupancy/c.capacity)
	}
	r.setLayer("hotcache.hit_rate", "fraction", c.cacheHits/c.packets)
	r.setLayer("hotcache.promotions", "count", c.promotions)
	r.setLayer("hotcache.demotions", "count", c.demotions)
	r.setLayer("hotcache.fold_drops", "count", c.foldDrops)
}

// timedSource records a span around every batch read of the wrapped
// source; the caller (ProcessSource, or a cluster worker) still drives
// it.
type timedSource struct {
	inner  trace.BatchSource
	log    *spanLog
	parent int32
	name   string
}

func (s *timedSource) Next() (instameasure.Packet, error) { return s.inner.Next() }

func (s *timedSource) NextBatch(buf []instameasure.Packet) (int, error) {
	t := time.Now()
	n, err := s.inner.NextBatch(buf)
	s.log.add(s.name, s.parent, 0, t, time.Now())
	return n, err
}

// timedSplitSource is a splittable in-memory source whose per-worker
// stripes are timedSources, so a Cluster's shared-nothing ingest keeps
// working while every stripe read is traced.
type timedSplitSource struct {
	trace.SplittableSource
	log    *spanLog
	parent int32
}

func (s *timedSplitSource) Split(parts int) []trace.BatchSource {
	out := s.SplittableSource.Split(parts)
	for i, p := range out {
		out[i] = &timedSource{inner: p, log: s.log, parent: s.parent, name: "pipeline.stripe_read"}
	}
	return out
}
