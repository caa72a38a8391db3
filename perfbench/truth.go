package main

import (
	"bytes"
	"math"
	"sort"

	"instameasure"
)

// truth is exact per-flow packet counts for a workload's input, with the
// true top flows precomputed.
type truth struct {
	counts map[instameasure.FlowKey]uint64
	top    []instameasure.FlowKey // descending by count, at least 1000 long
}

func newTruth(traces ...*instameasure.Trace) *truth {
	t := &truth{counts: map[instameasure.FlowKey]uint64{}}
	for _, tr := range traces {
		tr.EachTruth(func(k instameasure.FlowKey, ft *instameasure.FlowTruth) {
			t.counts[k] += ft.Pkts
		})
	}
	t.top = topByCount(t.counts, 1000)
	return t
}

// topByCount returns the k keys with the largest counts, largest first;
// ties break on the key's text form so the order is reproducible.
func topByCount[V uint64 | float64](counts map[instameasure.FlowKey]V, k int) []instameasure.FlowKey {
	type kv struct {
		k instameasure.FlowKey
		v V
	}
	// Only flows at or above the k-th largest count can rank.
	vals := make([]V, 0, len(counts))
	for _, v := range counts {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	var floor V
	if len(vals) > 0 {
		floor = vals[min(k, len(vals))-1]
	}
	var all []kv
	for key, v := range counts {
		if v >= floor {
			all = append(all, kv{key, v})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return keyLess(&all[i].k, &all[j].k)
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]instameasure.FlowKey, k)
	for i := range out {
		out[i] = all[i].k
	}
	return out
}

func keyLess(a, b *instameasure.FlowKey) bool {
	if c := bytes.Compare(a.SrcIP[:], b.SrcIP[:]); c != 0 {
		return c < 0
	}
	if c := bytes.Compare(a.DstIP[:], b.DstIP[:]); c != 0 {
		return c < 0
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

// recall is the share of the true top-k found in the reported top-k.
func (t *truth) recall(reported []instameasure.FlowKey, k int) float64 {
	want := map[instameasure.FlowKey]bool{}
	for _, key := range t.top[:k] {
		want[key] = true
	}
	hit := 0
	for i, key := range reported {
		if i < k && want[key] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// relErr is the mean |est−true|/true over the true top-k flows; est
// reports a flow's estimate, and a flow it does not report counts as 1.
func (t *truth) relErr(k int, est func(instameasure.FlowKey) (float64, bool)) float64 {
	var total float64
	for _, key := range t.top[:k] {
		tv := float64(t.counts[key])
		e, ok := est(key)
		if !ok {
			total++
			continue
		}
		total += math.Abs(e-tv) / tv
	}
	return total / float64(k)
}

// crossings returns, for every flow whose true packet count reaches
// threshold, the trace timestamp of the packet that takes it there.
func crossings(pkts []instameasure.Packet, threshold uint64) map[instameasure.FlowKey]int64 {
	seen := map[instameasure.FlowKey]uint64{}
	out := map[instameasure.FlowKey]int64{}
	for i := range pkts {
		k := pkts[i].Key
		seen[k]++
		if seen[k] == threshold {
			out[k] = pkts[i].TS
		}
	}
	return out
}

func keysOf(recs []instameasure.FlowRecord) []instameasure.FlowKey {
	out := make([]instameasure.FlowKey, len(recs))
	for i, r := range recs {
		out[i] = r.Key
	}
	return out
}
