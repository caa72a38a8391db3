// Command perfbench is the repository benchmark: it runs one named
// workload through the public instameasure API, checks the outputs
// against the workload's own ground truth, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A failed output check prints the failures on standard error, prints
// no metrics, and exits 1. WORKLOADS.md documents each workload, the
// layers it loads and bypasses, and which end-to-end metric each layer
// metric should move. Build and run it through run.sh.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// workdir holds span logs and store directories, relative to the
// repository root run.sh runs from.
const workdir = ".bench_build/perfbench"

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects everything one run reports. Checks that fail are
// appended to failures; any failure suppresses the metrics.
type result struct {
	attempted uint64
	failed    uint64
	failures  []string
	e2e       map[string]metric
	layer     map[string]metric
	info      map[string]any
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}, info: map[string]any{}}
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and, when failed, one failure.
func (r *result) op(n, failed uint64) {
	r.attempted += n
	r.failed += failed
}

func (r *result) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *result) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// setTail records a latency distribution as <base>_p50 and <base>_tail,
// and the tail's percentile and sample count next to it.
func (r *result) setTail(base string, samples []float64) {
	p50, tail, pct := tailStats(samples)
	r.setLayer(base+"_p50", "ms", p50)
	r.setLayer(base+"_tail", "ms", tail)
	r.setLayer(base+"_tail_pct", "percentile", pct)
	r.setLayer(base+"_samples", "count", float64(len(samples)))
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: pcap_ingest, skewed_cluster or fleet_epochs")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	o.trace = *traceFlag == 1

	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := newResult()
	res.info["host"] = hostInfo()
	res.info["workload"] = o.workload
	res.info["seed"] = o.seed
	if err := run(o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(res.failures) > 0 {
		for _, f := range res.failures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
		}
		os.Exit(1)
	}
	info, _ := json.Marshal(res.info)
	fmt.Printf("perfbench info: %s\n", info)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, res.attempted, res.failed, res.e2e}
	if o.trace {
		out.Metrics = res.layer
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

var workloads = map[string]func(options, *result) error{
	"pcap_ingest":    runPcapIngest,
	"skewed_cluster": runSkewedCluster,
	"fleet_epochs":   runFleetEpochs,
}

// hostInfo records what produced the numbers.
func hostInfo() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  model,
	}
}

// deriveSeed maps the workload seed and a purpose tag to a non-zero
// 64-bit seed (splitmix64 finalizer), so every meter, cluster and trace
// generator gets its own explicit, reproducible seed.
func deriveSeed(seed uint64, tag string) uint64 {
	x := seed
	for _, c := range tag {
		x = x*0x100000001B3 ^ uint64(c)
	}
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// e2eSamples collects one value of each end-to-end metric per timed,
// untraced pass; the printed value is the median.
type e2eSamples struct {
	pps, setups, heaps, recalls, relErrs []float64
}

func (e *e2eSamples) publish(r *result) {
	r.info["pass_pkts_per_s"] = e.pps
	r.setE2E("pkts_per_s", "pkt/s", median(e.pps))
	r.setE2E("setup_s", "s", median(e.setups))
	r.setE2E("peak_heap_mb", "MiB", median(e.heaps))
	r.setE2E("op_success_rate", "fraction", 1-float64(r.failed)/float64(r.attempted))
	r.setE2E("top100_recall", "fraction", median(e.recalls))
	r.setE2E("top1k_rel_err", "fraction", median(e.relErrs))
}

// passLoop runs one untimed warm-up pass, then passes until budget is
// spent (at least minPasses). pass receives the pass index (0 is the
// warm-up) and whether to record spans. With traced set, timed passes
// alternate untraced and traced, so both halves share the machine's
// state evenly.
func passLoop(budget time.Duration, minPasses int, traced bool, pass func(i int, traced bool) error) error {
	if err := pass(0, false); err != nil {
		return err
	}
	start := time.Now()
	for i := 1; i <= minPasses || time.Since(start) < budget; i++ {
		if err := pass(i, traced && i%2 == 0); err != nil {
			return err
		}
	}
	return nil
}

// heapSampler polls the Go heap while a pass runs and keeps the peak of
// heap memory occupied by objects, live or not yet swept.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: heapNow()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: heapMetric}}
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	if v := heapNow(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// heapBaseline collects garbage and returns the heap held before a pass
// (the workload's inputs), which peak_heap_mb excludes.
func heapBaseline() uint64 {
	runtime.GC()
	return heapNow()
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs (p in [0, 100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(idx, len(s)-1))]
}

// tailStats returns the median and the highest percentile of the ladder
// 99.99/99.9/99/90/75 that has at least ten samples beyond it, with that
// percentile (50 when even p75 has fewer than ten samples beyond it).
func tailStats(xs []float64) (p50, tail, pct float64) {
	p50 = median(xs)
	pct = 50
	for _, p := range []float64{99.99, 99.9, 99, 90, 75} {
		if float64(len(xs))*(100-p)/100 >= 10 {
			pct = p
			break
		}
	}
	return p50, percentile(xs, pct), pct
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
