// Package rcc implements the Recyclable Counter with Confinement (RCC) of
// Nyang and Shin (IEEE/ACM ToN 2016), the sketch primitive InstaMeasure's
// FlowRegulator is built from.
//
// Each flow owns a small *virtual vector* of VectorBits bit positions, all
// confined within a single machine word of a shared bit pool so that one
// memory access serves the whole vector. Every packet sets one uniformly
// random bit of the flow's vector. When few zero bits remain — the count of
// remaining zeros is the *noise level* — the vector is *saturated*: the
// number of packets it absorbed is estimated online from the noise level,
// the vector is recycled (its bits cleared), and the estimate is handed to
// the caller. Mice flows rarely saturate and are therefore retained inside
// the sketch; only flows that keep growing emit estimates.
package rcc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"instameasure/internal/flowhash"
	"instameasure/internal/prefetch"
)

// DecodeMethod selects how a noise level is converted to a packet-count
// estimate.
type DecodeMethod int

const (
	// DecodeCouponCollector estimates the expected number of uniform
	// throws needed to leave exactly z of v bins empty:
	// v·(H_v − H_z). This matches the stopping rule "saturate the first
	// time zeros reach the threshold" and is the default.
	DecodeCouponCollector DecodeMethod = iota + 1
	// DecodeLinearCounting uses the linear-counting MLE v·ln(v/z),
	// kept as an ablation of the decoding rule.
	DecodeLinearCounting
)

const wordBits = 64

// Config parameterizes a Counter.
type Config struct {
	// MemoryBytes is the size of the shared bit pool. It is rounded up to
	// a whole number of words; at least one word is allocated.
	MemoryBytes int
	// WordBits is the confinement word size — "32 or 64 bits depending on
	// processor" (Section III.D). 0 means 64. A 32-bit confinement halves
	// the span a virtual vector may occupy, raising collision noise
	// slightly but matching 32-bit switch CPUs.
	WordBits int
	// VectorBits is v, the virtual vector size per flow (2..WordBits).
	VectorBits int
	// NoiseMax is the saturation threshold: the vector saturates when at
	// most NoiseMax zero bits remain. 0 means derive the paper's default
	// (3 zero bits for an 8-bit vector, scaled as ⌈3v/8⌉, floor 1).
	NoiseMax int
	// NoiseMin is the lowest reportable noise level (observed noise below
	// it is clamped up). 0 means 1.
	NoiseMin int
	// Decode selects the estimation rule; 0 means DecodeCouponCollector.
	Decode DecodeMethod
	// Seed makes hashing and random bit selection deterministic.
	Seed uint64
}

// Validation errors.
var (
	ErrVectorBits = errors.New("rcc: VectorBits must be in [2, WordBits]")
	ErrWordBits   = errors.New("rcc: WordBits must be 32 or 64")
	ErrNoiseRange = errors.New("rcc: need 1 <= NoiseMin <= NoiseMax < VectorBits")
)

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.WordBits == 0 {
		cfg.WordBits = wordBits
	}
	if cfg.WordBits != 32 && cfg.WordBits != 64 {
		return cfg, fmt.Errorf("%w (got %d)", ErrWordBits, cfg.WordBits)
	}
	if cfg.VectorBits < 2 || cfg.VectorBits > cfg.WordBits {
		return cfg, fmt.Errorf("%w (got %d with %d-bit words)",
			ErrVectorBits, cfg.VectorBits, cfg.WordBits)
	}
	if cfg.MemoryBytes < 8 {
		cfg.MemoryBytes = 8
	}
	if cfg.NoiseMax == 0 {
		cfg.NoiseMax = (3*cfg.VectorBits + 7) / 8
		if cfg.NoiseMax < 1 {
			cfg.NoiseMax = 1
		}
	}
	if cfg.NoiseMin == 0 {
		cfg.NoiseMin = 1
	}
	if cfg.Decode == 0 {
		cfg.Decode = DecodeCouponCollector
	}
	if cfg.NoiseMin < 1 || cfg.NoiseMin > cfg.NoiseMax || cfg.NoiseMax >= cfg.VectorBits {
		return cfg, fmt.Errorf("%w (min=%d max=%d v=%d)",
			ErrNoiseRange, cfg.NoiseMin, cfg.NoiseMax, cfg.VectorBits)
	}
	return cfg, nil
}

// Location is a resolved virtual vector: the pool word holding it and the v
// bit positions inside that word. FlowRegulator resolves a Location once per
// packet and reuses it across both layers (the paper's hash-reuse design).
type Location struct {
	Word int
	Mask uint64
	Pos  [wordBits]uint8
	N    int
}

// Counter is one RCC instance over a private bit pool. It is not safe for
// concurrent use; the pipeline gives each worker its own Counter.
type Counter struct {
	cfg   Config
	words []uint64
	// nSpans and the span fields implement the 32-bit confinement option:
	// virtual vectors live inside one span of spanBits bits, so a 32-bit
	// CPU still reads the whole vector with one access. spanBits is 32 or
	// 64 and a word holds 2 or 1 spans, so Locate resolves a span to its
	// word and bit base with shifts and masks, never a division.
	nSpans    uint64
	spanIdx   uint64 // nSpans-1 when nSpans is a power of two, else 0
	spanPow2  bool   // reduce h by spanIdx rather than % nSpans
	wordShift uint   // log2(spans per word): span>>wordShift is the word
	subMask   uint64 // spans per word - 1: span&subMask is the span in its word
	spanShift uint   // log2(spanBits): the sub-span's bit base
	posMask   uint64 // spanBits-1: a draw's bit within the span
	spanFull  uint64 // spanBits low bits set: the span at base 0
	locSeed   uint64 // seeds the per-flow position stream
	rng       *flowhash.Rand
	decode    []float64

	encodes     uint64
	saturations uint64
}

// New builds a Counter from cfg.
func New(cfg Config) (*Counter, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := (full.MemoryBytes + 7) / 8
	spanBits := uint(full.WordBits)
	spansPerWord := uint64(wordBits / full.WordBits)
	nSpans := uint64(n) * spansPerWord
	c := &Counter{
		cfg:       full,
		words:     make([]uint64, n),
		nSpans:    nSpans,
		spanPow2:  nSpans&(nSpans-1) == 0,
		wordShift: uint(bits.TrailingZeros64(spansPerWord)),
		subMask:   spansPerWord - 1,
		spanShift: uint(bits.TrailingZeros(spanBits)),
		posMask:   uint64(spanBits - 1),
		spanFull:  ^uint64(0) >> (wordBits - spanBits),
		locSeed:   full.Seed + 0x9E3779B97F4A7C15,
		rng:       flowhash.NewRand(full.Seed ^ 0xC0FFEE),
		decode:    decodeTable(full),
	}
	if c.spanPow2 {
		c.spanIdx = nSpans - 1
	}
	return c, nil
}

// MustNew is New for statically-known-good configs; it panics on error and
// is intended for package setup in tests and benchmarks.
func MustNew(cfg Config) *Counter {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the counter's resolved configuration.
func (c *Counter) Config() Config { return c.cfg }

// MemoryBytes returns the bit pool size.
func (c *Counter) MemoryBytes() int { return len(c.words) * 8 }

// Words returns the number of pool words; two Counters with equal Words can
// share Locations.
func (c *Counter) Words() int { return len(c.words) }

// Encodes returns the number of Encode calls processed.
func (c *Counter) Encodes() uint64 { return c.encodes }

// Saturations returns how many encodes triggered saturation. The ratio
// Saturations/Encodes is the paper's regulation rate (output ips / input pps).
func (c *Counter) Saturations() uint64 { return c.saturations }

// Locate resolves the virtual vector for flow hash h into loc. The vector
// is confined within one span (WordBits bits) of one pool word.
//
//im:hotpath
func (c *Counter) Locate(h uint64, loc *Location) {
	var span uint64
	if c.spanPow2 {
		span = h & c.spanIdx
	} else {
		span = h % c.nSpans
	}
	loc.Word = int(span >> c.wordShift)
	base := uint(span&c.subMask) << c.spanShift
	n := c.cfg.VectorBits
	loc.N = n

	// Derive v distinct bit positions within the span from an independent
	// stream of h. Rejection sampling against the accumulating mask is
	// cheap for v well below the span size and exact for dense vectors
	// thanks to the select fallback below. spanBits is a power of two, so
	// masking a draw equals reducing it modulo spanBits.
	var mask uint64
	s := flowhash.Mix64(h ^ c.locSeed)
	positions := loc.Pos[:n]
	for i := range positions {
		var pos uint
		for tries := 0; ; tries++ {
			s = flowhash.Mix64(s)
			pos = base + uint(s&c.posMask)
			if mask&(1<<pos) == 0 {
				break
			}
			if tries == 8 {
				// Dense vector: pick the k-th free span position directly.
				free := (c.spanFull << base) &^ mask
				k := int(s % uint64(bits.OnesCount64(free)))
				pos = uint(selectBit(free, k))
				break
			}
		}
		positions[i] = uint8(pos)
		mask |= 1 << pos
	}
	loc.Mask = mask
}

// Encode records one packet of the flow with hash h. It reports the noise
// level and whether this packet saturated (and recycled) the vector.
func (c *Counter) Encode(h uint64) (noise int, saturated bool) {
	var loc Location
	c.Locate(h, &loc)
	return c.EncodeLoc(&loc)
}

// PrefetchLoc hints the cache line holding loc's pool word. The batched
// regulator resolves a burst of Locations first, prefetches every word,
// then encodes — overlapping the pool's DRAM misses across the burst.
// Advisory only; see internal/prefetch.
//
//im:hotpath
func (c *Counter) PrefetchLoc(loc *Location) {
	prefetch.T0(unsafe.Pointer(&c.words[loc.Word]))
}

// EncodeLoc is Encode with a pre-resolved Location.
//
//im:hotpath
func (c *Counter) EncodeLoc(loc *Location) (noise int, saturated bool) {
	c.encodes++
	w := &c.words[loc.Word]
	*w |= 1 << loc.Pos[c.rng.Intn(loc.N)]

	zeros := loc.N - bits.OnesCount64(*w&loc.Mask)
	if zeros > c.cfg.NoiseMax {
		return zeros, false
	}
	if zeros < c.cfg.NoiseMin {
		zeros = c.cfg.NoiseMin
	}
	*w &^= loc.Mask // recycle the vector
	c.saturations++
	return zeros, true
}

// Decode converts a saturation noise level to the estimated number of
// packets absorbed during that fill cycle.
func (c *Counter) Decode(noise int) float64 {
	if noise < 0 {
		noise = 0
	}
	if noise >= len(c.decode) {
		noise = len(c.decode) - 1
	}
	return c.decode[noise]
}

// EstimateResidual linear-counts the current (unsaturated) state of flow
// h's vector: the packets absorbed since the last recycle. Used when a
// measurement window closes to account for retained packets.
func (c *Counter) EstimateResidual(h uint64) float64 {
	var loc Location
	c.Locate(h, &loc)
	return c.EstimateResidualLoc(&loc)
}

// EstimateResidualLoc is EstimateResidual with a pre-resolved Location.
func (c *Counter) EstimateResidualLoc(loc *Location) float64 {
	w := c.words[loc.Word]
	zeros := loc.N - bits.OnesCount64(w&loc.Mask)
	if zeros == loc.N {
		return 0
	}
	if zeros == 0 {
		zeros = 1 // saturated-but-unrecycled state; clamp like Encode does
	}
	v := float64(loc.N)
	return v * math.Log(v/float64(zeros))
}

// RetentionCapacity reports the largest per-cycle estimate the counter can
// emit — the maximum number of packets one virtual vector retains before the
// flow must pass through (Fig. 8a's y-axis).
func (c *Counter) RetentionCapacity() float64 {
	return c.Decode(c.cfg.NoiseMin)
}

// Reset clears the bit pool and statistics.
func (c *Counter) Reset() {
	for i := range c.words {
		c.words[i] = 0
	}
	c.encodes = 0
	c.saturations = 0
}

// FillRatio reports the fraction of pool bits currently set — a congestion
// indicator for sizing experiments.
func (c *Counter) FillRatio() float64 {
	var ones int
	for _, w := range c.words {
		ones += bits.OnesCount64(w)
	}
	return float64(ones) / float64(len(c.words)*wordBits)
}

func decodeTable(cfg Config) []float64 {
	v := cfg.VectorBits
	t := make([]float64, v+1)
	switch cfg.Decode {
	case DecodeLinearCounting:
		fv := float64(v)
		for z := 1; z <= v; z++ {
			t[z] = fv * math.Log(fv/float64(z))
		}
		t[0] = fv*math.Log(fv) + fv // one past z=1, mirroring the CC tail
	default: // DecodeCouponCollector
		// t[z] = v·(H_v − H_z): expected throws to leave z of v bins empty.
		h := make([]float64, v+1)
		for k := 1; k <= v; k++ {
			h[k] = h[k-1] + 1/float64(k)
		}
		for z := 0; z <= v; z++ {
			t[z] = float64(v) * (h[v] - h[z])
		}
	}
	return t
}

// selectBit returns the index of the k-th (0-based) set bit of x.
func selectBit(x uint64, k int) int {
	for i := 0; i < wordBits; i++ {
		if x&(1<<uint(i)) != 0 {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return wordBits - 1
}
